#pragma once

#include "automata/automaton.hpp"

namespace relm::testing {

// Hopcroft's O(n k log n) partition refinement, after trimming, ending in the
// same BFS renumbering as automata::minimize: the reference that minimize's
// post-order pass (acyclic inputs) and Moore refinement (cyclic inputs) must
// equal structurally (MinimizationAgreement, fuzz_algebra_compile). It loses
// to Moore on every input measured (EXPERIMENTS.md).
automata::Dfa minimize_hopcroft(const automata::Dfa& input);

}  // namespace relm::testing
