#pragma once

#include <cstddef>

#include "automata/automaton.hpp"

namespace relm::testing {

// Subset construction that steps every subset once per symbol leaving it:
// the reference that automata::determinize, which steps once per byte class,
// must equal structurally (same numbering, same budget failure point) on
// every NFA (DeterminizeByClass, fuzz_algebra_compile). `max_states` caps the
// subsets materialized as in determinize; exceeding it throws
// relm::StateBudgetError (0 = unlimited).
automata::Dfa determinize_per_byte(const automata::Nfa& nfa,
                                   std::size_t max_states = 0);

}  // namespace relm::testing
