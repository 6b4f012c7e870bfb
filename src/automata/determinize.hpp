#pragma once

#include <optional>
#include <vector>

#include "automata/automaton.hpp"

namespace relm::automata {

// Subset construction with epsilon closure. Only reachable subsets are
// materialized, so the output size tracks the live part of the language
// rather than the worst-case 2^n. `max_states` caps the number of subsets
// materialized; exceeding it throws relm::StateBudgetError (0 = unlimited).
Dfa determinize(const Nfa& nfa, std::size_t max_states = 0);

// Removes states that are unreachable from the start or cannot reach a final
// state. The result is "trim"; on a trim DFA, a cycle implies an infinite
// language. A DFA whose language is empty trims to a single non-final start
// state with no edges. A DFA that is already trim comes back as it is
// (moved, when passed an rvalue), numbering included.
Dfa trim(Dfa dfa);

// The states reachable from the start in DFS post-order (every state after
// all of its successors), or nullopt when the DFS meets a back edge, i.e. a
// cycle is reachable. One O(states + edges) pass; minimize and
// finite_string_count (ops.hpp) share it.
std::optional<std::vector<StateId>> acyclic_post_order(const Dfa& dfa);

// Minimizes a (partial) DFA after trimming. The input picks the algorithm:
// an acyclic DFA (a finite language) gets each state's class in one
// post-order pass (Revuz 1992) — a state's signature is its final bit and
// one (symbol, class of target) pair per edge, and post-order classifies
// every target before its source — while a cyclic one runs Moore's
// partition refinement over the same signatures. Both yield the unique
// minimal DFA. The result is renumbered in BFS order with per-state edges
// sorted by symbol, so two minimized DFAs accept the same language iff they
// are structurally equal (operator==): minimal DFAs are unique up to
// isomorphism, and BFS numbering fixes the isomorphism.
Dfa minimize(const Dfa& dfa);

}  // namespace relm::automata
