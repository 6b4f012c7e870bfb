#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/regex_ast.hpp"

namespace relm::automata {

// Language operations. All results are trim but not necessarily minimal;
// call minimize() when canonical form matters. Inputs must share an alphabet
// size.

// L(a) ∩ L(b): on-the-fly product construction over reachable pairs.
Dfa intersect(const Dfa& a, const Dfa& b);

// Complement within `universe`^*: strings over the given symbol set not in
// L(a). The automaton is first completed with a dead state over `universe`.
Dfa complement(const Dfa& a, const ByteSet& universe);

// L(a) \ L(b), with b complemented over `universe`.
Dfa difference(const Dfa& a, const Dfa& b, const ByteSet& universe);

bool is_empty_language(const Dfa& a);

// Decision procedure for language equality: a product walk over reachable
// state pairs, treating a missing transition as the implicit dead state.
// Returns a shortest symbol sequence accepted by exactly one of the two
// automata, or nullopt when the languages are equal. O(|a|·|b|) states, no
// minimization required.
std::optional<std::vector<Symbol>> dfa_distinguishing_word(const Dfa& a,
                                                           const Dfa& b);

// True iff a and b accept the same language (dfa_distinguishing_word finds
// no witness).
bool dfa_equivalent(const Dfa& a, const Dfa& b);

// True iff a and b accept the same language. Alias for dfa_equivalent, kept
// for existing call sites.
bool equivalent(const Dfa& a, const Dfa& b);

// |L(a)|, saturating at UINT64_MAX, or nullopt when L(a) is infinite. `a`
// must be trim (as trim() and minimize() return it): on a trim automaton a
// reachable cycle means an infinite language, while a cycle through dead
// states would read as one too. One DFS post-order pass over the states
// (acyclic_post_order) decides finiteness and counts the accepting paths.
std::optional<std::uint64_t> finite_string_count(const Dfa& a);

// Number of accepted strings with length <= max_len, saturating at
// UINT64_MAX. For finite languages, a max_len >= num_states is exhaustive.
// Loops once per length; finite_string_count counts a finite language in one
// pass.
std::uint64_t count_strings(const Dfa& a, std::size_t max_len);

// Enumerates accepted strings shortest-first (and lexicographically within a
// length), stopping at `limit` strings or length > max_len. Requires the
// byte alphabet. Dead states are explored like live ones, so pass a trim
// automaton (as trim() and minimize() return it).
std::vector<std::string> enumerate_strings(const Dfa& a, std::size_t limit,
                                           std::size_t max_len);

// Length of the shortest accepted string, or nullopt for the empty language.
std::optional<std::size_t> shortest_string_length(const Dfa& a);

}  // namespace relm::automata
