#pragma once

#include "automata/automaton.hpp"
#include "automata/regex_ast.hpp"

namespace relm::automata {

// Levenshtein expansion (§3.4): transduces a language L into the language of
// all strings within `distance` character edits (insertion, deletion,
// substitution) of some string in L. This is the composition of L with a
// Levenshtein transducer (Hassan et al., 2008); higher distances correspond
// to chained compositions, which this function performs in one pass by
// tracking the edit budget in the state.
//
// `alphabet` is the symbol set insertions and substitutions may introduce
// (the paper's experiments operate over ASCII text; the default used by the
// preprocessor is printable ASCII).
//
// The result is determinized and minimized.
Dfa levenshtein_expand(const Dfa& language, int distance, const ByteSet& alphabet);

// The NFA levenshtein_expand determinizes: state (q, e) is "source automaton
// at q, having spent e edits", with match, insert, delete (epsilon) and
// substitute moves.
Nfa levenshtein_nfa(const Dfa& language, int distance, const ByteSet& alphabet);

// Convenience: edit distance between two strings (used by tests to
// brute-force-check levenshtein_expand).
std::size_t edit_distance(std::string_view a, std::string_view b);

}  // namespace relm::automata
