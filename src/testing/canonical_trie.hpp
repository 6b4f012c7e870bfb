#pragma once

#include <span>
#include <vector>

#include "automata/automaton.hpp"
#include "tokenizer/bpe.hpp"

namespace relm::testing {

// The trie of a set of sequences, in any order and with duplicates: one
// state per distinct prefix, each symbol found or added with one Dfa::next
// lookup. Not minimal; minimize() or minimize_hopcroft() of it is the
// reference that automata::minimal_dfa must equal structurally (MinimalDfa,
// fuzz_algebra_compile).
automata::Dfa trie_dfa(std::span<const std::vector<automata::Symbol>> sequences,
                       automata::Symbol num_symbols);

// §3.2 option 1 as the canonical lift built it before minimal_dfa: enumerate
// the finite language of `chars` (any DFA; trimmed here), encode each string
// canonically, build the token trie and minimize it. The reference for
// core::canonical_token_automaton and compile_token_automaton's enumeration
// path (CanonicalLift, the pipeline's reference chain). Throws relm::Error
// on an infinite language.
automata::Dfa canonical_lift_by_trie(const automata::Dfa& chars,
                                     const tokenizer::BpeTokenizer& tok);

}  // namespace relm::testing
