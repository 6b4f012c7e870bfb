#pragma once

#include <span>
#include <string>

#include "automata/automaton.hpp"
#include "core/query.hpp"
#include "core/token_masks.hpp"
#include "tokenizer/bpe.hpp"

namespace relm::core {

// A token-space automaton (the paper's "LLM Automaton", §3.2): states are
// inherited from the character automaton, symbols are BPE token ids. Always
// deterministic: from a fixed state, a token's character walk is unique in a
// character DFA.
struct TokenAutomaton {
  automata::Dfa dfa;

  // True when the canonical-encodings strategy could not be materialized
  // exactly (infinite or over-budget language): `dfa` then holds the full
  // set of encodings and the executor must prune non-canonical paths
  // dynamically during traversal (§3.2, "backtracking during runtime").
  bool dynamic_canonical = false;

  // Per-state token bitmasks + CSR edge index (the token_masks pipeline
  // pass). Empty when masks were skipped (memory budget) — executors then
  // use the per-edge expansion path.
  TokenMaskTable masks;
};

// Compiles a character-level DFA into a token automaton.
//
// kAllTokens implements the shortcut-edge construction of Appendix B
// literally: for every automaton state and every vocabulary token, the
// token's string is walked through the character DFA; surviving walks become
// token edges — O(V · k · m_max), the paper's bound.
//
// kCanonicalTokens implements §3.2's options in order of preference:
//   1. if the language is finite and has at most `enumeration_budget`
//      strings, enumerate them and build the exact canonical automaton
//      (canonical_token_automaton below);
//   2. otherwise fall back to the full-encodings automaton with
//      dynamic_canonical = true.
TokenAutomaton compile_token_automaton(const automata::Dfa& char_dfa,
                                       const tokenizer::BpeTokenizer& tok,
                                       TokenizationStrategy strategy,
                                       std::size_t enumeration_budget = 50000);

// §3.2 option 1 over a finite language's sorted, unique strings: each is
// encoded canonically, and the minimal DFA of the sorted encodings is built
// in one pass (automata::minimal_dfa). The result is the one
// compile_token_automaton gives for any DFA of that language within the
// enumeration budget.
TokenAutomaton canonical_token_automaton(std::span<const std::string> strings,
                                         const tokenizer::BpeTokenizer& tok);

// The trivial token automaton accepting only the empty string (used for
// empty prefixes).
TokenAutomaton epsilon_token_automaton(const tokenizer::BpeTokenizer& tok);

}  // namespace relm::core
