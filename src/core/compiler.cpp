#include "core/compiler.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "automata/byte_classes.hpp"
#include "automata/determinize.hpp"
#include "automata/finite.hpp"
#include "automata/ops.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"

namespace relm::core {

namespace {

using automata::Dfa;
using automata::StateId;
using tokenizer::BpeTokenizer;
using tokenizer::TokenId;

// Appendix B, Algorithms 1 + 2: for every DFA state and every vocabulary
// token, walk the token's string from that state; surviving walks become
// shortcut edges. O(V * k * m_max), exactly the paper's bound. Each byte is
// one lookup in a (state x byte class) table of `source` rather than a
// binary search of the state's edges, and a token holding a byte that lies
// on no edge (class 0) dies from every state. A trie-sharing walk (a
// cross-check in tests/test_core.cpp) is faster only on long literals
// compiled with all encodings (EXPERIMENTS.md). `source` must be trim.
Dfa build_all_tokens(const Dfa& source, const BpeTokenizer& tok) {
  RELM_TRACE_SPAN("compile.all_tokens");
  automata::ByteClasses classes(source.num_symbols());
  classes.split_runs(source);
  const std::size_t width = classes.size();
  std::vector<StateId> table(source.num_states() * width, automata::kNoState);
  for (StateId s = 0; s < source.num_states(); ++s) {
    for (const automata::Edge& e : source.edges(s)) {
      table[s * width + classes.of(e.symbol)] = e.to;
    }
  }

  Dfa out(static_cast<automata::Symbol>(tok.vocab_size()));
  for (StateId s = 0; s < source.num_states(); ++s) {
    out.add_state(source.is_final(s));
  }
  out.set_start(source.start());
  std::vector<std::uint32_t> word_classes;
  for (TokenId token = 0; token < tok.vocab_size(); ++token) {
    const std::string& word = tok.token_string(token);
    if (word.empty()) continue;  // EOS
    word_classes.clear();
    for (unsigned char c : word) word_classes.push_back(classes.of(c));
    if (std::ranges::find(word_classes, 0u) != word_classes.end()) continue;
    for (StateId origin = 0; origin < source.num_states(); ++origin) {
      StateId state = origin;
      for (std::uint32_t c : word_classes) {
        state = table[state * width + c];
        if (state == automata::kNoState) break;
      }
      if (state != automata::kNoState) out.add_edge(origin, token, state);
    }
  }
  return automata::trim(std::move(out));
}

// §3.2 option 1 over a finite language's strings: encode each
// canonically, sort the encodings, and build their minimal DFA in one pass
// (Daciuk et al. 2000). Distinct strings have distinct encodings.
Dfa build_canonical(std::span<const std::string> strings,
                    const BpeTokenizer& tok) {
  RELM_TRACE_SPAN("compile.canonical_enumeration");
  std::vector<std::vector<automata::Symbol>> encodings;
  encodings.reserve(strings.size());
  for (const std::string& s : strings) encodings.push_back(tok.encode(s));
  std::sort(encodings.begin(), encodings.end());
  return automata::minimal_dfa(encodings,
                               static_cast<automata::Symbol>(tok.vocab_size()));
}

}  // namespace

TokenAutomaton compile_token_automaton(const automata::Dfa& char_dfa,
                                       const tokenizer::BpeTokenizer& tok,
                                       TokenizationStrategy strategy,
                                       std::size_t enumeration_budget) {
  RELM_TRACE_SPAN("compile.token_automaton");
  if (char_dfa.num_symbols() != 256) {
    throw relm::QueryError("token compilation requires a byte-level automaton");
  }
  TokenAutomaton result{automata::Dfa(1), false, {}};
  // One trim serves every construction below.
  automata::Dfa trimmed = automata::trim(char_dfa);
  if (strategy == TokenizationStrategy::kAllTokens) {
    result.dfa = build_all_tokens(trimmed, tok);
    RELM_DCHECK(result.dfa.num_symbols() == tok.vocab_size(),
                "token automaton alphabet must equal the vocabulary");
    return result;
  }

  // Canonical strategy.
  std::optional<std::uint64_t> count = automata::finite_string_count(trimmed);
  if (count && *count <= enumeration_budget) {
    const std::vector<std::string> strings = automata::enumerate_strings(
        trimmed, *count, /*max_len=*/trimmed.num_states() + 1);
    RELM_DCHECK(strings.size() == *count,
                "canonical enumeration and finite_string_count disagree on |L|");
    result.dfa = build_canonical(strings, tok);
  } else {
    result.dfa = build_all_tokens(trimmed, tok);
    result.dynamic_canonical = true;
  }
  RELM_DCHECK(result.dfa.num_symbols() == tok.vocab_size(),
              "token automaton alphabet must equal the vocabulary");
  return result;
}

TokenAutomaton canonical_token_automaton(std::span<const std::string> strings,
                                         const tokenizer::BpeTokenizer& tok) {
  RELM_TRACE_SPAN("compile.token_automaton");
  return TokenAutomaton{build_canonical(strings, tok), false, {}};
}

TokenAutomaton epsilon_token_automaton(const tokenizer::BpeTokenizer& tok) {
  automata::Dfa dfa(static_cast<automata::Symbol>(tok.vocab_size()));
  dfa.set_start(dfa.add_state(true));
  return TokenAutomaton{std::move(dfa), false, {}};
}

}  // namespace relm::core
