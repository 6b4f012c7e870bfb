#include "testing/canonical_trie.hpp"

#include <optional>
#include <string>

#include "automata/determinize.hpp"
#include "automata/ops.hpp"
#include "util/errors.hpp"

namespace relm::testing {

using automata::Dfa;
using automata::StateId;
using automata::Symbol;

Dfa trie_dfa(std::span<const std::vector<Symbol>> sequences, Symbol num_symbols) {
  Dfa out(num_symbols);
  const StateId root = out.add_state(false);
  out.set_start(root);
  for (const std::vector<Symbol>& sequence : sequences) {
    StateId cur = root;
    for (Symbol symbol : sequence) {
      StateId next = out.next(cur, symbol);
      if (next == automata::kNoState) {
        next = out.add_state(false);
        out.add_edge(cur, symbol, next);
      }
      cur = next;
    }
    out.set_final(cur);
  }
  return out;
}

Dfa canonical_lift_by_trie(const Dfa& chars, const tokenizer::BpeTokenizer& tok) {
  const Dfa trimmed = automata::trim(chars);
  const std::optional<std::uint64_t> count =
      automata::finite_string_count(trimmed);
  if (!count) throw relm::Error("canonical_lift_by_trie: infinite language");
  std::vector<std::vector<Symbol>> encodings;
  for (const std::string& s : automata::enumerate_strings(
           trimmed, *count, /*max_len=*/trimmed.num_states() + 1)) {
    encodings.push_back(tok.encode(s));
  }
  return automata::minimize(
      trie_dfa(encodings, static_cast<Symbol>(tok.vocab_size())));
}

}  // namespace relm::testing
