#include "automata/levenshtein.hpp"

#include <algorithm>
#include <string_view>
#include <vector>

#include "automata/determinize.hpp"
#include "util/errors.hpp"

namespace relm::automata {

Dfa levenshtein_expand(const Dfa& language, int distance, const ByteSet& alphabet) {
  return minimize(determinize(levenshtein_nfa(language, distance, alphabet)));
}

Nfa levenshtein_nfa(const Dfa& language, int distance, const ByteSet& alphabet) {
  if (distance < 0) throw relm::Error("levenshtein distance must be >= 0");
  if (language.num_symbols() != 256) {
    throw relm::Error("levenshtein_expand requires a byte-alphabet automaton");
  }
  const std::size_t n = language.num_states();
  const int budgets = distance + 1;

  // NFA state (q, e) = "source automaton at q, having spent e edits".
  Nfa nfa(256);
  std::vector<StateId> ids(n * budgets);
  for (std::size_t q = 0; q < n; ++q) {
    for (int e = 0; e < budgets; ++e) {
      ids[q * budgets + e] = nfa.add_state(language.is_final(static_cast<StateId>(q)));
    }
  }
  auto id = [&](StateId q, int e) { return ids[q * budgets + e]; };

  std::vector<unsigned> alpha;
  for_each_byte(alphabet, [&](unsigned b) { alpha.push_back(b); });

  for (StateId q = 0; q < n; ++q) {
    for (int e = 0; e < budgets; ++e) {
      // Exact match: consume the edge's own symbol.
      for (const Edge& edge : language.edges(q)) {
        nfa.add_edge(id(q, e), edge.symbol, id(edge.to, e));
      }
      if (e + 1 < budgets) {
        // Insertion: output has an extra character; consume any alphabet
        // symbol without advancing in the source automaton.
        for (unsigned b : alpha) {
          nfa.add_edge(id(q, e), b, id(q, e + 1));
        }
        for (const Edge& edge : language.edges(q)) {
          // Deletion: a source character is dropped from the output; advance
          // without consuming (epsilon).
          nfa.add_edge(id(q, e), kEpsilon, id(edge.to, e + 1));
          // Substitution: advance while consuming any alphabet symbol
          // (consuming the matching symbol is harmless — it only wastes one
          // unit of budget on a path a cheaper exact-match path also covers).
          for (unsigned b : alpha) {
            nfa.add_edge(id(q, e), b, id(edge.to, e + 1));
          }
        }
      }
    }
  }
  nfa.set_start(id(language.start(), 0));
  return nfa;
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace relm::automata
