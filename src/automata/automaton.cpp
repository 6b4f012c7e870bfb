#include "automata/automaton.hpp"

#include <algorithm>
#include <string_view>

namespace relm::automata {

void Dfa::add_edge(StateId from, Symbol symbol, StateId to) {
  auto& list = edges_[from];
  if (list.empty() || list.back().symbol < symbol) {
    list.push_back(Edge{symbol, to});
    return;
  }
  auto it = std::lower_bound(
      list.begin(), list.end(), symbol,
      [](const Edge& e, Symbol s) { return e.symbol < s; });
  if (it != list.end() && it->symbol == symbol) {
    it->to = to;
  } else {
    list.insert(it, Edge{symbol, to});
  }
}

StateId Dfa::next(StateId from, Symbol symbol) const {
  const auto& list = edges_[from];
  auto it = std::lower_bound(
      list.begin(), list.end(), symbol,
      [](const Edge& e, Symbol s) { return e.symbol < s; });
  if (it != list.end() && it->symbol == symbol) return it->to;
  return kNoState;
}

std::size_t Dfa::num_edges() const {
  std::size_t n = 0;
  for (const auto& list : edges_) n += list.size();
  return n;
}

bool Dfa::accepts(std::span<const Symbol> input) const {
  StateId state = start_;
  for (Symbol s : input) {
    state = next(state, s);
    if (state == kNoState) return false;
  }
  return is_final(state);
}

bool Dfa::accepts_bytes(std::string_view input) const {
  StateId state = start_;
  for (unsigned char c : input) {
    state = next(state, static_cast<Symbol>(c));
    if (state == kNoState) return false;
  }
  return is_final(state);
}

Dfa Dfa::from_parts(Symbol num_symbols, StateId start,
                    std::vector<std::vector<Edge>> edge_lists,
                    std::vector<bool> final_states) {
  Dfa dfa(num_symbols);
  dfa.start_ = start;
  dfa.edges_ = std::move(edge_lists);
  dfa.final_ = std::move(final_states);
  dfa.final_.resize(dfa.edges_.size());
  return dfa;
}

bool operator==(const Dfa& a, const Dfa& b) {
  return a.num_symbols_ == b.num_symbols_ && a.start_ == b.start_ &&
         a.final_ == b.final_ && a.edges_ == b.edges_;
}

}  // namespace relm::automata
