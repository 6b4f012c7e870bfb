#include "testing/determinize_per_byte.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "util/errors.hpp"

namespace relm::testing {

using automata::Dfa;
using automata::Edge;
using automata::kEpsilon;
using automata::Nfa;
using automata::StateId;
using automata::Symbol;

namespace {

// Epsilon closure of a state set, returned sorted and deduplicated.
std::vector<StateId> epsilon_closure(const Nfa& nfa, std::vector<StateId> states) {
  std::vector<bool> seen(nfa.num_states(), false);
  std::deque<StateId> work;
  for (StateId s : states) {
    if (!seen[s]) {
      seen[s] = true;
      work.push_back(s);
    }
  }
  std::vector<StateId> closure;
  while (!work.empty()) {
    StateId s = work.front();
    work.pop_front();
    closure.push_back(s);
    for (const Edge& e : nfa.edges(s)) {
      if (e.symbol == kEpsilon && !seen[e.to]) {
        seen[e.to] = true;
        work.push_back(e.to);
      }
    }
  }
  std::sort(closure.begin(), closure.end());
  return closure;
}

}  // namespace

Dfa determinize_per_byte(const Nfa& nfa, std::size_t max_states) {
  Dfa dfa(nfa.num_symbols());
  std::map<std::vector<StateId>, StateId> subset_ids;
  std::deque<std::vector<StateId>> work;

  auto intern = [&](std::vector<StateId> subset) -> StateId {
    auto it = subset_ids.find(subset);
    if (it != subset_ids.end()) return it->second;
    if (max_states != 0 && dfa.num_states() >= max_states) {
      throw relm::StateBudgetError(
          "subset construction exceeded the determinization state budget",
          max_states);
    }
    bool is_final = false;
    for (StateId s : subset) {
      if (nfa.is_final(s)) {
        is_final = true;
        break;
      }
    }
    StateId id = dfa.add_state(is_final);
    subset_ids.emplace(subset, id);
    work.push_back(std::move(subset));
    return id;
  };

  dfa.set_start(intern(epsilon_closure(nfa, {nfa.start()})));

  while (!work.empty()) {
    std::vector<StateId> subset = std::move(work.front());
    work.pop_front();
    StateId from_id = subset_ids.at(subset);

    // Group successor NFA states by symbol, then step the symbols in
    // ascending order for reproducible state numbering.
    std::unordered_map<Symbol, std::vector<StateId>> moves;
    for (StateId s : subset) {
      for (const Edge& e : nfa.edges(s)) {
        if (e.symbol != kEpsilon) moves[e.symbol].push_back(e.to);
      }
    }
    std::vector<Symbol> symbols;
    symbols.reserve(moves.size());
    for (const auto& [sym, _] : moves) symbols.push_back(sym);
    std::sort(symbols.begin(), symbols.end());

    for (Symbol sym : symbols) {
      StateId to_id = intern(epsilon_closure(nfa, std::move(moves[sym])));
      dfa.add_edge(from_id, sym, to_id);
    }
  }
  return dfa;
}

}  // namespace relm::testing
