#include "testing/hopcroft.hpp"

#include <deque>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/determinize.hpp"

namespace relm::testing {

using automata::Dfa;
using automata::Edge;
using automata::kNoState;
using automata::StateId;
using automata::Symbol;
using automata::trim;

namespace {

// Renumbers states in BFS-from-start order over symbol-sorted edges, the
// canonical numbering minimize() ends with, so the two minimizers' outputs
// compare structurally.
Dfa bfs_renumber(const Dfa& dfa) {
  std::vector<StateId> remap(dfa.num_states(), kNoState);
  std::vector<StateId> order{dfa.start()};
  remap[dfa.start()] = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const Edge& e : dfa.edges(order[i])) {
      if (remap[e.to] == kNoState) {
        remap[e.to] = static_cast<StateId>(order.size());
        order.push_back(e.to);
      }
    }
  }
  Dfa out(dfa.num_symbols());
  for (StateId s : order) out.add_state(dfa.is_final(s));
  for (StateId s : order) {
    for (const Edge& e : dfa.edges(s)) {
      out.add_edge(remap[s], e.symbol, remap[e.to]);
    }
  }
  out.set_start(0);
  return out;
}

}  // namespace

Dfa minimize_hopcroft(const Dfa& input) {
  Dfa dfa = trim(input);
  const std::size_t n = dfa.num_states();
  if (n <= 1) return bfs_renumber(dfa);

  // Reverse edges grouped by symbol: inverse[symbol] -> (to -> [from...]).
  // Only symbols that actually occur are materialized.
  std::unordered_map<Symbol, std::unordered_map<StateId, std::vector<StateId>>>
      inverse;
  for (StateId s = 0; s < n; ++s) {
    for (const Edge& e : dfa.edges(s)) inverse[e.symbol][e.to].push_back(s);
  }

  // Partition as block lists plus membership index.
  std::vector<std::vector<StateId>> blocks;
  std::vector<std::size_t> block_of(n);
  {
    std::vector<StateId> finals, nonfinals;
    for (StateId s = 0; s < n; ++s) {
      (dfa.is_final(s) ? finals : nonfinals).push_back(s);
    }
    if (!finals.empty()) blocks.push_back(std::move(finals));
    if (!nonfinals.empty()) blocks.push_back(std::move(nonfinals));
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      for (StateId s : blocks[b]) block_of[s] = b;
    }
  }

  // Worklist of (block index, symbol). Seeding with every (block, symbol)
  // pair is the textbook-correct simplification; the smaller-half rule below
  // keeps the refinement loop O(n k log n).
  std::deque<std::pair<std::size_t, Symbol>> work;
  std::set<std::pair<std::size_t, Symbol>> queued;
  auto enqueue = [&](std::size_t block, Symbol symbol) {
    if (queued.insert({block, symbol}).second) work.push_back({block, symbol});
  };
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (const auto& [symbol, _] : inverse) enqueue(b, symbol);
  }

  std::vector<char> marked(n, 0);
  while (!work.empty()) {
    auto [splitter, symbol] = work.front();
    work.pop_front();
    queued.erase({splitter, symbol});

    // X = states with a `symbol`-transition into the splitter block.
    std::vector<StateId> x;
    const auto& by_to = inverse[symbol];
    for (StateId t : blocks[splitter]) {
      auto it = by_to.find(t);
      if (it != by_to.end()) x.insert(x.end(), it->second.begin(), it->second.end());
    }
    if (x.empty()) continue;
    for (StateId s : x) marked[s] = 1;

    // Find blocks partially covered by X and split them.
    std::set<std::size_t> touched;
    for (StateId s : x) touched.insert(block_of[s]);
    for (std::size_t b : touched) {
      std::vector<StateId> inside, outside;
      for (StateId s : blocks[b]) (marked[s] ? inside : outside).push_back(s);
      if (inside.empty() || outside.empty()) continue;
      // Replace b with the larger part; the smaller becomes a new block.
      bool inside_smaller = inside.size() <= outside.size();
      std::vector<StateId>& small = inside_smaller ? inside : outside;
      std::vector<StateId>& large = inside_smaller ? outside : inside;
      std::size_t fresh = blocks.size();
      for (StateId s : small) block_of[s] = fresh;
      blocks.push_back(std::move(small));
      blocks[b] = std::move(large);
      // Hopcroft's rule: the smaller half always joins the worklist; when
      // (b, sym) is still pending it now denotes the larger half, so both
      // halves end up processed.
      for (const auto& [sym, _] : inverse) enqueue(fresh, sym);
    }
    for (StateId s : x) marked[s] = 0;
  }

  // Rebuild the quotient automaton.
  Dfa merged(dfa.num_symbols());
  for (std::size_t b = 0; b < blocks.size(); ++b) merged.add_state(false);
  for (StateId s = 0; s < n; ++s) {
    if (dfa.is_final(s)) merged.set_final(block_of[s]);
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    StateId representative = blocks[b].front();
    for (const Edge& e : dfa.edges(representative)) {
      merged.add_edge(static_cast<StateId>(b), e.symbol,
                      static_cast<StateId>(block_of[e.to]));
    }
  }
  merged.set_start(static_cast<StateId>(block_of[dfa.start()]));
  return bfs_renumber(trim(merged));
}

}  // namespace relm::testing
