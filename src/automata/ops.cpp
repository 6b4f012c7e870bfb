#include "automata/ops.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>

#include "automata/determinize.hpp"
#include "util/errors.hpp"

namespace relm::automata {
namespace {

using StatePair = std::pair<StateId, StateId>;

// Completes the automaton over `universe` by adding a dead state.
Dfa complete(const Dfa& a, const ByteSet& universe) {
  Dfa out(a.num_symbols());
  for (StateId s = 0; s < a.num_states(); ++s) out.add_state(a.is_final(s));
  for (StateId s = 0; s < a.num_states(); ++s) {
    for (const Edge& e : a.edges(s)) out.add_edge(s, e.symbol, e.to);
  }
  out.set_start(a.start());
  StateId dead = out.add_state(false);
  for (StateId s = 0; s < out.num_states(); ++s) {
    for (unsigned b = 0; b < 256 && b < a.num_symbols(); ++b) {
      if (!universe.test(b)) continue;
      if (out.next(s, b) == kNoState) out.add_edge(s, b, dead);
    }
  }
  RELM_DCHECK(out.num_states() == a.num_states() + 1,
              "complete: exactly one dead state is added");
  return out;
}

}  // namespace

Dfa intersect(const Dfa& a, const Dfa& b) {
  if (a.num_symbols() != b.num_symbols()) {
    throw relm::Error("product of automata over different alphabets");
  }
  RELM_DCHECK(a.start() < a.num_states() && b.start() < b.num_states(),
              "intersect: input start states out of range");
  Dfa out(a.num_symbols());
  std::map<StatePair, StateId> ids;
  std::deque<StatePair> work;

  auto intern = [&](StatePair p) {
    auto it = ids.find(p);
    if (it != ids.end()) return it->second;
    StateId id = out.add_state(a.is_final(p.first) && b.is_final(p.second));
    ids.emplace(p, id);
    work.push_back(p);
    return id;
  };

  StateId start = intern({a.start(), b.start()});
  out.set_start(start);

  while (!work.empty()) {
    StatePair p = work.front();
    work.pop_front();
    StateId from = ids.at(p);
    // Walk the two sorted edge lists in step.
    auto ea = a.edges(p.first);
    auto eb = b.edges(p.second);
    std::size_t i = 0, j = 0;
    while (i < ea.size() && j < eb.size()) {
      if (ea[i].symbol < eb[j].symbol) {
        ++i;
      } else if (ea[i].symbol > eb[j].symbol) {
        ++j;
      } else {
        StateId to = intern({ea[i].to, eb[j].to});
        out.add_edge(from, ea[i].symbol, to);
        ++i;
        ++j;
      }
    }
  }
  return trim(std::move(out));
}

Dfa complement(const Dfa& a, const ByteSet& universe) {
  Dfa completed = complete(a, universe);
  for (StateId s = 0; s < completed.num_states(); ++s) {
    completed.set_final(s, !completed.is_final(s));
  }
  // Do not trim before flipping finality is done; trim now.
  return trim(std::move(completed));
}

Dfa difference(const Dfa& a, const Dfa& b, const ByteSet& universe) {
  return intersect(a, complement(b, universe));
}

bool is_empty_language(const Dfa& a) {
  // Empty iff no final state is reachable from the start.
  std::vector<bool> seen(a.num_states(), false);
  std::vector<StateId> work{a.start()};
  seen[a.start()] = true;
  while (!work.empty()) {
    StateId s = work.back();
    work.pop_back();
    if (a.is_final(s)) return false;
    for (const Edge& e : a.edges(s)) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        work.push_back(e.to);
      }
    }
  }
  return true;
}

std::optional<std::vector<Symbol>> dfa_distinguishing_word(const Dfa& a,
                                                           const Dfa& b) {
  if (a.num_symbols() != b.num_symbols()) {
    throw relm::Error("dfa_distinguishing_word over different alphabets");
  }
  // BFS over reachable pairs; kNoState stands in for the implicit dead
  // state on either side. Breadth-first order makes the witness shortest.
  struct Visit {
    StatePair pair;
    std::size_t parent;  // index into `visits`; npos for the root
    Symbol via;
  };
  constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  auto is_final = [](const Dfa& d, StateId s) {
    return s != kNoState && d.is_final(s);
  };

  std::vector<Visit> visits;
  std::map<StatePair, std::size_t> seen;
  std::deque<std::size_t> work;

  auto visit = [&](StatePair p, std::size_t parent, Symbol via) {
    if (seen.contains(p)) return;
    seen.emplace(p, visits.size());
    visits.push_back({p, parent, via});
    work.push_back(visits.size() - 1);
  };
  visit({a.start(), b.start()}, kNpos, 0);

  while (!work.empty()) {
    std::size_t idx = work.front();
    work.pop_front();
    StatePair p = visits[idx].pair;
    if (is_final(a, p.first) != is_final(b, p.second)) {
      std::vector<Symbol> word;
      for (std::size_t i = idx; visits[i].parent != kNpos; i = visits[i].parent) {
        word.push_back(visits[i].via);
      }
      std::reverse(word.begin(), word.end());
      return word;
    }
    // Merge the two sorted edge lists; a symbol present on either side can
    // separate the languages (the absent side moves to dead).
    auto ea = p.first == kNoState ? std::span<const Edge>{} : a.edges(p.first);
    auto eb = p.second == kNoState ? std::span<const Edge>{} : b.edges(p.second);
    std::size_t i = 0, j = 0;
    while (i < ea.size() || j < eb.size()) {
      Symbol sym;
      StateId ta = kNoState, tb = kNoState;
      if (j >= eb.size() || (i < ea.size() && ea[i].symbol < eb[j].symbol)) {
        sym = ea[i].symbol;
        ta = ea[i++].to;
      } else if (i >= ea.size() || eb[j].symbol < ea[i].symbol) {
        sym = eb[j].symbol;
        tb = eb[j++].to;
      } else {
        sym = ea[i].symbol;
        ta = ea[i++].to;
        tb = eb[j++].to;
      }
      if (ta == kNoState && tb == kNoState) continue;
      visit({ta, tb}, idx, sym);
    }
  }
  return std::nullopt;
}

bool dfa_equivalent(const Dfa& a, const Dfa& b) {
  return !dfa_distinguishing_word(a, b).has_value();
}

bool equivalent(const Dfa& a, const Dfa& b) { return dfa_equivalent(a, b); }

namespace {

constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint64_t>::max();

std::uint64_t saturating_add(std::uint64_t x, std::uint64_t y) {
  return x > kMaxCount - y ? kMaxCount : x + y;
}

}  // namespace

std::optional<std::uint64_t> finite_string_count(const Dfa& a) {
  std::optional<std::vector<StateId>> order = acyclic_post_order(a);
  if (!order) return std::nullopt;
  // paths[s] = accepting paths from s; post-order fills every successor
  // before s.
  std::vector<std::uint64_t> paths(a.num_states(), 0);
  for (StateId s : *order) {
    std::uint64_t total = a.is_final(s) ? 1 : 0;
    for (const Edge& e : a.edges(s)) total = saturating_add(total, paths[e.to]);
    paths[s] = total;
  }
  return paths[a.start()];
}

std::uint64_t count_strings(const Dfa& a, std::size_t max_len) {
  Dfa t = trim(a);
  // counts[s] = number of accepting walks from s with <= l steps, built up
  // length by length.
  std::vector<std::uint64_t> prev(t.num_states(), 0);
  for (StateId s = 0; s < t.num_states(); ++s) prev[s] = t.is_final(s) ? 1 : 0;
  for (std::size_t l = 1; l <= max_len; ++l) {
    std::vector<std::uint64_t> cur(t.num_states(), 0);
    for (StateId s = 0; s < t.num_states(); ++s) {
      std::uint64_t total = t.is_final(s) ? 1 : 0;
      for (const Edge& e : t.edges(s)) total = saturating_add(total, prev[e.to]);
      cur[s] = total;
    }
    if (cur == prev) break;  // fixed point: no longer strings exist
    prev = std::move(cur);
  }
  return prev.empty() ? 0 : prev[t.start()];
}

std::vector<std::string> enumerate_strings(const Dfa& a, std::size_t limit,
                                           std::size_t max_len) {
  if (a.num_symbols() != 256) {
    throw relm::Error("enumerate_strings requires a byte-alphabet automaton");
  }
  std::vector<std::string> out;
  if (a.num_states() == 0) return out;

  // BFS by length; within a level, states are expanded in insertion order and
  // edges in symbol order, which yields shortest-first, lexicographic-within-
  // length enumeration.
  struct Item {
    StateId state;
    std::string text;
  };
  std::deque<Item> frontier{{a.start(), ""}};
  if (a.is_final(a.start())) out.push_back("");

  std::size_t depth = 0;
  while (!frontier.empty() && out.size() < limit && depth < max_len) {
    ++depth;
    std::deque<Item> next;
    while (!frontier.empty()) {
      Item item = std::move(frontier.front());
      frontier.pop_front();
      for (const Edge& e : a.edges(item.state)) {
        Item child{e.to, item.text + static_cast<char>(e.symbol)};
        if (a.is_final(e.to) && out.size() < limit) out.push_back(child.text);
        next.push_back(std::move(child));
      }
    }
    frontier = std::move(next);
  }
  return out;
}

std::optional<std::size_t> shortest_string_length(const Dfa& a) {
  Dfa t = trim(a);
  std::deque<std::pair<StateId, std::size_t>> work{{t.start(), 0}};
  std::vector<bool> seen(t.num_states(), false);
  seen[t.start()] = true;
  while (!work.empty()) {
    auto [s, d] = work.front();
    work.pop_front();
    if (t.is_final(s)) return d;
    for (const Edge& e : t.edges(s)) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        work.push_back({e.to, d + 1});
      }
    }
  }
  return std::nullopt;
}

}  // namespace relm::automata
