#include "automata/determinize.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "automata/byte_classes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"

namespace relm::automata {
namespace {

struct SignatureHash {
  std::size_t operator()(const std::vector<StateId>& sig) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ sig.size();
    for (StateId v : sig) {
      h = (h ^ v) * 0xff51afd7ed558ccdull;
      h ^= h >> 32;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

Dfa determinize(const Nfa& nfa, std::size_t max_states) {
  RELM_TRACE_SPAN("automata.determinize");
  static obs::Counter& runs = obs::Registry::instance().counter("automata.determinize.runs");
  runs.add();
  RELM_DCHECK(nfa.num_states() > 0 && nfa.start() < nfa.num_states(),
              "determinize: NFA start state out of range");
  ByteClasses classes(nfa.num_symbols());
  classes.split_runs(nfa);
  NfaStepper stepper(nfa, classes);
  Dfa dfa(nfa.num_symbols());

  // subsets[id] is DFA state id's subset, a key of `ids` (whose nodes never
  // move). States are stepped in id order, which is the order they were
  // interned: a FIFO worklist without the queue.
  std::unordered_map<std::vector<StateId>, StateId, SignatureHash> ids;
  std::vector<const std::vector<StateId>*> subsets;

  auto intern = [&](const std::vector<StateId>& subset) -> StateId {
    auto it = ids.find(subset);
    if (it != ids.end()) return it->second;
    if (max_states != 0 && dfa.num_states() >= max_states) {
      static obs::Counter& exceeded = obs::Registry::instance().counter(
          "automata.determinize.budget_exceeded");
      exceeded.add();
      throw relm::StateBudgetError(
          "subset construction exceeded the determinization state budget",
          max_states);
    }
    const bool is_final = std::any_of(subset.begin(), subset.end(),
                                      [&](StateId s) { return nfa.is_final(s); });
    const StateId id = dfa.add_state(is_final);
    subsets.push_back(&ids.emplace(subset, id).first->first);
    return id;
  };

  std::vector<StateId> closure;
  const StateId start = nfa.start();
  stepper.close({&start, 1}, closure);
  dfa.set_start(intern(closure));

  // One closure and one intern per class with a move, in order of the
  // classes' smallest symbols: a new subset is interned exactly where a
  // per-symbol loop first meets it, so the numbering (and the state count at
  // which the budget fires) is the per-symbol construction's. Edges then go
  // in by ascending symbol.
  std::vector<StateId> class_target(classes.size(), kNoState);
  for (StateId from = 0; from < dfa.num_states(); ++from) {
    stepper.gather(*subsets[from]);
    for (std::uint32_t c : stepper.touched()) {
      stepper.close(stepper.targets(c), closure);
      class_target[c] = intern(closure);
    }
    for (Symbol b : classes.edge_symbols()) {
      const StateId to = class_target[classes.of(b)];
      if (to != kNoState) dfa.add_edge(from, b, to);
    }
    for (std::uint32_t c : stepper.touched()) class_target[c] = kNoState;
  }
  return dfa;
}

Dfa trim(Dfa dfa) {
  RELM_DCHECK(dfa.num_states() > 0 && dfa.start() < dfa.num_states(),
              "trim: DFA start state out of range");
  const std::size_t n = dfa.num_states();
  std::vector<StateId> work;

  // Forward reachability from the start state.
  std::vector<bool> reachable(n, false);
  reachable[dfa.start()] = true;
  work.push_back(dfa.start());
  while (!work.empty()) {
    StateId s = work.back();
    work.pop_back();
    for (const Edge& e : dfa.edges(s)) {
      if (!reachable[e.to]) {
        reachable[e.to] = true;
        work.push_back(e.to);
      }
    }
  }

  // Backward reachability to any final state (co-reachability), over the
  // reverse edges in one flat array: state t's predecessors are
  // preds[first_pred[t] .. first_pred[t + 1]).
  std::vector<std::size_t> first_pred(n + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    for (const Edge& e : dfa.edges(s)) ++first_pred[e.to + 1];
  }
  for (std::size_t t = 0; t < n; ++t) first_pred[t + 1] += first_pred[t];
  std::vector<StateId> preds(first_pred[n]);
  {
    std::vector<std::size_t> next_slot(first_pred.begin(), first_pred.end() - 1);
    for (StateId s = 0; s < n; ++s) {
      for (const Edge& e : dfa.edges(s)) preds[next_slot[e.to]++] = s;
    }
  }
  std::vector<bool> productive(n, false);
  for (StateId s = 0; s < n; ++s) {
    if (dfa.is_final(s)) {
      productive[s] = true;
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    StateId s = work.back();
    work.pop_back();
    for (std::size_t i = first_pred[s]; i < first_pred[s + 1]; ++i) {
      StateId p = preds[i];
      if (!productive[p]) {
        productive[p] = true;
        work.push_back(p);
      }
    }
  }

  auto live = [&](StateId s) { return reachable[s] && productive[s]; };
  bool all_live = true;
  for (StateId s = 0; s < n && all_live; ++s) all_live = live(s);
  if (all_live) return dfa;  // the remap would be the identity

  std::vector<StateId> remap(n, kNoState);
  Dfa out(dfa.num_symbols());

  for (StateId s = 0; s < n; ++s) {
    if (live(s)) remap[s] = out.add_state(dfa.is_final(s));
  }
  if (remap[dfa.start()] == kNoState) {
    // Empty language: keep a bare start state.
    Dfa empty(dfa.num_symbols());
    empty.set_start(empty.add_state(false));
    return empty;
  }
  for (StateId s = 0; s < n; ++s) {
    if (!live(s)) continue;
    for (const Edge& e : dfa.edges(s)) {
      if (live(e.to)) out.add_edge(remap[s], e.symbol, remap[e.to]);
    }
  }
  out.set_start(remap[dfa.start()]);
  return out;
}

namespace {

// Renumber states in BFS-from-start order (edges are already
// symbol-sorted, so the traversal order is canonical).
Dfa bfs_renumber(const Dfa& dfa) {
  std::vector<StateId> remap(dfa.num_states(), kNoState);
  std::vector<StateId> order;
  std::deque<StateId> work{dfa.start()};
  remap[dfa.start()] = 0;
  order.push_back(dfa.start());
  while (!work.empty()) {
    StateId s = work.front();
    work.pop_front();
    for (const Edge& e : dfa.edges(s)) {
      if (remap[e.to] == kNoState) {
        remap[e.to] = static_cast<StateId>(order.size());
        order.push_back(e.to);
        work.push_back(e.to);
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

std::optional<std::vector<StateId>> acyclic_post_order(const Dfa& dfa) {
  enum Color : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(dfa.num_states(), kWhite);
  std::vector<StateId> order;
  order.reserve(dfa.num_states());
  // (state, index of its next edge to follow)
  std::vector<std::pair<StateId, std::size_t>> stack{{dfa.start(), 0}};
  color[dfa.start()] = kGray;
  while (!stack.empty()) {
    auto& [s, next_edge] = stack.back();
    auto edges = dfa.edges(s);
    if (next_edge == edges.size()) {
      color[s] = kBlack;
      order.push_back(s);
      stack.pop_back();
      continue;
    }
    StateId to = edges[next_edge++].to;
    if (color[to] == kGray) return std::nullopt;  // back edge: a cycle
    if (color[to] == kWhite) {
      color[to] = kGray;
      stack.emplace_back(to, 0);
    }
  }
  return order;
}

namespace {

// Revuz's pass: in post-order every edge's target already has its class, so
// one exact signature lookup per state classifies it. Two states of a trim
// acyclic DFA are equivalent iff their signatures are equal (induction on
// the longest path to a final state). Returns the number of classes.
StateId post_order_classes(const Dfa& dfa, const std::vector<StateId>& order,
                           std::vector<StateId>& cls) {
  std::unordered_map<std::vector<StateId>, StateId, SignatureHash> ids;
  ids.reserve(order.size());
  std::vector<StateId> sig;
  for (StateId s : order) {
    sig.clear();
    sig.push_back(dfa.is_final(s) ? 1 : 0);
    for (const Edge& e : dfa.edges(s)) {
      sig.push_back(e.symbol);
      sig.push_back(cls[e.to]);
    }
    auto [it, _] = ids.try_emplace(sig, static_cast<StateId>(ids.size()));
    cls[s] = it->second;
  }
  return static_cast<StateId>(ids.size());
}

// Moore partition refinement. Missing transitions map to the implicit dead
// class (absent from the signature entirely, which distinguishes them from
// any real class). The partition only refines, so the class count is
// non-decreasing and an unchanged count means a fixed point. Returns the
// number of classes.
StateId moore_classes(const Dfa& dfa, std::vector<StateId>& cls) {
  const std::size_t n = dfa.num_states();
  for (StateId s = 0; s < n; ++s) cls[s] = dfa.is_final(s) ? 1 : 0;

  std::size_t prev_count = 0;  // forces at least one refinement pass
  for (;;) {
    std::map<std::vector<StateId>, StateId> signature_ids;
    std::vector<StateId> next_cls(n);
    for (StateId s = 0; s < n; ++s) {
      std::vector<StateId> sig;
      sig.reserve(dfa.edges(s).size() * 2 + 1);
      sig.push_back(cls[s]);
      for (const Edge& e : dfa.edges(s)) {
        sig.push_back(e.symbol);
        sig.push_back(cls[e.to]);
      }
      auto [it, _] = signature_ids.emplace(std::move(sig),
                                           static_cast<StateId>(signature_ids.size()));
      next_cls[s] = it->second;
    }
    bool stable = signature_ids.size() == prev_count;
    prev_count = signature_ids.size();
    cls = std::move(next_cls);
    if (stable) break;
  }
  return static_cast<StateId>(prev_count);
}

}  // namespace

Dfa minimize(const Dfa& input) {
  RELM_TRACE_SPAN("automata.minimize");
  static obs::Counter& runs = obs::Registry::instance().counter("automata.minimize.runs");
  runs.add();
  Dfa dfa = trim(input);
  std::size_t n = dfa.num_states();
  RELM_DCHECK(n <= input.num_states(),
              "minimize: trim must never grow the automaton");
  if (n <= 1) return bfs_renumber(dfa);

  std::vector<StateId> cls(n);
  std::optional<std::vector<StateId>> order = acyclic_post_order(dfa);
  const StateId num_classes = order ? post_order_classes(dfa, *order, cls)
                                    : moore_classes(dfa, cls);
  if (num_classes == n) return bfs_renumber(dfa);  // already minimal

  // The quotient of a trim DFA is trim, so it goes straight to renumbering.
  Dfa merged(dfa.num_symbols());
  std::vector<StateId> representative(num_classes, kNoState);
  for (StateId c = 0; c < num_classes; ++c) merged.add_state(false);
  for (StateId s = 0; s < n; ++s) {
    if (dfa.is_final(s)) merged.set_final(cls[s]);
    if (representative[cls[s]] == kNoState) representative[cls[s]] = s;
  }
  for (StateId c = 0; c < num_classes; ++c) {
    StateId s = representative[c];
    for (const Edge& e : dfa.edges(s)) merged.add_edge(c, e.symbol, cls[e.to]);
  }
  merged.set_start(cls[dfa.start()]);
  return bfs_renumber(merged);
}

}  // namespace relm::automata
