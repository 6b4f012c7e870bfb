#include "automata/byte_classes.hpp"

#include <algorithm>

#include "util/errors.hpp"

namespace relm::automata {

ByteClasses::ByteClasses(Symbol num_symbols)
    : class_of_(num_symbols, 0), seen_(num_symbols, 0) {
  renumber();
}

template <class Automaton>
void ByteClasses::split_edges(const Automaton& automaton) {
  const Symbol num_symbols = static_cast<Symbol>(class_of_.size());
  for (StateId s = 0; s < automaton.num_states(); ++s) {
    StateId target = kNoState;
    run_.clear();
    for (const Edge& e : automaton.edges(s)) {
      if (e.symbol == kEpsilon) continue;
      if (e.symbol >= num_symbols) {
        throw relm::Error("automaton edge symbol outside its alphabet");
      }
      if (e.to != target) {
        if (!run_.empty()) split(run_);
        run_.clear();
        target = e.to;
      }
      run_.push_back(e.symbol);
    }
    if (!run_.empty()) split(run_);
  }
  renumber();
}

void ByteClasses::split_runs(const Nfa& nfa) { split_edges(nfa); }

void ByteClasses::split_runs(const Dfa& dfa) { split_edges(dfa); }

void ByteClasses::split_set(const ByteSet& set) {
  run_.clear();
  for_each_byte(set, [&](unsigned b) {
    if (b < class_of_.size()) run_.push_back(b);
  });
  if (!run_.empty()) split(run_);
  renumber();
}

void ByteClasses::split(std::span<const Symbol> run) {
  if (++epoch_ == 0) {  // the stamps wrapped: forget every old one
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  members_.clear();
  touched_.clear();
  for (Symbol s : run) {
    if (seen_[s] == epoch_) continue;
    seen_[s] = epoch_;
    members_.push_back(s);
    if (hits_[class_of_[s]]++ == 0) touched_.push_back(class_of_[s]);
  }
  // A class the run covers whole stays as it is, except class 0, whose
  // members lie on no edge until now; every other touched class splits.
  for (std::uint32_t c : touched_) {
    if (c != 0 && hits_[c] == size_[c]) {
      moved_to_[c] = c;
    } else {
      moved_to_[c] = static_cast<std::uint32_t>(size_.size());
      size_.push_back(0);
      hits_.push_back(0);
      moved_to_.push_back(0);
    }
    hits_[c] = 0;
  }
  for (Symbol s : members_) {
    const std::uint32_t from = class_of_[s];
    const std::uint32_t to = moved_to_[from];
    if (to == from) continue;
    --size_[from];
    ++size_[to];
    class_of_[s] = to;
  }
}

void ByteClasses::renumber() {
  constexpr std::uint32_t kUnset = 0xffffffffu;
  std::vector<std::uint32_t> id(std::max<std::size_t>(size_.size(), 1), kUnset);
  id[0] = 0;
  representative_.assign(1, kEpsilon);
  edge_symbols_.clear();
  for (Symbol s = 0; s < class_of_.size(); ++s) {
    std::uint32_t& c = id[class_of_[s]];
    if (c == kUnset) {
      c = static_cast<std::uint32_t>(representative_.size());
      representative_.push_back(s);
    }
    class_of_[s] = c;
    if (c != 0) edge_symbols_.push_back(s);
  }
  size_.assign(representative_.size(), 0);
  for (std::uint32_t c : class_of_) ++size_[c];
  hits_.assign(size_.size(), 0);
  moved_to_.assign(size_.size(), 0);
}

NfaStepper::NfaStepper(const Nfa& nfa, const ByteClasses& classes)
    : stamp_(nfa.num_states(), 0), targets_(classes.size()) {
  const std::size_t n = nfa.num_states();
  first_move_.reserve(n + 1);
  first_eps_.reserve(n + 1);
  first_move_.push_back(0);
  first_eps_.push_back(0);
  for (StateId s = 0; s < n; ++s) {
    for (const Edge& e : nfa.edges(s)) {
      if (e.symbol == kEpsilon) {
        eps_.push_back(e.to);
      } else if (classes.is_representative(e.symbol)) {
        moves_.push_back(Move{classes.of(e.symbol), e.to});
      }
    }
    first_move_.push_back(moves_.size());
    first_eps_.push_back(eps_.size());
  }
}

void NfaStepper::close(std::span<const StateId> states, std::vector<StateId>& out) {
  if (++epoch_ == 0) {  // the stamps wrapped: forget every old one
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  out.clear();
  stack_.clear();
  for (StateId s : states) {
    if (stamp_[s] == epoch_) continue;
    stamp_[s] = epoch_;
    stack_.push_back(s);
  }
  while (!stack_.empty()) {
    const StateId s = stack_.back();
    stack_.pop_back();
    out.push_back(s);
    for (std::size_t i = first_eps_[s]; i < first_eps_[s + 1]; ++i) {
      const StateId to = eps_[i];
      if (stamp_[to] == epoch_) continue;
      stamp_[to] = epoch_;
      stack_.push_back(to);
    }
  }
  std::sort(out.begin(), out.end());
}

void NfaStepper::gather(std::span<const StateId> subset) {
  for (std::uint32_t c : touched_) targets_[c].clear();
  touched_.clear();
  for (StateId s : subset) {
    for (std::size_t i = first_move_[s]; i < first_move_[s + 1]; ++i) {
      const Move& m = moves_[i];
      if (targets_[m.cls].empty()) touched_.push_back(m.cls);
      targets_[m.cls].push_back(m.to);
    }
  }
  std::sort(touched_.begin(), touched_.end());
}

}  // namespace relm::automata
