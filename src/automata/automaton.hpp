#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace relm::automata {

// Symbols are small unsigned integers. Character-level automata use the byte
// alphabet (num_symbols == 256); token-level automata use the BPE vocabulary
// as the alphabet. Keeping one representation for both is what lets ReLM's
// graph compiler reuse every automaton algorithm in token space (§3.2).
using Symbol = std::uint32_t;
using StateId = std::uint32_t;

inline constexpr StateId kNoState = 0xffffffffu;
inline constexpr Symbol kEpsilon = 0xffffffffu;

struct Edge {
  Symbol symbol;
  StateId to;

  friend bool operator==(const Edge&, const Edge&) = default;
};

// Nondeterministic finite automaton with epsilon transitions. This is the
// intermediate form produced by Thompson construction and by operations that
// naturally produce nondeterminism (concatenation, union, Levenshtein
// expansion); `determinize()` converts it to a Dfa.
class Nfa {
 public:
  explicit Nfa(Symbol num_symbols) : num_symbols_(num_symbols) {}

  StateId add_state(bool is_final = false) {
    edges_.emplace_back();
    final_.push_back(is_final);
    return static_cast<StateId>(edges_.size() - 1);
  }

  void add_edge(StateId from, Symbol symbol, StateId to) {
    edges_[from].push_back(Edge{symbol, to});
  }

  void set_start(StateId s) { start_ = s; }
  void set_final(StateId s, bool is_final = true) { final_[s] = is_final; }

  StateId start() const { return start_; }
  bool is_final(StateId s) const { return final_[s]; }
  std::size_t num_states() const { return edges_.size(); }
  Symbol num_symbols() const { return num_symbols_; }
  std::span<const Edge> edges(StateId s) const { return edges_[s]; }

 private:
  std::vector<std::vector<Edge>> edges_;
  std::vector<bool> final_;
  StateId start_ = 0;
  Symbol num_symbols_;
};

// Deterministic finite automaton. Partial: a missing transition means the
// string is rejected (the implicit dead state). Edges per state are kept
// sorted by symbol so that `next()` is a binary search and iteration order is
// canonical.
class Dfa {
 public:
  explicit Dfa(Symbol num_symbols) : num_symbols_(num_symbols) {}

  StateId add_state(bool is_final = false) {
    edges_.emplace_back();
    final_.push_back(is_final);
    return static_cast<StateId>(edges_.size() - 1);
  }

  // Inserts an edge keeping per-state edges sorted. Overwrites an existing
  // edge on the same symbol (determinism is an invariant, not a check the
  // caller must perform). Adding a state's edges in ascending symbol order
  // appends each in O(1).
  void add_edge(StateId from, Symbol symbol, StateId to);

  // Destination state for (from, symbol), or kNoState.
  StateId next(StateId from, Symbol symbol) const;

  void set_start(StateId s) { start_ = s; }
  void set_final(StateId s, bool is_final = true) { final_[s] = is_final; }

  StateId start() const { return start_; }
  bool is_final(StateId s) const { return final_[s]; }
  std::size_t num_states() const { return edges_.size(); }
  Symbol num_symbols() const { return num_symbols_; }
  std::span<const Edge> edges(StateId s) const { return edges_[s]; }

  std::size_t num_edges() const;

  // Runs the automaton on a symbol sequence from the start state.
  bool accepts(std::span<const Symbol> input) const;
  bool accepts_bytes(std::string_view input) const;  // requires byte alphabet

  // Structural equality (same numbering). Use `equivalent()` in ops.hpp for
  // language equality.
  friend bool operator==(const Dfa& a, const Dfa& b);

  // Builds a Dfa directly from raw parts with NO invariant enforcement: no
  // per-state sorting, no determinism overwrite, no range checks. This is
  // the deserialization/testing escape hatch — untrusted machines built this
  // way must pass analysis::check_dfa (src/analysis/invariants.hpp) before
  // use; `next()` on an unsorted or nondeterministic machine is meaningless.
  // `edge_lists.size()` and `final_states.size()` must agree.
  static Dfa from_parts(Symbol num_symbols, StateId start,
                        std::vector<std::vector<Edge>> edge_lists,
                        std::vector<bool> final_states);

 private:
  std::vector<std::vector<Edge>> edges_;
  std::vector<bool> final_;
  StateId start_ = 0;
  Symbol num_symbols_;
};

}  // namespace relm::automata
