#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/regex_ast.hpp"

namespace relm::automata {

// A partition of an automaton's alphabet into classes of symbols that no
// edge tells apart: two symbols in one class label exactly the same (state,
// target) pairs, so every symbol of a class leads wherever the class's
// representative leads. Subset construction, the algebra product and the
// all-tokens lift step once per class instead of once per symbol and build
// the same machine.
//
// Each split_* call refines by *runs*: a run is a maximal sequence of
// consecutive edges from one state to one target, and it splits every class
// it covers only in part. Splitting by runs rather than by a state's whole
// label set can only give a finer partition, and a finer partition is still
// exact. Tables are sized by the alphabet, so any num_symbols works.
//
// After every call the numbering is canonical: class 0 holds the symbols
// that lie on no edge (it may be empty, and it is never stepped), and the
// other classes are numbered by their smallest symbol, their representative.
// Visiting classes 1, 2, ... therefore visits representatives in ascending
// order, which is the order a per-symbol loop first meets each class.
class ByteClasses {
 public:
  explicit ByteClasses(Symbol num_symbols);

  // Splits by every run of the automaton's non-epsilon edges. Throws
  // relm::Error on an edge symbol outside the alphabet.
  void split_runs(const Nfa& nfa);
  void split_runs(const Dfa& dfa);

  // Splits by `set` as if it were one run (the algebra's complement
  // universe); its members leave class 0. Bits at or above the alphabet size
  // are ignored.
  void split_set(const ByteSet& set);

  // Number of classes, class 0 included.
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(representative_.size());
  }
  std::uint32_t of(Symbol s) const { return class_of_[s]; }
  // Smallest symbol of class c >= 1; class 0 has none (kEpsilon).
  Symbol representative(std::uint32_t c) const { return representative_[c]; }
  bool is_representative(Symbol s) const {
    return representative_[class_of_[s]] == s;
  }
  // Every symbol outside class 0, ascending.
  std::span<const Symbol> edge_symbols() const { return edge_symbols_; }

 private:
  template <class Automaton>
  void split_edges(const Automaton& automaton);
  void split(std::span<const Symbol> run);
  void renumber();

  std::vector<std::uint32_t> class_of_;  // by symbol
  std::vector<Symbol> representative_;   // by class
  std::vector<Symbol> edge_symbols_;

  // split() scratch: class sizes, the run's distinct symbols (deduplicated by
  // an epoch stamp per symbol) and how many of them each class holds.
  std::vector<std::uint32_t> size_;
  std::vector<std::uint32_t> hits_;
  std::vector<std::uint32_t> moved_to_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> seen_;
  std::uint32_t epoch_ = 0;
  std::vector<Symbol> run_;
  std::vector<Symbol> members_;
};

// An NFA prepared for subset construction over `classes`, which must have
// been split by the NFA's own edges: each state's non-epsilon edges become
// (class, target) moves, kept only where the edge's symbol is its class's
// representative, and the epsilon closure reuses one stamp array and one
// stack across calls.
class NfaStepper {
 public:
  NfaStepper(const Nfa& nfa, const ByteClasses& classes);

  // Epsilon closure of `states` (any order, duplicates allowed) into `out`,
  // sorted and deduplicated.
  void close(std::span<const StateId> states, std::vector<StateId>& out);

  // Gathers the moves of `subset` by class. Until the next call, touched()
  // lists the classes with at least one move in ascending order, and
  // targets(c) holds class c's targets before closure (empty when c is not
  // touched).
  void gather(std::span<const StateId> subset);
  std::span<const std::uint32_t> touched() const { return touched_; }
  std::span<const StateId> targets(std::uint32_t c) const { return targets_[c]; }

 private:
  struct Move {
    std::uint32_t cls;
    StateId to;
  };

  // CSR by state: moves_[first_move_[s] .. first_move_[s + 1]), and the
  // epsilon successors eps_[first_eps_[s] .. first_eps_[s + 1]).
  std::vector<std::size_t> first_move_;
  std::vector<Move> moves_;
  std::vector<std::size_t> first_eps_;
  std::vector<StateId> eps_;

  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<StateId> stack_;
  std::vector<std::vector<StateId>> targets_;  // by class
  std::vector<std::uint32_t> touched_;
};

}  // namespace relm::automata
