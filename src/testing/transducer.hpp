#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/regex_ast.hpp"

namespace relm::testing {

// Finite-state transducers (Mohri, 1997; Pereira & Riley, 1996) — the §2.3
// machinery the paper phrases its preprocessors and token compilation in.
// Each edge reads an input symbol and writes an output symbol; kEpsilon on
// either side reads/writes nothing. Weights are tropical (added along a
// path); every transducer here is boolean (weight 0).
//
// The preprocessors in core/preprocessors.cpp and automata::levenshtein_expand
// are direct DFA constructions; the constructors below express the same
// rewrites as transducer compositions, and tests/test_transducer.cpp proves
// the two routes equivalent — each implementation checks the other.
struct FstEdge {
  automata::Symbol in;   // consumed input symbol, or kEpsilon
  automata::Symbol out;  // emitted output symbol, or kEpsilon
  automata::StateId to;
  double weight = 0.0;
};

class Fst {
 public:
  explicit Fst(automata::Symbol num_symbols) : num_symbols_(num_symbols) {}

  automata::StateId add_state(bool is_final = false) {
    edges_.emplace_back();
    final_.push_back(is_final);
    return static_cast<automata::StateId>(edges_.size() - 1);
  }
  void add_edge(automata::StateId from, automata::Symbol in,
                automata::Symbol out, automata::StateId to,
                double weight = 0.0) {
    edges_[from].push_back(FstEdge{in, out, to, weight});
  }
  void set_start(automata::StateId s) { start_ = s; }
  void set_final(automata::StateId s, bool is_final = true) {
    final_[s] = is_final;
  }

  automata::StateId start() const { return start_; }
  bool is_final(automata::StateId s) const { return final_[s]; }
  std::size_t num_states() const { return edges_.size(); }
  automata::Symbol num_symbols() const { return num_symbols_; }
  std::span<const FstEdge> edges(automata::StateId s) const {
    return edges_[s];
  }

  // Identity transducer of a language: maps every string in L to itself.
  static Fst identity(const automata::Dfa& language);

 private:
  std::vector<std::vector<FstEdge>> edges_;
  std::vector<bool> final_;
  automata::StateId start_ = 0;
  automata::Symbol num_symbols_;
};

// Relation composition a ∘ b: (x, z) iff exists y with (x,y) ∈ a, (y,z) ∈ b.
// Epsilon-aware pair construction over reachable state pairs.
Fst compose(const Fst& a, const Fst& b);

// Range/domain of the relation as minimized DFAs.
automata::Dfa output_projection(const Fst& t);
automata::Dfa input_projection(const Fst& t);

// The image of `input` under `t`: output_projection(compose(identity(input), t)).
automata::Dfa apply(const Fst& t, const automata::Dfa& input);

// --- Useful transducers ------------------------------------------------------

// Levenshtein edit transducer: relates every string to every string within
// `max_edits` insertions/deletions/substitutions over `alphabet`.
// apply(edit_transducer(k, A), L) == levenshtein_expand(L, k, A).
Fst edit_transducer(int max_edits, const automata::ByteSet& alphabet);

// Case-folding: relates each letter to both of its cases (other symbols to
// themselves). apply() of it reproduces CaseInsensitivePreprocessor.
Fst case_fold_transducer();

// Optional rewrite (Mihov & Schulz, 2019): occurrences of `from` may be
// replaced by `to`; everything else passes through. The paper uses exactly
// this notion for its shortcut-edge construction ("the sequence T-h-e is
// optionally rewritten to The") and for synonym-style preprocessors.
Fst replace_transducer(std::string_view from, std::string_view to,
                       const automata::ByteSet& passthrough);

}  // namespace relm::testing
