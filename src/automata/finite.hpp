#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/regex_ast.hpp"

namespace relm::automata {

// Finite languages built from their strings (docs/automata.md, "Pipeline").

// The size of the language an AST spells, counted with multiplicity — one
// per way the tree spells a string, so `(a|a)` counts 2 strings and 2 bytes
// where its language has 1 and 1 — and saturating at UINT64_MAX. Both
// figures bound the language's own: |L| <= strings, and the distinct strings
// hold at most `bytes` bytes. One walk over the tree, no string built.
struct FiniteSize {
  std::uint64_t strings = 0;
  std::uint64_t bytes = 0;
};

// nullopt when the tree is not a finite, boolean-free tree whose every
// subtree spells a string: a boolean node, an unbounded repeat, ∅ or an
// empty class anywhere (even under `{0}`) gives nullopt. Such a tree's
// Thompson NFA has no dead state.
std::optional<FiniteSize> finite_size(const RegexNode& ast);

// L(ast) as sorted (bytewise), unique strings, or nullopt when `size` is
// nullopt or more than `limit` strings. `size` is finite_size(ast), which
// the caller has counted already, so a refused tree builds no string and no
// tree is counted twice.
std::optional<std::vector<std::string>> finite_strings(
    const RegexNode& ast, const std::optional<FiniteSize>& size,
    std::uint64_t limit);

// The minimal DFA of a finite set of sequences, built in one pass over them
// (Daciuk, Mihov, Watson & Watson, "Incremental construction of minimal
// acyclic finite-state automata", 2000): each sequence extends the path of
// the previous one, and the states the next sequence leaves behind are
// merged with an equal registered state on the way back. The input must be
// sorted lexicographically (by unsigned byte for strings); duplicates are
// ignored, and unsorted input throws relm::Error. The result is renumbered in
// BFS order with sorted edges, so it is operator==-identical to minimize() of
// any DFA of the same language; the empty set gives one non-final state.
Dfa minimal_dfa(std::span<const std::string> sorted);  // byte alphabet
Dfa minimal_dfa(std::span<const std::vector<Symbol>> sorted,
                Symbol num_symbols);

}  // namespace relm::automata
