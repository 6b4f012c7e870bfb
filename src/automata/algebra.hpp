#pragma once

#include <cstddef>

#include "automata/automaton.hpp"
#include "automata/regex_ast.hpp"

namespace relm::automata {

// Compiler for the boolean query algebra (`&`, `~`/`!`, `-`): turns any
// regex AST — boolean nodes included — into a character-level DFA.
//
// Boolean subtrees are flattened into an expression tree whose leaves are
// the maximal boolean-free subtrees (compiled to Thompson NFAs) and whose
// internal nodes are intersection / complement / difference. The whole tree
// is then evaluated by ONE combined product/subset construction: a product
// state is a tuple of per-leaf epsilon-closed NFA subsets (the empty subset
// is a live "dead" value — required under complement), acceptance is the
// boolean expression evaluated over per-leaf finality, and only symbols
// that can still lead to acceptance are explored:
//
//   symbols(leaf)      = out-symbols of the leaf's current subset
//   symbols(A & B)     = symbols(A) ∩ symbols(B)
//   symbols(~A)        = universe
//   symbols(A - B)     = symbols(A)
//
// so `A & !B` materializes only the states of B's subset space that A's
// reachability actually visits — on-the-fly determinization — instead of
// B's full exponential subset space.
//
// Semantics: `~r` is complement RELATIVE to printable_ascii_and_ws()^*
// (printable ASCII plus \t \n \r, the universe of `[^...]`); `r - s` is
// exact set difference L(r) \ L(s) with no universe restriction.
struct AlgebraOptions {
  // Maximum DFA states materialized, summed over every subset/product
  // construction in the compile. Exceeding it throws relm::StateBudgetError.
  // 0 = unlimited.
  std::size_t state_budget = 0;
};

// Compiles an AST to a trim (not minimized) DFA over the byte alphabet.
// A boolean root takes the product construction, and every other tree
// Thompson construction (each boolean subtree's product DFA embedded,
// thompson.hpp) and subset construction. Both are budgeted.
Dfa compile_ast(const RegexNode& root, const AlgebraOptions& options = {});

// Default determinization state budget when RELM_DETERMINIZE_BUDGET is
// unset: generous enough for every normal query, small enough to turn a
// pathological complement blow-up into an error instead of an OOM.
inline constexpr std::size_t kDefaultDeterminizeBudget = 1u << 20;

// Resolves the budget from the RELM_DETERMINIZE_BUDGET environment variable
// ("0" = unlimited), falling back to kDefaultDeterminizeBudget.
std::size_t determinize_budget_from_env();

}  // namespace relm::automata
