#pragma once

#include "automata/algebra.hpp"

namespace relm::testing {

// Reference compiler for the boolean query algebra: evaluates the AST
// bottom-up with the classic DFA operations instead of automata::compile_ast's
// single on-the-fly product. Boolean-free subtrees go through Thompson and a
// budgeted subset construction; `&` is automata::intersect, `~` is
// automata::complement over printable_ascii_and_ws() (after dropping edges
// outside it), and `a - b` intersects a with b's complement over every symbol
// either side uses. A regular operator above boolean subtrees glues its
// children's DFAs with ε-edges and determinizes the result under the
// remaining budget.
//
// It accepts the same language as compile_ast (AlgebraLaws.LazyAndEagerAgree,
// fuzz_algebra_compile), but every complement pays for its operand's full
// subset space, so it exceeds budgets that compile_ast fits (AlgebraBudget).
// Throws relm::StateBudgetError when the states materialized, summed over
// every construction, exceed `options.state_budget` (0 = unlimited).
automata::Dfa compile_ast_eager(const automata::RegexNode& root,
                                const automata::AlgebraOptions& options = {});

}  // namespace relm::testing
