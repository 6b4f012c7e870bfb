#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/regex_ast.hpp"
#include "core/pipeline/artifact.hpp"
#include "core/query.hpp"
#include "tokenizer/bpe.hpp"

namespace relm::core::pipeline {

// The query compile path. One run compiles one component — the prefix or
// the body of a query — in seven stages over that side's one automaton,
// the paper's compile chain:
//
//   parse -> thompson -> determinize -> minimize -> preprocess
//         -> token_lift -> token_masks
//
// The thompson stage first decides once which construction the side takes
// (docs/automata.md, "Pipeline"):
//   * from its strings: a side that spells one string (a literal), or a
//     finite canonical side that no preprocessor rewrites. determinize reads
//     them off the AST and builds the minimal DFA directly, thompson and
//     minimize have nothing to do, and token_lift encodes the strings when
//     the canonical lift would enumerate them, else lifts `chars`;
//   * through automata::compile_ast in determinize: a tree with boolean
//     nodes;
//   * otherwise Thompson construction, then subset construction.
//
// Intermediates are write-once (each stage only fills fields that are still
// empty-for-it), so a completed CompileState is a faithful record of the
// compilation that tools can inspect — `relm analyze` reports sizes from it
// and tests assert on individual stages without re-deriving them.
// assemble_artifact then binds two components into a QueryArtifact.
struct CompileState {
  // parse
  std::string pattern;
  automata::RegexPtr ast;
  // thompson (set only for sides that take Thompson and subset
  // construction)
  std::optional<automata::Nfa> nfa;
  // determinize / minimize / preprocess (each stage replaces it)
  std::optional<automata::Dfa> chars;
  // determinize: the side's finite language, when `chars` was built from
  // it before any preprocessor ran (sorted, unique; token_lift encodes these
  // when the canonical lift would enumerate them)
  std::optional<std::vector<std::string>> strings;
  // token_lift, then token_masks
  std::optional<TokenAutomaton> tokens;
};

// Per-stage execution record, for introspection and tests. `name` is the
// stage's name above, a string literal.
struct PassRecord {
  const char* name;
  double seconds;
};

struct CompileResult {
  TokenAutomaton automaton;
  std::vector<PassRecord> passes;
};

// Runs the seven stages in order over one side of `query` and hands back
// the full CompileState for callers that want the intermediates (relm
// analyze, tests). Each stage runs under a "compile.pass.<name>" trace span
// and, when `records` is given, appends its wall time there. Throws
// relm::RegexError / relm::QueryError / relm::StateBudgetError.
CompileState run_to_state(const SimpleSearchQuery& query, Side side,
                          const tokenizer::BpeTokenizer& tok,
                          std::vector<PassRecord>* records = nullptr);

// As run_to_state(), keeping only the token automaton and the records.
CompileResult run(const SimpleSearchQuery& query, Side side,
                  const tokenizer::BpeTokenizer& tok);

// Compiles one side of `query` into a component under `key` (zero when the
// side is unkeyable; see derive_component_key). An empty prefix is the ε
// token automaton, built without a pipeline run — like the paper's
// unconditional-generation case — and no preprocessor touches it.
std::shared_ptr<const Component> compile_component(
    const SimpleSearchQuery& query, Side side,
    const tokenizer::BpeTokenizer& tok, const ArtifactKey& key);

// Both components, compiled fresh and assembled: compile_cached without a
// cache (cache.cpp).
QueryArtifact compile_query_artifact(const SimpleSearchQuery& query,
                                     const tokenizer::BpeTokenizer& tok);

}  // namespace relm::core::pipeline
