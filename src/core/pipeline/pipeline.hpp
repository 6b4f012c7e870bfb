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

// The query compile path as an explicit pass pipeline. One run compiles one
// component — the prefix or the body of a query — and each pass is a named,
// introspectable stage that transforms that side's one automaton; the
// standard sequence mirrors the paper's compile chain:
//
//   parse -> thompson -> determinize -> minimize -> preprocess
//         -> token_lift -> token_masks
//
// A finite canonical side that no preprocessor rewrites compiles from its
// strings instead: determinize reads them off the AST and builds the
// minimal DFA directly, thompson and minimize have nothing to do, and
// token_lift encodes the strings (docs/automata.md, "Pipeline").
//
// Intermediates are write-once (each pass only fills fields that are still
// empty-for-it), so a completed CompileState is a faithful record of the
// compilation that tools can inspect — `relm analyze` reports sizes from it
// and tests assert on individual stages without re-deriving them.
// assemble_artifact then binds two components into a QueryArtifact.

// Shared scratchpad for one side of one query.
struct CompileState {
  const SimpleSearchQuery* query = nullptr;
  Side side = Side::kBody;  // which pattern, and which preprocessors apply
  const tokenizer::BpeTokenizer* tok = nullptr;

  // parse
  std::string pattern;
  automata::RegexPtr ast;
  // thompson (unset for boolean-algebra and literal ASTs, and for sides
  // compiled from their strings)
  std::optional<automata::Nfa> nfa;
  // determinize / minimize / preprocess (each pass replaces it)
  std::optional<automata::Dfa> chars;
  // determinize: the finite language of `chars`, when `chars` was built
  // from it (sorted, unique; the token_lift pass encodes these)
  std::optional<std::vector<std::string>> strings;
  // token_lift, then token_masks
  std::optional<TokenAutomaton> tokens;
};

// One named stage. `name()` must return a string literal (trace spans store
// it by pointer).
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual void run(CompileState& state) const = 0;
};

// Per-pass execution record, for introspection and tests.
struct PassRecord {
  const char* name;
  double seconds;
};

struct CompileResult {
  TokenAutomaton automaton;
  std::vector<PassRecord> passes;
};

class Pipeline {
 public:
  // The standard compile sequence above. Built once; immutable thereafter.
  static const Pipeline& standard();

  Pipeline() = default;
  Pipeline& add(std::unique_ptr<Pass> pass);

  std::vector<const char*> pass_names() const;

  // Runs every pass in order over one side of `query`. Each pass runs under
  // a "compile.pass.<name>" trace span and its wall time lands in the
  // returned records. Throws relm::RegexError / relm::QueryError exactly
  // like the pre-pipeline compile path did.
  CompileResult run(const SimpleSearchQuery& query, Side side,
                    const tokenizer::BpeTokenizer& tok) const;

  // As run(), but hands back the full CompileState for callers that want
  // the intermediates (relm analyze, tests).
  CompileState run_to_state(const SimpleSearchQuery& query, Side side,
                            const tokenizer::BpeTokenizer& tok,
                            std::vector<PassRecord>* records = nullptr) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

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
