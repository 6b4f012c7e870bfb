#pragma once

#include <string>
#include <vector>

#include "analysis/invariants.hpp"
#include "model/ngram_model.hpp"
#include "tokenizer/bpe.hpp"

namespace relm::analysis {

// End-to-end structural verification of saved ReLM artifacts — the engine
// behind `relm verify --dir DIR`. Where invariants.hpp gives the individual
// checkers, this layer knows what a trained world looks like on disk
// (tokenizer.relm, sim-xl.relm, sim-small.relm; see tools/relm_cli.cpp) and
// which invariants tie the pieces together: the models must emit proper
// distributions over the tokenizer's vocabulary, and queries compiled
// against the tokenizer must produce structurally sound token automata.

struct VerifyOptions {
  ModelCheckOptions model;

  // Regexes compiled (canonical and all-encodings) against the tokenizer,
  // with the outputs audited by check_compiled_query. Defaults chosen to
  // exercise both compiler paths: a finite enumerable language and an
  // infinite one that forces the all-tokens construction.
  std::vector<std::string> probe_patterns{
      "(cat)|(dog)",
      "The ((man)|(woman)) was trained in ((art)|(science))",
      "a(b|(cd))*e",
  };
  bool check_queries = true;
};

// Cross-checks one model against the tokenizer it was trained with
// (vocabulary agreement, EOS agreement) and runs the full n-gram audit.
void verify_model(const model::NgramModel& model,
                  const tokenizer::BpeTokenizer& tok, const std::string& name,
                  InvariantReport& report, const ModelCheckOptions& options = {});

// Tokenizer self-checks: usable EOS, unique token strings, and canonical
// encode/decode round-trips on the token strings themselves.
void verify_tokenizer(const tokenizer::BpeTokenizer& tok,
                      InvariantReport& report);

// Compiles each probe pattern against the tokenizer under both tokenization
// strategies and audits the compiler output.
void verify_query_compilation(const tokenizer::BpeTokenizer& tok,
                              const std::vector<std::string>& patterns,
                              InvariantReport& report);

// Loads and verifies a `relm build` artifact directory. Violations land in
// the returned report; unreadable/unparseable files throw relm::Error (I/O
// failure is an error, not an invariant violation).
InvariantReport verify_artifact_dir(const std::string& dir,
                                    const VerifyOptions& options = {});

// Audits an on-disk compile-cache directory (`relm verify --cache DIR`, see
// src/core/pipeline/cache.hpp): every *.relmc component must load (version,
// fields, checksums — a corrupt entry is a violation here, even though the
// cache itself tolerates it at lookup time), its stored key must match its
// filename, and the component must pass check_component. `tok` may be null;
// when given, entries compiled against that vocabulary get the full
// token-automaton audit. Returns the number of entries examined.
std::size_t verify_compile_cache_dir(const std::string& cache_dir,
                                     const tokenizer::BpeTokenizer* tok,
                                     InvariantReport& report);

}  // namespace relm::analysis
