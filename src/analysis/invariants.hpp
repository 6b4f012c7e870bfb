#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "automata/automaton.hpp"
#include "core/compiled_query.hpp"
#include "core/pipeline/artifact.hpp"
#include "model/language_model.hpp"
#include "model/ngram_model.hpp"
#include "tokenizer/bpe.hpp"

namespace relm::analysis {

// Machine-checked invariants for the structures ReLM's correctness rests on
// (PAPER.md §4): the compiled query automaton must be a faithful
// intersection of the regex language with the model's token language, and
// the model must emit genuine probability distributions. A silently
// malformed DFA or an unnormalized n-gram row corrupts every downstream
// result, so these checkers audit the full structure — unlike RELM_DCHECK
// (util/errors.hpp), which guards only O(1) conditions on hot paths, these
// are O(states + edges) / O(rows) sweeps meant for load/compile boundaries,
// tests, and the `relm verify` CLI subcommand.
//
// Checkers never throw and never abort: they append violations to an
// InvariantReport, so a caller sees every broken invariant of an artifact in
// one pass, not just the first.

// One violated invariant. `check` is a stable dotted identifier (e.g.
// "dfa.transition-range") that tests and tools can match on; `detail` is the
// human diagnostic with the offending indices and values.
struct Violation {
  std::string check;
  std::string detail;
};

class InvariantReport {
 public:
  // Records a violation. Per check id, only the first kMaxPerCheck details
  // are kept (a corrupt 30k-row model would otherwise flood the report); a
  // final "... further violations suppressed" entry marks the truncation.
  void fail(const std::string& check, const std::string& detail);

  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }

  // True if some violation has this check id (truncated or not).
  bool has(const std::string& check) const;

  // Multi-line diagnostic report: "ok" when clean, otherwise one line per
  // violation, suitable for printing to stderr.
  std::string to_string() const;

  static constexpr std::size_t kMaxPerCheck = 8;

 private:
  std::vector<Violation> violations_;
  std::vector<std::pair<std::string, std::size_t>> counts_;
};

// --- (a) automata ------------------------------------------------------------

// Structural validity of a DFA: start state in range, every transition
// target in range (no dangling transitions), every symbol inside the
// alphabet (which also rules out kEpsilon — epsilon-freeness), and per-state
// edge lists strictly ascending by symbol (sortedness plus determinism: a
// duplicate symbol is a nondeterministic choice). `name` prefixes the
// diagnostics so reports over several machines stay readable.
void check_dfa(const automata::Dfa& dfa, InvariantReport& report,
               const std::string& name = "dfa");

// Structural validity of an NFA: like check_dfa but epsilon edges are legal
// and determinism is not required.
void check_nfa(const automata::Nfa& nfa, InvariantReport& report,
               const std::string& name = "nfa");

// No epsilon edges remain (what determinization must guarantee).
void check_epsilon_free(const automata::Nfa& nfa, InvariantReport& report,
                        const std::string& name = "nfa");

// Trimness: every state is reachable from the start AND can reach an
// accepting state. Compiler outputs are trimmed/minimized, so an unreachable
// accepting state or a non-co-reachable (dead) state in one is a bug. The
// canonical empty-language machine — a single non-final start state with no
// edges — passes.
void check_trim(const automata::Dfa& dfa, InvariantReport& report,
                const std::string& name = "dfa");

// Token-automaton totality against the tokenizer vocabulary: the alphabet
// size must equal vocab_size(), every edge symbol must be a real token id,
// and no edge may consume EOS (EOS is the reserved stop symbol, §3.3).
// Includes check_dfa.
void check_token_automaton(const automata::Dfa& dfa,
                           const tokenizer::BpeTokenizer& tok,
                           InvariantReport& report,
                           const std::string& name = "token-automaton");

// --- (b) models --------------------------------------------------------------

struct ModelCheckOptions {
  // |sum(exp(log p)) - 1| tolerance for distribution rows.
  double tolerance = 1e-6;
  // Number of probe contexts evaluated through next_log_probs.
  std::size_t probe_contexts = 32;
  // Maximum probe context length (random walks through the model itself).
  std::size_t probe_depth = 8;
  std::uint64_t seed = 42;
};

// Black-box distribution checks through the LanguageModel interface: on a
// deterministic set of probe contexts (empty, EOS-anchored, and seeded
// random walks drawn from the model), next_log_probs must return exactly
// vocab_size() entries, no NaN and no positive log-probability (a +Inf or
// p > 1 means a broken normalizer; -Inf is legal underflow), and the
// exponentiated row must sum to 1 within tolerance.
void check_model_distributions(const model::LanguageModel& model,
                               InvariantReport& report,
                               const ModelCheckOptions& options = {},
                               const std::string& name = "model");

// White-box n-gram table audit via NgramModel::visit_context_rows: every
// stored row's total must equal the sum of its per-token counts (the row
// normalizer — a mismatch un-normalizes every distribution interpolated
// through it), counts must be nonzero, token ids must be inside the
// vocabulary, and the smoothing config (order, alpha, max_sequence_length)
// must be finite and positive. Includes check_model_distributions.
void check_ngram_model(const model::NgramModel& model, InvariantReport& report,
                       const ModelCheckOptions& options = {},
                       const std::string& name = "ngram");

// --- (c) compiled queries ----------------------------------------------------

// Compiler-output audit: the prefix and body token automata must both pass
// check_token_automaton and check_trim against the query's tokenizer, and
// the initial execution state must reference in-range states.
void check_compiled_query(const core::CompiledQuery& compiled,
                          InvariantReport& report,
                          const std::string& name = "query");

// Component audit (what `relm verify --cache DIR` runs on every cached
// .relmc entry): check_dfa and check_trim, a present mask table equal to the
// recomputed edge set, and a coherent strategy flag (all-tokens never needs
// dynamic canonical pruning). When `tok` is non-null and the component's
// vocabulary fingerprint matches it, check_token_automaton too; a mismatch
// alone is NOT a violation (a shared cache directory can legitimately hold
// entries for several vocabularies).
void check_component(const core::pipeline::Component& component,
                     const tokenizer::BpeTokenizer* tok,
                     InvariantReport& report,
                     const std::string& name = "component");

// Whole-artifact audit: check_component on both sides, and both automata
// over one alphabet.
void check_query_artifact(const core::pipeline::QueryArtifact& artifact,
                          const tokenizer::BpeTokenizer* tok,
                          InvariantReport& report,
                          const std::string& name = "artifact");

}  // namespace relm::analysis
