#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/query.hpp"
#include "model/language_model.hpp"

namespace relm::testing {

// Brute-force ground truth for query execution (the differential oracle).
//
// Over a small vocabulary and a bounded sequence length, the query language
// is finite and can be enumerated exhaustively by walking the compiled token
// automaton (CompiledQuery::expand) depth-first, scoring every path with the
// model's exact log-probabilities on the FULL context — no suffix trimming,
// no caching, no batching, no priority queue. Every fast path the executors
// use (relevant-suffix contexts, the sharded logit LRU, frontier batching,
// the compile cache) is therefore absent here by construction, which is what
// makes agreement meaningful: the oracle and an executor share only the
// compiled automaton and the model itself.
//
// Semantics replicated exactly (see docs/TESTING.md for the contract):
//   - decoding rules mask body transitions per step; prefix-only edges
//     bypass the mask but carry true costs;
//   - require_eos appends p(EOS | string) and consumes one budget slot, so a
//     match whose path already fills the sequence budget cannot terminate;
//   - dynamic-canonical queries prune with the oracle's own distance rule
//     (distance_rule_cuts, not the executors' exact settlement, so the
//     oracle explores a superset of their paths) and re-check the completed
//     body against encode();
//   - matches are deduplicated by decoded text keeping the most probable
//     token path (what the shortest-path traversal's first-pop-wins gives).
//
// Cost is O(paths): exponential in the worst case. The node cap turns a
// blow-up into `truncated = true` (the trial is skipped, never trusted).

struct OraclePath {
  std::vector<tokenizer::TokenId> tokens;  // full token path, EOS excluded
  std::string text;
  double log_prob;        // full-path log p, EOS included when require_eos
  std::uint32_t body_len; // trailing tokens consumed by the body machine
};

struct OracleConfig {
  std::size_t max_nodes = 200000;  // DFS nodes before giving up (truncated)
  std::size_t max_paths = 20000;   // accepted paths before giving up
};

struct Oracle {
  std::vector<OraclePath> paths;    // every accepted token path
  std::vector<OraclePath> by_text;  // text-deduped (max log_prob), sorted
                                    // by log_prob descending
  // Maximum number of live partial paths at any depth. A BeamSearch with
  // beam_width >= max_width never truncates, making it exact.
  std::size_t max_width = 0;
  std::size_t nodes_explored = 0;
  bool truncated = false;

  // Max log_prob for a decoded text, if the text is in the language.
  std::optional<double> log_prob_of(const std::string& text) const;
};

Oracle build_oracle(const model::LanguageModel& model,
                    const core::CompiledQuery& compiled,
                    const core::SimpleSearchQuery& query,
                    const OracleConfig& config = {});

// The oracle's canonicality prune, written over encode(): true when `body`
// disagrees with encode(`text`) at a boundary at least max_token_length
// bytes before the end of `text`, a decision no later byte can change.
bool distance_rule_cuts(const tokenizer::BpeTokenizer& tok,
                        std::span<const tokenizer::TokenId> body,
                        std::string_view text);

// Brute-force liveness of a body: true when some continuation of at most
// `max_extra` bytes drawn from `alphabet` makes encode(text + continuation)
// start with `body`. A doomed CanonState must never have one.
bool canonical_continuation_exists(const tokenizer::BpeTokenizer& tok,
                                   std::span<const tokenizer::TokenId> body,
                                   const std::string& text,
                                   std::string_view alphabet,
                                   std::size_t max_extra);

// Verifies a shortest-path or (exact-width) beam result list against the
// oracle: set-completeness, per-result log-prob equality within `tolerance`,
// token paths that are genuine argmax witnesses, and — when `check_order` —
// non-increasing emission order. Returns a multi-line mismatch description,
// or nullopt when everything agrees.
std::optional<std::string> compare_results(
    const Oracle& oracle, const std::vector<core::SearchResult>& results,
    double tolerance, bool check_order);

// Verifies sampler output against exact conditionals: every sample must be a
// member of the query language (witnessed by some prefix/body split of its
// token path admissible under the decoding rules), and its log_prob must
// equal the model's exact body-given-prefix log-probability for one such
// split. Returns a mismatch description or nullopt.
std::optional<std::string> check_samples(
    const model::LanguageModel& model, const core::CompiledQuery& compiled,
    const core::SimpleSearchQuery& query,
    const std::vector<core::SearchResult>& samples, double tolerance);

}  // namespace relm::testing
