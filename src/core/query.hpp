#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/preprocessors.hpp"
#include "model/decoding.hpp"

namespace relm::core {

// The regex portion of a query (Fig 11): the full pattern plus the prefix
// sub-pattern. The prefix is itself a regular expression; it is "defined to
// be in the language" (§2.4) — decoding rules never prune it — and the
// pattern proper is everything after it. `query_str` must start with the
// language of `prefix_str` textually: like the Python API, the caller writes
// the full query and names which leading part is the prefix.
struct QueryString {
  std::string query_str;
  std::string prefix_str;  // empty = unconditional generation

  // The pattern remainder after removing the literal prefix text. Throws
  // relm::QueryError if prefix_str is not a textual prefix of query_str.
  std::string body_str() const;
};

enum class SearchStrategy {
  kShortestPath,     // Dijkstra: most probable strings first (§3.3)
  kRandomSampling,   // unbiased randomized traversal (§3.3)
  kBeam,             // constrained beam search (approximate; bounded memory)
};

enum class TokenizationStrategy {
  kAllTokens,        // the full (ambiguous) set of encodings (§3.2, Fig 3a)
  kCanonicalTokens,  // canonical encodings only (§3.2, Fig 3b)
};

// A complete ReLM query (§3): language description, decoding/decision rules,
// and traversal algorithm. The LLM itself is passed to search() separately,
// mirroring the Python API.
struct SimpleSearchQuery {
  QueryString query_string;
  SearchStrategy search_strategy = SearchStrategy::kShortestPath;
  TokenizationStrategy tokenization_strategy = TokenizationStrategy::kCanonicalTokens;
  model::DecodingRules decoding;                 // top-k / top-p / temperature
  std::optional<std::size_t> sequence_length;    // token budget; default model max

  // Preprocessors (§3.4), applied in order to the query automata before
  // token compilation. Each may target the prefix, the body, or both.
  std::vector<std::shared_ptr<const Preprocessor>> preprocessors;

  // Terminate matches with EOS ("terminated" in §4.4): a string only counts
  // once the model emits EOS after it, and p(EOS | string) joins the cost.
  bool require_eos = false;

  // --- execution limits -----------------------------------------------------
  std::size_t max_results = 100;        // shortest path: matches to emit
  std::size_t max_expansions = 20000;   // shortest path: LLM call budget
  std::size_t num_samples = 100;        // random sampling: samples to draw
  std::size_t max_sample_attempts_factor = 16;  // retries per requested sample
  std::size_t beam_width = 8;           // beam search: live paths per step

  // Use the precompiled per-state token bitmasks (the token_masks pipeline
  // pass): executors intersect the decoding-rule mask with the state's mask
  // word-wise and visit only surviving bits instead of probing every edge.
  // An executor flag, not a compile input — it is deliberately excluded from
  // the artifact cache key, and the outputs are identical either way.
  bool use_token_masks = true;

  // Shortest path: nodes expanded per model round. 1 = strict Dijkstra.
  // Larger values batch frontier expansions through one
  // LanguageModel::next_rows call — the CPU analogue of the paper's
  // GPU test-vector scheduling (§3.3). Results are identical for every
  // batch size: matches found ahead of settlement are held back until no
  // frontier node can beat them, so emission stays exact
  // most-probable-first.
  std::size_t expansion_batch_size = 1;

  // Shortest path: run the asynchronous producer/consumer pipeline instead
  // of pop-batch-settle lockstep. The coordinator speculatively pops nodes
  // ahead of settlement (up to `speculation_horizon` beyond the round's
  // minimum cost), submits their model evaluations as an async batch, and
  // retires slots in submission order while later slots still evaluate.
  // Batch size tracks frontier depth via `target_occupancy` (replacing the
  // fixed expansion_batch_size, which only the lockstep path reads). All
  // scheduling decisions are pure functions of search state — never thread
  // count — so outputs are byte-identical to the lockstep path and across
  // 1/2/4/8 threads (enforced by the differential harness).
  bool speculative_expansion = true;

  // Pipeline: hard cap on nodes popped per round (bounds wasted speculative
  // work after the last true match).
  std::size_t max_in_flight = 64;

  // Pipeline: the controller aims to keep this many evaluations in flight;
  // per-round batch = min(max_in_flight, max(1, min(frontier, 2*target))).
  std::size_t target_occupancy = 16;

  // Pipeline: nodes costlier than round_min + horizon are left for a later
  // round. Speculating past this is nearly always wasted (their children
  // cannot settle soon); executor.speculative_horizon_clips counts the cut.
  double speculation_horizon = 8.0;

  // Random sampling: weigh prefix edges by walk counts (the paper's
  // normalization, Appendix C). Disabled only by the Figure 9 ablation.
  bool walk_normalized_sampling = true;

  // Canonical compilation: languages with at most this many strings are
  // enumerated and encoded exactly (§3.2 option 1); larger ones fall back to
  // dynamic canonicality pruning during traversal (option 2).
  std::size_t canonical_enumeration_budget = 50000;

  // Determinize pass: cap on character-DFA states materialized by subset /
  // boolean-product construction; exceeding it throws relm::StateBudgetError
  // instead of blowing up compile memory. 0 defers to RELM_DETERMINIZE_BUDGET
  // (default 2^20). A compile limit, not a language change — deliberately
  // excluded from the artifact cache key (the minimized result is identical
  // for any budget large enough to finish).
  std::size_t determinize_state_budget = 0;
};

}  // namespace relm::core
