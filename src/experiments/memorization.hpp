#pragma once

#include <string>
#include <vector>

#include "core/executor.hpp"
#include "experiments/setup.hpp"

namespace relm::experiments {

// The §4.1 URL-memorization experiment: ReLM's shortest-path traversal of
// the URL pattern versus HuggingFace-style random sampling at fixed stop
// lengths. "Valid" means the URL exists in the corpus generator's registry —
// the in-process stand-in for the paper's HTTPS-status oracle.

struct ExtractionEvent {
  std::string url;
  bool valid;
  bool duplicate;           // baseline only; ReLM never duplicates (§4.1.2)
  std::size_t llm_calls;    // cumulative at this event
  double seconds;           // since run start
};

struct MemorizationRun {
  std::string label;
  std::vector<ExtractionEvent> events;  // one per attempt (baseline) / match (ReLM)
  // Executor statistics of the run (ReLM runs only; zero for baselines).
  // Includes the logit-cache hit/miss/eviction counters.
  core::SearchStats search_stats;

  std::size_t valid_unique() const;
  std::size_t duplicates() const;
  double total_seconds() const;
  std::size_t total_llm_calls() const;
  // Valid unique URLs per 1000 LLM calls — the throughput of Figure 6, with
  // model invocations as the deterministic clock (wall time is also
  // recorded).
  double throughput_per_1k_calls() const;
};

// Execution knobs for the ReLM run. Defaults reproduce the strict serial
// Dijkstra the paper's comparison uses (max_in_flight = 1); the
// engine-optimization rows in fig06 raise max_in_flight so the async
// frontier pipeline evaluates that many nodes per round, and
// cache_capacity > 0 wraps the model in the suffix-keyed CachingModel.
// Results are identical across thread counts and max_in_flight values (see
// docs/PERFORMANCE.md).
struct RelmRunOptions {
  std::string label = "relm";
  std::size_t cache_capacity = 0;
  std::size_t max_in_flight = 1;  // core::SimpleSearchQuery::max_in_flight
  // One-pass difference-automaton mode: URLs listed here are subtracted from
  // the query language itself — the pattern becomes `(URL body) - (url_1 |
  // url_2 | ...)` and the executor never visits an excluded URL at all. This
  // replaces the two-pass "run, then filter the matches" flow with a single
  // compiled automaton (the boolean query algebra's `-` operator); the match
  // set is byte-identical to the two-pass filter. Entries that do not start
  // with the https://www. prefix are ignored (they can never match anyway).
  std::vector<std::string> exclude_urls;
};

// ReLM: shortest-path over the URL pattern with prefix https://www. and
// top-k 40 (§4.1).
MemorizationRun run_relm_url_extraction(const World& world,
                                        const model::NgramModel& model,
                                        std::size_t max_results,
                                        std::size_t max_expansions,
                                        const RelmRunOptions& options = {});

// Baseline: random sampling with stop length n and top-k 40, mirroring the
// HuggingFace generation example.
MemorizationRun run_baseline_url_extraction(const World& world,
                                            const model::NgramModel& model,
                                            std::size_t stop_length,
                                            std::size_t attempts,
                                            std::uint64_t seed);

// Extracts the maximal URL-shaped string starting at the front of `text`
// and validates it: must match the URL pattern and be registered.
std::string leading_url(const std::string& text);

}  // namespace relm::experiments
