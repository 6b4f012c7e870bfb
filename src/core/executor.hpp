#pragma once

#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "automata/walks.hpp"
#include "core/compiled_query.hpp"
#include "model/language_model.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/token_bitset.hpp"

namespace relm::core {

// One matching tuple from a query, streamed to the user program (§3.1).
struct SearchResult {
  std::vector<tokenizer::TokenId> tokens;  // full token path (EOS excluded)
  std::string text;                        // decoded string
  double log_prob;                         // log p of the path (incl. EOS when required)
  std::size_t llm_calls_at_emission;       // cumulative model invocations
  double seconds_at_emission;              // since search start
};

// The step counters (pruned_by_rules, pruned_non_canonical,
// mask_words_scanned, mask_pruned) come from CompiledQuery::decode_step;
// shortest path also counts EOS-closure prunes in pruned_by_rules.
struct SearchStats : CompiledQuery::StepCounters {
  std::size_t llm_calls = 0;
  std::size_t expansions = 0;          // shortest path: nodes expanded
  std::size_t sample_attempts = 0;     // random: attempts incl. dead ends
  std::size_t sample_dead_ends = 0;
  // Async-pipeline counters. pump_rounds counts pipeline rounds;
  // speculative_expanded the nodes popped beyond the first per round (work
  // done ahead of settlement); speculative_cancelled nodes deferred by the
  // mid-selection expansion-budget clamp; horizon_clips selections cut by
  // the cost horizon; speculative_wasted evaluations whose node cost
  // exceeded the last emitted result (counted once, when the search ends).
  std::size_t pump_rounds = 0;
  std::size_t speculative_expanded = 0;
  std::size_t speculative_cancelled = 0;
  std::size_t speculative_wasted = 0;
  std::size_t horizon_clips = 0;
  // Always 0: the frontier is one heap owned by the coordinator. Kept so
  // existing readers of the field still compile.
  std::size_t frontier_shard_steals = 0;
  // Rule-mask reuse (restricted decoding, every strategy): a hit is a mask
  // the model row reused from an earlier suffix-equal evaluation — a
  // logit-cache entry or a row of the same batch — instead of recomputing
  // allowed_tokens over the whole vocabulary; a miss is a mask computed.
  std::size_t mask_memo_hits = 0;
  std::size_t mask_memo_misses = 0;
  // Logit-cache activity attributed to this search (deltas against the
  // model's counters at construction). All zero when the model does not
  // memoize (LanguageModel::cache_stats() returns nullopt).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  double elapsed_seconds = 0;

  double cache_hit_rate() const {
    const std::size_t total = cache_hits + cache_misses;
    return total ? static_cast<double>(cache_hits) / static_cast<double>(total)
                 : 0.0;
  }

  // Mean model evaluations per pipeline round — the occupancy the
  // target-occupancy controller actually achieved (gated by bench_compare).
  double mean_batch_occupancy() const {
    return pump_rounds ? static_cast<double>(expansions) /
                             static_cast<double>(pump_rounds)
                       : 0.0;
  }
};

// The token budget of one traversal: the query's sequence_length, capped by
// (and defaulting to) the model's maximum.
std::size_t sequence_budget(const SimpleSearchQuery& query,
                            const model::LanguageModel& model);

// Counts a restricted row's rule mask as reused (hit) or computed (miss).
template <typename Stats>
void count_mask(const model::LanguageModel::Row& row, Stats& stats) {
  if (row.mask) ++(row.mask_reused ? stats.mask_memo_hits : stats.mask_memo_misses);
}

// Dijkstra / shortest-path traversal (§3.3): yields matches in decreasing
// probability order. Costs are -log p, non-negative, so the first pop of a
// match is globally optimal and subsequent pops enumerate the language in
// order. Prefix edges are never pruned by decoding rules but carry their
// true costs (the startup-latency heuristic).
class ShortestPathSearch {
 public:
  ShortestPathSearch(const model::LanguageModel& model, const CompiledQuery& compiled,
                     const SimpleSearchQuery& query);

  // Next match, or nullopt when the language (or a budget) is exhausted.
  // Matches with identical decoded text are emitted once (first = cheapest);
  // set_dedup_text(false) reports every token tuple instead. A model error
  // poisons the search: next() and all() rethrow it from then on.
  std::optional<SearchResult> next();

  const SearchStats& stats() const { return stats_; }

  // Emit every result up to the query's max_results.
  std::vector<SearchResult> all();

  // When false, distinct token tuples decoding to the same text are all
  // reported (used by the unprompted-toxicity volume measurements, §4.3).
  void set_dedup_text(bool dedup) { dedup_text_ = dedup; }

 private:
  struct Node {
    CompiledQuery::StateSet set;
    std::int32_t parent;
    tokenizer::TokenId token;   // token on the edge from parent
    double cost;                // cumulative -log p
    std::uint32_t depth;
    std::uint32_t body_len;     // tokens consumed by the body machine
    // Settled canonicality boundary of this node's body run: children resume
    // the greedy-deviation check here instead of re-walking the whole body,
    // keeping per-child verification O(newly settled).
    CompiledQuery::CanonState canon;
    bool terminal;              // EOS attached; emit on pop
    bool expanded = false;
    bool evaluated = false;     // consumed a model call (waste accounting)
  };
  struct QueueEntry {
    double cost;
    std::int32_t node;
    // Ties break on node id: node ids are assigned in deterministic order by
    // the coordinator, so the pop sequence is a pure function of search
    // state, never of heap shape or thread count.
    bool operator>(const QueueEntry& other) const {
      if (cost != other.cost) return cost > other.cost;
      return node > other.node;
    }
  };

  // A match held back until it is provably optimal. A pipeline round pops up
  // to max_in_flight of the cheapest *discovered* nodes, so a popped match
  // can be costlier than a not-yet-discovered encoding of the same text (its
  // parent may sit in the same round). Matches therefore wait in a
  // cost-ordered heap and are released only once no frontier node could
  // still beat them; text dedup happens at release time, keeping the most
  // probable path.
  struct PendingResult {
    double cost;
    SearchResult result;
    // Equal-cost results release in token-lexicographic order: a canonical
    // tie-break that is a pure function of the result itself, so release
    // order never depends on heap insertion order.
    bool operator>(const PendingResult& other) const {
      if (cost != other.cost) return cost > other.cost;
      return result.tokens > other.result.tokens;
    }
  };

  // Per-slot input/output of the async pipeline. A task is captured fully at
  // selection time (coordinator) and evaluated by an arbitrary pool thread:
  // it must not read nodes_ (which the coordinator reallocates while tasks
  // run) or touch stats_; everything it needs travels by value and every
  // side effect comes back in the SlotOutput.
  struct SlotTask {
    CompiledQuery::StateSet set;
    std::vector<tokenizer::TokenId> context;      // model-relevant suffix
    std::vector<tokenizer::TokenId> body_prefix;  // dynamic-canonical only
    std::string body_text;  // decoded body_prefix (dynamic-canonical only)
    CompiledQuery::CanonState canon;  // parent's settled boundary
  };
  struct SlotOutput {
    model::LanguageModel::Row row;
    CompiledQuery::StepOutput step;  // children inherit step.canon[i]
  };

  // The last `len` tokens of a node's path: its depth for the whole path,
  // model_.relevant_context_length() for the model-visible context (walking
  // only that suffix keeps per-pop cost O(window), not O(depth)). It writes
  // into a caller-owned buffer so hot paths can reuse its capacity.
  void path_tail_into(std::int32_t node, std::size_t len,
                      std::vector<tokenizer::TokenId>& out) const;
  // One async pipeline round: deterministic selection up to the cost
  // horizon / occupancy target, async submission, in-order retirement
  // overlapping later slots' evaluation. With max_in_flight = 1 a round is
  // one strict Dijkstra step.
  void pump();
  // Fill-in-place forms: the pipeline reuses one SlotTask/SlotOutput per
  // round slot across rounds, so steady-state rounds allocate nothing.
  void make_task(std::int32_t node_id, SlotTask& task) const;
  void evaluate_slot(const SlotTask& task, SlotOutput& out) const;
  void emit_if_result(std::int32_t node_id);
  void count_speculative_waste();
  void refresh_cache_stats();

  const model::LanguageModel& model_;
  const CompiledQuery& compiled_;
  const SimpleSearchQuery& query_;
  std::vector<Node> nodes_;
  // Min-heap on (cost, node_id). Only the coordinator pushes (at retirement)
  // and pops (at selection), so it needs no lock.
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> frontier_;
  // Per-round pipeline scratch, reused across rounds (kept capacity is what
  // makes steady-state rounds allocation-free). round_outputs_ slots are
  // written by pool workers during a round — one writer per slot, joined by
  // AsyncBatch::wait before the coordinator reads them.
  struct PipeSlot {
    std::int32_t node;
    std::size_t eval;  // index into round_tasks_, or SIZE_MAX (no model call)
  };
  std::vector<PipeSlot> round_slots_;
  std::vector<SlotTask> round_tasks_;
  std::vector<SlotOutput> round_outputs_;
  std::unordered_set<std::string> emitted_texts_;
  std::priority_queue<PendingResult, std::vector<PendingResult>, std::greater<>>
      pending_results_;
  std::size_t emitted_ = 0;
  bool dedup_text_ = true;
  double last_emitted_cost_ = 0.0;
  bool any_emitted_ = false;
  bool waste_counted_ = false;
  std::exception_ptr error_;  // first model error; every later next() rethrows
  SearchStats stats_;
  model::LanguageModel::CacheStats cache_baseline_;
  bool model_has_cache_ = false;
  util::Timer timer_;
};

// Randomized traversal (§3.3): unbiased sampling from the query language.
// The prefix is drawn uniformly over prefix walks using walk-count edge
// normalization (Appendix C) — or uniformly over edges when the query
// disables normalization (the Figure 9 ablation) — and the suffix is drawn
// from the LLM restricted to the automaton and decoding rules, with EOS
// disambiguating stop-vs-continue at final states.
class RandomSampler {
 public:
  // Each attempt runs one generate::GenStream to retirement on this
  // sampler's RNG, which carries over from one attempt to the next.
  RandomSampler(const model::LanguageModel& model, const CompiledQuery& compiled,
                const SimpleSearchQuery& query, std::uint64_t seed);

  // One sample; nullopt if the attempt dead-ended (caller may retry).
  std::optional<SearchResult> sample_once();

  // Draws query.num_samples samples (with retries bounded by
  // query.max_sample_attempts_factor).
  std::vector<SearchResult> sample_all();

  const SearchStats& stats() const { return stats_; }

  // Decoded text of the prefix portion of the last successful sample
  // (empty for unconditional queries). Used by the edit-position analysis.
  const std::string& last_prefix_text() const { return last_prefix_text_; }

 private:
  void refresh_cache_stats();

  const model::LanguageModel& model_;
  const CompiledQuery& compiled_;
  const SimpleSearchQuery& query_;
  automata::WalkCounts prefix_walks_;
  util::Pcg32 rng_;
  SearchStats stats_;
  model::LanguageModel::CacheStats cache_baseline_;
  bool model_has_cache_ = false;
  util::Timer timer_;
  std::string last_prefix_text_;
};

// Constrained beam search: the trie/automaton-constrained beam decoding the
// paper relates to (De Cao et al., 2021; §5). Keeps the `beam_width` most
// probable partial paths per step. Compared to Dijkstra it is approximate —
// a path outside the beam is gone for good — but its cost is bounded:
// at most beam_width LLM calls per step for at most sequence_length steps.
// Matches found along the way are collected and returned most probable
// first. Prefix edges bypass decoding rules exactly as in the other
// traversals; the prefix consumes beam slots like any other path.
class BeamSearch {
 public:
  BeamSearch(const model::LanguageModel& model, const CompiledQuery& compiled,
             const SimpleSearchQuery& query);

  // Runs to completion (all beams dead or sequence limit reached).
  std::vector<SearchResult> run();

  const SearchStats& stats() const { return stats_; }

 private:
  struct Beam {
    std::vector<tokenizer::TokenId> tokens;
    CompiledQuery::StateSet set;
    double log_prob = 0.0;
    std::uint32_t body_len = 0;
    std::string body_text;  // decoded last body_len tokens
    CompiledQuery::CanonState canon;

    CompiledQuery::BodyCursor body() const {
      return {{tokens.data() + (tokens.size() - body_len), body_len},
              body_text,
              canon};
    }
  };

  void refresh_cache_stats();

  const model::LanguageModel& model_;
  const CompiledQuery& compiled_;
  const SimpleSearchQuery& query_;
  SearchStats stats_;
  model::LanguageModel::CacheStats cache_baseline_;
  bool model_has_cache_ = false;
  util::Timer timer_;
};

}  // namespace relm::core
