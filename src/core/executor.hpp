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
  // The search's totals when the result was handed to the caller: model
  // invocations so far and seconds since the search started. Shortest path
  // reads them when next() releases the result, which can be rounds after a
  // pipelined search found it.
  std::size_t llm_calls_at_emission;
  double seconds_at_emission;
};

// The step counters (pruned_by_rules, pruned_non_canonical,
// mask_words_scanned, mask_pruned) count children cut, and come from
// CompiledQuery::decode_step or its halves; shortest path also counts
// EOS-closure prunes in pruned_by_rules. Shortest path walks canonicality
// only for the children it brings to its frontier, so its
// pruned_non_canonical counts the cut ones among those, not every child
// cut.
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
  // Shortest path: every child an expansion offers (the EOS child included),
  // and the children sorted into a brood's batch: the first batch at the
  // expansion, each later one when the sorted ones run out. A child's next
  // state is looked up in the automata only when it surfaces.
  std::size_t children_discovered = 0;
  std::size_t children_built = 0;
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
  // A popped child: the frontier builds a node only when it pops it, so
  // every node is expanded (or emitted) exactly once.
  struct Node {
    CompiledQuery::StateSet set;
    std::int32_t parent;
    tokenizer::TokenId token;   // token on the edge from parent
    double cost;                // cumulative -log p
    std::uint32_t depth;
    std::uint32_t body_len;     // tokens consumed by the body machine
    // Canonicality state of this node's body run: children resume the
    // settlement walk here instead of re-walking the whole body.
    CompiledQuery::CanonState canon;
    bool terminal;              // EOS attached; emit on pop
    bool evaluated = false;     // consumed a model call (waste accounting)
  };

  // A child an expansion offered, waiting in its brood (16 bytes). Its
  // StateSet is looked up only when it surfaces.
  enum Kind : std::uint32_t { kBody, kPrefixOnly, kEos };
  struct Candidate {
    double cost;                // parent.cost - lp[token]
    std::uint32_t index;        // step index; the EOS child comes last
    std::uint32_t token : 30;
    std::uint32_t kind : 2;     // Kind; the root is kPrefixOnly
  };
  static_assert(sizeof(Candidate) == 16);
  // Brood order: (cost, index).
  static bool cheaper(const Candidate& a, const Candidate& b);

  // The children of one expanded node (partial expansion, Yoshizumi et al.
  // 2000). candidates_[head, batch_end) is the sorted batch; its first is the
  // surfaced head, which the frontier holds. candidates_[batch_end, end) are
  // the rest, unsorted: the next batch takes the `batch` cheapest of them.
  // Brood ids grow in expansion order, so (cost, brood, index) orders
  // children exactly as (cost, node id) would if every child were a node.
  struct Brood {
    std::int32_t parent;        // the expanded node; -1 for the root's brood
    std::uint32_t head;
    std::uint32_t batch_end;
    std::uint32_t end;
    std::uint32_t batch;        // the next batch's size
    CompiledQuery::StateSet head_set;  // looked up when the head surfaced
    CompiledQuery::CanonState head_canon;
    // The parent's body run, for surfacing's canonicality walk
    // (dynamic-canonical queries): run_tokens_ from run_tokens (length
    // nodes_[parent].body_len), run_text_ from run_text (run_bytes).
    std::uint32_t run_tokens;
    std::uint32_t run_text;
    std::uint32_t run_bytes;
  };
  struct QueueEntry {
    double cost;
    std::uint32_t brood;
    // A brood has at most one entry (its head), so (cost, brood) orders
    // entries totally: the pop sequence is a pure function of search
    // state, never of heap shape or thread count.
    bool operator>(const QueueEntry& other) const {
      if (cost != other.cost) return cost > other.cost;
      return brood > other.brood;
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
  // it must not read nodes_ or the broods (which the coordinator grows while
  // tasks run) or touch stats_; everything it needs travels by value and
  // every side effect comes back in the SlotOutput.
  struct SlotTask {
    CompiledQuery::StateSet set;
    double cost;  // the parent's
    std::vector<tokenizer::TokenId> context;  // model-relevant suffix
  };
  struct SlotOutput {
    model::LanguageModel::Row row;
    CompiledQuery::StepOutput step;  // counters and eos_allowed
    // children[0, batch) is the first batch, sorted in brood order; the
    // rest follow unsorted.
    std::vector<Candidate> children;
    std::uint32_t batch = 0;
  };

  // Appends the last `len` tokens of a node's path to `out`: its depth for
  // the whole path, model_.relevant_context_length() for the model-visible
  // context (walking only that suffix keeps per-pop cost O(window), not
  // O(depth)), body_len for its body run. It writes into a caller-owned
  // buffer so hot paths can reuse its capacity.
  void append_path_tail(std::int32_t node, std::size_t len,
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
  // Stores an expansion's children as a brood and surfaces its head.
  void add_brood(std::int32_t parent, std::span<const Candidate> children,
                 std::uint32_t batch);
  // Pushes brood `b`'s cheapest child not yet surfaced onto the frontier,
  // first dropping those canonicality cuts.
  void surface(std::uint32_t b);
  // Sorts the brood's next batch out of its rest; false when none is left.
  bool refill(Brood& brood);
  // Builds the node for brood `b`'s head (just popped) and surfaces the
  // brood's next child; returns the node's id.
  std::int32_t pop_node(std::uint32_t b);
  void emit_if_result(std::int32_t node_id);
  // The release loop of next(); sets `pumped` once it runs a round.
  std::optional<SearchResult> release_next(bool& pumped);
  void count_speculative_waste();
  void refresh_cache_stats();

  const model::LanguageModel& model_;
  const CompiledQuery& compiled_;
  const SimpleSearchQuery& query_;
  std::vector<Node> nodes_;
  std::vector<Candidate> candidates_;
  std::vector<Brood> broods_;
  std::vector<tokenizer::TokenId> run_tokens_;
  std::string run_text_;
  CompiledQuery::BodyScratch canon_scratch_;
  // Children discovered and not yet popped or dropped, sorted into a batch
  // or not: the round width's measure of frontier depth.
  std::size_t unpopped_ = 0;
  // Min-heap on (cost, brood): one entry per brood with children left. Only
  // the coordinator pushes (at surfacing) and pops (at selection), so it
  // needs no lock.
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
  // sampler's RNG, which carries over from one attempt to the next. An
  // attempt ends on the draw that dooms its body's canonicality, so on a
  // dynamic-canonical query it makes no draws past that point.
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
