#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "automata/walks.hpp"
#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/query.hpp"
#include "model/decoding.hpp"
#include "util/rng.hpp"

namespace relm::core::generate {

// One mask-guided generation stream: a resumable cursor over one sampling
// attempt, advanced one body token per engine tick. RandomSampler runs one
// stream to retirement per attempt. The stream's emitted token sequence is
// a pure function of (compiled query, model, decoding rules, its own RNG
// stream) — never of co-tenant streams, admission order, or thread count —
// which is the invariant the whole generate subsystem is built around (and
// what Configuration H of the differential harness pins).

enum class StreamState {
  kPending,    // admitted; enters the scheduler at the next tick
  kRunning,    // live cursor; steps every tick
  kSuspended,  // frozen mid-generation; resume() re-enters at the next tick
  kDone,       // accepted: result() holds the emitted sample
  kDeadEnd,    // the attempt dead-ended (no admissible continuation)
  kCancelled,  // retired by the caller; no result
};

const char* to_string(StreamState state);

// Per-stream knobs. Everything else — the decoding rules included — comes
// from the engine's query, so one model call per tick serves every stream.
struct StreamSpec {
  // StreamRng index: the stream's randomness is
  // util::StreamRng::stream(engine master seed, rng_stream), a pure function
  // of the pair. Defaults to the stream's admission index. Two live streams
  // with the same index draw the same sequence — allowed (it is how the
  // differential harness replays a stream against itself) but usually not
  // what a caller wants.
  std::optional<std::uint64_t> rng_stream;

  // Budget on generated body tokens; the query/model sequence budget applies
  // on top. Exhausting it retires the stream exactly like the sequence
  // budget: accept at a final state (unless the query owes EOS), dead-end
  // otherwise.
  std::size_t max_new_tokens = SIZE_MAX;
};

// Counters shared by the streams and folded by the engine; mirrors the
// executor's SearchStats naming so dashboards read the same. The step
// counters come from CompiledQuery::decode_step.
struct GenerateStats : CompiledQuery::StepCounters {
  std::size_t ticks = 0;
  std::size_t llm_calls = 0;          // unique contexts evaluated
  std::size_t batch_dedup_hits = 0;   // stream-steps served by a tick-mate's eval
  // Rule-mask reuse per unique row (see SearchStats); sums to llm_calls.
  std::size_t mask_memo_hits = 0;
  std::size_t mask_memo_misses = 0;
  std::size_t tokens_emitted = 0;     // body tokens across all streams
  std::size_t streams_retired = 0;    // kDone + kDeadEnd + kCancelled
  std::size_t streams_done = 0;
  std::size_t streams_dead_end = 0;
  std::size_t streams_cancelled = 0;
  double elapsed_seconds = 0.0;

  double tokens_per_second() const {
    return elapsed_seconds > 0
               ? static_cast<double>(tokens_emitted) / elapsed_seconds
               : 0.0;
  }
  double mean_tick_occupancy() const {
    return ticks ? static_cast<double>(llm_calls + batch_dedup_hits) /
                       static_cast<double>(ticks)
                 : 0.0;
  }
};

class GenStream {
 public:
  GenStream(const model::LanguageModel& model, const CompiledQuery& compiled,
            const SimpleSearchQuery& query,
            const automata::WalkCounts& prefix_walks, StreamSpec spec,
            util::Pcg32 rng);

  StreamState state() const { return state_; }
  const StreamSpec& spec() const { return spec_; }
  // The accepted sample; engaged exactly when state() == kDone. Fields mirror
  // RandomSampler's results (log_prob covers the body given the prefix), so
  // testing::Oracle::check_samples validates them unchanged.
  const std::optional<SearchResult>& result() const { return result_; }
  std::size_t body_len() const { return body_tokens_.size(); }
  // The stream's RNG as it stands after the draws made so far; RandomSampler
  // carries it into its next attempt.
  const util::Pcg32& rng() const { return rng_; }

  // --- engine driver interface (one call sequence per tick) ---------------

  // Draws the prefix (RNG only, no model call) and either leaves the stream
  // kRunning or retires it (prefix dead-end / empty language). Called by the
  // engine on the first tick the stream runs; idempotent via activated().
  void activate(GenerateStats& stats);
  bool activated() const { return activated_; }

  // True when this tick's step needs a model distribution. When false,
  // advance_no_model() resolves the step (budget retirement, free stop).
  bool needs_model() const;

  // The model-relevant context for this step (the model's relevant suffix of
  // prefix + body so far). Valid while needs_model().
  std::span<const tokenizer::TokenId> context() const;

  // Resolves a step that needs no distribution: budget exhaustion or an
  // unambiguous free stop. Requires !needs_model().
  void advance_no_model(GenerateStats& stats);

  // One body step given this context's model row: CompiledQuery::decode_step
  // applies the row's decoding mask, the automaton and canonicality;
  // renormalize over the survivors plus EOS-as-stop at final states, and draw
  // with the stream's own RNG.
  void advance(const model::LanguageModel::Row& row, GenerateStats& stats);

  // Cursor control. Suspend freezes the stream mid-generation (its RNG and
  // automaton state are untouched, so resuming later changes nothing about
  // its output); cancel retires it without a result. Both are no-ops on
  // already-retired streams.
  void suspend();
  void resume();
  void cancel(GenerateStats& stats);
  // Tick-start admission: kPending -> kRunning (activation follows).
  void resume_pending_to_running() {
    if (state_ == StreamState::kPending) state_ = StreamState::kRunning;
  }

 private:
  bool budget_spent() const;
  void accept(GenerateStats& stats);
  void dead_end(GenerateStats& stats);

  const model::LanguageModel* model_;
  const CompiledQuery* compiled_;
  const SimpleSearchQuery* query_;
  const automata::WalkCounts* prefix_walks_;
  StreamSpec spec_;
  util::Pcg32 rng_;

  StreamState state_ = StreamState::kPending;
  bool activated_ = false;
  std::vector<tokenizer::TokenId> context_;      // prefix + body tokens
  std::size_t prefix_len_ = 0;
  std::vector<tokenizer::TokenId> body_tokens_;
  std::string body_text_;
  CompiledQuery::CanonState canon_;  // settled boundary of body_tokens_
  double body_log_prob_ = 0.0;
  automata::StateId body_state_ = automata::kNoState;
  std::optional<SearchResult> result_;
};

}  // namespace relm::core::generate
