#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/generate/gen_stream.hpp"
#include "util/logging.hpp"

namespace relm::core::generate {

// Batched multi-stream mask-guided generation (the `relmd` session backend
// shape from ROADMAP.md): the engine owns a set of GenStreams and drives them
// with a step scheduler. Every tick it
//
//   1. admits pending streams (late joiners entered since the last tick),
//   2. gathers all runnable streams and resolves the steps that need no
//      model call (budget retirement, free stops),
//   3. deduplicates the remaining streams' model contexts through their
//      relevant suffixes (the same key the suffix-keyed logit cache uses),
//   4. submits ONE LanguageModel::next_rows over the unique contexts under
//      the query's decoding rules — the model builds the rows (distribution
//      plus rule mask) across util::ThreadPool::shared(), and a logit cache
//      serves repeats of both —
//   5. and applies each row's rule mask and the stream's automaton mask and
//      samples its next token with the stream's own RNG, retiring streams
//      on EOS/budget.
//
// Determinism invariant (Configuration H of the differential harness, and
// tests/test_generate.cpp): every stream's emitted token sequence is
// byte-identical to running that stream alone, serially, at any thread count
// and any co-tenant mix. The ingredients: per-stream RNG streams are
// isolated (util::StreamRng — a pure function of the engine's master seed
// and the stream's index), next_rows fills slot i from contexts[i]
// alone regardless of scheduling, and each step reads
// only its own stream's state plus its own slot. Batch composition therefore
// cannot leak into sampling order.
//
// Streams are resumable cursors: suspend/resume/cancel mid-generation, and
// streams added while the engine runs enter at the next tick.
class GenerateEngine {
 public:
  using StreamId = std::size_t;

  GenerateEngine(const model::LanguageModel& model,
                 const CompiledQuery& compiled, const SimpleSearchQuery& query,
                 std::uint64_t master_seed);

  // Admits a stream; it enters the scheduler at the next tick. The spec's
  // rng_stream defaults to the admission index, so an engine with default
  // specs numbers its streams 0, 1, 2, ... in admission order.
  StreamId add_stream(StreamSpec spec = {});

  // Cursor control; valid any time between ticks. Suspending keeps the
  // stream's RNG and automaton state frozen, so a later resume continues
  // exactly where it left off; cancelling retires it without a result.
  void suspend(StreamId id);
  void resume(StreamId id);
  void cancel(StreamId id);

  // One scheduler round. Returns false when no stream was runnable (all
  // retired or suspended) — the engine is idle, not necessarily finished:
  // suspended streams resume into later ticks.
  bool tick();

  // Ticks until no runnable streams remain.
  void run();

  std::size_t num_streams() const { return streams_.size(); }
  // Streams that still hold a live cursor (pending, running, or suspended).
  std::size_t live_streams() const;

  StreamState state(StreamId id) const { return at(id).state(); }
  // The accepted sample of a kDone stream (Oracle::check_samples-compatible;
  // see GenStream::result).
  const std::optional<SearchResult>& result(StreamId id) const {
    return at(id).result();
  }
  std::size_t body_len(StreamId id) const { return at(id).body_len(); }

  const GenerateStats& stats() const { return stats_; }

 private:
  const GenStream& at(StreamId id) const {
    RELM_DCHECK(id < streams_.size(), "stream id out of range");
    return streams_[id];
  }
  GenStream& at(StreamId id) {
    RELM_DCHECK(id < streams_.size(), "stream id out of range");
    return streams_[id];
  }

  const model::LanguageModel& model_;
  const CompiledQuery& compiled_;
  const SimpleSearchQuery& query_;
  const std::uint64_t master_seed_;
  automata::WalkCounts prefix_walks_;
  // deque, not vector: GenStream is not movable-stable under reallocation
  // concerns for outstanding references, and ids must stay dense and stable
  // while late joiners are admitted mid-run.
  std::deque<GenStream> streams_;
  GenerateStats stats_;
  util::Timer timer_;

  // Per-tick scratch, reused across ticks.
  std::vector<StreamId> runnable_;
  std::vector<StreamId> needs_eval_;
  std::vector<std::vector<tokenizer::TokenId>> unique_contexts_;
  std::vector<std::size_t> slot_of_stream_;
  std::vector<GenerateStats> step_stats_;
};

}  // namespace relm::core::generate
