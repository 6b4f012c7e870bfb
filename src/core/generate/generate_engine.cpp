#include "core/generate/generate_engine.hpp"

#include <algorithm>

#include "model/language_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace relm::core::generate {

using tokenizer::TokenId;

namespace {

// Registry-backed generate metrics (docs/OBSERVABILITY.md catalogue). The
// per-engine GenerateStats stay the per-run attribution surface; these
// accumulate the same events process-wide for --metrics and bench snapshots.
struct GenerateMetrics {
  obs::Counter& ticks;
  obs::Counter& llm_calls;
  obs::Counter& batch_dedup_hits;
  obs::Counter& tokens;
  obs::Counter& streams_retired;
  obs::Counter& streams_dead_end;
  obs::Histogram& tick_occupancy;
  obs::Gauge& tokens_per_sec;

  static GenerateMetrics& get() {
    static GenerateMetrics m{
        obs::Registry::instance().counter("generate.ticks"),
        obs::Registry::instance().counter("generate.llm_calls"),
        obs::Registry::instance().counter("generate.batch_dedup_hits"),
        obs::Registry::instance().counter("generate.tokens"),
        obs::Registry::instance().counter("generate.streams_retired"),
        obs::Registry::instance().counter("generate.streams_dead_end"),
        obs::Registry::instance().histogram(
            "generate.tick_occupancy", obs::Histogram::default_size_bounds()),
        obs::Registry::instance().gauge("generate.tokens_per_sec")};
    return m;
  }
};

}  // namespace

GenerateEngine::GenerateEngine(const model::LanguageModel& model,
                               const CompiledQuery& compiled,
                               const SimpleSearchQuery& query,
                               std::uint64_t master_seed)
    : model_(model),
      compiled_(compiled),
      query_(query),
      master_seed_(master_seed),
      prefix_walks_(compiled.prefix_automaton(), sequence_budget(query, model)) {}

GenerateEngine::StreamId GenerateEngine::add_stream(StreamSpec spec) {
  const StreamId id = streams_.size();
  const std::uint64_t rng_stream = spec.rng_stream.value_or(id);
  spec.rng_stream = rng_stream;
  streams_.emplace_back(model_, compiled_, query_, prefix_walks_,
                        std::move(spec),
                        util::StreamRng::stream(master_seed_, rng_stream));
  return id;
}

void GenerateEngine::suspend(StreamId id) { at(id).suspend(); }
void GenerateEngine::resume(StreamId id) { at(id).resume(); }

void GenerateEngine::cancel(StreamId id) {
  const std::size_t retired_before = stats_.streams_retired;
  at(id).cancel(stats_);
  GenerateMetrics::get().streams_retired.add(stats_.streams_retired -
                                             retired_before);
}

std::size_t GenerateEngine::live_streams() const {
  std::size_t live = 0;
  for (const GenStream& s : streams_) {
    switch (s.state()) {
      case StreamState::kPending:
      case StreamState::kRunning:
      case StreamState::kSuspended:
        ++live;
        break;
      default:
        break;
    }
  }
  return live;
}

bool GenerateEngine::tick() {
  RELM_TRACE_SPAN("generate.tick");
  GenerateMetrics& metrics = GenerateMetrics::get();

  // Admission: pending streams (late joiners included) go live this tick.
  // Activation draws the prefix from the stream's own RNG — no model call —
  // and may retire the stream on the spot (prefix dead-end).
  runnable_.clear();
  for (StreamId id = 0; id < streams_.size(); ++id) {
    GenStream& s = streams_[id];
    if (s.state() == StreamState::kPending) s.resume_pending_to_running();
    if (s.state() != StreamState::kRunning) continue;
    if (!s.activated()) {
      s.activate(stats_);
      const StreamState after = s.state();
      if (after == StreamState::kDeadEnd) metrics.streams_dead_end.add(1);
      if (after != StreamState::kRunning) {
        metrics.streams_retired.add(1);
        continue;
      }
    }
    runnable_.push_back(id);
  }
  if (runnable_.empty()) {
    stats_.elapsed_seconds = timer_.seconds();
    return false;
  }

  ++stats_.ticks;
  metrics.ticks.add(1);
  metrics.tick_occupancy.observe(static_cast<double>(runnable_.size()));

  // Phase 1: resolve steps that need no distribution (budget retirement,
  // free stops) and collect the rest for the batch.
  needs_eval_.clear();
  for (StreamId id : runnable_) {
    GenStream& s = streams_[id];
    if (s.needs_model()) {
      needs_eval_.push_back(id);
    } else {
      const std::size_t dead_before = stats_.streams_dead_end;
      s.advance_no_model(stats_);
      metrics.streams_retired.add(1);
      if (stats_.streams_dead_end != dead_before) {
        metrics.streams_dead_end.add(1);
      }
    }
  }
  if (needs_eval_.empty()) {
    stats_.elapsed_seconds = timer_.seconds();
    return true;
  }

  // Phase 2: context dedup through the relevant suffix — the same key the
  // suffix-keyed logit cache uses, so two streams in lock-step (or two
  // admissions of the same prompt) cost one model evaluation per tick, not
  // two. Keys compare by full token equality (hash only narrows the scan),
  // and slots are assigned in stream order, so the unique-context list is a
  // pure function of the runnable streams' states.
  unique_contexts_.clear();
  slot_of_stream_.clear();
  slot_of_stream_.reserve(needs_eval_.size());
  for (StreamId id : needs_eval_) {
    std::span<const TokenId> ctx = streams_[id].context();
    std::size_t slot = unique_contexts_.size();
    for (std::size_t u = 0; u < unique_contexts_.size(); ++u) {
      const std::vector<TokenId>& have = unique_contexts_[u];
      if (have.size() == ctx.size() &&
          std::equal(have.begin(), have.end(), ctx.begin())) {
        slot = u;
        break;
      }
    }
    if (slot == unique_contexts_.size()) {
      unique_contexts_.emplace_back(ctx.begin(), ctx.end());
    } else {
      ++stats_.batch_dedup_hits;
      metrics.batch_dedup_hits.add(1);
    }
    slot_of_stream_.push_back(slot);
  }

  // Phase 3: ONE row call for the whole tick. The model builds the unique
  // contexts' distributions and rule masks across the shared ThreadPool;
  // slot i depends on unique_contexts_[i] alone, whatever the thread count.
  const std::vector<model::LanguageModel::Row> rows =
      model_.next_rows(unique_contexts_, query_.decoding);
  stats_.llm_calls += unique_contexts_.size();
  metrics.llm_calls.add(unique_contexts_.size());
  for (const model::LanguageModel::Row& row : rows) count_mask(row, stats_);

  // Phase 4: per-stream mask-and-scan + sample, fanned across the pool. Each
  // step is a pure function of its own stream's cursor, its own RNG, and its
  // own slot's row, writing only its own stream plus a private stats
  // slot — the parallel_for contract — so outputs are identical at every
  // thread count. Stats fold back in stream order.
  step_stats_.assign(needs_eval_.size(), GenerateStats{});
  util::ThreadPool::shared().parallel_for(
      needs_eval_.size(), [&](std::size_t i) {
        streams_[needs_eval_[i]].advance(rows[slot_of_stream_[i]],
                                         step_stats_[i]);
      });
  for (const GenerateStats& step : step_stats_) {
    stats_.tokens_emitted += step.tokens_emitted;
    stats_.streams_retired += step.streams_retired;
    stats_.streams_done += step.streams_done;
    stats_.streams_dead_end += step.streams_dead_end;
    stats_ += step;  // the step counters
    metrics.tokens.add(step.tokens_emitted);
    metrics.streams_retired.add(step.streams_retired);
    metrics.streams_dead_end.add(step.streams_dead_end);
  }

  stats_.elapsed_seconds = timer_.seconds();
  return true;
}

void GenerateEngine::run() {
  RELM_TRACE_SPAN("generate.run");
  while (tick()) {
  }
  stats_.elapsed_seconds = timer_.seconds();
  GenerateMetrics::get().tokens_per_sec.set(stats_.tokens_per_second());
}

}  // namespace relm::core::generate
