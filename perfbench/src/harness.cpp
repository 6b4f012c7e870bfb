#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <queue>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

CpuClock::time_point CpuClock::now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return time_point(duration(static_cast<rep>(ts.tv_sec) * 1000000000 + ts.tv_nsec));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void Digest::add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 1099511628211ULL;
  }
  hash_ ^= 0xff;  // field separator
  hash_ *= 1099511628211ULL;
}

void Digest::add_log_prob(double value) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.12g", value);
  add(std::string_view(buf, static_cast<std::size_t>(n)));
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

namespace {

volatile std::uint64_t g_slice_sink;  // keeps the slice's work observable

// One slice of the sampler's fixed work; returns its CpuClock seconds.
double reference_slice_s() {
  constexpr std::size_t kEntries = 1 << 13;
  std::uint64_t state = 0;
  auto next = [&state] {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const CpuClock::time_point start = CpuClock::now();
  std::uint64_t sink = 0;
  {
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::size_t i = 0; i < kEntries; ++i) map[next() % (4 * kEntries)] = i;
    for (std::size_t i = 0; i < 4 * kEntries; ++i) {
      auto it = map.find(next() % (4 * kEntries));
      if (it != map.end()) sink += it->second;
    }
    std::vector<std::uint64_t> keys(kEntries);
    for (std::uint64_t& k : keys) k = next();
    std::sort(keys.begin(), keys.end());
    sink += keys[kEntries / 2];
    std::priority_queue<std::uint64_t> heap;
    for (std::size_t i = 0; i < kEntries; ++i) heap.push(next() >> 8);
    while (!heap.empty()) {
      sink += heap.top() & 1;
      heap.pop();
    }
    std::vector<std::vector<std::uint32_t>> rows(kEntries / 8);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].assign(1 + next() % 24, static_cast<std::uint32_t>(i));
    }
    for (const auto& row : rows) sink += row.size();
  }
  const double seconds = seconds_since(start);
  g_slice_sink = sink;
  return seconds;
}

}  // namespace

void SpeedSampler::sample() {
  const CpuClock::time_point start = CpuClock::now();
  if (start >= next_due_) run_slice();
  excluded_ += CpuClock::now() - start;
}

void SpeedSampler::sample_now() {
  const CpuClock::time_point start = CpuClock::now();
  run_slice();
  excluded_ += CpuClock::now() - start;
}

void SpeedSampler::run_slice() {
  RELM_TRACE_SPAN("bench.speed_sample");
  readings_.push_back(reference_slice_s());
  next_due_ = CpuClock::now() + kSampleEvery;
}

SpeedSampler& speed_sampler() {
  static SpeedSampler sampler;
  return sampler;
}

WorkClock::time_point WorkClock::now() noexcept {
  return time_point(
      (CpuClock::now() - speed_sampler().excluded()).time_since_epoch());
}

std::vector<double> TimingModel::next_log_probs(
    std::span<const relm::model::TokenId> context) const {
  const Clock::time_point start = Clock::now();
  std::vector<double> lp = inner_->next_log_probs(context);
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
  evals_.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(ns, std::memory_order_relaxed);
  if (std::this_thread::get_id() == coordinator_) {
    coordinator_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  return lp;
}

std::vector<std::vector<double>> TimingModel::next_log_probs_batch(
    std::span<const std::vector<relm::model::TokenId>> contexts) const {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  batch_rows_.fetch_add(contexts.size(), std::memory_order_relaxed);
  return LanguageModel::next_log_probs_batch(contexts);
}

TimingModel::Totals TimingModel::totals() const {
  Totals t;
  t.evals = evals_.load(std::memory_order_relaxed);
  t.busy_s = static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  t.coordinator_s =
      static_cast<double>(coordinator_ns_.load(std::memory_order_relaxed)) * 1e-9;
  t.batch_calls = batch_calls_.load(std::memory_order_relaxed);
  t.batch_rows = batch_rows_.load(std::memory_order_relaxed);
  return t;
}

void scale_times(UnitOutput& unit, double factor) {
  unit.cpu_s *= factor;
  for (double& ms : unit.ttfr_ms) ms *= factor;
  for (double& ms : unit.compile_cold_ms) ms *= factor;
}

void LayerTally::add_search(const relm::core::SearchStats& s) {
  search.expansions += s.expansions;
  search.pruned_non_canonical += s.pruned_non_canonical;
  search.mask_words_scanned += s.mask_words_scanned;
  search.mask_pruned += s.mask_pruned;
  search.pump_rounds += s.pump_rounds;
  search.speculative_wasted += s.speculative_wasted;
  search.frontier_shard_steals += s.frontier_shard_steals;
  search.mask_memo_hits += s.mask_memo_hits;
  search.mask_memo_misses += s.mask_memo_misses;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Metrics layer_metrics(const UnitOutput& unit) {
  const TimingModel::Totals& model = unit.model;
  const relm::obs::Snapshot snap = relm::obs::Registry::instance().snapshot();
  auto counter = [&](const char* name) -> double {
    auto it = snap.metrics.find(name);
    return it == snap.metrics.end() ? 0.0
                                    : static_cast<double>(it->second.counter);
  };
  // Busy time of a span site: the sum of its span.<name>.seconds histogram,
  // which relm's tracer feeds while tracing is on.
  auto span_s = [&](const std::string& name) -> double {
    auto it = snap.metrics.find("span." + name + ".seconds");
    return it == snap.metrics.end() ? 0.0 : it->second.sum;
  };

  const LayerTally& t = unit.tally;
  const relm::core::SearchStats& s = t.search;
  const relm::core::generate::GenerateStats& g = t.generate;
  Metrics m;

  // core/pipeline + automata
  m["compile.calls"] = static_cast<double>(t.compile_calls);
  m["compile.hit_ratio"] =
      ratio(static_cast<double>(t.compile_hits),
            static_cast<double>(t.compile_hits + t.compile_misses));
  m["compile.busy_s"] = span_s("bench.compile");
  m["compile.body_states"] = static_cast<double>(t.body_states);
  for (const char* pass : {"parse", "thompson", "determinize", "minimize",
                           "preprocess", "token_lift", "token_masks",
                           "assemble"}) {
    m[std::string("compile.pass.") + pass + "_s"] =
        span_s(std::string("compile.pass.") + pass);
  }

  // model
  m["model.evals"] = static_cast<double>(model.evals);
  m["model.eval_busy_s"] = model.busy_s;
  m["model.eval_us_mean"] =
      1e6 * ratio(model.busy_s, static_cast<double>(model.evals));
  m["model.cache_hit_ratio"] = ratio(
      static_cast<double>(t.logit_cache.hits),
      static_cast<double>(t.logit_cache.hits + t.logit_cache.misses));
  m["model.cache_evictions"] = static_cast<double>(t.logit_cache.evictions);
  m["model.inflight_dedup"] = counter("model.cache.inflight_dedup");
  m["model.batch_calls"] = static_cast<double>(model.batch_calls);
  m["model.batch_rows_mean"] = ratio(static_cast<double>(model.batch_rows),
                                     static_cast<double>(model.batch_calls));

  // model/decoding: a search computes a rule mask on every memo miss; a
  // generate stream computes one for every step that consumed a
  // distribution.
  m["decoding.mask_computations"] =
      static_cast<double>(s.mask_memo_misses + g.llm_calls + g.batch_dedup_hits);
  m["decoding.mask_memo_hit_ratio"] =
      ratio(static_cast<double>(s.mask_memo_hits),
            static_cast<double>(s.mask_memo_hits + s.mask_memo_misses));

  // core/executor. Self time is the coordinator's time inside next() that
  // it did not spend evaluating the model itself.
  const double next_s = span_s("bench.next");
  m["executor.next_busy_s"] = next_s;
  m["executor.self_s"] =
      next_s > 0 ? std::max(0.0, next_s - model.coordinator_s) : 0.0;
  m["executor.expansions"] = static_cast<double>(s.expansions);
  m["executor.pump_rounds"] = static_cast<double>(s.pump_rounds);
  m["executor.occupancy_mean"] = ratio(static_cast<double>(s.expansions),
                                       static_cast<double>(s.pump_rounds));
  m["executor.speculative_waste_ratio"] =
      ratio(static_cast<double>(s.speculative_wasted),
            static_cast<double>(s.expansions));
  m["executor.mask_words_scanned"] = static_cast<double>(s.mask_words_scanned);
  m["executor.mask_pruned"] = static_cast<double>(s.mask_pruned);
  m["executor.pruned_non_canonical"] =
      static_cast<double>(s.pruned_non_canonical);
  m["executor.frontier_shard_steals"] =
      static_cast<double>(s.frontier_shard_steals);

  // core/generate
  m["generate.tick_busy_s"] = span_s("bench.tick");
  m["generate.ticks"] = static_cast<double>(g.ticks);
  m["generate.tick_occupancy_mean"] = g.mean_tick_occupancy();
  m["generate.dedup_hits"] = static_cast<double>(g.batch_dedup_hits);
  m["generate.accept_ratio"] =
      ratio(static_cast<double>(g.streams_done),
            static_cast<double>(g.streams_retired));
  m["generate.mask_words_scanned"] = static_cast<double>(g.mask_words_scanned);

  // util/thread_pool
  m["pool.async_tasks"] = counter("pool.async_tasks");
  m["pool.steals"] = counter("pool.steals");
  m["pool.serial_dispatches"] = counter("pool.serial_dispatches");

  // Attribution: the unit's wall time that no top-level span covers.
  double covered = 0.0;
  for (const char* top : {"bench.compile", "bench.search_init", "bench.next",
                          "bench.add_stream", "bench.tick", "bench.teardown",
                          "bench.speed_sample"}) {
    covered += span_s(top);
  }
  m["trace.unit_wall_s"] = unit.wall_s;
  m["trace.unattributed_share"] =
      std::max(0.0, ratio(unit.wall_s - covered, unit.wall_s));
  return m;
}

}  // namespace perfbench
