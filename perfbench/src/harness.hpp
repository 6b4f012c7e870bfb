#pragma once

// Measurement plumbing shared by the workloads: clocks and percentiles, the
// output digest, process memory, the timing model decorator the traced run
// wraps around the n-gram model, and the per-layer tally every workload
// fills in.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/executor.hpp"
#include "core/generate/gen_stream.hpp"
#include "model/language_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// CPU time of the whole process (every thread). The end-to-end metrics are
// taken on this clock (less SpeedSampler slices, see WorkClock): on a shared
// host a unit's wall time also counts the time it waited for a core, which
// measures the neighbours, not relm. On a core of its own a one-thread run
// reads the same on both clocks.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};

// CpuClock minus the time spent in SpeedSampler slices: the clock every
// workload times relm with, so sampling never counts as relm's time.
struct WorkClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<WorkClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double seconds_since(CpuClock::time_point start) {
  return std::chrono::duration<double>(CpuClock::now() - start).count();
}
inline double seconds_since(WorkClock::time_point start) {
  return std::chrono::duration<double>(WorkClock::now() - start).count();
}
inline double ms_between(WorkClock::time_point from, WorkClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Order-sensitive FNV-1a digest of a workload's outputs.
class Digest {
 public:
  void add(std::string_view bytes);
  // Rounded to 12 significant digits, so the digest names the ranking and
  // the text, not the last bits of a floating-point sum.
  void add_log_prob(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::string hex64(std::uint64_t value);

// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

// Host-speed sampler. On a shared VM the speed of one core wanders by tens of
// percent over seconds, on every clock. Workloads call sample() between relm
// calls; once per kSampleEvery of CPU time it runs a slice of fixed work that
// uses no relm code (hash-map inserts and lookups, a sort, a heap, small
// allocations) and records the slice's CPU time. The readings sample the
// same seconds as the work they are used to scale, and WorkClock leaves the
// slices out.
class SpeedSampler {
 public:
  static constexpr std::chrono::milliseconds kSampleEvery{100};

  void sample();
  // Runs a slice now, due or not: for work too short to meet a due slice.
  void sample_now();
  // CPU time spent in slices (and in deciding to run them) so far.
  CpuClock::duration excluded() const { return excluded_; }
  const std::vector<double>& readings() const { return readings_; }

 private:
  void run_slice();

  CpuClock::time_point next_due_{};
  CpuClock::duration excluded_{};
  std::vector<double> readings_;
};

// The process's one sampler (the benchmark runs relm on one thread).
SpeedSampler& speed_sampler();

// Forwards to the n-gram model and times every distribution it computes.
// Only the traced run puts it in the model chain (under the logit cache, so
// it sees cache misses only); untraced runs evaluate the bare model.
class TimingModel : public relm::model::LanguageModel {
 public:
  explicit TimingModel(std::shared_ptr<const relm::model::LanguageModel> inner)
      : inner_(std::move(inner)) {}

  std::size_t vocab_size() const override { return inner_->vocab_size(); }
  relm::model::TokenId eos() const override { return inner_->eos(); }
  std::size_t max_sequence_length() const override {
    return inner_->max_sequence_length();
  }
  std::size_t relevant_context_length() const override {
    return inner_->relevant_context_length();
  }
  std::vector<double> next_log_probs(
      std::span<const relm::model::TokenId> context) const override;
  // Counts the call and its rows, then fans out through the base class (the
  // same parallel map the bare model uses), which lands in next_log_probs.
  std::vector<std::vector<double>> next_log_probs_batch(
      std::span<const std::vector<relm::model::TokenId>> contexts)
      const override;

  // Model time spent on this thread is the coordinator's share: the part of
  // the model layer that sits on the critical path of next() and tick().
  void set_coordinator(std::thread::id id) { coordinator_ = id; }

  struct Totals {
    std::uint64_t evals = 0;
    double busy_s = 0.0;         // summed over every thread
    double coordinator_s = 0.0;  // on the coordinator thread only
    std::uint64_t batch_calls = 0;
    std::uint64_t batch_rows = 0;
  };
  Totals totals() const;

 private:
  std::shared_ptr<const relm::model::LanguageModel> inner_;
  std::thread::id coordinator_;
  mutable std::atomic<std::uint64_t> evals_{0};
  mutable std::atomic<std::uint64_t> busy_ns_{0};
  mutable std::atomic<std::uint64_t> coordinator_ns_{0};
  mutable std::atomic<std::uint64_t> batch_calls_{0};
  mutable std::atomic<std::uint64_t> batch_rows_{0};
};

// Work counts a workload gathers from relm's own stats objects during one
// unit. Converted to the per-layer metrics by layer_metrics().
struct LayerTally {
  std::size_t compile_calls = 0;
  std::size_t compile_hits = 0;
  std::size_t compile_misses = 0;
  std::size_t body_states = 0;
  relm::core::SearchStats search;  // summed over the unit's searches
  relm::core::generate::GenerateStats generate;
  relm::model::LanguageModel::CacheStats logit_cache;  // summed deltas

  void add_search(const relm::core::SearchStats& s);
};

using Metrics = std::map<std::string, double>;

// Everything one unit of a workload produced. A unit is the workload's
// fixed amount of work (one enumeration, one suite pass, one batch of
// admitted streams); a run repeats units until its time is up.
struct UnitOutput {
  double wall_s = 0.0;
  double cpu_s = 0.0;       // WorkClock time of wall_s's stretch
  std::size_t queries = 0;  // queries (searches or streams) completed
  std::size_t results = 0;  // results relm returned
  std::size_t steps = 0;    // model distributions consumed by decoding
  std::vector<double> ttfr_ms;
  std::vector<double> compile_cold_ms;
  std::uint64_t digest = 0;
  std::size_t checked = 0;  // outputs the checker examined
  std::size_t failed = 0;   // outputs the checker rejected
  LayerTally tally;
  TimingModel::Totals model;  // traced units only
};

// Multiplies the unit's WorkClock times (cpu_s and the latency samples) by
// `factor`; wall_s stays as measured.
void scale_times(UnitOutput& unit, double factor);

// Per-layer metrics of one traced unit: the tally, the timing model's
// totals, and the registry counters and span histograms the unit produced
// (the registry is reset before each traced unit).
Metrics layer_metrics(const UnitOutput& unit);

}  // namespace perfbench
