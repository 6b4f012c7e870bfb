// relm benchmark harness. Runs one named workload against the standard
// world for a fixed number of seconds and prints one JSON result line:
//
//   perfbench --workload <url_audit|cloze_suite|url_sample> --seed <n>
//             --seconds <s> --trace <0|1> [--threads <t>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs traced and
// untraced units alternately and reports the per-layer metrics, each
// unit's unattributed share and the tracing overhead. Units run on
// --threads pool threads (default 1) and are timed in process CPU time;
// one more unit at min(4, nproc) threads checks that outputs do not depend
// on the thread count. See README.md.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiments/setup.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Pool size of the thread-count check unit.
constexpr std::size_t kCheckThreads = 4;
constexpr int kSetupRepeats = 5;
// What a SpeedSampler slice reads on a quiet core of the host the bounds
// were set on (see README.md): the speed every reported time is scaled to.
constexpr double kReferenceSliceS = 0.0030;
constexpr double kWorldScale = 1.0;

// Output digests of one unit at the default seed, recorded from the code
// this benchmark was written against. A change that alters any output
// (order, text, or probability) makes the run incorrect.
constexpr std::uint64_t kDefaultSeed = 0;
struct RecordedDigest {
  const char* workload;
  const char* digest;
};
constexpr RecordedDigest kRecordedDigests[] = {
    {"url_audit", "8aefbc3dc85c6f5c"},
    {"cloze_suite", "8e9265e508746d88"},
    {"url_sample", "a55330c424505a2a"},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"matches_per_s", "1/s"},
    {"queries_per_s", "1/s"},
    {"ttfr_ms_p50", "ms"},
    {"ttfr_ms_p99", "ms"},
    {"compile_cold_ms_p50", "ms"},
    {"tokens_per_s", "1/s"},
    {"samples_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"compile.calls", "count"},
    {"compile.hit_ratio", "ratio"},
    {"compile.busy_s", "s"},
    {"compile.body_states", "count"},
    {"compile.pass.parse_s", "s"},
    {"compile.pass.thompson_s", "s"},
    {"compile.pass.determinize_s", "s"},
    {"compile.pass.minimize_s", "s"},
    {"compile.pass.preprocess_s", "s"},
    {"compile.pass.token_lift_s", "s"},
    {"compile.pass.token_masks_s", "s"},
    {"compile.pass.assemble_s", "s"},
    {"model.evals", "count"},
    {"model.eval_busy_s", "s"},
    {"model.eval_us_mean", "us"},
    {"model.cache_hit_ratio", "ratio"},
    {"model.cache_evictions", "count"},
    {"model.inflight_dedup", "count"},
    {"model.batch_calls", "count"},
    {"model.batch_rows_mean", "count"},
    {"decoding.mask_computations", "count"},
    {"decoding.mask_memo_hit_ratio", "ratio"},
    {"executor.next_busy_s", "s"},
    {"executor.self_s", "s"},
    {"executor.expansions", "count"},
    {"executor.pump_rounds", "count"},
    {"executor.occupancy_mean", "count"},
    {"executor.speculative_waste_ratio", "ratio"},
    {"executor.mask_words_scanned", "count"},
    {"executor.mask_pruned", "count"},
    {"executor.pruned_non_canonical", "count"},
    {"executor.frontier_shard_steals", "count"},
    {"generate.tick_busy_s", "s"},
    {"generate.ticks", "count"},
    {"generate.tick_occupancy_mean", "count"},
    {"generate.dedup_hits", "count"},
    {"generate.accept_ratio", "ratio"},
    {"generate.mask_words_scanned", "count"},
    {"pool.async_tasks", "count"},
    {"pool.steals", "count"},
    {"pool.serial_dispatches", "count"},
    {"trace.unit_wall_s", "s"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"failed_ratio", "ratio"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<url_audit|cloze_suite|url_sample> --seed <n> --seconds <s> "
               "--trace <0|1> [--threads <t>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!end || *end != '\0' || *text == '-' || *text == '\0') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parse_uint(value, "--seed");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(value, &end);
      if (!end || *end != '\0' || !(opt.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (flag == "--threads") {
      opt.threads = parse_uint(value, "--threads");
      if (opt.threads == 0) usage("--threads must be positive");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

const char* recorded_digest(const std::string& workload) {
  for (const RecordedDigest& r : kRecordedDigests) {
    if (workload == r.workload) return r.digest;
  }
  return nullptr;
}

void print_metric(std::string& json, const char* name, double value,
                  const char* unit) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                json.empty() ? "" : ",", name, value, unit);
  json += buf;
}

template <typename Fn>
double median_of(const std::vector<UnitOutput>& units, Fn fn) {
  std::vector<double> values;
  for (const UnitOutput& u : units) values.push_back(fn(u));
  return median(std::move(values));
}

// Every sample of `field` across the units and the compile probes.
std::vector<double> pooled(const std::vector<UnitOutput>& units,
                           const std::vector<UnitOutput>& probes,
                           std::vector<double> UnitOutput::*field) {
  std::vector<double> all;
  for (const UnitOutput& u : probes) {
    all.insert(all.end(), (u.*field).begin(), (u.*field).end());
  }
  for (const UnitOutput& u : units) {
    all.insert(all.end(), (u.*field).begin(), (u.*field).end());
  }
  return all;
}

int run(const Options& opt) {
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = opt.threads;
  const std::size_t check_threads = std::min(kCheckThreads, nproc);
  const std::string build_type = PERFBENCH_BUILD_TYPE;

  std::printf("PROVENANCE {\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%zu,"
              "\"threads\":%zu,\"check_threads\":%zu,\"clock\":\"process_cpu\","
              "\"build_type\":\"%s\",\"compiler\":\"%s\","
              "\"world_scale\":%.2f,\"trace\":%s,\"seconds\":%.3f}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              nproc, threads, check_threads, build_type.c_str(), PERFBENCH_COMPILER,
              kWorldScale, opt.trace ? "true" : "false", opt.seconds);
  std::fflush(stdout);
  // Thread-sweep numbers from a host with fewer cores than threads, or from
  // an unoptimized build, measure nothing; refuse rather than report them.
  if (threads > nproc) {
    std::fprintf(stderr, "perfbench: refusing %zu threads on %zu cores\n",
                 threads, nproc);
    return 3;
  }
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build (Release only)\n",
                 build_type.c_str());
    return 3;
  }

  relm::util::set_log_level(relm::util::LogLevel::kWarn);
  relm::util::ThreadPool::set_shared_threads(threads);

  // Every reported time is scaled by kReferenceSliceS over the median
  // SpeedSampler reading taken while it ran (a unit's own readings, or the
  // whole run's for set-up), so times read as on the host at its reference
  // speed.
  SpeedSampler& sampler = speed_sampler();
  auto slice_median = [&](std::size_t first, std::size_t last) {
    const std::vector<double>& r = sampler.readings();
    return median(std::vector<double>(r.begin() + first, r.begin() + last));
  };

  // Set-up: build the world and the workload's inputs several times and
  // report the median. The world is the standard one for every seed: a
  // re-seeded corpus is a different world on which the same workload does
  // noticeably more or less work (url_sample accepts 18-22% of its streams
  // depending on the corpus), which would swamp the run-to-run spread.
  const relm::experiments::WorldConfig config =
      relm::experiments::WorldConfig::scaled(kWorldScale);
  std::optional<relm::experiments::World> world;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload.reset();
    world.reset();
    sampler.sample();
    const WorkClock::time_point start = WorkClock::now();
    world.emplace(relm::experiments::build_world(config));
    workload = make_workload(opt.workload, *world, opt.seed);
    setup_s.push_back(seconds_since(start));
    if (!workload) usage(("unknown workload " + opt.workload).c_str());
  }

  // Measurement: units until the time is up. A traced run alternates
  // untraced and traced units so both sample the same stretch of time.
  std::vector<UnitOutput> plain;
  std::vector<UnitOutput> traced;
  std::vector<Metrics> traced_layers;
  std::vector<UnitOutput> probes;
  // Scales `unit` by the readings taken since index `first`.
  auto scale_unit = [&](std::size_t first, UnitOutput& unit) {
    const std::size_t last = sampler.readings().size();
    // A unit too short to hold a reading takes the one before it.
    scale_times(unit, kReferenceSliceS /
                          slice_median(last > first ? first : last - 1, last));
  };
  const Clock::time_point measure_start = Clock::now();
  do {
    std::size_t first = sampler.readings().size();
    UnitOutput probe;
    if (!opt.trace) workload->compile_probes(probe);
    scale_unit(first, probe);
    probes.push_back(std::move(probe));
    first = sampler.readings().size();
    plain.push_back(workload->run_unit(false, plain.empty()));
    scale_unit(first, plain.back());
    if (opt.trace) {
      first = sampler.readings().size();
      relm::obs::Registry::instance().reset();
      relm::obs::Trace::start();
      traced.push_back(workload->run_unit(true, false));
      relm::obs::Trace::stop();
      traced_layers.push_back(layer_metrics(traced.back()));
      scale_unit(first, traced.back());
    }
  } while (seconds_since(measure_start) < opt.seconds);
  const double run_scale =
      kReferenceSliceS / slice_median(0, sampler.readings().size());
  const double rss_mb = peak_rss_mb();  // before the check unit's pool

  // Output checks: the first unit's results went through the checker; every
  // later unit, a unit at check_threads and the recorded digest must all
  // match the first unit's digest.
  relm::util::ThreadPool::set_shared_threads(check_threads);
  const UnitOutput parallel = workload->run_unit(false, false);
  const std::uint64_t digest = plain.front().digest;
  std::size_t attempted = plain.front().checked;
  std::size_t failed = plain.front().failed;
  auto expect_digest = [&](std::uint64_t got, const char* what) {
    ++attempted;
    if (got != digest) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s digest %s != %s\n", what,
                   hex64(got).c_str(), hex64(digest).c_str());
    }
  };
  for (const UnitOutput& u : plain) expect_digest(u.digest, "repeated unit");
  for (const UnitOutput& u : traced) expect_digest(u.digest, "traced unit");
  expect_digest(parallel.digest, "check_threads unit");
  if (opt.seed == kDefaultSeed) {
    if (const char* recorded = recorded_digest(opt.workload)) {
      ++attempted;
      if (hex64(digest) != recorded) {
        ++failed;
        std::fprintf(stderr, "perfbench: digest %s != recorded %s\n",
                     hex64(digest).c_str(), recorded);
      }
    }
  }
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);

  Metrics values;
  if (!opt.trace) {
    const double results_ok = 1.0 - failed_ratio;
    values["setup_s"] = median(setup_s) * run_scale;
    values["matches_per_s"] = median_of(plain, [](const UnitOutput& u) {
      return static_cast<double>(u.results) / u.cpu_s;
    });
    values["queries_per_s"] = median_of(plain, [](const UnitOutput& u) {
      return static_cast<double>(u.queries) / u.cpu_s;
    });
    values["samples_per_s"] = values["matches_per_s"] * results_ok;
    values["tokens_per_s"] = median_of(plain, [](const UnitOutput& u) {
      return static_cast<double>(u.steps) / u.cpu_s;
    });
    const std::vector<double> ttfr = pooled(plain, probes, &UnitOutput::ttfr_ms);
    values["ttfr_ms_p50"] = quantile(ttfr, 0.50);
    values["ttfr_ms_p99"] = quantile(ttfr, 0.99);
    values["compile_cold_ms_p50"] =
        median(pooled(plain, probes, &UnitOutput::compile_cold_ms));
    values["peak_rss_mb"] = rss_mb;
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      std::vector<double> per_unit;
      for (const Metrics& m : traced_layers) {
        auto it = m.find(spec.name);
        if (it != m.end()) per_unit.push_back(it->second);
      }
      if (!per_unit.empty()) values[spec.name] = median(std::move(per_unit));
    }
    values["trace.overhead_ratio"] =
        median_of(traced, [](const UnitOutput& u) { return u.cpu_s; }) /
            median_of(plain, [](const UnitOutput& u) { return u.cpu_s; }) -
        1.0;
    values["failed_ratio"] = failed_ratio;
  }

  std::string walls;
  for (const UnitOutput& u : plain) {
    walls += " " + std::to_string(u.wall_s) + "/" + std::to_string(u.cpu_s);
  }
  walls += " setup";
  for (double s : setup_s) walls += " " + std::to_string(s);
  std::fprintf(stderr,
               "perfbench: %s seed=%llu threads=%zu units=%zu traced=%zu "
               "digest=%s attempted=%zu failed=%zu check_s=%.3f "
               "run_scale=%.4f slices=%zu slice_q1/q3=%.5f/%.5f "
               "unit_wall/cpu_s=%s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               threads, plain.size(), traced.size(), hex64(digest).c_str(),
               attempted, failed, parallel.wall_s, run_scale,
               sampler.readings().size(), quantile(sampler.readings(), 0.25),
               quantile(sampler.readings(), 0.75), walls.c_str());

  std::string json;
  for (const MetricSpec& spec : opt.trace ? std::span<const MetricSpec>(kPerLayer)
                                          : std::span<const MetricSpec>(kEndToEnd)) {
    auto it = values.find(spec.name);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench: metric %s missing\n", spec.name);
      return 1;
    }
    print_metric(json, spec.name, it->second, spec.unit);
  }
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
              "\"metrics\":{%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed, json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
