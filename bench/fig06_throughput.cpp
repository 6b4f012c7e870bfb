// Figure 6: validated-URLs-per-second throughput for ReLM and the random
// generation baselines of fixed length n. The paper's optimal baseline
// (n = 16) is still 15x slower than ReLM. We report throughput both per
// 1000 LLM calls (deterministic) and per wall-clock second.
//
// The paper's ReLM row is strict serial Dijkstra: the async frontier pipeline
// at max_in_flight = 1, one node selected, evaluated and settled per round,
// no logit cache. On top of the paper comparison, this binary measures the
// engine-level optimizations: the same query through the speculative
// pipeline (max_in_flight = 64, occupancy controller) and the logit cache,
// once per RELM_BENCH_THREADS entry. The event streams must be
// byte-identical across the whole sweep, and the URL set must equal the
// strict run's. With RELM_BENCH_JSON=1 a machine-readable BENCH_JSON line is
// appended for scripts/bench.sh.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <optional>
#include <unordered_set>
#include <utility>

#include "bench_util.hpp"
#include "experiments/memorization.hpp"
#include "util/thread_pool.hpp"

using namespace relm;
using namespace relm::experiments;

namespace {

// Pool-independent fingerprint of a run: the (url, valid, llm_calls)
// event stream. Wall-clock fields are excluded.
std::string event_fingerprint(const MemorizationRun& run) {
  std::string fp;
  for (const auto& e : run.events) {
    fp += e.url;
    fp += e.valid ? "|1|" : "|0|";
    fp += std::to_string(e.llm_calls);
    fp += '\n';
  }
  return fp;
}

std::vector<std::string> sorted_urls(const MemorizationRun& run) {
  std::vector<std::string> urls;
  urls.reserve(run.events.size());
  for (const auto& e : run.events) urls.push_back(e.url);
  std::sort(urls.begin(), urls.end());
  return urls;
}

// Wall clock here is the acceptance number, and on a small box OS jitter,
// allocator growth, and frequency drift are a double-digit fraction of these
// sub-second runs. Worse, the drift is monotone with run order — repeating
// one configuration back-to-back and taking its median still biases the
// RATIOS, because the serial baseline and the pipeline sweep then sample
// different epochs of the process. So the whole configuration sweep runs as
// three interleaved passes (serial, pipeline sweep; then again, then
// again): every configuration samples early, middle, and late epochs,
// and per-configuration medians make the ratios drift-free. Runs come from
// the final pass — counters, events, and URL sets are deterministic across
// passes, only the clock varies.
constexpr int kPasses = 3;

double median(std::array<double, kPasses>& walls) {
  std::sort(walls.begin(), walls.end());
  return walls[kPasses / 2];
}

}  // namespace

int main() {
  bench::print_header("fig06_throughput — validated URLs per unit work",
                      "Figure 6 (§4.1): best baseline n is ~16, still far "
                      "slower than ReLM");
  World world = bench::build_bench_world();

  const double scale = bench_scale_from_env();
  const std::size_t max_results = static_cast<std::size_t>(4000 * scale);
  const std::size_t max_expansions = static_cast<std::size_t>(40000 * scale);

  // Engine-optimization runs: the async-pipeline sweep runs one
  // configuration per RELM_BENCH_THREADS entry (default "1 2 4 8" via
  // scripts/bench.sh), each with speculative expansion and the logit
  // cache. Pipeline scheduling is a pure function of search state — never
  // thread count — so the event streams must be byte-identical across the
  // sweep.
  RelmRunOptions pipe;
  pipe.cache_capacity = 1 << 16;
  pipe.max_in_flight = 64;
  const std::vector<std::size_t> pipe_threads = bench::bench_threads_from_env();

  struct PipelineRun {
    std::size_t threads;
    MemorizationRun run;
    double wall;
  };
  std::optional<MemorizationRun> relm_run_slot;
  std::vector<PipelineRun> pipeline_runs;
  std::array<double, kPasses> serial_walls{};
  std::vector<std::array<double, kPasses>> pipe_walls(pipe_threads.size());

  for (int pass = 0; pass < kPasses; ++pass) {
    const bool last_pass = pass == kPasses - 1;
    {
      util::Timer timer;
      MemorizationRun run =
          run_relm_url_extraction(world, *world.xl, max_results, max_expansions);
      serial_walls[static_cast<std::size_t>(pass)] = timer.seconds();
      if (last_pass) relm_run_slot = std::move(run);
    }
    for (std::size_t i = 0; i < pipe_threads.size(); ++i) {
      pipe.label = "relm_pipe" + std::to_string(pipe_threads[i]);
      util::ThreadPool::set_shared_threads(pipe_threads[i]);
      util::Timer timer;
      MemorizationRun run = run_relm_url_extraction(
          world, *world.xl, max_results, max_expansions, pipe);
      pipe_walls[i][static_cast<std::size_t>(pass)] = timer.seconds();
      if (last_pass) {
        pipeline_runs.push_back(
            PipelineRun{pipe_threads[i], std::move(run), 0.0});
      }
    }
    util::ThreadPool::set_shared_threads(1);
  }
  MemorizationRun relm_run = std::move(*relm_run_slot);
  const double serial_wall = median(serial_walls);
  for (std::size_t i = 0; i < pipeline_runs.size(); ++i) {
    pipeline_runs[i].wall = median(pipe_walls[i]);
  }

  std::printf("%-14s %14s %12s %12s %16s %14s\n", "run", "valid_unique",
              "llm_calls", "seconds", "valid/1k_calls", "valid/sec");
  auto row = [](const MemorizationRun& run) {
    double per_sec = run.total_seconds() > 0
                         ? run.valid_unique() / run.total_seconds()
                         : 0.0;
    std::printf("%-14s %14zu %12zu %12.2f %16.2f %14.1f\n", run.label.c_str(),
                run.valid_unique(), run.total_llm_calls(), run.total_seconds(),
                run.throughput_per_1k_calls(), per_sec);
  };
  row(relm_run);
  for (const PipelineRun& pr : pipeline_runs) row(pr.run);

  bool pipeline_deterministic = true;
  for (const PipelineRun& pr : pipeline_runs) {
    if (event_fingerprint(pr.run) !=
        event_fingerprint(pipeline_runs.front().run)) {
      pipeline_deterministic = false;
    }
  }

  // Set-equality with strict serial holds for full enumerations; when a
  // budget truncates the run, the speculative frontier may cross the
  // boundary with different tail members (same guarantee as the unit tests
  // pin on finite languages), so the check is advisory there.
  const MemorizationRun& pipe_run = pipeline_runs.front().run;
  const bool truncated =
      relm_run.events.size() >= max_results ||
      relm_run.search_stats.expansions >= max_expansions ||
      pipe_run.events.size() >= max_results ||
      pipe_run.search_stats.expansions >= max_expansions;
  const bool same_urls = sorted_urls(relm_run) == sorted_urls(pipe_run);
  std::printf("\n[strict] max_in_flight=1, no cache: %.2fs, %zu model calls "
              "(nodes at the sequence limit settle without one)\n",
              serial_wall, relm_run.total_llm_calls());
  std::printf("[pipeline] URL set identical to strict serial: %s\n",
              same_urls ? "yes"
                        : (truncated ? "differs at budget boundary (expected "
                                       "for truncated runs)"
                                     : "NO (BUG)"));
  for (const PipelineRun& pr : pipeline_runs) {
    const double speedup =
        pr.wall > 0 ? serial_wall / pr.wall : 0.0;
    const std::size_t masks_total = pr.run.search_stats.mask_memo_hits +
                                    pr.run.search_stats.mask_memo_misses;
    std::printf("[pipeline] %zu thread(s): %.2fs (%.2fx vs strict serial), "
                "occupancy %.1f evals/round over %zu rounds, "
                "%zu speculative, %zu wasted, %zu horizon clips, "
                "cache hit rate %.1f%%, mask reuse %.1f%%\n",
                pr.threads, pr.wall, speedup,
                pr.run.search_stats.mean_batch_occupancy(),
                pr.run.search_stats.pump_rounds,
                pr.run.search_stats.speculative_expanded,
                pr.run.search_stats.speculative_wasted,
                pr.run.search_stats.horizon_clips,
                100.0 * pr.run.search_stats.cache_hit_rate(),
                masks_total ? 100.0 * pr.run.search_stats.mask_memo_hits /
                                  static_cast<double>(masks_total)
                            : 0.0);
  }
  std::printf("[pipeline] events byte-identical across the thread sweep: %s\n",
              pipeline_deterministic ? "yes" : "NO (BUG)");

  double best_baseline = 0.0;
  std::size_t best_n = 0;
  for (std::size_t n : {1, 2, 4, 8, 16, 32, 64}) {
    MemorizationRun run = run_baseline_url_extraction(
        world, *world.xl, n, static_cast<std::size_t>(600 * scale), 91 + n);
    row(run);
    if (run.throughput_per_1k_calls() > best_baseline) {
      best_baseline = run.throughput_per_1k_calls();
      best_n = n;
    }
  }

  std::printf("\nrelm vs best baseline (n=%zu): %.1fx higher throughput per "
              "LLM call over the full run (paper: 15x)\n",
              best_n,
              best_baseline > 0 ? relm_run.throughput_per_1k_calls() / best_baseline
                                : 0.0);

  // Paper-style wall-to-wall comparison: work needed to reach a fixed number
  // of validated URLs (Figure 6's regime, before ReLM's long tail dilutes
  // the average).
  auto calls_to_reach = [](const MemorizationRun& run, std::size_t k) {
    std::unordered_set<std::string> seen;
    for (const auto& e : run.events) {
      if (e.valid && seen.insert(e.url).second && seen.size() >= k) {
        return e.llm_calls;
      }
    }
    return std::size_t{0};  // never reached
  };
  MemorizationRun best_run = run_baseline_url_extraction(
      world, *world.xl, best_n, static_cast<std::size_t>(600 * scale), 91 + best_n);
  std::printf("\n%-22s %12s %16s %10s\n", "valid URLs reached", "relm_calls",
              "best_baseline", "speedup");
  for (std::size_t k : {10, 25, 40}) {
    std::size_t r = calls_to_reach(relm_run, k);
    std::size_t b = calls_to_reach(best_run, k);
    if (r == 0) continue;
    if (b == 0) {
      std::printf("%-22zu %12zu %16s %10s\n", k, r, "(never)", "inf");
    } else {
      std::printf("%-22zu %12zu %16zu %9.1fx\n", k, r, b,
                  static_cast<double>(b) / static_cast<double>(r));
    }
  }

  // Machine-readable summary for scripts/bench.sh. One line, valid JSON.
  // One "pipeline_<t>_thread" section and one "speedup_<t>_thread" key per
  // RELM_BENCH_THREADS entry (speedup is against the strict serial run);
  // scripts/bench_compare.py gates the speedups and occupancy as
  // higher-is-better metrics.
  const char* want_json = std::getenv("RELM_BENCH_JSON");
  if (want_json && *want_json && std::string(want_json) != "0") {
    std::string pipeline_json;
    for (const PipelineRun& pr : pipeline_runs) {
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "\"pipeline_%zu_thread\":{\"wall_seconds\":%.4f,\"llm_calls\":%zu,"
          "\"cache_hit_rate\":%.4f,\"batch_occupancy_mean\":%.2f,"
          "\"speculative_wasted\":%zu,\"horizon_clips\":%zu},"
          "\"speedup_%zu_thread\":%.3f,",
          pr.threads, pr.wall, pr.run.total_llm_calls(),
          pr.run.search_stats.cache_hit_rate(),
          pr.run.search_stats.mean_batch_occupancy(),
          pr.run.search_stats.speculative_wasted,
          pr.run.search_stats.horizon_clips, pr.threads,
          pr.wall > 0 ? serial_wall / pr.wall : 0.0);
      pipeline_json += buf;
    }
    std::printf(
        "BENCH_JSON {\"bench\":\"fig06_throughput\",\"scale\":%.3f,"
        "\"serial\":{\"wall_seconds\":%.4f,\"llm_calls\":%zu,"
        "\"valid_unique\":%zu},"
        "%s"
        "\"pipeline_deterministic_across_threads\":%s,"
        "\"same_urls_as_serial\":%s,"
        "\"budget_truncated\":%s,\"metrics\":%s}\n",
        scale, serial_wall, relm_run.total_llm_calls(), relm_run.valid_unique(),
        pipeline_json.c_str(),
        pipeline_deterministic ? "true" : "false",
        same_urls ? "true" : "false",
        truncated ? "true" : "false", bench::metrics_json().c_str());
  }

  // Determinism and (untruncated) set-equivalence are correctness
  // properties, not performance: fail loudly so CI's bench smoke catches
  // regressions.
  if (!pipeline_deterministic || (!same_urls && !truncated)) {
    return 1;
  }
  return 0;
}
