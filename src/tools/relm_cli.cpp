// relm — command-line interface to the library.
//
//   relm build  --out DIR [--scale S]
//       Build the experiment world (corpus, tokenizer, sim-xl, sim-small)
//       and save the trained artifacts so later commands start instantly.
//
//   relm query  --dir DIR --pattern REGEX [--prefix REGEX]
//               [--model xl|small] [--strategy shortest|sample]
//               [--encodings canonical|all] [--edits N] [--top-k K]
//               [--top-p P] [--temperature T]
//               [--results N] [--samples N] [--require-eos] [--seed N]
//               [--threads N] [--cache-capacity N] [--batch N]
//               [--compile-cache [DIR]] [--no-compile-cache]
//               [--no-token-masks] [--determinize-budget N]
//               [--trace-out FILE] [--trace-jsonl FILE] [--metrics]
//       Run a ReLM query against a saved model and stream the matches.
//       Patterns may use the boolean query algebra — `A&B` (intersection),
//       `~A` / `!A` (complement over printable ASCII + whitespace), `A-B`
//       (difference); see docs/cli.md for the precedence table.
//       --determinize-budget caps the states the lazy subset construction
//       may materialize (default: RELM_DETERMINIZE_BUDGET, else 2^20).
//       (`relm run` is an alias.)
//       --threads sizes the shared evaluation pool (default: RELM_THREADS or
//       hardware concurrency); --cache-capacity bounds the suffix-keyed
//       logit cache (default 65536 entries, 0 disables); --batch sets the
//       shortest-path frontier expansion batch (default 1 = strict
//       Dijkstra). See docs/PERFORMANCE.md.
//       --no-token-masks disables the precomputed per-state token bitmask
//       fast path (mask-and-scan) and uses the per-edge probe loop instead;
//       results are identical, only the executor hot-loop cost changes.
//       --compile-cache persists compiled query artifacts to DIR (default
//       .relm-cache) so repeated queries skip compilation entirely;
//       --no-compile-cache disables the artifact cache (memory and disk).
//       RELM_COMPILE_CACHE=<dir|off> is the env equivalent. Cache hit/miss
//       counters appear in --metrics output (compile_cache.*). See
//       docs/ARCHITECTURE.md.
//       --trace-out writes a Chrome-trace JSON (chrome://tracing, Perfetto)
//       of the query's phases; --trace-jsonl streams the same events as
//       JSONL; --metrics dumps the process metrics registry (counters,
//       gauges, per-phase latency histograms) as one JSON line on exit.
//       See docs/OBSERVABILITY.md.
//
//   relm generate --dir DIR --pattern REGEX [--prefix REGEX] [--streams N]
//               [--seed S] [--max-tokens K] [--model xl|small]
//               [--top-k K] [--top-p P] [--temperature T] [--require-eos]
//               [--sequence-length N] [--threads N] [--cache-capacity N]
//               [--no-token-masks] [--compile-cache [DIR]]
//               [--no-compile-cache] [--metrics]
//       Batched multi-stream mask-guided generation: N independent sampling
//       streams share one batched model evaluation per scheduler tick, each
//       guided by the compiled query automaton and its own isolated RNG
//       stream (streams i = 0.. of --seed). Emits one JSONL line per stream
//       ({"stream":i,"state":...,"tokens":[...],"text":...,"log_prob":...});
//       per-stream output is byte-identical for any --streams/--threads
//       combination. --max-tokens caps generated tokens per stream. See
//       docs/cli.md and docs/PERFORMANCE.md (cross-stream batching).
//
//   relm grep   --dir DIR --pattern REGEX [--max N]
//       Scan the (regenerated) corpus with the DFA grep.
//
//   relm sample --dir DIR [--model xl|small] [--n N] [--top-k K] [--seed N]
//       Unconditional generations with canonicality flags (§3.2's
//       non-canonical-sample measurement).
//
//   relm info   --dir DIR
//       Show artifact metadata.
//
//   relm verify --dir DIR [--tolerance T] [--probes N] [--skip-queries]
//               [--cache DIR] [--compile-cache [DIR]] [--no-compile-cache]
//       Structurally verify saved artifacts: automata, model tables, model
//       distributions, and probe-query compilation (src/analysis). Prints a
//       diagnostic report and exits non-zero if any invariant is violated.
//       --cache DIR additionally audits an on-disk compile-cache directory:
//       every .relmq entry must load, checksum, match its filename key, and
//       pass the query-artifact invariants.
//
//   relm verify --equivalent A.dfa B.dfa
//       Decide language equivalence of two serialized automata (RELM_DFA
//       files) by a product walk over reachable state pairs. Exits 0 when
//       the languages are equal; otherwise prints a shortest distinguishing
//       word and exits 2. Works without --dir.
//
//   relm fuzz   [--trials N] [--seed S] [--out DIR] [--num-samples N]
//               [--max-failures N] [--no-shrink] [--mutate MODE]
//               [--replay FILE] [--shrink-trials N]
//       Differential fuzzing of query execution (docs/TESTING.md): each
//       trial draws a random (regex, vocabulary, model, query-params) case,
//       enumerates ground truth with the brute-force oracle, runs the
//       shortest-path, beam, and sampling executors under every cache
//       configuration, and compares. A failing case is greedily shrunk and
//       written to DIR/fuzz-repro-<seed>.json (atomic write), replayable
//       with --replay. --mutate <drop|perturb|swap|dup> injects a fault into
//       the executor output first — the harness self-test: a mutated run
//       MUST fail. Exits 0 when all trials pass (or are skipped as
//       too-large), 2 on any failure.
//
// Exit status: 0 on success, 1 on usage error, 2 on runtime error (including
// failed verification).

#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/verify.hpp"
#include "automata/grep.hpp"
#include "core/generate/generate_engine.hpp"
#include "automata/ops.hpp"
#include "automata/regex.hpp"
#include "automata/serialize.hpp"
#include "core/analyzer.hpp"
#include "core/pipeline/cache.hpp"
#include "core/relm.hpp"
#include "corpus/corpus.hpp"
#include "experiments/setup.hpp"
#include "model/decoding.hpp"
#include "model/ngram_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testing/differential.hpp"
#include "testing/shrink.hpp"
#include "tokenizer/serialize.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace relm;

// ---------------------------------------------------------------------------
// Tiny flag parser: --name value / --name (boolean).
// ---------------------------------------------------------------------------
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        std::string name = arg.substr(2);
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          values_[name] = argv[++i];
        } else {
          values_[name] = "";
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  std::optional<std::string> get(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    used_.insert(name);
    return it->second;
  }
  std::string require(const std::string& name) const {
    auto v = get(name);
    if (!v || v->empty()) {
      throw relm::Error("missing required flag --" + name);
    }
    return *v;
  }
  std::string get_or(const std::string& name, const std::string& fallback) const {
    auto v = get(name);
    return (v && !v->empty()) ? *v : fallback;
  }
  // Numeric flags reject garbage with relm::Error (the no-abort policy for
  // user input): std::stol/stod on "banana" would throw std::invalid_argument
  // straight through main and terminate.
  long get_long(const std::string& name, long fallback) const {
    auto v = get(name);
    if (!v || v->empty()) return fallback;
    try {
      std::size_t end = 0;
      long parsed = std::stol(*v, &end);
      if (end != v->size()) throw std::invalid_argument(*v);
      return parsed;
    } catch (const std::exception&) {
      throw relm::Error("flag --" + name + " expects an integer, got \"" + *v +
                        "\"");
    }
  }
  std::optional<double> get_double(const std::string& name) const {
    auto v = get(name);
    if (!v || v->empty()) return std::nullopt;
    try {
      std::size_t end = 0;
      double parsed = std::stod(*v, &end);
      if (end != v->size()) throw std::invalid_argument(*v);
      return parsed;
    } catch (const std::exception&) {
      throw relm::Error("flag --" + name + " expects a number, got \"" + *v +
                        "\"");
    }
  }
  bool has(const std::string& name) const { return get(name).has_value(); }

  std::size_t num_positional() const { return positional_.size(); }
  const std::string& positional(std::size_t i) const { return positional_[i]; }

  // Flags that were provided but never consumed by the subcommand.
  std::vector<std::string> unused() const {
    std::vector<std::string> out;
    for (const auto& [name, _] : values_) {
      if (!used_.contains(name)) out.push_back(name);
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
  std::vector<std::string> positional_;
};

struct Artifacts {
  tokenizer::BpeTokenizer tokenizer;
  std::shared_ptr<model::NgramModel> xl;
  std::shared_ptr<model::NgramModel> small;
  double scale = 1.0;
};

void save_meta(const std::string& dir, double scale) {
  std::ofstream out(dir + "/meta.txt");
  if (!out) throw relm::Error("cannot write " + dir + "/meta.txt");
  out << "RELM_META v1\nscale " << scale << "\n";
}

double load_meta_scale(const std::string& dir) {
  std::ifstream in(dir + "/meta.txt");
  if (!in) throw relm::Error("no artifacts in " + dir + " (run `relm build` first)");
  std::string magic, version, tag;
  double scale = 1.0;
  in >> magic >> version >> tag >> scale;
  if (magic != "RELM_META") throw relm::Error("corrupt meta.txt");
  return scale;
}

Artifacts load_artifacts(const std::string& dir) {
  Artifacts art{tokenizer::load_tokenizer_file(dir + "/tokenizer.relm"),
                model::NgramModel::load_file(dir + "/sim-xl.relm"),
                model::NgramModel::load_file(dir + "/sim-small.relm"),
                load_meta_scale(dir)};
  return art;
}

// The corpus is not serialized: it regenerates deterministically from the
// recorded scale, which keeps the artifact directory small.
corpus::Corpus regen_corpus(double scale) {
  return corpus::generate_corpus(
      experiments::WorldConfig::scaled(scale).corpus);
}

// ---------------------------------------------------------------------------
// Shared option groups. Subcommands that accept the same flags parse them
// through these helpers so each flag is declared (and documented) once and
// `relm query` / `relm run` / `relm analyze` / `relm verify` cannot drift.
// ---------------------------------------------------------------------------

// Query-shape flags: --pattern, --prefix, --encodings, --edits. Used by
// `relm query` and `relm analyze`.
core::SimpleSearchQuery query_from_flags(const Args& args) {
  core::SimpleSearchQuery query;
  query.query_string.query_str = args.require("pattern");
  query.query_string.prefix_str = args.get_or("prefix", "");
  query.tokenization_strategy = args.get_or("encodings", "canonical") == "all"
                                    ? core::TokenizationStrategy::kAllTokens
                                    : core::TokenizationStrategy::kCanonicalTokens;
  long edits = args.get_long("edits", 0);
  if (edits > 0) {
    query.preprocessors.push_back(std::make_shared<core::LevenshteinPreprocessor>(
        static_cast<int>(edits)));
  }
  // --no-token-masks falls back to the per-edge probe path in the executors
  // (outputs are identical either way; the flag exists for benchmarking and
  // for bisecting fast-path suspicions in the field).
  if (args.has("no-token-masks")) query.use_token_masks = false;
  // --determinize-budget caps the states the (lazy) subset construction may
  // materialize for this query; 0 defers to RELM_DETERMINIZE_BUDGET. The
  // compile fails with a StateBudgetError instead of consuming unbounded
  // memory on adversarial algebra queries. Excluded from the artifact key:
  // any sufficient budget yields the identical minimized automaton.
  long budget = args.get_long("determinize-budget", 0);
  if (budget > 0) {
    query.determinize_state_budget = static_cast<std::size_t>(budget);
  }
  return query;
}

// Compile-cache flags: --compile-cache [DIR] adds an on-disk artifact store
// (default directory .relm-cache when DIR is omitted); --no-compile-cache
// disables artifact caching entirely. Without either flag the global cache
// keeps its RELM_COMPILE_CACHE-derived configuration (see
// src/core/pipeline/cache.hpp). Used by `relm query` and `relm verify`.
void apply_compile_cache_flags(const Args& args) {
  using core::pipeline::ArtifactCache;
  using core::pipeline::ArtifactCacheConfig;
  if (args.has("no-compile-cache")) {
    ArtifactCacheConfig config;
    config.capacity = 0;
    ArtifactCache::configure_global(config);
    return;
  }
  if (auto dir = args.get("compile-cache")) {
    ArtifactCacheConfig config;
    config.disk_dir = dir->empty() ? ".relm-cache" : *dir;
    ArtifactCache::configure_global(config);
  }
}

void print_compile_cache_stats(std::FILE* out) {
  const auto& cache = core::pipeline::ArtifactCache::global();
  if (!cache.enabled()) return;
  core::pipeline::ArtifactCache::Stats s = cache.stats();
  if (s.hits + s.misses == 0) return;
  std::fprintf(out,
               "[compile cache: %zu hits / %zu misses, %zu disk loads, "
               "%zu disk stores, %zu corrupt entries]\n",
               s.hits, s.misses, s.disk_loads, s.disk_stores, s.disk_errors);
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

int cmd_build(const Args& args) {
  std::string dir = args.require("out");
  double scale = args.get_double("scale").value_or(1.0);

  util::Timer timer;
  experiments::World world =
      experiments::build_world(experiments::WorldConfig::scaled(scale));
  tokenizer::save_tokenizer_file(*world.tokenizer, dir + "/tokenizer.relm");
  world.xl->save_file(dir + "/sim-xl.relm");
  world.small->save_file(dir + "/sim-small.relm");
  save_meta(dir, scale);

  std::printf("built world (scale %.2f) in %.1fs:\n", scale, timer.seconds());
  std::printf("  %s/tokenizer.relm   (%zu tokens)\n", dir.c_str(),
              world.tokenizer->vocab_size());
  std::printf("  %s/sim-xl.relm      (order %zu, %zu contexts)\n", dir.c_str(),
              world.xl->config().order, world.xl->num_contexts());
  std::printf("  %s/sim-small.relm   (order %zu, %zu contexts)\n", dir.c_str(),
              world.small->config().order, world.small->num_contexts());
  return 0;
}

int cmd_query(const Args& args) {
  // Observability flags are read first so tracing covers artifact loading
  // and query compilation, not just the search.
  std::string trace_out = args.get_or("trace-out", "");
  std::string trace_jsonl = args.get_or("trace-jsonl", "");
  bool print_metrics = args.has("metrics");
  if (!trace_out.empty() || !trace_jsonl.empty()) obs::Trace::start();

  std::string dir = args.require("dir");
  apply_compile_cache_flags(args);
  Artifacts art = load_artifacts(dir);
  std::shared_ptr<model::NgramModel> ngram =
      args.get_or("model", "xl") == "small" ? art.small : art.xl;

  long threads = args.get_long("threads", 0);
  if (threads > 0) {
    util::ThreadPool::set_shared_threads(static_cast<std::size_t>(threads));
  }
  // Wrap the simulator in the suffix-keyed logit cache unless disabled.
  long cache_capacity = args.get_long("cache-capacity", 1 << 16);
  std::shared_ptr<const model::LanguageModel> model = ngram;
  if (cache_capacity > 0) {
    model = std::make_shared<model::CachingModel>(
        ngram, static_cast<std::size_t>(cache_capacity));
  }

  core::SimpleSearchQuery query = query_from_flags(args);
  query.search_strategy = args.get_or("strategy", "shortest") == "sample"
                              ? core::SearchStrategy::kRandomSampling
                              : core::SearchStrategy::kShortestPath;
  long top_k = args.get_long("top-k", 0);
  if (top_k > 0) query.decoding.top_k = static_cast<int>(top_k);
  if (auto top_p = args.get_double("top-p")) query.decoding.top_p = *top_p;
  if (auto temperature = args.get_double("temperature")) {
    query.decoding.temperature = *temperature;
  }
  query.max_results = static_cast<std::size_t>(args.get_long("results", 10));
  query.num_samples = static_cast<std::size_t>(args.get_long("samples", 10));
  query.require_eos = args.has("require-eos");
  long batch = args.get_long("batch", 1);
  if (batch > 1) query.expansion_batch_size = static_cast<std::size_t>(batch);
  std::uint64_t seed = static_cast<std::uint64_t>(args.get_long("seed", 0));

  util::Timer timer;
  SearchOutcome outcome = search(*model, art.tokenizer, query, seed);
  for (const auto& result : outcome.results) {
    std::printf("%10.3f  %s\n", result.log_prob, result.text.c_str());
  }
  std::fprintf(stderr,
               "[%zu results, %zu llm calls, %zu pruned by rules, "
               "%zu non-canonical pruned, %.2fs]\n",
               outcome.results.size(), outcome.stats.llm_calls,
               outcome.stats.pruned_by_rules, outcome.stats.pruned_non_canonical,
               timer.seconds());
  if (cache_capacity > 0) {
    std::fprintf(stderr,
                 "[cache: %zu hits / %zu misses (%.1f%% hit rate), "
                 "%zu evictions]\n",
                 outcome.stats.cache_hits, outcome.stats.cache_misses,
                 100.0 * outcome.stats.cache_hit_rate(),
                 outcome.stats.cache_evictions);
  }
  print_compile_cache_stats(stderr);
  if (!trace_out.empty()) {
    obs::Trace::write_chrome_trace_file(trace_out);
    std::fprintf(stderr, "[trace: %zu events -> %s]\n",
                 obs::Trace::event_count(), trace_out.c_str());
  }
  if (!trace_jsonl.empty()) obs::Trace::write_jsonl_file(trace_jsonl);
  if (print_metrics) {
    std::printf("METRICS %s\n",
                obs::Registry::instance().snapshot().to_json().c_str());
  }
  return 0;
}

int cmd_grep(const Args& args) {
  std::string dir = args.require("dir");
  double scale = load_meta_scale(dir);
  corpus::Corpus corpus = regen_corpus(scale);

  automata::Dfa pattern = automata::compile_regex(args.require("pattern"));
  long max_hits = args.get_long("max", 25);
  long shown = 0;
  for (const std::string& doc : corpus.scan_documents()) {
    for (const automata::GrepMatch& m : automata::grep_all(pattern, doc)) {
      std::printf("%s\n  match: \"%s\" at offset %zu\n", doc.c_str(),
                  doc.substr(m.offset, m.length).c_str(), m.offset);
      if (++shown >= max_hits) return 0;
    }
  }
  std::fprintf(stderr, "[%ld matches shown]\n", shown);
  return 0;
}

int cmd_sample(const Args& args) {
  std::string dir = args.require("dir");
  Artifacts art = load_artifacts(dir);
  const model::NgramModel& model =
      args.get_or("model", "xl") == "small" ? *art.small : *art.xl;

  long n = args.get_long("n", 10);
  model::DecodingRules rules;
  long top_k = args.get_long("top-k", 40);
  if (top_k > 0) rules.top_k = static_cast<int>(top_k);
  util::Pcg32 rng(static_cast<std::uint64_t>(args.get_long("seed", 1)));

  long non_canonical = 0;
  for (long i = 0; i < n; ++i) {
    auto tokens = model::generate(model, {}, 24, rules, rng);
    bool canonical = art.tokenizer.is_canonical(tokens);
    non_canonical += canonical ? 0 : 1;
    while (!tokens.empty() && tokens.back() == model.eos()) tokens.pop_back();
    std::printf("%s \"%s\"\n", canonical ? "          " : "[non-canon]",
                art.tokenizer.decode(tokens).c_str());
  }
  std::fprintf(stderr, "[%ld/%ld non-canonical]\n", non_canonical, n);
  return 0;
}

// `relm generate` — batched multi-stream mask-guided generation
// (core/generate): N independent sampling streams multiplexed through one
// next_rows call per tick, one JSONL line per stream on stdout.
// Determinism: stream i's line is a pure function of (artifacts, query,
// --seed, i) — independent of --streams, --threads, and co-tenants.
int cmd_generate(const Args& args) {
  bool print_metrics = args.has("metrics");
  std::string dir = args.require("dir");
  apply_compile_cache_flags(args);
  Artifacts art = load_artifacts(dir);
  std::shared_ptr<model::NgramModel> ngram =
      args.get_or("model", "xl") == "small" ? art.small : art.xl;

  long threads = args.get_long("threads", 0);
  if (threads > 0) {
    util::ThreadPool::set_shared_threads(static_cast<std::size_t>(threads));
  }
  long cache_capacity = args.get_long("cache-capacity", 1 << 16);
  std::shared_ptr<const model::LanguageModel> model = ngram;
  if (cache_capacity > 0) {
    model = std::make_shared<model::CachingModel>(
        ngram, static_cast<std::size_t>(cache_capacity));
  }

  core::SimpleSearchQuery query = query_from_flags(args);
  query.search_strategy = core::SearchStrategy::kRandomSampling;
  long top_k = args.get_long("top-k", 0);
  if (top_k > 0) query.decoding.top_k = static_cast<int>(top_k);
  if (auto top_p = args.get_double("top-p")) query.decoding.top_p = *top_p;
  if (auto temperature = args.get_double("temperature")) {
    query.decoding.temperature = *temperature;
  }
  query.require_eos = args.has("require-eos");
  long seq = args.get_long("sequence-length", 0);
  if (seq > 0) query.sequence_length = static_cast<std::size_t>(seq);

  const long streams = args.get_long("streams", 4);
  if (streams <= 0) throw relm::Error("--streams must be positive");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_long("seed", 0));
  const long max_tokens = args.get_long("max-tokens", 0);

  core::CompiledQuery compiled = core::CompiledQuery::compile(query, art.tokenizer);
  core::generate::GenerateEngine engine(*model, compiled, query, seed);
  core::generate::StreamSpec spec;
  if (max_tokens > 0) spec.max_new_tokens = static_cast<std::size_t>(max_tokens);
  for (long i = 0; i < streams; ++i) engine.add_stream(spec);

  util::Timer timer;
  engine.run();

  for (std::size_t id = 0; id < engine.num_streams(); ++id) {
    testing::Json line = testing::Json::object();
    line.set("stream", testing::Json::number(static_cast<std::int64_t>(id)));
    line.set("state", testing::Json::string(
                          core::generate::to_string(engine.state(id))));
    const auto& result = engine.result(id);
    if (result) {
      testing::Json tokens = testing::Json::array();
      for (tokenizer::TokenId t : result->tokens) {
        tokens.push_back(testing::Json::number(static_cast<std::int64_t>(t)));
      }
      line.set("tokens", std::move(tokens));
      line.set("text", testing::Json::string(result->text));
      line.set("log_prob", testing::Json::number(result->log_prob));
    }
    std::printf("%s\n", line.dump().c_str());
  }

  const core::generate::GenerateStats& stats = engine.stats();
  std::fprintf(stderr,
               "[generate: %zu streams (%zu done, %zu dead-end), %zu ticks, "
               "%zu tokens, %zu llm calls, %zu dedup hits, "
               "occupancy %.1f streams/tick, %.0f tokens/sec, %.2fs]\n",
               engine.num_streams(), stats.streams_done, stats.streams_dead_end,
               stats.ticks, stats.tokens_emitted, stats.llm_calls,
               stats.batch_dedup_hits, stats.mean_tick_occupancy(),
               stats.tokens_per_second(), timer.seconds());
  print_compile_cache_stats(stderr);
  if (print_metrics) {
    std::printf("METRICS %s\n",
                obs::Registry::instance().snapshot().to_json().c_str());
  }
  return 0;
}

int cmd_analyze(const Args& args) {
  std::string dir = args.require("dir");
  Artifacts art = load_artifacts(dir);
  core::SimpleSearchQuery query = query_from_flags(args);
  core::QueryAnalysis analysis = core::analyze_query(query, art.tokenizer);
  std::printf("%s", analysis.summary().c_str());
  return 0;
}

int cmd_info(const Args& args) {
  std::string dir = args.require("dir");
  Artifacts art = load_artifacts(dir);
  std::printf("artifacts in %s (world scale %.2f):\n", dir.c_str(), art.scale);
  std::printf("  tokenizer: %zu tokens, max token length %zu\n",
              art.tokenizer.vocab_size(), art.tokenizer.max_token_length());
  std::printf("  sim-xl:    order %zu, alpha %.2f, %zu contexts\n",
              art.xl->config().order, art.xl->config().alpha,
              art.xl->num_contexts());
  std::printf("  sim-small: order %zu, alpha %.2f, %zu contexts\n",
              art.small->config().order, art.small->config().alpha,
              art.small->num_contexts());
  return 0;
}

// `relm verify --equivalent A.dfa B.dfa` — language-equivalence check for
// two serialized automata (RELM_DFA files), independent of --dir. Prints a
// shortest distinguishing word when the languages differ. Exit status: 0
// when equivalent, 2 when not (matching the verify-failure convention).
int cmd_verify_equivalent(const Args& args, const std::string& first) {
  if (args.num_positional() != 1) {
    throw relm::Error(
        "--equivalent expects exactly two files: "
        "relm verify --equivalent A.dfa B.dfa");
  }
  const std::string& second = args.positional(0);
  automata::Dfa a = automata::load_dfa_file(first);
  automata::Dfa b = automata::load_dfa_file(second);
  std::optional<std::vector<automata::Symbol>> witness =
      automata::dfa_distinguishing_word(a, b);
  if (!witness) {
    std::printf("verify: %s and %s are language-equivalent\n", first.c_str(),
                second.c_str());
    return 0;
  }
  // Render the witness bytes printably; non-byte (token) alphabets fall back
  // to the numeric form.
  std::string rendered;
  for (automata::Symbol sym : *witness) {
    if (sym < 256 && std::isprint(static_cast<int>(sym))) {
      rendered += static_cast<char>(sym);
    } else {
      rendered += "\\x{" + std::to_string(sym) + "}";
    }
  }
  std::fprintf(stderr,
               "verify: %s and %s differ: \"%s\" (%zu symbols) is accepted "
               "by exactly one of them\n",
               first.c_str(), second.c_str(), rendered.c_str(),
               witness->size());
  return 2;
}

int cmd_verify(const Args& args) {
  if (auto equivalent = args.get("equivalent"); equivalent && !equivalent->empty()) {
    return cmd_verify_equivalent(args, *equivalent);
  }
  std::string dir = args.require("dir");
  apply_compile_cache_flags(args);
  analysis::VerifyOptions options;
  if (auto tolerance = args.get_double("tolerance")) {
    options.model.tolerance = *tolerance;
  }
  long probes = args.get_long("probes", 0);
  if (probes > 0) options.model.probe_contexts = static_cast<std::size_t>(probes);
  if (args.has("skip-queries")) options.check_queries = false;
  std::string cache_dir = args.get_or("cache", "");

  util::Timer timer;
  analysis::InvariantReport report = analysis::verify_artifact_dir(dir, options);
  std::size_t cache_entries = 0;
  if (!cache_dir.empty()) {
    tokenizer::BpeTokenizer tok =
        tokenizer::load_tokenizer_file(dir + "/tokenizer.relm");
    cache_entries = analysis::verify_compile_cache_dir(cache_dir, &tok, report);
  }
  if (!report.ok()) {
    std::fprintf(stderr, "verify: %s FAILED\n%s", dir.c_str(),
                 report.to_string().c_str());
    return 2;
  }
  std::string cache_note =
      cache_dir.empty()
          ? ""
          : ", " + std::to_string(cache_entries) + " cached artifacts";
  std::printf("verify: %s ok (tokenizer, sim-xl, sim-small%s%s in %.2fs)\n",
              dir.c_str(), options.check_queries ? ", probe queries" : "",
              cache_note.c_str(), timer.seconds());
  return 0;
}

// ---------------------------------------------------------------------------
// relm fuzz — differential fuzzing of query execution (docs/TESTING.md)
// ---------------------------------------------------------------------------

testing::Mutation mutation_from_flag(const std::string& mode) {
  if (mode == "none") return testing::Mutation::kNone;
  if (mode == "drop") return testing::Mutation::kDropResult;
  if (mode == "perturb") return testing::Mutation::kPerturbLogProb;
  if (mode == "swap") return testing::Mutation::kSwapOrder;
  if (mode == "dup") return testing::Mutation::kDuplicateResult;
  throw relm::Error("--mutate expects none|drop|perturb|swap|dup, got \"" +
                    mode + "\"");
}

// Atomic write (temp file + rename), same convention as scripts/bench.sh:
// a watcher or CI artifact upload never sees a half-written repro.
void write_repro_file(const testing::TrialCase& trial,
                      const std::string& path) {
  const auto dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw relm::Error("cannot open " + tmp + " for writing");
    out << trial.to_json().dump(/*pretty=*/true);
    out.flush();
    if (!out) throw relm::Error("failed writing " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw relm::Error("cannot rename " + tmp + " to " + path);
  }
}

testing::TrialCase load_repro_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw relm::Error("cannot read repro file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return testing::TrialCase::from_json(testing::Json::parse(buffer.str()));
}

int cmd_fuzz(const Args& args) {
  testing::DifferentialOptions options;
  options.mutate = mutation_from_flag(args.get_or("mutate", "none"));
  options.num_samples =
      static_cast<std::size_t>(args.get_long("num-samples", 24));

  if (auto replay = args.get("replay"); replay && !replay->empty()) {
    testing::TrialCase trial = load_repro_file(*replay);
    testing::TrialReport report = testing::run_trial(trial, options);
    switch (report.status) {
      case testing::TrialReport::Status::kPass:
        std::printf("replay %s: PASS (language size %zu)\n", replay->c_str(),
                    report.language_size);
        return 0;
      case testing::TrialReport::Status::kSkip:
        std::printf("replay %s: SKIP (%s)\n", replay->c_str(),
                    report.detail.c_str());
        return 0;
      case testing::TrialReport::Status::kFail:
        std::fprintf(stderr, "replay %s: FAIL [%s]\n%s\n", replay->c_str(),
                     report.failure_kind.c_str(), report.detail.c_str());
        return 2;
    }
  }

  const long trials = args.get_long("trials", 200);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const std::string out_dir = args.get_or("out", ".");
  const bool shrink = !args.has("no-shrink");
  const long max_failures = args.get_long("max-failures", 1);
  const std::size_t shrink_trials =
      static_cast<std::size_t>(args.get_long("shrink-trials", 400));

  util::Timer timer;
  std::size_t passed = 0, skipped = 0;
  long failures = 0;
  for (long i = 0; i < trials; ++i) {
    const std::uint64_t trial_seed = seed + static_cast<std::uint64_t>(i);
    testing::TrialCase trial = testing::generate_case(trial_seed);
    testing::TrialReport report = testing::run_trial(trial, options);
    switch (report.status) {
      case testing::TrialReport::Status::kPass:
        ++passed;
        break;
      case testing::TrialReport::Status::kSkip:
        ++skipped;
        break;
      case testing::TrialReport::Status::kFail: {
        ++failures;
        std::fprintf(stderr, "fuzz: seed %llu FAIL [%s]\n%s\n",
                     static_cast<unsigned long long>(trial_seed),
                     report.failure_kind.c_str(), report.detail.c_str());
        testing::TrialCase repro = trial;
        if (shrink) {
          testing::ShrinkResult minimized =
              testing::shrink_case(trial, options, shrink_trials);
          repro = minimized.best;
          std::fprintf(stderr,
                       "fuzz: shrunk to body \"%s\" over %zu tokens "
                       "(%zu shrink trials)\n",
                       repro.body.c_str(), repro.vocab.size(),
                       minimized.trials);
        }
        std::string path = out_dir + "/fuzz-repro-" +
                           std::to_string(trial_seed) + ".json";
        write_repro_file(repro, path);
        std::fprintf(stderr, "fuzz: wrote %s\n", path.c_str());
        break;
      }
    }
    if (failures >= max_failures) break;
    if ((i + 1) % 100 == 0) {
      std::fprintf(stderr, "fuzz: %ld/%ld trials (%zu pass, %zu skip)\n",
                   i + 1, trials, passed, skipped);
    }
  }
  std::printf(
      "fuzz: %zu passed, %zu skipped, %ld failed (seed %llu, %.1fs)\n",
      passed, skipped, failures, static_cast<unsigned long long>(seed),
      timer.seconds());
  return failures ? 2 : 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: relm <build|query|generate|analyze|grep|sample|info|verify|fuzz> [flags]\n"
               "       (`relm run` is an alias for `relm query`)\n"
               "see the header of src/tools/relm_cli.cpp for flag reference\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  std::string command = argv[1];
  Args args(argc - 2, argv + 2);
  try {
    int status;
    if (command == "build") {
      status = cmd_build(args);
    } else if (command == "query" || command == "run") {
      status = cmd_query(args);
    } else if (command == "grep") {
      status = cmd_grep(args);
    } else if (command == "sample") {
      status = cmd_sample(args);
    } else if (command == "generate") {
      status = cmd_generate(args);
    } else if (command == "analyze") {
      status = cmd_analyze(args);
    } else if (command == "info") {
      status = cmd_info(args);
    } else if (command == "verify") {
      status = cmd_verify(args);
    } else if (command == "fuzz") {
      status = cmd_fuzz(args);
    } else {
      usage();
      return 1;
    }
    for (const std::string& flag : args.unused()) {
      std::fprintf(stderr, "warning: unused flag --%s\n", flag.c_str());
    }
    return status;
  } catch (const relm::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
