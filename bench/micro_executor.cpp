// Microbenchmarks (google-benchmark) for ReLM's executor: model inference,
// shortest-path expansion throughput with and without top-k pruning, and
// randomized traversal sampling rates. The top-k comparison quantifies the
// §3.3 observation that decision rules transitively prune large parts of the
// search space. The *_Threads/*_Batched benchmarks measure the parallel
// batch API and the logit cache on the same workloads.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>

#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/token_masks.hpp"
#include "experiments/setup.hpp"
#include "model/decoding.hpp"
#include "model/ngram_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testing/differential.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"
#include "util/token_bitset.hpp"

namespace {

using namespace relm;

const experiments::World& world() {
  static experiments::World w = experiments::build_world(
      experiments::WorldConfig::scaled(0.25));
  return w;
}

// One context evaluated over and over: its rows stay in L1, so this prices
// a row's arithmetic alone.
void BM_NgramNextLogProbs(benchmark::State& state) {
  auto ctx = world().tokenizer->encode("The man was trained in computer");
  for (auto _ : state) {
    benchmark::DoNotOptimize(world().xl->next_log_probs(ctx));
  }
}
BENCHMARK(BM_NgramNextLogProbs);

// 2,048 fixed distinct contexts, the full-window suffixes of the corpus'
// first documents: the rows come from all over the tables, as in a search.
const std::vector<std::vector<tokenizer::TokenId>>& spread_contexts() {
  static const std::vector<std::vector<tokenizer::TokenId>> contexts = [] {
    const std::size_t window = world().xl->relevant_context_length();
    std::set<std::vector<tokenizer::TokenId>> seen;
    std::vector<std::vector<tokenizer::TokenId>> out;
    for (const std::string& doc : world().corpus.documents) {
      const auto tokens = world().tokenizer->encode(doc);
      for (std::size_t end = window; end <= tokens.size() && out.size() < 2048; ++end) {
        std::vector<tokenizer::TokenId> ctx(tokens.begin() + (end - window),
                                            tokens.begin() + end);
        if (seen.insert(ctx).second) out.push_back(std::move(ctx));
      }
      if (out.size() == 2048) break;
    }
    return out;
  }();
  return contexts;
}

// The spread contexts evaluated in turn.
void BM_NgramNextLogProbsSpread(benchmark::State& state) {
  const auto& contexts = spread_contexts();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world().xl->next_log_probs(contexts[i]));
    i = (i + 1) % contexts.size();
  }
  state.counters["contexts"] = static_cast<double>(contexts.size());
}
BENCHMARK(BM_NgramNextLogProbsSpread);

// The distribution key of each spread context in turn: one table probe per
// order tried, from the longest down. This is the most a cache lookup adds
// (a lookup whose full-length suffix is stored skips it); `key_tokens` is
// the mean key length.
void BM_NgramDistributionKey(benchmark::State& state) {
  const auto& contexts = spread_contexts();
  std::vector<tokenizer::TokenId> scratch;
  std::size_t i = 0;
  std::size_t key_tokens = 0;
  for (auto _ : state) {
    const auto key = world().xl->distribution_key(contexts[i], scratch);
    benchmark::DoNotOptimize(key.data());
    key_tokens += key.size();
    i = (i + 1) % contexts.size();
  }
  state.counters["key_tokens"] = benchmark::Counter(
      static_cast<double>(key_tokens), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_NgramDistributionKey);

void BM_CachedNextLogProbs(benchmark::State& state) {
  model::CachingModel cached(world().xl);
  auto ctx = world().tokenizer->encode("The man was trained in computer");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.next_log_probs(ctx));
  }
}
BENCHMARK(BM_CachedNextLogProbs);

// Parallel fan-out of next_log_probs_batch across the shared pool. Arg(0) is
// the thread count (1 = serial fast path). 32 distinct contexts per call —
// more than the pool size, so work-queue draining is exercised.
void BM_BatchNextLogProbsThreads(benchmark::State& state) {
  util::ThreadPool::set_shared_threads(static_cast<std::size_t>(state.range(0)));
  std::vector<std::vector<tokenizer::TokenId>> contexts;
  const char* seeds[] = {"The man was trained in", "https://www.", "science",
                         "The woman went to the"};
  for (std::size_t i = 0; i < 32; ++i) {
    auto ctx = world().tokenizer->encode(seeds[i % 4]);
    ctx.push_back(static_cast<tokenizer::TokenId>(i % world().xl->vocab_size()));
    contexts.push_back(std::move(ctx));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(world().xl->next_log_probs_batch(contexts));
  }
  util::ThreadPool::set_shared_threads(1);
}
BENCHMARK(BM_BatchNextLogProbsThreads)->Arg(1)->Arg(2)->Arg(4);

// The logit cache under batch evaluation: all 32 contexts share their last
// (order-1) tokens with a previously seen context, so after warmup every
// lookup is a hit regardless of full-context diversity.
void BM_CachedBatchSuffixHits(benchmark::State& state) {
  model::CachingModel cached(world().xl);
  std::vector<std::vector<tokenizer::TokenId>> contexts;
  auto suffix = world().tokenizer->encode("trained in computer");
  for (std::size_t i = 0; i < 32; ++i) {
    // Distinct long prefixes, identical relevant suffix.
    std::vector<tokenizer::TokenId> ctx(
        i + 1, static_cast<tokenizer::TokenId>(i % world().xl->vocab_size()));
    ctx.insert(ctx.end(), suffix.begin(), suffix.end());
    contexts.push_back(std::move(ctx));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.next_log_probs_batch(contexts));
  }
  state.counters["hit_rate"] =
      cached.hits() + cached.misses() > 0
          ? static_cast<double>(cached.hits()) /
                static_cast<double>(cached.hits() + cached.misses())
          : 0.0;
}
BENCHMARK(BM_CachedBatchSuffixHits);

// The cache's miss path: a cheap inner model (16 tokens, rows of constants)
// so the cache's own work shows, and a cyclic walk over 16,384 distinct
// two-token suffixes in calls of 32 through 4,096 entries — every lookup
// misses, and every store past the first 4,096 evicts.
void BM_CachedBatchMissesEvict(benchmark::State& state) {
  struct CheapModel : model::LanguageModel {
    std::size_t vocab_size() const override { return 16; }
    tokenizer::TokenId eos() const override { return 0; }
    std::size_t max_sequence_length() const override { return 64; }
    std::size_t relevant_context_length() const override { return 2; }
    std::vector<double> next_log_probs(std::span<const tokenizer::TokenId>) const override {
      return std::vector<double>(16, -std::log(16.0));
    }
  };
  model::CachingModel cached(std::make_shared<CheapModel>(), 4096);
  std::vector<std::vector<tokenizer::TokenId>> contexts;
  for (tokenizer::TokenId i = 0; i < 16384; ++i) {
    contexts.push_back({static_cast<tokenizer::TokenId>(i / 128),
                        static_cast<tokenizer::TokenId>(i % 128)});
  }
  std::size_t at = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.next_rows({contexts.data() + at, 32}, {}));
    at = (at + 32) % contexts.size();
  }
  state.counters["hit_rate"] =
      static_cast<double>(cached.hits()) /
      static_cast<double>(std::max<std::size_t>(1, cached.hits() + cached.misses()));
  state.counters["evictions"] = static_cast<double>(cached.evictions());
}
BENCHMARK(BM_CachedBatchMissesEvict);

core::SimpleSearchQuery url_query(std::optional<int> top_k) {
  core::SimpleSearchQuery query;
  query.query_string.query_str = experiments::url_pattern();
  query.query_string.prefix_str = "https://www.";
  query.decoding.top_k = top_k;
  query.max_results = 50;
  query.max_expansions = 400;
  query.sequence_length = 20;
  // The BM_ShortestPath* benchmarks measure strict Dijkstra, one node per
  // round (and the bench-gate pins BM_ShortestPath at 3%); the speculative
  // pipeline is priced separately by BM_ShortestPathPipeline.
  query.max_in_flight = 1;
  return query;
}

void BM_ShortestPathTopK40(benchmark::State& state) {
  core::SimpleSearchQuery query = url_query(40);
  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world().tokenizer);
  std::size_t expansions = 0;
  for (auto _ : state) {
    core::ShortestPathSearch search(*world().xl, compiled, query);
    benchmark::DoNotOptimize(search.all());
    expansions += search.stats().expansions;
  }
  state.counters["expansions/iter"] =
      static_cast<double>(expansions) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ShortestPathTopK40);

// The async frontier pipeline on the same URL query: speculative expansion
// (the default max_in_flight) with the target-occupancy controller and the
// logit cache, which also serves the rule masks. Arg(0) is the thread
// count. Compare against BM_ShortestPathTopK40 (strict serial, no cache) for
// the end-to-end engine speedup.
void BM_ShortestPathPipeline(benchmark::State& state) {
  util::ThreadPool::set_shared_threads(static_cast<std::size_t>(state.range(0)));
  core::SimpleSearchQuery query = url_query(40);
  query.max_in_flight = core::SimpleSearchQuery{}.max_in_flight;
  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world().tokenizer);
  // Shared across iterations: suffixes repeat across searches far more than
  // within one, so later searches reuse both logits and masks.
  model::CachingModel cached(world().xl, 1 << 16);
  std::size_t rounds = 0, expansions = 0, mask_reused = 0, masks_built = 0;
  for (auto _ : state) {
    core::ShortestPathSearch search(cached, compiled, query);
    benchmark::DoNotOptimize(search.all());
    rounds += search.stats().pump_rounds;
    expansions += search.stats().expansions;
    mask_reused += search.stats().mask_memo_hits;
    masks_built += search.stats().mask_memo_misses;
  }
  state.counters["occupancy"] =
      rounds > 0 ? static_cast<double>(expansions) / static_cast<double>(rounds)
                 : 0.0;
  state.counters["mask_reuse"] =
      mask_reused + masks_built > 0
          ? static_cast<double>(mask_reused) /
                static_cast<double>(mask_reused + masks_built)
          : 0.0;
  util::ThreadPool::set_shared_threads(1);
}
BENCHMARK(BM_ShortestPathPipeline)->Arg(1)->Arg(2)->Arg(4);

// The same query on a copy of its artifact without mask tables (what an
// over-budget token_masks pass leaves): every expansion returns to probing
// each automaton edge against the rule mask. Compare against
// BM_ShortestPathTopK40 for the end-to-end hot-loop saving.
void BM_ShortestPathTopK40MasksOff(benchmark::State& state) {
  core::SimpleSearchQuery query = url_query(40);
  core::CompiledQuery compiled = testing::without_masks(
      core::CompiledQuery::compile(query, *world().tokenizer));
  for (auto _ : state) {
    core::ShortestPathSearch search(*world().xl, compiled, query);
    benchmark::DoNotOptimize(search.all());
  }
}
BENCHMARK(BM_ShortestPathTopK40MasksOff);

// A search to its first result: a corpus passage as an escaped literal
// prefix, a word body, canonical tokens, max_results 1, on the default
// pipeline and a one-thread pool. The logit cache is shared across
// iterations, so after the first search every row is a hit and the
// executor's own work (selection, frontier, canonicality) is what is timed.
// The URL benchmarks above all enumerate; this one stops after a few dozen
// expansions, most of whose children are never popped.
void shortest_path_first_result(benchmark::State& state, std::size_t top_k) {
  util::ThreadPool::set_shared_threads(1);
  const std::string prefix =
      util::regex_escape(world().corpus.cloze_passages.front().context);
  core::SimpleSearchQuery query;
  query.query_string.prefix_str = prefix;
  query.query_string.query_str = prefix + " ([a-zA-Z]+)(\\.|\\!|\\?)?(\")?";
  query.tokenization_strategy = core::TokenizationStrategy::kCanonicalTokens;
  query.decoding.top_k = top_k;
  query.max_results = 1;
  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world().tokenizer);
  model::CachingModel cached(world().xl, 1 << 16);
  std::size_t expansions = 0, discovered = 0, built = 0;
  for (auto _ : state) {
    core::ShortestPathSearch search(cached, compiled, query);
    benchmark::DoNotOptimize(search.next());
    expansions += search.stats().expansions;
    discovered += search.stats().children_discovered;
    built += search.stats().children_built;
  }
  const auto per_iter = [&](std::size_t total) {
    return static_cast<double>(total) / static_cast<double>(state.iterations());
  };
  state.counters["expansions/iter"] = per_iter(expansions);
  state.counters["discovered/iter"] = per_iter(discovered);
  state.counters["built/iter"] = per_iter(built);
}

// Top-k 40, narrower than the cloze queries.
void BM_ShortestPathFirstResult(benchmark::State& state) {
  shortest_path_first_result(state, 40);
}
BENCHMARK(BM_ShortestPathFirstResult);

// Top-k 1000, the shape of Table 1's LAMBADA queries and of perfbench's
// cloze_suite: more than the vocabulary, so a word-class expansion offers
// every token the body admits.
void BM_ShortestPathFirstResultTopK1000(benchmark::State& state) {
  shortest_path_first_result(state, 1000);
}
BENCHMARK(BM_ShortestPathFirstResultTopK1000);

// Isolated expansion primitives on a synthetic dense token automaton, away
// from model-inference noise. Arg(0) is the vocabulary size; the state under
// measurement carries vocab/2 outgoing edges (URL- and word-class states in
// real queries are this dense) and the decoding rule keeps ~1/16 of the
// vocabulary, the regime top-k=40 style rules put the executor in.
struct MaskBenchFixture {
  std::size_t vocab;
  automata::Dfa dfa;
  core::TokenMaskTable table;
  util::TokenBitset rule;

  explicit MaskBenchFixture(std::size_t v)
      : vocab(v), dfa(static_cast<automata::Symbol>(v)), rule(v) {
    automata::StateId s0 = dfa.add_state(false);
    automata::StateId s1 = dfa.add_state(true);
    dfa.set_start(s0);
    for (std::size_t t = 0; t < v; t += 2) {
      dfa.add_edge(s0, static_cast<automata::Symbol>(t), s1);
    }
    table = core::build_token_masks(dfa);
    util::Pcg32 rng(17);
    for (std::size_t t = 0; t < v; ++t) {
      if (rng.bounded(16) == 0) rule.set(t);
    }
  }
};

// Mask-and-scan: intersect the state bitmask with the rule mask word by word
// and recover each survivor's CSR target by rank (running popcount). This is
// exactly the loop CompiledQuery::expand_masked runs per live automaton.
void BM_MaskExpand(benchmark::State& state) {
  MaskBenchFixture fx(static_cast<std::size_t>(state.range(0)));
  const std::uint64_t* row = fx.table.state_words(0);
  const std::uint64_t* rule_words = fx.rule.words().data();
  const std::uint32_t* targets =
      fx.table.edge_targets.data() + fx.table.edge_offsets[0];
  const std::size_t words = fx.table.words_per_state;
  std::uint64_t survivors = 0;
  for (auto _ : state) {
    std::uint64_t sink = 0;
    std::uint32_t base_rank = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t word = row[w];
      std::uint64_t bits = word & rule_words[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const std::uint32_t rank =
            base_rank +
            static_cast<std::uint32_t>(std::popcount(word & ((1ull << b) - 1)));
        sink += targets[rank];
        ++survivors;
      }
      base_rank += static_cast<std::uint32_t>(std::popcount(word));
    }
    benchmark::DoNotOptimize(sink);
  }
  state.counters["survivors/iter"] =
      static_cast<double>(survivors) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MaskExpand)->Arg(1024)->Arg(8192);

// The pre-mask hot loop: visit every outgoing edge of the automaton and
// probe the rule mask per edge. Cost scales with edge count instead of
// vocab/64 + survivors.
void BM_MaskExpandProbe(benchmark::State& state) {
  MaskBenchFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::uint64_t sink = 0;
    for (const automata::Edge& e : fx.dfa.edges(0)) {
      if (fx.rule[e.symbol]) sink += e.to;
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_MaskExpandProbe)->Arg(1024)->Arg(8192);

// Building the rule mask itself (top-k + top-p over a full distribution):
// the per-step cost that the per-state masks let the executor amortize
// across every candidate edge at once.
void BM_AllowedTokensBitset(benchmark::State& state) {
  const std::size_t vocab = static_cast<std::size_t>(state.range(0));
  util::Pcg32 rng(29);
  std::vector<double> log_probs(vocab);
  double total = 0.0;
  for (double& lp : log_probs) {
    lp = 0.05 + rng.uniform();
    total += lp;
  }
  for (double& lp : log_probs) lp = std::log(lp / total);
  model::DecodingRules rules;
  rules.top_k = 40;
  rules.top_p = 0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::allowed_tokens(log_probs, rules));
  }
}
BENCHMARK(BM_AllowedTokensBitset)->Arg(1024)->Arg(8192);

// Top-k 40 alone over sim-xl rows of this world: 2,048 distinct rows of
// full-window corpus contexts, masked in turn. These rows carry large tie
// classes, and the k-th value comes from the sampled pivot's few survivors.
void BM_AllowedTokensTopKSimXl(benchmark::State& state) {
  static const std::vector<std::vector<double>> rows = [] {
    const std::size_t window = world().xl->relevant_context_length();
    std::set<std::vector<tokenizer::TokenId>> seen;
    std::vector<std::vector<double>> out;
    for (const std::string& doc : world().corpus.documents) {
      const auto tokens = world().tokenizer->encode(doc);
      for (std::size_t end = window; end <= tokens.size() && out.size() < 2048; ++end) {
        std::vector<tokenizer::TokenId> ctx(tokens.begin() + (end - window),
                                            tokens.begin() + end);
        if (seen.insert(ctx).second) out.push_back(world().xl->next_log_probs(ctx));
      }
      if (out.size() == 2048) break;
    }
    return out;
  }();
  model::DecodingRules rules;
  rules.top_k = 40;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::allowed_tokens(rows[i], rules));
    i = (i + 1) % rows.size();
  }
  state.counters["vocab"] = static_cast<double>(rows.front().size());
}
BENCHMARK(BM_AllowedTokensTopKSimXl);

void BM_ShortestPathUnrestricted(benchmark::State& state) {
  core::SimpleSearchQuery query = url_query(std::nullopt);
  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world().tokenizer);
  for (auto _ : state) {
    core::ShortestPathSearch search(*world().xl, compiled, query);
    benchmark::DoNotOptimize(search.all());
  }
}
BENCHMARK(BM_ShortestPathUnrestricted);

void BM_RandomSampling(benchmark::State& state) {
  core::SimpleSearchQuery query;
  query.query_string.query_str =
      "The ((man)|(woman)) was trained in ((art)|(science)|(engineering))";
  query.query_string.prefix_str = "The ((man)|(woman)) was trained in";
  query.search_strategy = core::SearchStrategy::kRandomSampling;
  query.num_samples = 1;
  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world().tokenizer);
  core::RandomSampler sampler(*world().xl, compiled, query, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample_once());
  }
}
BENCHMARK(BM_RandomSampling);

// Observability overhead floor: the cost of an RELM_TRACE_SPAN at a site
// when tracing is disabled (the default for every production run). This is
// the per-span tax paid by the instrumented hot paths — it must stay at a
// single relaxed atomic load (sub-nanosecond-ish), which the bench-gate's
// shortest-path budget indirectly enforces end to end.
void BM_ObsSpanDisabled(benchmark::State& state) {
  if (obs::Trace::enabled()) obs::Trace::stop();
  for (auto _ : state) {
    RELM_TRACE_SPAN("bench.disabled_span");
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

// Span cost with tracing on: clock reads plus one per-thread buffered event
// and one histogram observe.
void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::Trace::start();
  for (auto _ : state) {
    RELM_TRACE_SPAN("bench.enabled_span");
    benchmark::DoNotOptimize(&state);
  }
  obs::Trace::stop();
}
BENCHMARK(BM_ObsSpanEnabled);

// Striped counter add — the fast path used by every executor/cache metric.
void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Counter& c = obs::Registry::instance().counter("bench.counter");
  for (auto _ : state) {
    c.add();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_ObsCounterAdd);

// Histogram observe: bucket search plus two striped adds.
void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram& h = obs::Registry::instance().histogram(
      "bench.histogram", obs::Histogram::default_size_bounds());
  double v = 0.0;
  for (auto _ : state) {
    h.observe(v);
    v = v < 4096.0 ? v + 1.0 : 0.0;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_ObsHistogramObserve);

// Sync-layer overhead floor: a raw std::mutex lock/unlock against the
// annotated relm::Mutex wrapper. Bench builds are Release (NDEBUG), so the
// rank detector and contention counters compile out and the two must be
// indistinguishable — the wrapper's lock() IS std::mutex::lock(). Debug-only
// machinery is priced separately by the test suite, not here.
void BM_SyncStdMutexBaseline(benchmark::State& state) {
  std::mutex m;  // relm-lint exemption does not apply: bench/ is out of scope
  for (auto _ : state) {
    m.lock();
    m.unlock();
  }
  benchmark::DoNotOptimize(&m);
}
BENCHMARK(BM_SyncStdMutexBaseline);

void BM_SyncRelmMutex(benchmark::State& state) {
  util::Mutex m(util::LockRank::kPoolJob);
  for (auto _ : state) {
    m.lock();
    m.unlock();
  }
  benchmark::DoNotOptimize(&m);
}
BENCHMARK(BM_SyncRelmMutex);

void BM_SyncRelmScopedLock(benchmark::State& state) {
  util::Mutex m(util::LockRank::kPoolJob);
  for (auto _ : state) {
    util::ScopedLock lock(m);
    benchmark::DoNotOptimize(&lock);
  }
}
BENCHMARK(BM_SyncRelmScopedLock);

void BM_QueryCompilation(benchmark::State& state) {
  core::SimpleSearchQuery query = url_query(40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::CompiledQuery::compile(query, *world().tokenizer));
  }
}
BENCHMARK(BM_QueryCompilation);

}  // namespace

BENCHMARK_MAIN();
