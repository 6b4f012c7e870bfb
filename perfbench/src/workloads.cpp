#include "workloads.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "automata/regex.hpp"
#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/generate/generate_engine.hpp"
#include "core/pipeline/cache.hpp"
#include "core/preprocessors.hpp"
#include "experiments/lambada.hpp"
#include "experiments/toxicity.hpp"
#include "model/ngram_model.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace {

using relm::core::CompiledQuery;
using relm::core::SearchResult;
using relm::core::ShortestPathSearch;
using relm::core::SimpleSearchQuery;
using relm::core::generate::GenerateEngine;
using relm::core::generate::StreamState;
using relm::core::pipeline::ArtifactCache;
using relm::core::pipeline::ArtifactCacheConfig;
using relm::experiments::World;
using relm::model::CachingModel;

// url_audit: matches enumerated per unit.
constexpr std::size_t kUrlAuditMatches = 50000;

// url_sample: concurrent streams, and streams admitted per unit.
constexpr std::size_t kSampleConcurrency = 64;
constexpr std::size_t kSampleStreams = 4096;
constexpr std::uint64_t kSamplerSeedBase = 1729;

// The model a unit's logit cache wraps: the bare n-gram model, or in a
// traced unit the timing decorator around it.
struct ModelChain {
  std::shared_ptr<TimingModel> timing;
  std::shared_ptr<const relm::model::LanguageModel> inner;

  ModelChain(const World& world, bool traced) : inner(world.xl) {
    if (traced) {
      timing = std::make_shared<TimingModel>(world.xl);
      timing->set_coordinator(std::this_thread::get_id());
      inner = timing;
    }
  }
};

// compile_cached + from_artifact under the bench.compile span; a cache miss
// is a cold compile and its latency is recorded.
CompiledQuery compile_query(const SimpleSearchQuery& query,
                            const relm::tokenizer::BpeTokenizer& tok,
                            ArtifactCache& artifacts, UnitOutput& out) {
  RELM_TRACE_SPAN("bench.compile");
  const std::size_t hits_before = artifacts.stats().hits;
  const WorkClock::time_point start = WorkClock::now();
  CompiledQuery compiled = CompiledQuery::from_artifact(
      relm::core::pipeline::compile_cached(query, tok, &artifacts), tok);
  const double ms = ms_between(start, WorkClock::now());
  ++out.tally.compile_calls;
  if (artifacts.stats().hits > hits_before) {
    ++out.tally.compile_hits;
  } else {
    ++out.tally.compile_misses;
    out.compile_cold_ms.push_back(ms);
  }
  out.tally.body_states += compiled.body_automaton().num_states();
  return compiled;
}

ArtifactCacheConfig artifact_config(std::size_t capacity) {
  ArtifactCacheConfig config;
  config.capacity = capacity;
  return config;
}

void add_cache_stats(const CachingModel& logits, LayerTally& tally) {
  const auto stats = logits.cache_stats();
  if (!stats) return;
  tally.logit_cache.hits += stats->hits;
  tally.logit_cache.misses += stats->misses;
  tally.logit_cache.evictions += stats->evictions;
}

// The §4.1 URL query every URL workload starts from.
SimpleSearchQuery url_query(relm::core::SearchStrategy strategy) {
  SimpleSearchQuery query;
  query.query_string.prefix_str = "https://www.";
  query.query_string.query_str = relm::experiments::url_pattern();
  query.search_strategy = strategy;
  query.tokenization_strategy = relm::core::TokenizationStrategy::kCanonicalTokens;
  query.decoding.top_k = 40;
  query.sequence_length = 24;
  return query;
}

// A URL unit compiles its query once, too rarely for a stable median; cold
// compiles of the same query, each through a fresh artifact cache, give
// compile_cold_ms_p50 its samples. The batch is over in 100 ms or less, so
// a speed slice before every compile, not one per 100 ms, reads the host
// while it runs.
void url_compile_probes(const SimpleSearchQuery& query,
                        const relm::tokenizer::BpeTokenizer& tok,
                        std::size_t count, UnitOutput& out) {
  for (std::size_t i = 0; i < count; ++i) {
    speed_sampler().sample_now();
    ArtifactCache artifacts(artifact_config(16));
    compile_query(query, tok, artifacts, out);
  }
}

// ---------------------------------------------------------------------------
// url_audit: one long shortest-path enumeration of the URL language.

class UrlAudit final : public Workload {
 public:
  explicit UrlAudit(const World& world)
      : world_(world),
        query_(url_query(relm::core::SearchStrategy::kShortestPath)),
        url_dfa_(relm::automata::compile_regex(relm::experiments::url_pattern())) {
    query_.max_results = kUrlAuditMatches;
    query_.max_expansions = std::numeric_limits<std::size_t>::max();
  }

  UnitOutput run_unit(bool traced, bool check) override {
    UnitOutput out;
    std::vector<SearchResult> matches;
    matches.reserve(kUrlAuditMatches);
    out.ttfr_ms.reserve(kUrlAuditMatches);
    ModelChain chain(world_, traced);
    const Clock::time_point start = Clock::now();
    const WorkClock::time_point cpu_start = WorkClock::now();
    {
      ArtifactCache artifacts(artifact_config(16));
      std::optional<CompiledQuery> compiled(
          compile_query(query_, *world_.tokenizer, artifacts, out));
      std::optional<CachingModel> logits;
      std::optional<ShortestPathSearch> search;
      {
        RELM_TRACE_SPAN("bench.search_init");
        logits.emplace(chain.inner, kLogitCacheEntries);
        search.emplace(*logits, *compiled, query_);
      }
      // In an enumeration every next() is a request for one more result;
      // its latency is this workload's time to (next) result.
      for (;;) {
        speed_sampler().sample();
        std::optional<SearchResult> match;
        const WorkClock::time_point asked = WorkClock::now();
        {
          RELM_TRACE_SPAN("bench.next");
          match = search->next();
        }
        if (!match) break;
        out.ttfr_ms.push_back(ms_between(asked, WorkClock::now()));
        matches.push_back(std::move(*match));
      }
      out.steps = search->stats().expansions;
      out.tally.add_search(search->stats());
      add_cache_stats(*logits, out.tally);
      {
        RELM_TRACE_SPAN("bench.teardown");
        search.reset();
        logits.reset();
        compiled.reset();
      }
    }
    out.wall_s = seconds_since(start);
    out.cpu_s = seconds_since(cpu_start);
    if (chain.timing) out.model = chain.timing->totals();

    out.queries = 1;
    out.results = matches.size();
    Digest digest;
    for (const SearchResult& m : matches) {
      digest.add(m.text);
      digest.add_log_prob(m.log_prob);
    }
    out.digest = digest.value();
    if (check) {
      // Every match is in the URL language, and matches come out most
      // probable first.
      for (std::size_t i = 0; i < matches.size(); ++i) {
        const bool ordered =
            i == 0 || matches[i].log_prob <= matches[i - 1].log_prob + 1e-9;
        ++out.checked;
        if (!ordered || !url_dfa_.accepts_bytes(matches[i].text)) ++out.failed;
      }
    }
    return out;
  }

  void compile_probes(UnitOutput& out) override {
    url_compile_probes(query_, *world_.tokenizer, 32, out);
  }

 private:
  const World& world_;
  SimpleSearchQuery query_;
  relm::automata::Dfa url_dfa_;
};

// ---------------------------------------------------------------------------
// url_sample: a closed loop of concurrent generate streams.

class UrlSample final : public Workload {
 public:
  UrlSample(const World& world, std::uint64_t seed)
      : world_(world),
        query_(url_query(relm::core::SearchStrategy::kRandomSampling)),
        url_dfa_(relm::automata::compile_regex(relm::experiments::url_pattern())),
        master_seed_(kSamplerSeedBase + seed) {}

  UnitOutput run_unit(bool traced, bool check) override {
    UnitOutput out;
    ModelChain chain(world_, traced);
    std::vector<std::optional<SearchResult>> samples;
    std::vector<StreamState> final_states;
    const Clock::time_point start = Clock::now();
    const WorkClock::time_point cpu_start = WorkClock::now();
    {
      ArtifactCache artifacts(artifact_config(16));
      std::optional<CompiledQuery> compiled(
          compile_query(query_, *world_.tokenizer, artifacts, out));
      std::optional<CachingModel> logits;
      std::optional<GenerateEngine> engine;
      {
        RELM_TRACE_SPAN("bench.search_init");
        logits.emplace(chain.inner, kLogitCacheEntries);
        engine.emplace(*logits, *compiled, query_, master_seed_);
      }
      std::vector<WorkClock::time_point> admitted_at;
      admitted_at.reserve(kSampleStreams);
      std::vector<GenerateEngine::StreamId> live;
      auto admit = [&] {
        RELM_TRACE_SPAN("bench.add_stream");
        live.push_back(engine->add_stream());
        admitted_at.push_back(WorkClock::now());
      };
      while (admitted_at.size() < kSampleConcurrency) admit();
      while (!live.empty()) {
        speed_sampler().sample();
        bool ran = false;
        {
          RELM_TRACE_SPAN("bench.tick");
          ran = engine->tick();
        }
        const WorkClock::time_point now = WorkClock::now();
        std::size_t kept = 0;
        std::size_t retired = 0;
        for (const GenerateEngine::StreamId id : live) {
          const StreamState state = engine->state(id);
          if (state == StreamState::kPending || state == StreamState::kRunning ||
              state == StreamState::kSuspended) {
            live[kept++] = id;
            continue;
          }
          ++retired;
          if (state == StreamState::kDone) {
            out.ttfr_ms.push_back(ms_between(admitted_at[id], now));
          }
        }
        live.resize(kept);
        if (!ran && !live.empty()) {
          throw std::runtime_error("generate engine idle with live streams");
        }
        for (; retired > 0 && admitted_at.size() < kSampleStreams; --retired) {
          admit();
        }
      }
      out.tally.generate = engine->stats();
      add_cache_stats(*logits, out.tally);
      for (GenerateEngine::StreamId id = 0; id < engine->num_streams(); ++id) {
        final_states.push_back(engine->state(id));
        samples.push_back(engine->result(id));
      }
      {
        RELM_TRACE_SPAN("bench.teardown");
        engine.reset();
        logits.reset();
        compiled.reset();
      }
    }
    out.wall_s = seconds_since(start);
    out.cpu_s = seconds_since(cpu_start);
    if (chain.timing) out.model = chain.timing->totals();

    const auto& g = out.tally.generate;
    out.queries = g.streams_retired;
    out.results = g.streams_done;
    out.steps = g.tokens_emitted;
    Digest digest;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      digest.add(relm::core::generate::to_string(final_states[i]));
      if (samples[i]) {
        digest.add(samples[i]->text);
        digest.add_log_prob(samples[i]->log_prob);
      }
    }
    out.digest = digest.value();
    if (check) {
      for (const auto& sample : samples) {
        if (!sample) continue;
        ++out.checked;
        if (!url_dfa_.accepts_bytes(sample->text)) ++out.failed;
      }
    }
    return out;
  }

  void compile_probes(UnitOutput& out) override {
    url_compile_probes(query_, *world_.tokenizer, 4, out);
  }

 private:
  const World& world_;
  SimpleSearchQuery query_;
  relm::automata::Dfa url_dfa_;
  std::uint64_t master_seed_;
};

// ---------------------------------------------------------------------------
// cloze_suite: many short searches, each to its first result.

struct ClozeQuery {
  SimpleSearchQuery query;
  // Output check: a LAMBADA result must be in query_str's language (and,
  // for no_stop, must not complete with a stop word); a toxicity result is
  // the prompt followed by a string within one edit of the insult.
  bool toxicity = false;
  bool no_stop = false;
  std::string prompt;
  std::string insult;
};

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

// The Table 1 query shapes, built as experiments::run_lambada builds them.
SimpleSearchQuery lambada_query(const relm::corpus::Corpus::ClozePassage& passage,
                                relm::experiments::LambadaVariant variant) {
  using relm::experiments::LambadaVariant;
  const relm::experiments::LambadaSettings settings;
  std::string word_class = "([a-zA-Z]+)";
  if (variant == LambadaVariant::kWords) {
    std::string disjunction;
    for (const auto& w : relm::experiments::context_words(passage.context)) {
      if (!disjunction.empty()) disjunction += "|";
      disjunction += "(" + w + ")";
    }
    word_class = "(" + disjunction + ")";
  }
  SimpleSearchQuery query;
  query.query_string.prefix_str = relm::util::regex_escape(passage.context);
  query.query_string.query_str =
      query.query_string.prefix_str + " " + word_class + "(\\.|\\!|\\?)?(\")?";
  query.search_strategy = relm::core::SearchStrategy::kShortestPath;
  query.tokenization_strategy = relm::core::TokenizationStrategy::kCanonicalTokens;
  query.decoding.top_k = settings.top_k;
  query.max_results = 1;
  query.max_expansions = settings.max_expansions_per_item;
  query.require_eos = variant == LambadaVariant::kTerminated ||
                      variant == LambadaVariant::kNoStop;
  if (variant == LambadaVariant::kNoStop) {
    std::string stops;
    for (const auto& w : relm::corpus::stop_words()) {
      if (!stops.empty()) stops += "|";
      stops += "(" + w + ")";
    }
    query.preprocessors.push_back(std::make_shared<relm::core::FilterPreprocessor>(
        " ((" + stops + "))(\\.|\\!|\\?)?(\")?",
        relm::core::Preprocessor::Target::kBody));
  }
  return query;
}

// The §4.3 prompted query in its ReLM setting: all encodings plus
// Levenshtein-1 edits, as experiments::run_prompted_toxicity builds it.
SimpleSearchQuery toxicity_query(const relm::experiments::ToxicityCase& item) {
  relm::experiments::ToxicitySettings settings;
  SimpleSearchQuery query;
  query.search_strategy = relm::core::SearchStrategy::kShortestPath;
  query.tokenization_strategy = relm::core::TokenizationStrategy::kAllTokens;
  query.decoding.top_k = settings.top_k;
  query.max_expansions = settings.max_expansions_per_case;
  query.sequence_length = 48;
  query.preprocessors.push_back(std::make_shared<relm::core::LevenshteinPreprocessor>(
      1, relm::core::Preprocessor::Target::kBody));
  query.query_string.prefix_str = relm::util::regex_escape(item.prompt);
  query.query_string.query_str =
      query.query_string.prefix_str + relm::util::regex_escape(item.insult);
  query.max_results = 1;
  return query;
}

class ClozeSuite final : public Workload {
 public:
  ClozeSuite(const World& world, std::uint64_t seed) : world_(world) {
    using relm::experiments::LambadaVariant;
    for (const auto& passage : world.corpus.cloze_passages) {
      for (LambadaVariant variant :
           {LambadaVariant::kBaseline, LambadaVariant::kWords,
            LambadaVariant::kTerminated, LambadaVariant::kNoStop}) {
        ClozeQuery q;
        q.query = lambada_query(passage, variant);
        q.no_stop = variant == LambadaVariant::kNoStop;
        queries_.push_back(std::move(q));
      }
    }
    for (const auto& item : relm::experiments::derive_toxicity_cases(
             world, std::numeric_limits<std::size_t>::max())) {
      ClozeQuery q;
      q.query = toxicity_query(item);
      q.toxicity = true;
      q.prompt = item.prompt;
      q.insult = item.insult;
      queries_.push_back(std::move(q));
    }
    // The seed fixes the order the client sends its queries in.
    relm::util::Pcg32 rng(seed);
    for (std::size_t i = queries_.size(); i > 1; --i) {
      std::swap(queries_[i - 1], queries_[rng.next() % i]);
    }
  }

  UnitOutput run_unit(bool traced, bool check) override {
    UnitOutput out;
    ModelChain chain(world_, traced);
    std::vector<std::optional<SearchResult>> firsts;
    firsts.reserve(queries_.size());
    const Clock::time_point start = Clock::now();
    const WorkClock::time_point cpu_start = WorkClock::now();
    {
      std::optional<ArtifactCache> artifacts;
      std::optional<CachingModel> logits;
      {
        RELM_TRACE_SPAN("bench.search_init");
        artifacts.emplace(artifact_config(1 << 15));
        logits.emplace(chain.inner, kLogitCacheEntries);
      }
      for (const ClozeQuery& q : queries_) {
        speed_sampler().sample();
        const WorkClock::time_point sent = WorkClock::now();
        std::optional<CompiledQuery> compiled(
            compile_query(q.query, *world_.tokenizer, *artifacts, out));
        std::optional<ShortestPathSearch> search;
        {
          RELM_TRACE_SPAN("bench.search_init");
          search.emplace(*logits, *compiled, q.query);
        }
        std::optional<SearchResult> first;
        {
          RELM_TRACE_SPAN("bench.next");
          first = search->next();
        }
        if (first) out.ttfr_ms.push_back(ms_between(sent, WorkClock::now()));
        out.tally.add_search(search->stats());
        firsts.push_back(std::move(first));
        RELM_TRACE_SPAN("bench.teardown");
        search.reset();
        compiled.reset();
      }
      add_cache_stats(*logits, out.tally);
      RELM_TRACE_SPAN("bench.teardown");
      logits.reset();
      artifacts.reset();
    }
    out.wall_s = seconds_since(start);
    out.cpu_s = seconds_since(cpu_start);
    if (chain.timing) out.model = chain.timing->totals();

    out.queries = queries_.size();
    out.steps = out.tally.search.expansions;
    Digest digest;
    for (const auto& first : firsts) {
      if (!first) {
        digest.add("-");
        continue;
      }
      ++out.results;
      digest.add(first->text);
      digest.add_log_prob(first->log_prob);
    }
    out.digest = digest.value();
    if (check) check_firsts(firsts, out);
    return out;
  }

 private:
  void check_firsts(const std::vector<std::optional<SearchResult>>& firsts,
                    UnitOutput& out) const {
    for (std::size_t i = 0; i < firsts.size(); ++i) {
      if (!firsts[i]) continue;
      const ClozeQuery& q = queries_[i];
      const std::string& text = firsts[i]->text;
      bool ok = false;
      if (q.toxicity) {
        ok = text.starts_with(q.prompt) &&
             edit_distance(text.substr(q.prompt.size()), q.insult) <= 1;
      } else {
        ok = relm::automata::compile_regex(q.query.query_string.query_str)
                 .accepts_bytes(text);
        if (ok && q.no_stop) {
          // The completion is the last word (plus optional punctuation).
          ok = !relm::corpus::is_stop_word(relm::experiments::extract_word(
              text.substr(text.rfind(' ') + 1)));
        }
      }
      ++out.checked;
      if (!ok) ++out.failed;
    }
  }

  const World& world_;
  std::vector<ClozeQuery> queries_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const World& world,
                                        std::uint64_t seed) {
  if (name == "url_audit") return std::make_unique<UrlAudit>(world);
  if (name == "url_sample") return std::make_unique<UrlSample>(world, seed);
  if (name == "cloze_suite") return std::make_unique<ClozeSuite>(world, seed);
  return nullptr;
}

}  // namespace perfbench
