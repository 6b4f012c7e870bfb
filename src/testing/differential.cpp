#include "testing/differential.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "automata/regex.hpp"
#include "core/executor.hpp"
#include "core/generate/generate_engine.hpp"
#include "core/pipeline/cache.hpp"
#include "model/ngram_model.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace relm::testing {

using core::BeamSearch;
using core::CompiledQuery;
using core::RandomSampler;
using core::SearchResult;
using core::ShortestPathSearch;
using core::SimpleSearchQuery;
using model::LanguageModel;
using tokenizer::BpeTokenizer;

namespace {

// Everything one configuration produces. Only (tokens, text, log_prob) are
// compared; the timing/attribution fields legitimately differ per run.
struct ExecutorOutputs {
  std::vector<SearchResult> shortest1;  // max_in_flight = 1 (ordered)
  std::vector<SearchResult> shortest3;  // max_in_flight = 3 (speculative)
  std::vector<SearchResult> beam;
  std::vector<SearchResult> samples;
};

ExecutorOutputs run_executors(const LanguageModel& model,
                              const CompiledQuery& compiled,
                              const SimpleSearchQuery& base,
                              std::uint64_t sampler_seed) {
  ExecutorOutputs out;
  {
    // Strict Dijkstra: the comparison target the default pipeline
    // (Configuration F) must reproduce bytewise.
    SimpleSearchQuery q = base;
    q.max_in_flight = 1;
    ShortestPathSearch search(model, compiled, q);
    out.shortest1 = search.all();
  }
  {
    SimpleSearchQuery q = base;
    q.max_in_flight = 3;
    ShortestPathSearch search(model, compiled, q);
    out.shortest3 = search.all();
  }
  {
    BeamSearch beam(model, compiled, base);
    out.beam = beam.run();
  }
  {
    RandomSampler sampler(model, compiled, base, sampler_seed);
    out.samples = sampler.sample_all();
  }
  return out;
}

// Byte-identical comparison across cache configurations: the caches replay
// stored vectors and the artifact roundtrip reloads identical automata, so
// every double must match EXACTLY — tolerance here would mask a cache that
// recomputes instead of replaying.
std::optional<std::string> diff_exact(const std::vector<SearchResult>& a,
                                      const std::vector<SearchResult>& b,
                                      const char* what) {
  auto describe = [&](std::size_t i) {
    std::ostringstream err;
    err << what << " diverges across cache configurations at index " << i;
    if (i < a.size() && i < b.size()) {
      err << ": \"" << a[i].text << "\" (log_prob " << a[i].log_prob
          << ") vs \"" << b[i].text << "\" (log_prob " << b[i].log_prob << ")";
    } else {
      err << ": length " << a.size() << " vs " << b.size();
    }
    return err.str();
  };
  if (a.size() != b.size()) return describe(std::min(a.size(), b.size()));
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].tokens != b[i].tokens || a[i].text != b[i].text ||
        a[i].log_prob != b[i].log_prob) {
      return describe(i);
    }
  }
  return std::nullopt;
}

void apply_mutation(std::vector<SearchResult>& results, Mutation mutation) {
  switch (mutation) {
    case Mutation::kNone:
      return;
    case Mutation::kDropResult:
      if (!results.empty()) results.pop_back();
      return;
    case Mutation::kPerturbLogProb:
      if (!results.empty()) results.front().log_prob += 1e-6;
      return;
    case Mutation::kSwapOrder:
      if (results.size() >= 2) std::swap(results[0], results[1]);
      return;
    case Mutation::kDuplicateResult:
      if (!results.empty()) results.push_back(results.front());
      return;
  }
}

}  // namespace

CompiledQuery without_masks(const CompiledQuery& compiled) {
  auto copy =
      std::make_shared<core::pipeline::QueryArtifact>(compiled.artifact());
  for (auto* side : {&copy->prefix, &copy->body}) {
    auto stripped = std::make_shared<core::pipeline::Component>(**side);
    stripped->automaton.masks = {};
    *side = std::move(stripped);
  }
  return CompiledQuery::from_artifact(std::move(copy), compiled.tokenizer());
}

TrialReport run_trial(const TrialCase& trial,
                      const DifferentialOptions& options) {
  TrialReport report;
  auto fail = [&](std::string kind, std::string detail) {
    report.status = TrialReport::Status::kFail;
    report.failure_kind = std::move(kind);
    report.detail = std::move(detail);
    return report;
  };

  try {
    BpeTokenizer tok = BpeTokenizer::from_vocab(trial.vocab);
    std::shared_ptr<LanguageModel> base_model = trial.model.build();
    SimpleSearchQuery query = trial.query();
    query.num_samples = options.num_samples;

    // Fresh compile, no cache anywhere (nullptr = compile-through only).
    auto artifact = core::pipeline::compile_cached(query, tok, nullptr);
    CompiledQuery compiled = CompiledQuery::from_artifact(artifact, tok);

    Oracle oracle = build_oracle(*base_model, compiled, query, options.oracle);
    report.language_size = oracle.by_text.size();
    report.oracle_nodes = oracle.nodes_explored;
    report.max_width = oracle.max_width;
    if (oracle.truncated) {
      report.status = TrialReport::Status::kSkip;
      report.detail = "oracle truncated (language too large to enumerate)";
      return report;
    }

    // Budgets sized from ground truth so no executor limit bites: every
    // executor must exhaust the language, and the beam is wide enough to be
    // exact (beam_width >= the oracle's max frontier width).
    query.max_results = oracle.by_text.size() + 8;
    query.max_expansions = oracle.nodes_explored * 4 + 64;
    query.beam_width = std::max<std::size_t>(oracle.max_width, 1);

    // Configuration A: plain (the oracle's comparison target).
    ExecutorOutputs plain =
        run_executors(*base_model, compiled, query, trial.sampler_seed);

    // Compares another configuration's outputs against plain, filling the
    // report on the first divergence.
    auto check_config = [&](const ExecutorOutputs& out,
                            const char* config) -> bool {
      for (auto [got, want, what] :
           {std::tuple{&out.shortest1, &plain.shortest1, "shortest1"},
            std::tuple{&out.shortest3, &plain.shortest3, "shortest3"},
            std::tuple{&out.beam, &plain.beam, "beam"},
            std::tuple{&out.samples, &plain.samples, "samples"}}) {
        if (auto diff = diff_exact(*got, *want, what)) {
          fail(std::string("config:") + what,
               std::string(config) + ": " + *diff);
          return false;
        }
      }
      return true;
    };

    // Configuration B: logit cache between the executors and the model.
    {
      model::CachingModel cached(base_model, /*capacity=*/1 << 12);
      ExecutorOutputs out =
          run_executors(cached, compiled, query, trial.sampler_seed);
      if (!check_config(out, "logit-cache")) return report;
    }

    // Configuration C: compile through sibling queries. A cache warmed with
    // the prefix over another body (the same language, spelled differently)
    // and with the body under an empty prefix holds both of the query's
    // components: compiling the query must compile nothing (a cache hit),
    // and the assembled artifact must drive executors to byte-identical
    // output.
    {
      // The default capacity (32 entries per shard): the siblings' four
      // components never evict each other.
      core::pipeline::ArtifactCache cache(core::pipeline::ArtifactCacheConfig{});
      SimpleSearchQuery prefix_sibling = query;
      prefix_sibling.query_string.query_str =
          trial.prefix + "(" + trial.body + ")";
      SimpleSearchQuery body_sibling = query;
      body_sibling.query_string = {trial.body, ""};
      (void)core::pipeline::compile_cached(prefix_sibling, tok, &cache);
      (void)core::pipeline::compile_cached(body_sibling, tok, &cache);
      const std::size_t hits = cache.stats().hits;
      auto warm = core::pipeline::compile_cached(query, tok, &cache);
      if (cache.stats().hits != hits + 1) {
        return fail("config:compile-cache",
                    "compile-cache: the query compiled a component its "
                    "siblings had already compiled");
      }
      CompiledQuery recompiled = CompiledQuery::from_artifact(warm, tok);
      ExecutorOutputs out =
          run_executors(*base_model, recompiled, query, trial.sampler_seed);
      if (!check_config(out, "compile-cache")) return report;
    }

    // Configuration D: artifact serialized and reloaded, plus the logit
    // cache — the belt-and-braces stack a real deployment runs with.
    {
      std::ostringstream sink;
      core::pipeline::save_artifact(*artifact, sink);
      std::istringstream source(sink.str());
      auto reloaded = std::make_shared<core::pipeline::QueryArtifact>(
          core::pipeline::load_artifact(source));
      CompiledQuery rebound = CompiledQuery::from_artifact(reloaded, tok);
      model::CachingModel cached(base_model, /*capacity=*/1 << 12);
      ExecutorOutputs out =
          run_executors(cached, rebound, query, trial.sampler_seed);
      if (!check_config(out, "artifact-io")) return report;
    }

    // Configuration E: the artifact without its token-mask tables. Plain
    // runs with the precompiled per-state bitmasks; this run takes the
    // per-edge probe path instead. Any divergence means the mask-and-scan
    // expansion is not a faithful replacement for edge probing.
    {
      CompiledQuery probe_only = without_masks(compiled);
      ExecutorOutputs out =
          run_executors(*base_model, probe_only, query, trial.sampler_seed);
      if (!check_config(out, "masks-off")) return report;
    }

    // Configuration F: the default pipeline (max_in_flight left at its
    // default) across a shared-pool thread sweep. Pipeline scheduling is
    // defined to be a pure function of deterministic search state, so its
    // output must be byte-identical to the strict (max_in_flight = 1) run at
    // every thread count.
    {
      const std::size_t restore = util::ThreadPool::shared().threads();
      std::optional<std::string> diff;
      std::size_t bad_threads = 0;
      for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8}}) {
        util::ThreadPool::set_shared_threads(threads);
        ShortestPathSearch search(*base_model, compiled, query);
        std::vector<SearchResult> got = search.all();
        diff = diff_exact(got, plain.shortest1, "pipeline");
        if (diff) {
          bad_threads = threads;
          break;
        }
      }
      util::ThreadPool::set_shared_threads(restore);
      if (diff) {
        return fail("config:pipeline",
                    "pipeline threads=" + std::to_string(bad_threads) + ": " +
                        *diff);
      }
    }

    // Configuration G: one-pass difference automaton. The query becomes
    // `prefix((body)-(body_b))` — a single compiled product automaton — and
    // must produce exactly the strings the two-pass flow yields: run the
    // plain query, then drop every result whose body text body_b accepts.
    // Deterministic executors are compared result-for-result after a
    // probability-major sort (the two automata may tie-break equal-probability
    // strings differently); the sampler, whose draw sequence legitimately
    // depends on automaton shape, is validated by set membership instead.
    if (!trial.body_b.empty()) {
      SimpleSearchQuery one_pass_query = query;
      one_pass_query.query_string.query_str =
          trial.prefix + "((" + trial.body + ")-(" + trial.body_b + "))";
      auto one_artifact =
          core::pipeline::compile_cached(one_pass_query, tok, nullptr);
      CompiledQuery one_compiled =
          CompiledQuery::from_artifact(one_artifact, tok);
      ExecutorOutputs one_pass = run_executors(
          *base_model, one_compiled, one_pass_query, trial.sampler_seed);

      automata::Dfa a_chars = automata::compile_regex(trial.body);
      automata::Dfa b_chars = automata::compile_regex(trial.body_b);
      auto body_text = [&](const SearchResult& r) {
        return r.text.substr(trial.prefix.size());
      };
      auto two_pass_filter = [&](const std::vector<SearchResult>& in) {
        std::vector<SearchResult> out;
        for (const SearchResult& r : in) {
          if (!b_chars.accepts_bytes(body_text(r))) out.push_back(r);
        }
        return out;
      };
      auto canonical_order = [](std::vector<SearchResult> results) {
        std::sort(results.begin(), results.end(),
                  [](const SearchResult& a, const SearchResult& b) {
                    if (a.log_prob != b.log_prob) return a.log_prob > b.log_prob;
                    if (a.text != b.text) return a.text < b.text;
                    return a.tokens < b.tokens;
                  });
        return results;
      };
      for (auto [got, reference, what] :
           {std::tuple{&one_pass.shortest1, &plain.shortest1, "shortest1"},
            std::tuple{&one_pass.shortest3, &plain.shortest3, "shortest3"},
            std::tuple{&one_pass.beam, &plain.beam, "beam"}}) {
        if (auto diff = diff_exact(canonical_order(*got),
                                   canonical_order(two_pass_filter(*reference)),
                                   what)) {
          return fail(std::string("difference:") + what,
                      "one-pass vs two-pass: " + *diff);
        }
      }
      for (const SearchResult& sample : one_pass.samples) {
        const std::string body = body_text(sample);
        if (!a_chars.accepts_bytes(body) || b_chars.accepts_bytes(body)) {
          return fail("difference:samples",
                      "one-pass sample \"" + sample.text +
                          "\" is outside L(A)-L(B)");
        }
      }
      // Thread sweep with masks on: the default pipeline over the difference
      // automaton must reproduce its own strict run bytewise.
      const std::size_t restore = util::ThreadPool::shared().threads();
      std::optional<std::string> diff;
      std::size_t bad_threads = 0;
      for (std::size_t threads :
           {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        util::ThreadPool::set_shared_threads(threads);
        ShortestPathSearch search(*base_model, one_compiled, one_pass_query);
        std::vector<SearchResult> got = search.all();
        diff = diff_exact(got, one_pass.shortest1, "difference-pipeline");
        if (diff) {
          bad_threads = threads;
          break;
        }
      }
      util::ThreadPool::set_shared_threads(restore);
      if (diff) {
        return fail("difference:pipeline",
                    "difference pipeline threads=" +
                        std::to_string(bad_threads) + ": " + *diff);
      }
    }

    // Configuration H: batched multi-stream generation. Every stream of a
    // K-stream GenerateEngine must emit byte-identically to that stream run
    // alone in its own single-stream engine — the engine's core invariant:
    // batch composition, admission order, and thread count cannot leak into
    // any stream's output. The serial reference runs each stream solo at one
    // thread; the batched run admits all K in a shuffled order and sweeps
    // the shared pool across {1, 4, 8} threads.
    {
      using core::generate::GenerateEngine;
      using core::generate::StreamSpec;
      using core::generate::StreamState;

      constexpr std::size_t kStreams = 5;
      struct StreamOutput {
        StreamState state;
        std::vector<tokenizer::TokenId> tokens;
        std::string text;
        double log_prob = 0.0;
      };
      auto snapshot = [](const GenerateEngine& engine,
                         GenerateEngine::StreamId id) {
        StreamOutput out;
        out.state = engine.state(id);
        if (const auto& r = engine.result(id)) {
          out.tokens = r->tokens;
          out.text = r->text;
          out.log_prob = r->log_prob;
        }
        return out;
      };

      const std::size_t restore = util::ThreadPool::shared().threads();
      util::ThreadPool::set_shared_threads(1);
      std::vector<StreamOutput> serial;
      serial.reserve(kStreams);
      for (std::size_t i = 0; i < kStreams; ++i) {
        GenerateEngine engine(*base_model, compiled, query,
                              trial.sampler_seed);
        StreamSpec spec;
        spec.rng_stream = i;
        const GenerateEngine::StreamId id = engine.add_stream(spec);
        engine.run();
        serial.push_back(snapshot(engine, id));
      }

      util::Pcg32 admission_rng(trial.sampler_seed ^ util::StreamRng::kGolden);
      std::optional<std::string> diff;
      for (std::size_t threads :
           {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        util::ThreadPool::set_shared_threads(threads);
        std::vector<std::size_t> order(kStreams);
        std::iota(order.begin(), order.end(), std::size_t{0});
        admission_rng.shuffle(order);
        GenerateEngine engine(*base_model, compiled, query,
                              trial.sampler_seed);
        std::vector<GenerateEngine::StreamId> id_of(kStreams);
        for (std::size_t stream : order) {
          StreamSpec spec;
          spec.rng_stream = stream;
          id_of[stream] = engine.add_stream(spec);
        }
        engine.run();
        for (std::size_t i = 0; i < kStreams; ++i) {
          const StreamOutput got = snapshot(engine, id_of[i]);
          const StreamOutput& want = serial[i];
          if (got.state != want.state || got.tokens != want.tokens ||
              got.text != want.text || got.log_prob != want.log_prob) {
            std::ostringstream err;
            err << "stream " << i << " threads=" << threads
                << " diverges from its solo run: batched ("
                << core::generate::to_string(got.state) << ", \"" << got.text
                << "\", log_prob " << got.log_prob << ") vs solo ("
                << core::generate::to_string(want.state) << ", \""
                << want.text << "\", log_prob " << want.log_prob << ")";
            diff = err.str();
            break;
          }
        }
        if (diff) break;
      }
      util::ThreadPool::set_shared_threads(restore);
      if (diff) return fail("config:generate", *diff);
    }

    // Oracle comparison (on the plain configuration, optionally mutated for
    // harness self-tests).
    apply_mutation(plain.shortest1, options.mutate);
    if (auto diff = compare_results(oracle, plain.shortest1, options.tolerance,
                                    /*check_order=*/true)) {
      return fail("oracle:shortest1", *diff);
    }
    if (auto diff = compare_results(oracle, plain.shortest3, options.tolerance,
                                    /*check_order=*/false)) {
      return fail("oracle:shortest3", *diff);
    }
    if (auto diff = compare_results(oracle, plain.beam, options.tolerance,
                                    /*check_order=*/true)) {
      return fail("oracle:beam", *diff);
    }
    if (auto diff = check_samples(*base_model, compiled, query, plain.samples,
                                  options.tolerance)) {
      return fail("oracle:samples", *diff);
    }
  } catch (const std::exception& e) {
    return fail("exception", e.what());
  }

  report.status = TrialReport::Status::kPass;
  return report;
}

}  // namespace relm::testing
