#include "experiments/memorization.hpp"

#include <cctype>
#include <unordered_set>

#include "baselines/sampling_baseline.hpp"
#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/relm.hpp"
#include "util/strings.hpp"

namespace relm::experiments {

std::size_t MemorizationRun::valid_unique() const {
  std::unordered_set<std::string> seen;
  for (const auto& e : events) {
    if (e.valid && !e.duplicate) seen.insert(e.url);
  }
  return seen.size();
}

std::size_t MemorizationRun::duplicates() const {
  std::size_t n = 0;
  for (const auto& e : events) n += e.duplicate ? 1 : 0;
  return n;
}

double MemorizationRun::total_seconds() const {
  return events.empty() ? 0.0 : events.back().seconds;
}

std::size_t MemorizationRun::total_llm_calls() const {
  return events.empty() ? 0 : events.back().llm_calls;
}

double MemorizationRun::throughput_per_1k_calls() const {
  std::size_t calls = total_llm_calls();
  if (calls == 0) return 0.0;
  return 1000.0 * static_cast<double>(valid_unique()) /
         static_cast<double>(calls);
}

std::string leading_url(const std::string& text) {
  // The URL body alphabet from the paper's pattern.
  auto is_url_char = [](unsigned char c) {
    return std::isalnum(c) || c == '-' || c == '_' || c == '#' || c == '%' ||
           c == '/' || c == '.' || c == ':';
  };
  std::size_t end = 0;
  while (end < text.size() && is_url_char(static_cast<unsigned char>(text[end]))) {
    ++end;
  }
  std::string url = text.substr(0, end);
  // Trim trailing sentence punctuation the generator may have appended.
  while (!url.empty() && (url.back() == '.' || url.back() == '/')) {
    url.pop_back();
  }
  return url;
}

MemorizationRun run_relm_url_extraction(const World& world,
                                        const model::NgramModel& model,
                                        std::size_t max_results,
                                        std::size_t max_expansions,
                                        const RelmRunOptions& options) {
  static constexpr const char* kUrlPrefix = "https://www.";
  core::SimpleSearchQuery query;
  query.query_string.prefix_str = kUrlPrefix;
  if (options.exclude_urls.empty()) {
    query.query_string.query_str = url_pattern();
  } else {
    // One-pass difference mode: subtract the excluded URLs inside the query
    // language (`A - B`, a single compiled automaton) instead of filtering
    // the executor's output afterwards. Both operands are expressed on the
    // pattern *body* (after the literal prefix) so prefix_str stays a
    // textual prefix of query_str.
    std::string body_a = std::string(url_pattern()).substr(
        std::string_view(kUrlPrefix).size());
    std::string body_b;
    for (const std::string& url : options.exclude_urls) {
      if (!url.starts_with(kUrlPrefix)) continue;  // can never match A
      if (!body_b.empty()) body_b += "|";
      body_b += "(" + util::regex_escape(url.substr(
                          std::string_view(kUrlPrefix).size())) + ")";
    }
    query.query_string.query_str =
        body_b.empty() ? std::string(url_pattern())
                       : std::string(kUrlPrefix) + "((" + body_a + ")-(" +
                             body_b + "))";
  }
  query.search_strategy = core::SearchStrategy::kShortestPath;
  // The URL language is infinite; the canonical strategy would fall back to
  // dynamic pruning. The paper uses top-k filtered search over encodings —
  // we use canonical-with-dynamic-pruning so each URL is visited once.
  query.tokenization_strategy = core::TokenizationStrategy::kCanonicalTokens;
  query.decoding.top_k = 40;
  query.max_results = max_results;
  query.max_expansions = max_expansions;
  query.sequence_length = 24;
  query.max_in_flight = options.max_in_flight;

  // Non-owning view of the caller's model; the CachingModel wrapper (when
  // requested) shares it without taking ownership.
  std::shared_ptr<const model::LanguageModel> eval_model(
      std::shared_ptr<void>(), &model);
  if (options.cache_capacity > 0) {
    eval_model = std::make_shared<model::CachingModel>(eval_model,
                                                      options.cache_capacity);
  }

  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world.tokenizer);
  core::ShortestPathSearch search(*eval_model, compiled, query);

  MemorizationRun run;
  run.label = options.label;
  while (auto result = search.next()) {
    ExtractionEvent event;
    event.url = result->text;
    event.valid = world.corpus.url_registry.is_valid(event.url);
    event.duplicate = false;  // by construction
    event.llm_calls = result->llm_calls_at_emission;
    event.seconds = result->seconds_at_emission;
    run.events.push_back(std::move(event));
  }
  run.search_stats = search.stats();
  return run;
}

MemorizationRun run_baseline_url_extraction(const World& world,
                                            const model::NgramModel& model,
                                            std::size_t stop_length,
                                            std::size_t attempts,
                                            std::uint64_t seed) {
  baselines::SamplingBaseline::Config config;
  config.stop_length = stop_length;
  config.decoding.top_k = 40;
  baselines::SamplingBaseline baseline(model, *world.tokenizer, config, seed);

  util::Timer timer;
  MemorizationRun run;
  run.label = "baseline_n" + std::to_string(stop_length);
  for (std::size_t i = 0; i < attempts; ++i) {
    auto attempt = baseline.attempt("https://www.");
    ExtractionEvent event;
    event.url = leading_url(attempt.text);
    event.valid = world.corpus.url_registry.is_valid(event.url);
    event.duplicate = attempt.duplicate;
    event.llm_calls = attempt.llm_calls;
    event.seconds = timer.seconds();
    run.events.push_back(std::move(event));
  }
  return run;
}

}  // namespace relm::experiments
