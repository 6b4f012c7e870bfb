#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "automata/levenshtein.hpp"
#include "automata/ops.hpp"
#include "automata/regex.hpp"
#include "util/strings.hpp"
#include "automata/walks.hpp"
#include "core/analyzer.hpp"
#include "core/compiled_query.hpp"
#include "core/compiler.hpp"
#include "core/executor.hpp"
#include "core/generate/generate_engine.hpp"
#include "core/preprocessors.hpp"
#include "core/relm.hpp"
#include "model/ngram_model.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace relm::core {
namespace {

using tokenizer::BpeTokenizer;
using tokenizer::TokenId;

std::string fixture_text() {
  std::string text;
  for (int i = 0; i < 60; ++i) {
    text += "The cat sat on the mat. The dog ran far. ";
    text += "The cat and the dog met at the park. ";
  }
  return text;
}

const BpeTokenizer& fixture_tokenizer() {
  static const BpeTokenizer tok = [] {
    BpeTokenizer::TrainConfig config;
    config.vocab_size = 420;
    return BpeTokenizer::train(fixture_text(), config);
  }();
  return tok;
}

std::shared_ptr<model::NgramModel> fixture_model() {
  model::NgramModel::Config config;
  config.order = 4;
  config.alpha = 0.3;
  config.max_sequence_length = 48;
  std::vector<std::string> docs;
  for (int i = 0; i < 30; ++i) {
    docs.push_back("The cat sat on the mat.");
    docs.push_back("The dog ran far.");
  }
  return model::NgramModel::train(fixture_tokenizer(), docs, config);
}

// A deterministic test model whose next-token distribution is fixed and
// context-independent: probability proportional to weight(token), default 1.
class FixedModel : public model::LanguageModel {
 public:
  FixedModel(std::size_t vocab, TokenId eos, std::map<TokenId, double> boosts = {})
      : vocab_(vocab), eos_(eos) {
    log_probs_.assign(vocab, 0.0);
    double z = 0;
    std::vector<double> w(vocab, 1.0);
    for (auto [t, boost] : boosts) w[t] = boost;
    for (double x : w) z += x;
    for (std::size_t t = 0; t < vocab; ++t) log_probs_[t] = std::log(w[t] / z);
  }
  std::size_t vocab_size() const override { return vocab_; }
  TokenId eos() const override { return eos_; }
  std::size_t max_sequence_length() const override { return 32; }
  std::vector<double> next_log_probs(std::span<const TokenId>) const override {
    return log_probs_;
  }

 private:
  std::size_t vocab_;
  TokenId eos_;
  std::vector<double> log_probs_;
};

// ---------------------------------------------------------------------------
// QueryString
// ---------------------------------------------------------------------------

TEST(QueryString, BodySplitsAfterPrefix) {
  QueryString q{"The ((cat)|(dog))", "The"};
  EXPECT_EQ(q.body_str(), " ((cat)|(dog))");
}

TEST(QueryString, EmptyPrefixKeepsWholeQuery) {
  QueryString q{"abc", ""};
  EXPECT_EQ(q.body_str(), "abc");
}

TEST(QueryString, NonPrefixThrows) {
  QueryString q{"The cat", "A dog"};
  EXPECT_THROW(q.body_str(), relm::QueryError);
}

// ---------------------------------------------------------------------------
// Graph compiler (§3.2)
// ---------------------------------------------------------------------------

TEST(Compiler, AllTokensEncodingCountMatchesTokenizer) {
  // Figure 3a: the token automaton for a literal string has exactly as many
  // accepting paths as the tokenizer has encodings of that string.
  const BpeTokenizer& tok = fixture_tokenizer();
  for (const char* word : {"The", "cat", "The cat", "dog"}) {
    automata::Dfa chars = automata::compile_regex(util::regex_escape(word));
    TokenAutomaton ta = compile_token_automaton(
        chars, tok, TokenizationStrategy::kAllTokens);
    EXPECT_FALSE(ta.dynamic_canonical);
    automata::WalkCounts walks(ta.dfa, 32);
    EXPECT_DOUBLE_EQ(walks.total(), tok.count_encodings(word)) << word;
  }
}

TEST(Compiler, AllTokensAcceptsEveryEncoding) {
  const BpeTokenizer& tok = fixture_tokenizer();
  automata::Dfa chars = automata::compile_regex("The");
  TokenAutomaton ta =
      compile_token_automaton(chars, tok, TokenizationStrategy::kAllTokens);
  // Canonical encoding accepted.
  auto canonical = tok.encode("The");
  std::vector<automata::Symbol> symbols(canonical.begin(), canonical.end());
  EXPECT_TRUE(ta.dfa.accepts(symbols));
  // Byte-by-byte spelling accepted too.
  std::vector<automata::Symbol> spelled{*tok.find("T"), *tok.find("h"), *tok.find("e")};
  EXPECT_TRUE(ta.dfa.accepts(spelled));
  // A wrong word is not.
  std::vector<automata::Symbol> wrong{*tok.find("T"), *tok.find("h")};
  EXPECT_FALSE(ta.dfa.accepts(wrong));
}

TEST(Compiler, CanonicalHasExactlyOnePathPerString) {
  const BpeTokenizer& tok = fixture_tokenizer();
  automata::Dfa chars = automata::compile_regex("(cat)|(dog)|(mat)");
  TokenAutomaton ta = compile_token_automaton(
      chars, tok, TokenizationStrategy::kCanonicalTokens);
  EXPECT_FALSE(ta.dynamic_canonical);
  automata::WalkCounts walks(ta.dfa, 32);
  EXPECT_DOUBLE_EQ(walks.total(), 3.0);
  for (const char* word : {"cat", "dog", "mat"}) {
    auto enc = tok.encode(word);
    std::vector<automata::Symbol> symbols(enc.begin(), enc.end());
    EXPECT_TRUE(ta.dfa.accepts(symbols)) << word;
  }
  // Non-canonical spelling of a member is rejected.
  std::vector<automata::Symbol> spelled{*tok.find("c"), *tok.find("a"), *tok.find("t")};
  if (tok.encode("cat").size() < 3) {
    EXPECT_FALSE(ta.dfa.accepts(spelled));
  }
}

TEST(Compiler, CanonicalFallsBackToDynamicForInfiniteLanguages) {
  const BpeTokenizer& tok = fixture_tokenizer();
  automata::Dfa chars = automata::compile_regex("(cat)+");
  TokenAutomaton ta = compile_token_automaton(
      chars, tok, TokenizationStrategy::kCanonicalTokens);
  EXPECT_TRUE(ta.dynamic_canonical);
}

TEST(Compiler, CanonicalFallsBackWhenOverBudget) {
  const BpeTokenizer& tok = fixture_tokenizer();
  automata::Dfa chars = automata::compile_regex("[a-z]{4}");  // 456k strings
  TokenAutomaton ta = compile_token_automaton(
      chars, tok, TokenizationStrategy::kCanonicalTokens, /*budget=*/1000);
  EXPECT_TRUE(ta.dynamic_canonical);
}

TEST(Compiler, RejectsNonByteAutomaton) {
  const BpeTokenizer& tok = fixture_tokenizer();
  automata::Dfa token_alphabet(tok.vocab_size());
  token_alphabet.set_start(token_alphabet.add_state(true));
  EXPECT_THROW(compile_token_automaton(token_alphabet, tok,
                                       TokenizationStrategy::kAllTokens),
               relm::QueryError);
}

// ---------------------------------------------------------------------------
// CompiledQuery hand-off semantics
// ---------------------------------------------------------------------------

SimpleSearchQuery cat_dog_query() {
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog))", "The"};
  query.tokenization_strategy = TokenizationStrategy::kCanonicalTokens;
  return query;
}

TEST(CompiledQuery, InitialStateHasPrefixLive) {
  CompiledQuery compiled =
      CompiledQuery::compile(cat_dog_query(), fixture_tokenizer());
  auto init = compiled.initial();
  EXPECT_NE(init.prefix_state, automata::kNoState);
  // "The" does not accept epsilon, so the body is not yet live.
  EXPECT_EQ(init.body_state, automata::kNoState);
  EXPECT_FALSE(compiled.is_match(init));
  EXPECT_TRUE(compiled.has_continuation(init));
}

TEST(CompiledQuery, WalkReachesMatch) {
  const BpeTokenizer& tok = fixture_tokenizer();
  CompiledQuery compiled = CompiledQuery::compile(cat_dog_query(), tok);
  // Drive the machine along the canonical encoding of "The cat".
  auto tokens = tok.encode("The cat");
  auto set = compiled.initial();
  for (TokenId t : tokens) {
    auto steps = compiled.expand(set);
    auto it = std::find_if(steps.begin(), steps.end(),
                           [&](const auto& s) { return s.token == t; });
    ASSERT_NE(it, steps.end()) << "token " << tok.token_string(t);
    set = it->next;
  }
  EXPECT_TRUE(compiled.is_match(set));
}

TEST(CompiledQuery, PrefixStepsAreMarkedPrefixOnly) {
  CompiledQuery compiled =
      CompiledQuery::compile(cat_dog_query(), fixture_tokenizer());
  auto steps = compiled.expand(compiled.initial());
  ASSERT_FALSE(steps.empty());
  for (const auto& step : steps) {
    EXPECT_TRUE(step.prefix_only);
    EXPECT_FALSE(step.body_advanced);
  }
}

TEST(CompiledQuery, EmptyBodyCompilesToEmptyLanguage) {
  // A preprocessor that filters out every string used to be a compile error;
  // under the boolean algebra an empty language is a legitimate query result
  // (`a & !a` produces one too), flagged so executors skip the model.
  SimpleSearchQuery query;
  query.query_string = {"a", ""};
  query.preprocessors.push_back(
      std::make_shared<FilterPreprocessor>(std::vector<std::string>{"a"}));
  CompiledQuery compiled = CompiledQuery::compile(query, fixture_tokenizer());
  EXPECT_TRUE(compiled.empty_language());
}

// ---------------------------------------------------------------------------
// Shortest-path executor (§3.3)
// ---------------------------------------------------------------------------

TEST(ShortestPath, EnumeratesFiniteLanguageCompletely) {
  const BpeTokenizer& tok = fixture_tokenizer();
  FixedModel model(tok.vocab_size(), tok.eos());
  SimpleSearchQuery query;
  query.query_string = {"(cat)|(dog)|(mat)|(park)", ""};
  query.max_results = 10;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  ShortestPathSearch search(model, compiled, query);
  auto results = search.all();
  std::set<std::string> texts;
  for (const auto& r : results) texts.insert(r.text);
  EXPECT_EQ(texts, (std::set<std::string>{"cat", "dog", "mat", "park"}));
}

TEST(ShortestPath, EmitsInDecreasingProbabilityOrder) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog)|(mat))", "The"};
  query.max_results = 3;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  ShortestPathSearch search(*model, compiled, query);
  auto results = search.all();
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].log_prob, results[i].log_prob);
  }
  // The trained model strongly prefers "The cat"/"The dog" over "The mat"
  // as sentence openers.
  EXPECT_NE(results[0].text, "The mat");
}

TEST(ShortestPath, MatchesTrueSequenceProbabilities) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog))", "The"};
  query.max_results = 2;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  auto results = ShortestPathSearch(*model, compiled, query).all();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    double expected = model->sequence_log_prob({}, r.tokens);
    EXPECT_NEAR(r.log_prob, expected, 1e-9) << r.text;
  }
}

TEST(ShortestPath, TopKPrunesTransitively) {
  const BpeTokenizer& tok = fixture_tokenizer();
  // Boost everything except the first token of "dog"; with top_k = 1 only
  // the most likely automaton edge survives at each step.
  auto cat_first = tok.encode(" cat")[0];
  FixedModel model(tok.vocab_size(), tok.eos(), {{cat_first, 1000.0}});
  SimpleSearchQuery query;
  query.query_string = {"The(( cat)|( dog))", "The"};
  query.decoding.top_k = 1;
  query.max_results = 10;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  ShortestPathSearch search(model, compiled, query);
  auto results = search.all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].text, "The cat");
  // On the mask fast path rule prunes are counted by the word-wise scan
  // (mask_pruned); the probe path counts them in pruned_by_rules.
  EXPECT_GT(search.stats().pruned_by_rules + search.stats().mask_pruned, 0u);
}

TEST(ShortestPath, PrefixBypassesTopK) {
  const BpeTokenizer& tok = fixture_tokenizer();
  // Make "The" prefix tokens maximally unlikely; with top_k=1 a body token
  // would be pruned, but prefixes must survive.
  std::map<TokenId, double> boosts;
  for (TokenId t : tok.encode("The")) boosts[t] = 1e-6;
  auto cat_first = tok.encode(" cat")[0];
  boosts[cat_first] = 1000.0;
  FixedModel model(tok.vocab_size(), tok.eos(), boosts);
  SimpleSearchQuery query;
  query.query_string = {"The(( cat)|( dog))", "The"};
  query.decoding.top_k = 1;
  query.max_results = 1;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  auto results = ShortestPathSearch(model, compiled, query).all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].text, "The cat");
}

TEST(ShortestPath, RequireEosAddsTerminationCost) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog))", "The"};
  query.max_results = 2;
  query.require_eos = true;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  auto results = ShortestPathSearch(*model, compiled, query).all();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    // Tokens exclude EOS, but the cost includes it.
    std::vector<TokenId> with_eos(r.tokens);
    with_eos.push_back(model->eos());
    EXPECT_NEAR(r.log_prob, model->sequence_log_prob({}, with_eos), 1e-9);
    EXPECT_EQ(tok.decode(r.tokens), r.text);
  }
}

TEST(ShortestPath, DedupCollapsesEncodings) {
  const BpeTokenizer& tok = fixture_tokenizer();
  FixedModel model(tok.vocab_size(), tok.eos());
  SimpleSearchQuery query;
  query.query_string = {"The", ""};
  query.tokenization_strategy = TokenizationStrategy::kAllTokens;
  query.max_results = 50;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);

  ShortestPathSearch dedup(model, compiled, query);
  auto unique_results = dedup.all();
  EXPECT_EQ(unique_results.size(), 1u);

  ShortestPathSearch full(model, compiled, query);
  full.set_dedup_text(false);
  auto all_results = full.all();
  EXPECT_DOUBLE_EQ(static_cast<double>(all_results.size()),
                   tok.count_encodings("The"));
}

TEST(ShortestPath, ExpansionBudgetRespected) {
  const BpeTokenizer& tok = fixture_tokenizer();
  FixedModel model(tok.vocab_size(), tok.eos());
  SimpleSearchQuery query;
  query.query_string = {"[a-z]{1,8}", ""};
  query.max_results = 100000;
  query.max_expansions = 50;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  ShortestPathSearch search(model, compiled, query);
  search.all();
  EXPECT_LE(search.stats().expansions, 50u);
}

TEST(ShortestPath, DynamicCanonicalPrunesSpelledPaths) {
  const BpeTokenizer& tok = fixture_tokenizer();
  FixedModel model(tok.vocab_size(), tok.eos());
  SimpleSearchQuery query;
  // Infinite language forces the dynamic-canonical fallback.
  query.query_string = {"(cat)+", ""};
  query.tokenization_strategy = TokenizationStrategy::kCanonicalTokens;
  query.max_results = 3;
  query.sequence_length = 12;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  ASSERT_TRUE(compiled.dynamic_canonical());
  ShortestPathSearch search(model, compiled, query);
  search.set_dedup_text(false);
  auto results = search.all();
  // Each emitted text appears exactly once: only its canonical encoding
  // survives the pruning.
  std::map<std::string, int> counts;
  for (const auto& r : results) {
    ++counts[r.text];
    EXPECT_EQ(tok.encode(r.text), r.tokens) << r.text;
  }
  for (const auto& [text, n] : counts) EXPECT_EQ(n, 1) << text;
}

// ---------------------------------------------------------------------------
// Random sampling executor (§3.3)
// ---------------------------------------------------------------------------

TEST(RandomSampler, SamplesStayInLanguage) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog)|(mat))", "The"};
  query.search_strategy = SearchStrategy::kRandomSampling;
  query.num_samples = 50;
  automata::Dfa lang = automata::compile_regex("The ((cat)|(dog)|(mat))");
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  RandomSampler sampler(*model, compiled, query, /*seed=*/7);
  auto results = sampler.sample_all();
  ASSERT_EQ(results.size(), 50u);
  for (const auto& r : results) {
    EXPECT_TRUE(lang.accepts_bytes(r.text)) << r.text;
  }
}

TEST(RandomSampler, FollowsModelDistribution) {
  const BpeTokenizer& tok = fixture_tokenizer();
  // cat 3x more likely than dog at the branch token.
  auto cat_first = tok.encode(" cat")[0];
  auto dog_first = tok.encode(" dog")[0];
  FixedModel model(tok.vocab_size(), tok.eos(),
                   {{cat_first, 30.0}, {dog_first, 10.0}});
  SimpleSearchQuery query;
  query.query_string = {"The(( cat)|( dog))", "The"};
  query.search_strategy = SearchStrategy::kRandomSampling;
  query.num_samples = 4000;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  RandomSampler sampler(model, compiled, query, 11);
  auto results = sampler.sample_all();
  int cat = 0;
  for (const auto& r : results) {
    if (r.text == "The cat") ++cat;
  }
  EXPECT_NEAR(static_cast<double>(cat) / results.size(), 0.75, 0.03);
}

TEST(RandomSampler, UniformOverEditedPrefixWalks) {
  // Levenshtein-expanded prefix: walk normalization must sample prefix
  // strings without positional bias (Appendix C mechanism; the full CDF
  // comparison is the fig09 bench).
  const BpeTokenizer& tok = fixture_tokenizer();
  FixedModel model(tok.vocab_size(), tok.eos());
  SimpleSearchQuery query;
  query.query_string = {"The cat( sat)?", "The cat"};
  query.search_strategy = SearchStrategy::kRandomSampling;
  query.num_samples = 300;
  query.preprocessors.push_back(std::make_shared<LevenshteinPreprocessor>(
      1, Preprocessor::Target::kPrefix));
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  RandomSampler sampler(model, compiled, query, 13);
  auto results = sampler.sample_all();
  ASSERT_FALSE(results.empty());
  std::set<std::string> prefixes;
  automata::Dfa edited = automata::levenshtein_expand(
      automata::compile_regex("The cat"), 1, automata::printable_ascii());
  int sampled = 0;
  for (const auto& r : results) {
    (void)r;
  }
  // Re-sample one at a time to observe prefix texts.
  RandomSampler sampler2(model, compiled, query, 17);
  for (int i = 0; i < 200; ++i) {
    auto r = sampler2.sample_once();
    if (!r) continue;
    ++sampled;
    EXPECT_TRUE(edited.accepts_bytes(sampler2.last_prefix_text()))
        << sampler2.last_prefix_text();
    prefixes.insert(sampler2.last_prefix_text());
  }
  EXPECT_GT(sampled, 100);
  EXPECT_GT(prefixes.size(), 20u);  // many distinct edited prefixes drawn
}

TEST(RandomSampler, DeterministicGivenSeed) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog))", "The"};
  query.search_strategy = SearchStrategy::kRandomSampling;
  query.num_samples = 20;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  auto a = RandomSampler(*model, compiled, query, 42).sample_all();
  auto b = RandomSampler(*model, compiled, query, 42).sample_all();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].text, b[i].text);
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

TEST(Facade, SearchReturnsMemorizedStringFirst) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The cat sat on the ((mat)|(dog)|(park))",
                        "The cat sat on the "};
  query.max_results = 1;
  auto outcome = relm::search(*model, tok, query);
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_EQ(outcome.results[0].text, "The cat sat on the mat");
  EXPECT_GT(outcome.stats.llm_calls, 0u);
}

TEST(Facade, RandomStrategyRuns) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog))", "The"};
  query.search_strategy = SearchStrategy::kRandomSampling;
  query.num_samples = 5;
  auto outcome = relm::search(*model, tok, query, 3);
  EXPECT_EQ(outcome.results.size(), 5u);
}

TEST(Facade, MalformedRegexSurfacesAsRegexError) {
  auto model = fixture_model();
  SimpleSearchQuery query;
  query.query_string = {"(((", ""};
  EXPECT_THROW(relm::search(*model, fixture_tokenizer(), query),
               relm::RegexError);
}

// ---------------------------------------------------------------------------
// Preprocessors (§3.4)
// ---------------------------------------------------------------------------

TEST(Preprocessors, LevenshteinExpandsQueryLanguage) {
  const BpeTokenizer& tok = fixture_tokenizer();
  FixedModel model(tok.vocab_size(), tok.eos());
  SimpleSearchQuery query;
  query.query_string = {"cat", ""};
  query.preprocessors.push_back(std::make_shared<LevenshteinPreprocessor>(
      1, Preprocessor::Target::kBody,
      automata::ByteSet(automata::digit_set() | automata::word_set())));
  query.max_results = 500;
  query.max_expansions = 100000;
  auto outcome = relm::search(model, tok, query);
  std::set<std::string> texts;
  for (const auto& r : outcome.results) texts.insert(r.text);
  EXPECT_TRUE(texts.contains("cat"));
  EXPECT_TRUE(texts.contains("cut"));   // substitution
  EXPECT_TRUE(texts.contains("at"));    // deletion
  EXPECT_TRUE(texts.contains("cats"));  // insertion
  EXPECT_FALSE(texts.contains("cut3s"));
}

TEST(Preprocessors, FilterRemovesStopWords) {
  const BpeTokenizer& tok = fixture_tokenizer();
  FixedModel model(tok.vocab_size(), tok.eos());
  SimpleSearchQuery query;
  query.query_string = {"(the)|(cat)|(her)|(dog)", ""};
  query.preprocessors.push_back(std::make_shared<FilterPreprocessor>(
      std::vector<std::string>{"the", "her"}));
  query.max_results = 10;
  auto outcome = relm::search(model, tok, query);
  std::set<std::string> texts;
  for (const auto& r : outcome.results) texts.insert(r.text);
  EXPECT_EQ(texts, (std::set<std::string>{"cat", "dog"}));
}

}  // namespace
}  // namespace relm::core

namespace relm::core {
namespace {

// ---------------------------------------------------------------------------
// Beam search
// ---------------------------------------------------------------------------

TEST(BeamSearch, FindsTopResultLikeDijkstra) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog)|(mat))", "The"};
  query.max_results = 3;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);

  auto dijkstra = ShortestPathSearch(*model, compiled, query).all();
  query.search_strategy = SearchStrategy::kBeam;
  query.beam_width = 8;
  auto beam = BeamSearch(*model, compiled, query).run();
  ASSERT_FALSE(beam.empty());
  ASSERT_FALSE(dijkstra.empty());
  EXPECT_EQ(beam[0].text, dijkstra[0].text);
  EXPECT_NEAR(beam[0].log_prob, dijkstra[0].log_prob, 1e-9);
}

TEST(BeamSearch, WidthOneIsGreedy) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog))", "The"};
  query.search_strategy = SearchStrategy::kBeam;
  query.beam_width = 1;
  query.max_results = 5;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  auto results = BeamSearch(*model, compiled, query).run();
  // A width-1 beam can follow only one path, so at most one match.
  EXPECT_LE(results.size(), 1u);
}

TEST(BeamSearch, BoundedLlmCalls) {
  const BpeTokenizer& tok = fixture_tokenizer();
  FixedModel model(tok.vocab_size(), tok.eos());
  SimpleSearchQuery query;
  query.query_string = {"[a-z]{1,10}", ""};
  query.search_strategy = SearchStrategy::kBeam;
  query.beam_width = 4;
  query.sequence_length = 10;
  query.max_results = 100;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  BeamSearch search(model, compiled, query);
  search.run();
  // At most width calls per step plus the final require-free pass.
  EXPECT_LE(search.stats().llm_calls, 4u * 10u + 4u);
}

TEST(BeamSearch, RespectsTopK) {
  const BpeTokenizer& tok = fixture_tokenizer();
  auto cat_first = tok.encode(" cat")[0];
  FixedModel model(tok.vocab_size(), tok.eos(), {{cat_first, 1000.0}});
  SimpleSearchQuery query;
  query.query_string = {"The(( cat)|( dog))", "The"};
  query.search_strategy = SearchStrategy::kBeam;
  query.decoding.top_k = 1;
  query.max_results = 5;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  auto results = BeamSearch(model, compiled, query).run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].text, "The cat");
}

TEST(BeamSearch, RequireEosChargesTermination) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog))", "The"};
  query.search_strategy = SearchStrategy::kBeam;
  query.require_eos = true;
  query.max_results = 2;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  auto results = BeamSearch(*model, compiled, query).run();
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) {
    std::vector<TokenId> with_eos(r.tokens);
    with_eos.push_back(model->eos());
    EXPECT_NEAR(r.log_prob, model->sequence_log_prob({}, with_eos), 1e-9);
  }
}

TEST(BeamSearch, FacadeDispatch) {
  auto model = fixture_model();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog))", "The"};
  query.search_strategy = SearchStrategy::kBeam;
  auto outcome = relm::search(*model, fixture_tokenizer(), query);
  EXPECT_FALSE(outcome.results.empty());
}

// ---------------------------------------------------------------------------
// Case-insensitive / synonym preprocessors
// ---------------------------------------------------------------------------

TEST(Preprocessors, CaseInsensitiveExpandsBothWays) {
  CaseInsensitivePreprocessor pre;
  automata::Dfa lang = pre.apply(automata::compile_regex("The Cat"));
  EXPECT_TRUE(lang.accepts_bytes("The Cat"));
  EXPECT_TRUE(lang.accepts_bytes("the cat"));
  EXPECT_TRUE(lang.accepts_bytes("THE CAT"));
  EXPECT_TRUE(lang.accepts_bytes("tHe cAt"));
  EXPECT_FALSE(lang.accepts_bytes("the cut"));
}

TEST(Preprocessors, CaseInsensitiveLeavesNonAlphaAlone) {
  CaseInsensitivePreprocessor pre;
  automata::Dfa lang = pre.apply(automata::compile_regex("a1\\!"));
  EXPECT_TRUE(lang.accepts_bytes("A1!"));
  EXPECT_FALSE(lang.accepts_bytes("a2!"));
}

using SynonymMap = std::vector<std::pair<std::string, std::vector<std::string>>>;

TEST(Preprocessors, SynonymsAddAlternatives) {
  SynonymPreprocessor pre(SynonymMap{{"cat", {"kitten", "feline"}}});
  automata::Dfa lang = pre.apply(automata::compile_regex("The (cat|dog) ran"));
  EXPECT_TRUE(lang.accepts_bytes("The cat ran"));      // original kept
  EXPECT_TRUE(lang.accepts_bytes("The kitten ran"));   // synonym
  EXPECT_TRUE(lang.accepts_bytes("The feline ran"));
  EXPECT_TRUE(lang.accepts_bytes("The dog ran"));      // untouched branch
  EXPECT_FALSE(lang.accepts_bytes("The kitty ran"));
}

TEST(Preprocessors, SynonymsApplyAtEveryOccurrence) {
  SynonymPreprocessor pre(SynonymMap{{"ab", {"z"}}});
  automata::Dfa lang = pre.apply(automata::compile_regex("abab"));
  EXPECT_TRUE(lang.accepts_bytes("abab"));
  EXPECT_TRUE(lang.accepts_bytes("zab"));
  EXPECT_TRUE(lang.accepts_bytes("abz"));
  EXPECT_TRUE(lang.accepts_bytes("zz"));
}

TEST(Preprocessors, SynonymValidation) {
  EXPECT_THROW(SynonymPreprocessor(SynonymMap{{"", {"x"}}}), relm::QueryError);
  EXPECT_THROW(SynonymPreprocessor(SynonymMap{{"x", {""}}}), relm::QueryError);
}

TEST(Preprocessors, SynonymInsideQueryPipeline) {
  const BpeTokenizer& tok = fixture_tokenizer();
  FixedModel model(tok.vocab_size(), tok.eos());
  SimpleSearchQuery query;
  query.query_string = {"the cat", ""};
  query.preprocessors.push_back(std::make_shared<SynonymPreprocessor>(
      std::vector<std::pair<std::string, std::vector<std::string>>>{
          {"cat", {"dog"}}}));
  query.max_results = 10;
  auto outcome = relm::search(model, tok, query);
  std::set<std::string> texts;
  for (const auto& r : outcome.results) texts.insert(r.text);
  EXPECT_TRUE(texts.contains("the cat"));
  EXPECT_TRUE(texts.contains("the dog"));
}

}  // namespace
}  // namespace relm::core

namespace relm::core {
namespace {

// ---------------------------------------------------------------------------
// Property sweep: shortest-path output must equal brute-force ranking.
// ---------------------------------------------------------------------------

struct RankingCase {
  const char* pattern;
  const char* prefix;
};

// Names each case by its strings rather than the bytes of its pointers, so
// the registered test names are the same in every build.
void PrintTo(const RankingCase& c, std::ostream* os) {
  *os << '"' << c.pattern << "\" prefix \"" << c.prefix << '"';
}

class ShortestPathRanking : public ::testing::TestWithParam<RankingCase> {};

TEST_P(ShortestPathRanking, MatchesBruteForceOrdering) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  const auto& param = GetParam();

  SimpleSearchQuery query;
  query.query_string = {param.pattern, param.prefix};
  query.max_results = 64;
  query.max_expansions = 50000;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  auto results = ShortestPathSearch(*model, compiled, query).all();

  // Brute force: enumerate the language, encode canonically, score exactly.
  automata::Dfa lang = automata::compile_regex(param.pattern);
  auto strings = automata::enumerate_strings(lang, 256, 64);
  std::vector<std::pair<double, std::string>> scored;
  for (const auto& s : strings) {
    auto tokens = tok.encode(s);
    scored.push_back({model->sequence_log_prob({}, tokens), s});
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  ASSERT_EQ(results.size(), std::min<std::size_t>(scored.size(), 64));
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(results[i].log_prob, scored[i].first, 1e-9)
        << "rank " << i << ": " << results[i].text << " vs " << scored[i].second;
  }
  // Texts agree wherever scores are not tied.
  for (std::size_t i = 0; i < results.size(); ++i) {
    bool tied = (i > 0 && std::abs(scored[i].first - scored[i - 1].first) < 1e-12) ||
                (i + 1 < scored.size() &&
                 std::abs(scored[i].first - scored[i + 1].first) < 1e-12);
    if (!tied) {
      EXPECT_EQ(results[i].text, scored[i].second) << "rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, ShortestPathRanking,
    ::testing::Values(
        RankingCase{"The ((cat)|(dog)|(mat))", "The"},
        RankingCase{"The ((cat)|(dog)|(mat))", ""},
        RankingCase{"The (cat|dog)( (sat|ran))?", "The"},
        RankingCase{"((The)|(A)) cat", ""},
        RankingCase{"The c(a|o)t", "The"}));

// ---------------------------------------------------------------------------
// Random-sampling frequencies track exact conditional probabilities.
// ---------------------------------------------------------------------------

TEST(RandomSamplerProperty, FrequenciesMatchExactConditionals) {
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog)|(mat))", "The"};
  query.search_strategy = SearchStrategy::kRandomSampling;
  query.num_samples = 6000;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  auto samples = RandomSampler(*model, compiled, query, 77).sample_all();

  // Exact conditionals: p(x | in language, given prefix), via the chain rule
  // restricted to automaton-allowed continuations at every step — mirror of
  // the sampler's renormalization semantics (§3.3).
  automata::Dfa lang = automata::compile_regex("The ((cat)|(dog)|(mat))");
  auto strings = automata::enumerate_strings(lang, 16, 32);
  ASSERT_EQ(strings.size(), 3u);

  std::map<std::string, int> counts;
  for (const auto& s : samples) ++counts[s.text];
  ASSERT_EQ(samples.size(), 6000u);
  // All three appear; frequencies ordered like the model's joint scores.
  std::vector<std::pair<double, std::string>> scored;
  for (const auto& s : strings) {
    scored.push_back({model->sequence_log_prob({}, tok.encode(s)), s});
  }
  std::sort(scored.begin(), scored.end(), std::greater<>());
  EXPECT_GE(counts[scored[0].second], counts[scored[1].second]);
  EXPECT_GE(counts[scored[1].second], counts[scored[2].second]);
}

}  // namespace
}  // namespace relm::core

namespace relm::core {
namespace {

// ---------------------------------------------------------------------------
// Batched frontier expansion
// ---------------------------------------------------------------------------

TEST(BatchedExpansion, SameResultSetAsStrictDijkstra) {
  // Emission is exact at every round width: matches found ahead of
  // settlement are held back until no frontier node can beat them, so a
  // speculative run emits exactly the strict (max_in_flight = 1) sequence —
  // texts in order, log-probs bit-equal — with or without a rule mask.
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  for (std::optional<int> top_k : {std::optional<int>{}, std::optional<int>{3},
                                   std::optional<int>{40}}) {
    SimpleSearchQuery query;
    query.query_string = {"The ((cat)|(dog)|(mat))( (sat|ran))?", "The"};
    query.max_results = 20;
    query.decoding.top_k = top_k;
    query.max_in_flight = 1;
    CompiledQuery compiled = CompiledQuery::compile(query, tok);

    const auto strict = ShortestPathSearch(*model, compiled, query).all();
    ASSERT_FALSE(strict.empty());
    for (std::size_t batch : {2u, 8u, 32u}) {
      query.max_in_flight = batch;
      const auto batched = ShortestPathSearch(*model, compiled, query).all();
      ASSERT_EQ(batched.size(), strict.size()) << "batch " << batch;
      for (std::size_t i = 0; i < strict.size(); ++i) {
        EXPECT_EQ(batched[i].text, strict[i].text)
            << "batch " << batch << " top_k " << top_k.value_or(0) << " #" << i;
        EXPECT_EQ(batched[i].log_prob, strict[i].log_prob)
            << "batch " << batch << " top_k " << top_k.value_or(0) << " #" << i;
      }
    }
  }
}

TEST(BatchedExpansion, BatchModelCalledWithMultipleContexts) {
  // Beam search evaluates all live beams in one batch model call, bounded
  // by beam_width. Instrumented model: records the largest batch it saw.
  class CountingModel : public model::LanguageModel {
   public:
    explicit CountingModel(std::shared_ptr<model::LanguageModel> inner)
        : inner_(std::move(inner)) {}
    std::size_t vocab_size() const override { return inner_->vocab_size(); }
    tokenizer::TokenId eos() const override { return inner_->eos(); }
    std::size_t max_sequence_length() const override {
      return inner_->max_sequence_length();
    }
    std::vector<double> next_log_probs(
        std::span<const tokenizer::TokenId> ctx) const override {
      return inner_->next_log_probs(ctx);
    }
    std::vector<std::vector<double>> next_log_probs_batch(
        std::span<const std::vector<tokenizer::TokenId>> contexts) const override {
      max_batch_ = std::max(max_batch_, contexts.size());
      return inner_->next_log_probs_batch(contexts);
    }
    mutable std::size_t max_batch_ = 0;

   private:
    std::shared_ptr<model::LanguageModel> inner_;
  };

  CountingModel counting(fixture_model());
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog)|(mat)) ((sat)|(ran))", "The"};
  query.max_results = 6;
  query.beam_width = 4;
  CompiledQuery compiled = CompiledQuery::compile(query, fixture_tokenizer());
  BeamSearch(counting, compiled, query).run();
  EXPECT_GT(counting.max_batch_, 1u);
  EXPECT_LE(counting.max_batch_, 4u);
}

// ---------------------------------------------------------------------------
// Failure injection: degenerate models must not crash the engine.
// ---------------------------------------------------------------------------

class DeadModel : public model::LanguageModel {
 public:
  DeadModel(std::size_t vocab, TokenId eos) : vocab_(vocab), eos_(eos) {}
  std::size_t vocab_size() const override { return vocab_; }
  TokenId eos() const override { return eos_; }
  std::size_t max_sequence_length() const override { return 16; }
  std::vector<double> next_log_probs(std::span<const TokenId>) const override {
    // All mass on EOS: every non-EOS continuation has -inf log-prob.
    std::vector<double> lp(vocab_, -std::numeric_limits<double>::infinity());
    lp[eos_] = 0.0;
    return lp;
  }

 private:
  std::size_t vocab_;
  TokenId eos_;
};

TEST(FailureInjection, AllMassOnEosStillTerminates) {
  const BpeTokenizer& tok = fixture_tokenizer();
  DeadModel model(tok.vocab_size(), tok.eos());
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog))", "The"};
  query.max_results = 5;
  query.max_expansions = 100;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);
  // Shortest path: matches exist (prefix bypass + infinite costs), engine
  // terminates and reports them with -inf scores rather than hanging.
  auto results = ShortestPathSearch(model, compiled, query).all();
  for (const auto& r : results) EXPECT_TRUE(std::isinf(r.log_prob));
  // Random sampling: every attempt dead-ends; sample_all gives up after the
  // retry budget instead of looping forever.
  query.search_strategy = SearchStrategy::kRandomSampling;
  query.num_samples = 3;
  RandomSampler sampler(model, compiled, query, 1);
  auto samples = sampler.sample_all();
  EXPECT_TRUE(samples.empty());
  EXPECT_GT(sampler.stats().sample_dead_ends, 0u);
}

// ---------------------------------------------------------------------------
// Parallel batch evaluation: determinism and cache accounting
// ---------------------------------------------------------------------------

TEST(ParallelBatch, SearchResultsIndependentOfThreadCount) {
  // The determinism guarantee: identical result streams (tokens, text,
  // scores, call counts) for any shared-pool size, including pool sizes
  // larger and smaller than the round width.
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog)|(mat))( (sat|ran))?", "The"};
  query.max_results = 20;
  query.max_in_flight = 8;
  CompiledQuery compiled = CompiledQuery::compile(query, tok);

  util::ThreadPool::set_shared_threads(1);
  auto reference = ShortestPathSearch(*model, compiled, query).all();
  ASSERT_FALSE(reference.empty());

  for (std::size_t threads : {2u, 4u, 16u}) {
    util::ThreadPool::set_shared_threads(threads);
    auto parallel = ShortestPathSearch(*model, compiled, query).all();
    ASSERT_EQ(parallel.size(), reference.size()) << threads << " threads";
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(parallel[i].tokens, reference[i].tokens);
      EXPECT_EQ(parallel[i].text, reference[i].text);
      EXPECT_DOUBLE_EQ(parallel[i].log_prob, reference[i].log_prob);
      EXPECT_EQ(parallel[i].llm_calls_at_emission,
                reference[i].llm_calls_at_emission);
    }
  }
  util::ThreadPool::set_shared_threads(1);
}

TEST(ParallelBatch, ModelBatchMatchesSerialEvaluation) {
  // The default next_log_probs_batch fans out over the shared pool; results
  // must land in input order with values identical to serial calls.
  auto model = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  std::vector<std::vector<TokenId>> contexts;
  for (const char* s : {"The cat", "The dog ran", "The", "The cat sat on",
                        "The dog", "The mat", "The cat sat", "The dog ran far"}) {
    contexts.push_back(tok.encode(s));
  }
  std::vector<std::vector<double>> serial;
  for (const auto& ctx : contexts) serial.push_back(model->next_log_probs(ctx));

  for (std::size_t threads : {1u, 3u, 8u}) {
    util::ThreadPool::set_shared_threads(threads);
    EXPECT_EQ(model->next_log_probs_batch(contexts), serial)
        << threads << " threads";
  }
  util::ThreadPool::set_shared_threads(1);
}

TEST(ParallelBatch, SearchStatsReportCacheActivity) {
  // A search over a caching model attributes the cache's hit/miss deltas to
  // its own stats; the same search on the bare model reports zeros.
  auto inner = fixture_model();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog)|(mat)) ((sat)|(ran))", "The"};
  query.max_results = 10;
  CompiledQuery compiled = CompiledQuery::compile(query, fixture_tokenizer());

  ShortestPathSearch bare(*inner, compiled, query);
  bare.all();
  EXPECT_EQ(bare.stats().cache_hits, 0u);
  EXPECT_EQ(bare.stats().cache_misses, 0u);
  EXPECT_EQ(bare.stats().cache_hit_rate(), 0.0);

  model::CachingModel cached(inner);
  // Pre-existing counters must not leak into the search's deltas.
  cached.next_log_probs(fixture_tokenizer().encode("The cat"));
  const std::size_t warm_misses = cached.misses();
  EXPECT_GT(warm_misses, 0u);

  ShortestPathSearch first(cached, compiled, query);
  first.all();
  EXPECT_GT(first.stats().cache_misses, 0u);
  EXPECT_EQ(first.stats().cache_misses + warm_misses, cached.misses());

  // A repeated run hits what the first one populated.
  ShortestPathSearch second(cached, compiled, query);
  second.all();
  EXPECT_GT(second.stats().cache_hits, 0u);
  EXPECT_GT(second.stats().cache_hit_rate(), 0.0);
  EXPECT_LT(second.stats().cache_misses, first.stats().cache_misses);
}

TEST(ParallelBatch, CachedMasksNeverCrossRuleSets) {
  // One logit cache serves every strategy under three rule sets over the
  // same suffixes, the rule sets alternating run by run. A mask built for
  // one rule set and served to another would change the pruning, so every
  // run must equal the same query on a fresh cache; the second pass must
  // reuse stored masks.
  auto inner = fixture_model();
  const BpeTokenizer& tok = fixture_tokenizer();
  std::vector<model::DecodingRules> rule_sets(3);
  rule_sets[0].top_k = 5;
  rule_sets[1].top_k = 40;
  rule_sets[2].top_p = 0.9;
  enum class Kind { kPipeline, kStrict, kSampler, kBeam, kGenerate };

  // Runs one query; returns what it emitted and adds its mask reuse.
  auto run = [&](const model::LanguageModel& model, Kind kind,
                 const model::DecodingRules& rules, std::size_t& mask_reused) {
    SimpleSearchQuery query;
    query.query_string = {"The ((cat)|(dog)|(mat))( (sat|ran))?", "The"};
    query.decoding = rules;
    query.max_results = 20;
    query.num_samples = 12;
    if (kind == Kind::kStrict) query.max_in_flight = 1;
    const CompiledQuery compiled = CompiledQuery::compile(query, tok);
    std::vector<SearchResult> out;
    if (kind == Kind::kGenerate) {
      generate::GenerateEngine engine(model, compiled, query, 11);
      for (int s = 0; s < 8; ++s) engine.add_stream();
      engine.run();
      for (std::size_t s = 0; s < engine.num_streams(); ++s) {
        if (engine.result(s)) out.push_back(*engine.result(s));
      }
      return out;
    }
    SearchStats stats;
    if (kind == Kind::kSampler) {
      RandomSampler sampler(model, compiled, query, 11);
      out = sampler.sample_all();
      stats = sampler.stats();
    } else if (kind == Kind::kBeam) {
      BeamSearch beam(model, compiled, query);
      out = beam.run();
      stats = beam.stats();
    } else {
      ShortestPathSearch search(model, compiled, query);
      out = search.all();
      stats = search.stats();
    }
    EXPECT_GT(stats.mask_memo_hits + stats.mask_memo_misses, 0u);
    mask_reused += stats.mask_memo_hits;
    return out;
  };

  model::CachingModel shared(inner);
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t mask_reused = 0;
    for (Kind kind : {Kind::kPipeline, Kind::kStrict, Kind::kSampler,
                      Kind::kBeam, Kind::kGenerate}) {
      for (std::size_t r = 0; r < rule_sets.size(); ++r) {
        std::size_t unused = 0;
        model::CachingModel fresh(inner);
        const auto want = run(fresh, kind, rule_sets[r], unused);
        const auto got = run(shared, kind, rule_sets[r], mask_reused);
        ASSERT_EQ(got.size(), want.size())
            << "pass " << pass << " kind " << int(kind) << " rules " << r;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].tokens, want[i].tokens)
              << "pass " << pass << " kind " << int(kind) << " rules " << r;
          EXPECT_EQ(got[i].log_prob, want[i].log_prob)
              << "pass " << pass << " kind " << int(kind) << " rules " << r;
        }
      }
    }
    if (pass == 1) {
      EXPECT_GT(mask_reused, 0u);
    }
  }
}

TEST(FailureInjection, ZeroExpansionBatchTreatedAsOne) {
  auto model = fixture_model();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog))", "The"};
  query.max_in_flight = 0;
  query.max_results = 2;
  CompiledQuery compiled = CompiledQuery::compile(query, fixture_tokenizer());
  auto results = ShortestPathSearch(*model, compiled, query).all();
  EXPECT_EQ(results.size(), 2u);
}

}  // namespace
}  // namespace relm::core

namespace relm::core {
namespace {

// ---------------------------------------------------------------------------
// Query analyzer
// ---------------------------------------------------------------------------

TEST(Analyzer, FiniteMultipleChoiceQuery) {
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The ((cat)|(dog))", "The"};
  QueryAnalysis analysis = analyze_query(query, tok);
  EXPECT_FALSE(analysis.body_infinite);
  EXPECT_EQ(analysis.body_string_count, 2u);
  EXPECT_FALSE(analysis.dynamic_canonical);
  ASSERT_TRUE(analysis.shortest_match_length.has_value());
  EXPECT_EQ(*analysis.shortest_match_length, 4u);  // " cat"
  EXPECT_DOUBLE_EQ(analysis.body_token_paths, 2.0);
  EXPECT_NE(analysis.summary().find("finite"), std::string::npos);
}

TEST(Analyzer, InfiniteQueryFlagsDynamicCanonical) {
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"(cat)+", ""};
  QueryAnalysis analysis = analyze_query(query, tok);
  EXPECT_TRUE(analysis.body_infinite);
  EXPECT_TRUE(analysis.dynamic_canonical);
  EXPECT_GT(analysis.max_body_branching, 0.0);
  EXPECT_NE(analysis.summary().find("infinite"), std::string::npos);
}

TEST(Analyzer, PreprocessorsGrowTheLanguage) {
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery plain;
  plain.query_string = {"cat", ""};
  QueryAnalysis before = analyze_query(plain, tok);

  SimpleSearchQuery edited = plain;
  edited.preprocessors.push_back(std::make_shared<LevenshteinPreprocessor>(
      1, Preprocessor::Target::kBody,
      automata::ByteSet(automata::word_set())));
  QueryAnalysis after = analyze_query(edited, tok);
  EXPECT_GT(after.body_string_count, before.body_string_count);
  EXPECT_GT(after.body_token_paths, before.body_token_paths);
}

TEST(Analyzer, AllTokensCountsEncodings) {
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery query;
  query.query_string = {"The", ""};
  query.tokenization_strategy = TokenizationStrategy::kAllTokens;
  QueryAnalysis analysis = analyze_query(query, tok);
  EXPECT_DOUBLE_EQ(analysis.body_token_paths, tok.count_encodings("The"));
}

}  // namespace
}  // namespace relm::core

namespace relm::core {
namespace {

// ---------------------------------------------------------------------------
// Appendix-B reference construction == trie-optimized construction
// ---------------------------------------------------------------------------

class ShortcutEdgeEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ShortcutEdgeEquivalence, TrieVariantMatchesLiteralAlgorithm) {
  const BpeTokenizer& tok = fixture_tokenizer();
  automata::Dfa chars = automata::compile_regex(GetParam());
  TokenAutomaton fast =
      compile_token_automaton(chars, tok, TokenizationStrategy::kAllTokens);
  automata::Dfa reference = build_all_tokens_trie_variant(chars, tok);
  // Identical machines, not merely equivalent: both mirror the trimmed char
  // DFA's states and add exactly the same shortcut edges.
  EXPECT_EQ(fast.dfa, reference) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Patterns, ShortcutEdgeEquivalence,
                         ::testing::Values("The", "The ((cat)|(dog))",
                                           "(cat)+", "[a-d]{1,3}",
                                           "The cat sat on the mat."));

}  // namespace
}  // namespace relm::core
