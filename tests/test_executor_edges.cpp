// Executor edge cases surfaced (or made precisely testable) by the
// differential fuzz harness: empty intersections, EOS-only matches, budget
// exhaustion mid-frontier, degenerate vocabularies, canonical-vs-greedy
// tokenization, and minimized regressions for the three executor bugs the
// fuzzer found (beam text-dedup keeping the wrong path, beam require_eos at
// the sequence limit, sampler require_eos termination).

#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "model/ngram_model.hpp"
#include "testing/generators.hpp"
#include "testing/oracle.hpp"
#include "tokenizer/bpe.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace relm::core {
namespace {

using tokenizer::TokenId;

// The tokenizer lives behind a shared_ptr because CompiledQuery holds a
// pointer to the tokenizer it was compiled against — it must outlive the
// compile and stay at a stable address.
struct Fixture {
  std::shared_ptr<tokenizer::BpeTokenizer> tok;
  std::shared_ptr<model::LanguageModel> model;
  SimpleSearchQuery query;
  CompiledQuery compiled;
};

Fixture uniform_fixture(std::vector<std::string> vocab, const std::string& body,
                        SimpleSearchQuery base = {}) {
  const std::size_t vocab_size = vocab.size();
  auto tok = std::make_shared<tokenizer::BpeTokenizer>(
      tokenizer::BpeTokenizer::from_vocab(std::move(vocab)));
  auto model = std::make_shared<model::UniformModel>(vocab_size, 0, 24);
  base.query_string = {body, ""};
  CompiledQuery compiled = CompiledQuery::compile(base, *tok);
  return {std::move(tok), std::move(model), std::move(base), std::move(compiled)};
}

// Runs all three executors and asserts each against the brute-force oracle.
void expect_all_executors_match_oracle(const Fixture& f) {
  const testing::Oracle oracle =
      testing::build_oracle(*f.model, f.compiled, f.query);
  ASSERT_FALSE(oracle.truncated);

  SimpleSearchQuery query = f.query;
  query.max_results = oracle.by_text.size() + 4;
  query.beam_width = std::max<std::size_t>(oracle.max_width, 1);
  ShortestPathSearch shortest(*f.model, f.compiled, query);
  EXPECT_EQ(testing::compare_results(oracle, shortest.all(), 1e-9, true),
            std::nullopt);
  BeamSearch beam(*f.model, f.compiled, query);
  EXPECT_EQ(testing::compare_results(oracle, beam.run(), 1e-9, true),
            std::nullopt);
  query.num_samples = 8;
  RandomSampler sampler(*f.model, f.compiled, query, /*seed=*/11);
  EXPECT_EQ(testing::check_samples(*f.model, f.compiled, query,
                                   sampler.sample_all(), 1e-9),
            std::nullopt);
}

// --------------------------------------------------------------------------
// Empty intersection: the pattern needs more tokens than the budget allows,
// so the compiled language within the sequence limit is empty. Every
// traversal must terminate cleanly with zero matches (and the sampler must
// give up rather than loop).
TEST(ExecutorEdges, EmptyIntersectionYieldsNoResults) {
  SimpleSearchQuery base;
  base.sequence_length = 3;
  Fixture f = uniform_fixture({"", "a"}, "a{5}", base);

  ShortestPathSearch shortest(*f.model, f.compiled, f.query);
  EXPECT_TRUE(shortest.all().empty());
  BeamSearch beam(*f.model, f.compiled, f.query);
  EXPECT_TRUE(beam.run().empty());
  SimpleSearchQuery query = f.query;
  query.num_samples = 3;
  RandomSampler sampler(*f.model, f.compiled, query, 5);
  EXPECT_TRUE(sampler.sample_all().empty());
}

// Statically empty language (boolean algebra can produce provably-empty
// queries like `a&!a`): the compile marks the artifact empty_language and
// every executor must return immediately WITHOUT a single model call — the
// fast path exists precisely so a vacuous query costs no inference.
class CallCountingModel : public model::LanguageModel {
 public:
  std::size_t vocab_size() const override { return 2; }
  TokenId eos() const override { return 0; }
  std::size_t max_sequence_length() const override { return 24; }
  std::vector<double> next_log_probs(std::span<const TokenId>) const override {
    ++calls;
    return {std::log(0.5), std::log(0.5)};
  }
  mutable std::size_t calls = 0;
};

// A model whose `throw_at`-th evaluation (counted across pool threads)
// throws; every other call returns a uniform distribution.
class ThrowingModel : public model::LanguageModel {
 public:
  explicit ThrowingModel(std::size_t throw_at) : throw_at_(throw_at) {}
  std::size_t vocab_size() const override { return 3; }
  TokenId eos() const override { return 0; }
  std::size_t max_sequence_length() const override { return 24; }
  std::vector<double> next_log_probs(std::span<const TokenId>) const override {
    if (++calls_ == throw_at_) throw relm::Error("injected model failure");
    return std::vector<double>(3, std::log(1.0 / 3.0));
  }
  std::size_t calls() const { return calls_.load(); }

 private:
  std::size_t throw_at_;
  mutable std::atomic<std::size_t> calls_{0};
};

// A model error poisons a shortest-path search: the round that failed had
// already marked its nodes expanded, so resuming would silently drop their
// subtrees. Every later next()/all() rethrows instead, without calling the
// model again.
TEST(ExecutorEdges, ModelErrorPoisonsShortestPath) {
  tokenizer::BpeTokenizer tok = tokenizer::BpeTokenizer::from_vocab({"", "a", "b"});
  for (std::size_t in_flight : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(in_flight);
    ThrowingModel model(/*throw_at=*/5);
    SimpleSearchQuery query;
    query.query_string = {"(a|b)+", ""};
    query.max_results = 1000;
    query.max_in_flight = in_flight;
    const CompiledQuery compiled = CompiledQuery::compile(query, tok);
    ShortestPathSearch search(model, compiled, query);
    EXPECT_THROW(
        {
          while (search.next()) {
          }
        },
        relm::Error);
    const std::size_t calls = model.calls();
    EXPECT_GE(calls, 5u);
    EXPECT_THROW(search.next(), relm::Error);
    EXPECT_THROW(search.all(), relm::Error);
    EXPECT_EQ(model.calls(), calls);
  }
}

TEST(ExecutorEdges, EmptyLanguageSkipsModelEntirely) {
  tokenizer::BpeTokenizer tok = tokenizer::BpeTokenizer::from_vocab({"", "a"});
  CallCountingModel model;
  SimpleSearchQuery query;
  query.query_string = {"a&!a", ""};
  query.sequence_length = 6;
  query.num_samples = 5;
  const CompiledQuery compiled = CompiledQuery::compile(query, tok);
  ASSERT_TRUE(compiled.empty_language());

  ShortestPathSearch shortest(model, compiled, query);
  EXPECT_TRUE(shortest.all().empty());
  BeamSearch beam(model, compiled, query);
  EXPECT_TRUE(beam.run().empty());
  RandomSampler sampler(model, compiled, query, 7);
  EXPECT_TRUE(sampler.sample_all().empty());
  EXPECT_EQ(model.calls, 0u);

  // A non-empty query through the same code path still works (the flag is
  // per-artifact, not sticky global state).
  SimpleSearchQuery live = query;
  live.query_string = {"a", ""};
  const CompiledQuery live_compiled = CompiledQuery::compile(live, tok);
  EXPECT_FALSE(live_compiled.empty_language());
  ShortestPathSearch live_search(model, live_compiled, live);
  EXPECT_EQ(live_search.all().size(), 1u);
  EXPECT_GT(model.calls, 0u);
}

// EOS-only match: the body accepts exactly the empty string and EOS is
// required, so the sole result is "" with log_prob = log p(EOS | nothing).
TEST(ExecutorEdges, EosOnlyMatch) {
  SimpleSearchQuery base;
  base.require_eos = true;
  base.sequence_length = 2;
  Fixture f = uniform_fixture({"", "a"}, "()", base);
  const double lp_eos = std::log(0.5);

  ShortestPathSearch shortest(*f.model, f.compiled, f.query);
  const auto results = shortest.all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].text, "");
  EXPECT_TRUE(results[0].tokens.empty());
  EXPECT_NEAR(results[0].log_prob, lp_eos, 1e-12);

  expect_all_executors_match_oracle(f);
}

// Budget exhaustion mid-frontier: an expansion budget far below what the
// language needs must stop the search cleanly, and whatever WAS emitted must
// be a prefix of the unconstrained emission sequence (Dijkstra order means a
// budget only ever truncates the tail).
TEST(ExecutorEdges, ExpansionBudgetTruncatesCleanly) {
  SimpleSearchQuery base;
  base.sequence_length = 6;
  base.max_results = 100;
  Fixture f = uniform_fixture({"", "a", "b"}, "(a|b)*", base);

  SimpleSearchQuery full_query = f.query;
  ShortestPathSearch full(*f.model, f.compiled, full_query);
  const auto full_results = full.all();
  ASSERT_GT(full_results.size(), 4u);

  SimpleSearchQuery starved_query = f.query;
  starved_query.max_expansions = 3;
  ShortestPathSearch starved(*f.model, f.compiled, starved_query);
  const auto starved_results = starved.all();
  EXPECT_LE(starved.stats().expansions, 3u);
  ASSERT_LT(starved_results.size(), full_results.size());
  for (std::size_t i = 0; i < starved_results.size(); ++i) {
    EXPECT_EQ(starved_results[i].text, full_results[i].text);
    EXPECT_EQ(starved_results[i].log_prob, full_results[i].log_prob);
  }
}

// Single-token vocabulary: EOS plus one real token. Exercises the smallest
// possible logit vectors and the all-mass-on-one-edge sampling path.
TEST(ExecutorEdges, SingleTokenVocab) {
  SimpleSearchQuery base;
  base.sequence_length = 4;
  Fixture f = uniform_fixture({"", "a"}, "a{1,3}", base);
  const testing::Oracle oracle =
      testing::build_oracle(*f.model, f.compiled, f.query);
  ASSERT_EQ(oracle.by_text.size(), 3u);  // a, aa, aaa
  expect_all_executors_match_oracle(f);
}

// Canonical vs greedy tokenization on an ambiguous vocabulary: "abc" has
// three encodings over {a,b,c,ab,bc}. kAllTokens must expose every encoding
// to the traversal (text-dedup then keeps the most probable); kCanonical
// must admit exactly the greedy longest-match path [ab, c].
TEST(ExecutorEdges, CanonicalVersusGreedyTokenization) {
  SimpleSearchQuery base;
  base.sequence_length = 4;
  base.tokenization_strategy = TokenizationStrategy::kAllTokens;
  Fixture all = uniform_fixture({"", "a", "b", "c", "ab", "bc"}, "abc", base);

  const testing::Oracle oracle =
      testing::build_oracle(*all.model, all.compiled, all.query);
  ASSERT_EQ(oracle.by_text.size(), 1u);
  ASSERT_EQ(oracle.paths.size(), 3u);  // [a,b,c], [ab,c], [a,bc]
  // Under a uniform model the two 2-token encodings tie and beat [a,b,c];
  // the deduped winner must be one of them.
  EXPECT_NEAR(oracle.by_text[0].log_prob, 2 * std::log(1.0 / 6.0), 1e-12);
  expect_all_executors_match_oracle(all);

  base.tokenization_strategy = TokenizationStrategy::kCanonicalTokens;
  Fixture canon = uniform_fixture({"", "a", "b", "c", "ab", "bc"}, "abc", base);
  ShortestPathSearch shortest(*canon.model, canon.compiled, canon.query);
  const auto results = shortest.all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].text, "abc");
  EXPECT_EQ(results[0].tokens, (std::vector<TokenId>{4, 3}));  // [ab, c]
  EXPECT_NEAR(results[0].log_prob, 2 * std::log(1.0 / 6.0), 1e-12);
}

// --------------------------------------------------------------------------
// Regression: beam search text-dedup must keep the MOST PROBABLE token path,
// not the first one found. A one-token encoding completes a step earlier
// than a two-token encoding of the same text, so first-wins dedup locked in
// the wrong log-prob whenever the longer path was more probable.
//
// Model: p(ab) = 0.1 up front, but p(a) * p(b | a) = 0.6 * 0.5 = 0.3.

class TwoStepModel : public model::LanguageModel {
 public:
  std::size_t vocab_size() const override { return 4; }  // "", a, b, ab
  TokenId eos() const override { return 0; }
  std::size_t max_sequence_length() const override { return 8; }
  std::size_t relevant_context_length() const override { return 1; }
  std::vector<double> next_log_probs(std::span<const TokenId> context) const override {
    if (!context.empty() && context.back() == 1) {  // after "a"
      return {std::log(0.2), std::log(0.1), std::log(0.5), std::log(0.2)};
    }
    return {std::log(0.1), std::log(0.6), std::log(0.2), std::log(0.1)};
  }
};

TEST(ExecutorEdges, BeamDedupKeepsMostProbablePath) {
  tokenizer::BpeTokenizer tok =
      tokenizer::BpeTokenizer::from_vocab({"", "a", "b", "ab"});
  TwoStepModel model;
  SimpleSearchQuery query;
  query.query_string = {"ab", ""};
  query.tokenization_strategy = TokenizationStrategy::kAllTokens;
  query.sequence_length = 4;
  query.beam_width = 8;
  const CompiledQuery compiled = CompiledQuery::compile(query, tok);

  BeamSearch beam(model, compiled, query);
  const auto results = beam.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].text, "ab");
  EXPECT_EQ(results[0].tokens, (std::vector<TokenId>{1, 2}));  // [a, b]
  EXPECT_NEAR(results[0].log_prob, std::log(0.6 * 0.5), 1e-12);

  // Dijkstra's first-pop-wins gives the same answer; the two must agree.
  ShortestPathSearch shortest(model, compiled, query);
  const auto sp = shortest.all();
  ASSERT_EQ(sp.size(), 1u);
  EXPECT_EQ(sp[0].log_prob, results[0].log_prob);
  EXPECT_EQ(sp[0].tokens, results[0].tokens);
}

// Regression: with max_in_flight > 1, a speculative round pops the cheapest
// DISCOVERED nodes — a match can pop before a cheaper encoding of the same
// text is even discovered (its parent sits in the same batch). Matches must
// be held back until provably optimal, or first-wins text dedup locks in
// the wrong log-prob. Here [ab] (p = 0.1) and [a] (p = 0.6) are the round-2
// batch; popping [ab] emits "ab" before [a, b] (p = 0.3) exists.
TEST(ExecutorEdges, BatchedDijkstraHoldsMatchesUntilSettled) {
  tokenizer::BpeTokenizer tok =
      tokenizer::BpeTokenizer::from_vocab({"", "a", "b", "ab"});
  TwoStepModel model;
  SimpleSearchQuery query;
  query.query_string = {"ab", ""};
  query.tokenization_strategy = TokenizationStrategy::kAllTokens;
  query.sequence_length = 4;
  query.max_in_flight = 2;
  const CompiledQuery compiled = CompiledQuery::compile(query, tok);

  ShortestPathSearch batched(model, compiled, query);
  const auto results = batched.all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].tokens, (std::vector<TokenId>{1, 2}));  // [a, b]
  EXPECT_NEAR(results[0].log_prob, std::log(0.6 * 0.5), 1e-12);

  // Batched and strict traversals must produce identical results.
  SimpleSearchQuery strict_query = query;
  strict_query.max_in_flight = 1;
  ShortestPathSearch strict(model, compiled, strict_query);
  const auto strict_results = strict.all();
  ASSERT_EQ(strict_results.size(), 1u);
  EXPECT_EQ(strict_results[0].log_prob, results[0].log_prob);
  EXPECT_EQ(strict_results[0].tokens, results[0].tokens);
}

// Regression: with require_eos, a path whose body fills the whole sequence
// budget has no slot left for EOS and is NOT a match. Beam search used to
// emit such paths from its final-survivors pass.
TEST(ExecutorEdges, BeamRequireEosNeedsBudgetSlot) {
  SimpleSearchQuery base;
  base.require_eos = true;
  base.beam_width = 4;
  base.sequence_length = 3;
  Fixture tight = uniform_fixture({"", "a"}, "aaa", base);
  BeamSearch beam_tight(*tight.model, tight.compiled, tight.query);
  EXPECT_TRUE(beam_tight.run().empty());
  ShortestPathSearch sp_tight(*tight.model, tight.compiled, tight.query);
  EXPECT_TRUE(sp_tight.all().empty());

  base.sequence_length = 4;  // now EOS fits
  Fixture roomy = uniform_fixture({"", "a"}, "aaa", base);
  BeamSearch beam_roomy(*roomy.model, roomy.compiled, roomy.query);
  const auto results = beam_roomy.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NEAR(results[0].log_prob, 4 * std::log(0.5), 1e-12);  // aaa + EOS
  expect_all_executors_match_oracle(roomy);
}

// Regression: the sampler must PAY for EOS when the query requires it — stop
// only by drawing EOS under the mask (adding log p(EOS | path)), and treat a
// budget-filling body as a dead end, exactly like the other executors.
TEST(ExecutorEdges, SamplerRequireEosPaysTerminationCost) {
  SimpleSearchQuery base;
  base.require_eos = true;
  base.sequence_length = 2;
  base.num_samples = 6;
  Fixture f = uniform_fixture({"", "a", "b"}, "()", base);

  RandomSampler sampler(*f.model, f.compiled, f.query, 3);
  const auto samples = sampler.sample_all();
  ASSERT_EQ(samples.size(), 6u);
  for (const SearchResult& sample : samples) {
    EXPECT_EQ(sample.text, "");
    EXPECT_NEAR(sample.log_prob, std::log(1.0 / 3.0), 1e-12);
  }
  EXPECT_EQ(testing::check_samples(*f.model, f.compiled, f.query, samples, 1e-9),
            std::nullopt);

  // With the body consuming the entire budget, every attempt dead-ends.
  SimpleSearchQuery tight = f.query;
  tight.query_string = {"aa", ""};
  tight.num_samples = 3;
  const CompiledQuery compiled_tight = CompiledQuery::compile(tight, *f.tok);
  RandomSampler starved(*f.model, compiled_tight, tight, 3);
  EXPECT_TRUE(starved.sample_all().empty());
  EXPECT_GT(starved.stats().sample_dead_ends, 0u);
}

// --------------------------------------------------------------------------
// Async-pipeline edges. The pipeline's scheduling (selection horizon,
// occupancy controller, budget clamp) is a pure function of search state, so
// its OUTPUT must be byte-identical to strict Dijkstra (max_in_flight = 1) at
// any thread count; only the speculative-work counters may differ.

// Like uniform_fixture but with a skewed ngram model so sibling costs differ
// strictly — uniform models tie at every depth, which hides any scheduling
// behaviour keyed on cost comparisons (horizon clips, waste accounting).
Fixture skewed_fixture(std::vector<std::string> vocab, const std::string& body,
                       SimpleSearchQuery base = {}) {
  const std::size_t vocab_size = vocab.size();
  auto tok = std::make_shared<tokenizer::BpeTokenizer>(
      tokenizer::BpeTokenizer::from_vocab(std::move(vocab)));
  testing::ModelSpec spec;
  spec.kind = testing::ModelSpec::Kind::kNgram;
  spec.vocab_size = vocab_size;
  spec.eos = 0;
  spec.max_sequence_length = 24;
  // Heavily favour token 1 so P(token 1) >> P(token 2) everywhere.
  for (int i = 0; i < 12; ++i) spec.sequences.push_back({1});
  spec.sequences.push_back({2});
  auto model = spec.build();
  base.query_string = {body, ""};
  CompiledQuery compiled = CompiledQuery::compile(base, *tok);
  return {std::move(tok), std::move(model), std::move(base), std::move(compiled)};
}

void expect_exact_match(const std::vector<SearchResult>& got,
                        const std::vector<SearchResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].text, want[i].text) << "index " << i;
    EXPECT_EQ(got[i].tokens, want[i].tokens) << "index " << i;
    EXPECT_EQ(got[i].log_prob, want[i].log_prob) << "index " << i;
  }
}

TEST(ExecutorEdges, PipelineMatchesLockstepAcrossThreadCounts) {
  SimpleSearchQuery base;
  base.sequence_length = 6;
  base.max_results = 100;
  Fixture f = uniform_fixture({"", "a", "b"}, "(a|b)*", base);

  SimpleSearchQuery strict = f.query;
  strict.max_in_flight = 1;
  ShortestPathSearch serial(*f.model, f.compiled, strict);
  const auto want = serial.all();
  ASSERT_GT(want.size(), 4u);

  const std::size_t restore = util::ThreadPool::shared().threads();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    util::ThreadPool::set_shared_threads(threads);
    ShortestPathSearch search(*f.model, f.compiled, f.query);
    const auto got = search.all();
    expect_exact_match(got, want);
    EXPECT_GT(search.stats().pump_rounds, 0u) << "threads=" << threads;
  }
  util::ThreadPool::set_shared_threads(restore);
}

// The selection horizon must defer nodes costlier than round_min + horizon:
// with a near-zero horizon and strictly skewed sibling costs, at least one
// selection round clips — and the output is still exactly the strict one,
// because clipping only DELAYS an expansion, never changes its result.
TEST(ExecutorEdges, SpeculationHorizonClipsCostlierNodes) {
  SimpleSearchQuery base;
  base.sequence_length = 4;
  base.max_results = 8;
  Fixture f = skewed_fixture({"", "a", "b"}, "(a|b)a?", base);

  SimpleSearchQuery strict = f.query;
  strict.max_in_flight = 1;
  ShortestPathSearch serial(*f.model, f.compiled, strict);
  const auto want = serial.all();
  ASSERT_FALSE(want.empty());

  SimpleSearchQuery pipe = f.query;
  pipe.speculation_horizon = 1e-9;
  pipe.target_occupancy = 8;
  ShortestPathSearch clipped(*f.model, f.compiled, pipe);
  const auto got = clipped.all();
  EXPECT_GE(clipped.stats().horizon_clips, 1u);
  expect_exact_match(got, want);
}

// The mid-selection budget clamp: when admitting one more evaluation would
// overrun max_expansions, the selector cancels the remainder of the round
// (speculative_cancelled) instead of blowing the budget — and the truncated
// emission sequence is a prefix of the unconstrained one, exactly as in the
// budget test above.
TEST(ExecutorEdges, BudgetClampCancelsSpeculativeSelection) {
  SimpleSearchQuery base;
  base.sequence_length = 6;
  base.max_results = 100;
  Fixture f = uniform_fixture({"", "a", "b"}, "(a|b)*", base);

  SimpleSearchQuery full_query = f.query;
  full_query.target_occupancy = 8;
  ShortestPathSearch full(*f.model, f.compiled, full_query);
  const auto full_results = full.all();
  ASSERT_GT(full_results.size(), 4u);

  SimpleSearchQuery starved_query = full_query;
  starved_query.max_expansions = 2;
  ShortestPathSearch starved(*f.model, f.compiled, starved_query);
  const auto starved_results = starved.all();
  EXPECT_LE(starved.stats().expansions, 2u);
  EXPECT_GE(starved.stats().speculative_cancelled, 1u);
  ASSERT_LT(starved_results.size(), full_results.size());
  for (std::size_t i = 0; i < starved_results.size(); ++i) {
    EXPECT_EQ(starved_results[i].text, full_results[i].text);
    EXPECT_EQ(starved_results[i].log_prob, full_results[i].log_prob);
  }
}

// Waste accounting, no-emission branch: a search that evaluates nodes but
// never emits counts EVERY evaluated node as speculative waste — all of that
// model work bought nothing.
TEST(ExecutorEdges, SpeculativeWasteCountedWhenNothingEmits) {
  SimpleSearchQuery base;
  base.sequence_length = 3;
  Fixture f = uniform_fixture({"", "a"}, "a{5}", base);

  ShortestPathSearch search(*f.model, f.compiled, f.query);
  EXPECT_TRUE(search.all().empty());
  EXPECT_GE(search.stats().speculative_wasted, 1u);
}

// Waste accounting, beyond-last-emission branch: with max_results = 1 and a
// strictly costlier sibling selected in the same round (large horizon), the
// sibling's evaluation lands above the last emitted cost and is counted as
// wasted speculation.
TEST(ExecutorEdges, SpeculativeWasteCountsEvalsBeyondLastEmission) {
  SimpleSearchQuery base;
  base.sequence_length = 4;
  base.max_results = 1;
  Fixture f = skewed_fixture({"", "a", "b"}, "(a|b)a?", base);

  SimpleSearchQuery pipe = f.query;
  pipe.target_occupancy = 8;
  pipe.speculation_horizon = 100.0;  // admit the costlier sibling
  ShortestPathSearch search(*f.model, f.compiled, pipe);
  const auto results = search.all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].text, "a");  // the skew makes "a" strictly cheapest
  EXPECT_GE(search.stats().speculative_expanded, 1u);
  EXPECT_GE(search.stats().speculative_wasted, 1u);
}

// --------------------------------------------------------------------------
// Incremental canonicality: canonical_prefix_advance resumed token-by-token
// must agree with the from-scratch canonical_prefix_ok at every prefix, and
// canonical_body from the settled state must agree with re-encode-and-compare
// on the complete body — for the canonical path and both impostors.
TEST(ExecutorEdges, CanonicalAdvanceAndBodyMatchFromScratchChecks) {
  auto tok = tokenizer::BpeTokenizer::from_vocab({"", "a", "b", "c", "ab", "bc"});
  SimpleSearchQuery query;
  // Infinite language: canonical encodings cannot be enumerated at compile
  // time, so the artifact carries dynamic_canonical and the executor prunes
  // non-greedy paths at traversal time — the machinery under test here.
  query.query_string = {"[abc]+", ""};
  query.tokenization_strategy = TokenizationStrategy::kCanonicalTokens;
  query.sequence_length = 4;
  const CompiledQuery compiled = CompiledQuery::compile(query, tok);
  ASSERT_TRUE(compiled.dynamic_canonical());

  const std::vector<std::vector<TokenId>> paths = {
      {4, 3},     // [ab, c]   — the canonical (greedy) encoding
      {1, 5},     // [a, bc]   — same text, non-canonical split
      {1, 2, 3},  // [a, b, c] — fully unmerged
  };
  for (const auto& path : paths) {
    CompiledQuery::CanonState state;
    std::string text;
    bool advance_ok = true;
    for (std::size_t i = 0; i < path.size(); ++i) {
      text += tok.token_string(path[i]);
      const std::span<const TokenId> prefix(path.data(), i + 1);
      if (advance_ok) {
        advance_ok = compiled.canonical_prefix_advance(prefix, text, state);
      }
      EXPECT_EQ(advance_ok, compiled.canonical_prefix_ok(prefix, text))
          << "path[0]=" << path[0] << " prefix_len=" << (i + 1);
    }
    if (advance_ok) {
      const bool canonical = tok.encode(text) == path;
      EXPECT_EQ(compiled.canonical_body(path, text, state), canonical)
          << "path[0]=" << path[0];
      // A default (nothing-settled) state must give the same verdict.
      EXPECT_EQ(compiled.canonical_body(path, text, {}), canonical)
          << "path[0]=" << path[0];
    }
  }
}

}  // namespace
}  // namespace relm::core
