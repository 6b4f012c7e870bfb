// Executor edge cases surfaced (or made precisely testable) by the
// differential fuzz harness: empty intersections, EOS-only matches, budget
// exhaustion mid-frontier, degenerate vocabularies, canonical-vs-greedy
// tokenization, and minimized regressions for the three executor bugs the
// fuzzer found (beam text-dedup keeping the wrong path, beam require_eos at
// the sequence limit, sampler require_eos termination).

#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/generate/generate_engine.hpp"
#include "model/ngram_model.hpp"
#include "testing/differential.hpp"
#include "testing/generators.hpp"
#include "testing/oracle.hpp"
#include "tokenizer/bpe.hpp"
#include "util/errors.hpp"
#include "util/sync.hpp"
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

// A context-independent model over {"", "a", "b"} whose siblings "a" and
// "b" lie ln(50000) ≈ 10.8 nats apart: further than the pipeline's 8-nat
// speculation horizon, which the skewed fixture's 12:1 training skew never
// reaches.
class FarSiblingsModel : public model::LanguageModel {
 public:
  std::size_t vocab_size() const override { return 3; }
  TokenId eos() const override { return 0; }
  std::size_t max_sequence_length() const override { return 24; }
  std::vector<double> next_log_probs(std::span<const TokenId>) const override {
    return {std::log(0.5), std::log(0.5 - 1e-5), std::log(1e-5)};
  }
};

// The selection horizon must defer nodes costlier than round_min + horizon:
// with siblings further apart than the horizon, at least one selection
// round clips — and the output is still exactly the strict one, because
// clipping only DELAYS an expansion, never changes its result.
TEST(ExecutorEdges, SpeculationHorizonClipsCostlierNodes) {
  SimpleSearchQuery base;
  base.sequence_length = 4;
  base.max_results = 8;
  Fixture f = uniform_fixture({"", "a", "b"}, "(a|b)a?", base);
  f.model = std::make_shared<FarSiblingsModel>();

  SimpleSearchQuery strict = f.query;
  strict.max_in_flight = 1;
  ShortestPathSearch serial(*f.model, f.compiled, strict);
  const auto want = serial.all();
  ASSERT_FALSE(want.empty());

  ShortestPathSearch clipped(*f.model, f.compiled, f.query);
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

  ShortestPathSearch full(*f.model, f.compiled, f.query);
  const auto full_results = full.all();
  ASSERT_GT(full_results.size(), 4u);

  SimpleSearchQuery starved_query = f.query;
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
// strictly costlier sibling selected in the same round (the skew keeps it
// within the 8-nat horizon), the sibling's evaluation lands above the last
// emitted cost and is counted as wasted speculation.
TEST(ExecutorEdges, SpeculativeWasteCountsEvalsBeyondLastEmission) {
  SimpleSearchQuery base;
  base.sequence_length = 4;
  base.max_results = 1;
  Fixture f = skewed_fixture({"", "a", "b"}, "(a|b)a?", base);

  ShortestPathSearch search(*f.model, f.compiled, f.query);
  const auto results = search.all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].text, "a");  // the skew makes "a" strictly cheapest
  EXPECT_GE(search.stats().speculative_expanded, 1u);
  EXPECT_GE(search.stats().speculative_wasted, 1u);
}

// --------------------------------------------------------------------------
// Exact canonical settlement.

// Skewed n-gram model under top-k 3 over an infinite canonical language, on
// a vocabulary with 3-byte tokens: a body like [a, b] is doomed (the longer
// "ab" is visible at its first boundary) well before max_token_length more
// bytes arrive, so shortest path drops it and a stream retires on drawing
// it, while beam keeps it.
Fixture settlement_fixture() {
  std::vector<std::string> vocab{"", "a", "b", "c", "ab", "bc", "abc", "bca"};
  auto tok = std::make_shared<tokenizer::BpeTokenizer>(
      tokenizer::BpeTokenizer::from_vocab(vocab));
  testing::ModelSpec spec;
  spec.kind = testing::ModelSpec::Kind::kNgram;
  spec.vocab_size = vocab.size();
  spec.eos = 0;
  spec.sequences = {{1, 2, 3}, {4, 3}, {1, 5}, {2, 2, 1},
                    {3, 1, 4}, {1, 2, 1, 2}, {7, 6}};
  SimpleSearchQuery query;
  query.query_string = {"[abc]+", ""};
  query.decoding.top_k = 3;
  query.sequence_length = 6;
  query.max_results = 1000;
  CompiledQuery compiled = CompiledQuery::compile(query, *tok);
  return {std::move(tok), spec.build(), std::move(query), std::move(compiled)};
}

// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t value = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      value ^= (v >> (8 * i)) & 0xffu;
      value *= 1099511628211ull;
    }
  }
};

// Beam's width cut must see the candidates the max_token_length distance
// rule leaves, flagged doomed steps included. The digest was recorded
// before the exact rule replaced the distance rule.
TEST(ExecutorEdges, BeamCandidatesUnchangedByExactSettlement) {
  const Fixture f = settlement_fixture();
  ASSERT_TRUE(f.compiled.dynamic_canonical());
  Fnv digest;
  for (std::size_t width : {1u, 3u, 8u}) {
    SimpleSearchQuery query = f.query;
    query.beam_width = width;
    BeamSearch beam(*f.model, f.compiled, query);
    for (const SearchResult& r : beam.run()) {
      for (TokenId t : r.tokens) digest.mix(t);
      digest.mix(std::bit_cast<std::uint64_t>(r.log_prob));
    }
    digest.mix(beam.stats().llm_calls);
    digest.mix(beam.stats().pruned_non_canonical);
  }
  EXPECT_EQ(digest.value, 0x29fbc81ac3705bc1ull) << std::hex << digest.value;
}

// Exact settlement against brute force, on every body path of up to 4
// tokens over a vocabulary with 3-byte tokens, the state resumed token by
// token: (i) a doomed path has no continuation of up to max_token_length + 1
// bytes whose canonical encoding starts with it, and (this vocabulary being
// prefix-closed) a live path has one; (ii) the distance rule over encode()
// cuts a path exactly when it is doomed max_token_length bytes back;
// (iii) some path is doomed strictly before the distance rule cuts it;
// (iv) canonical_body from the resumed state agrees with encode-and-compare.
TEST(ExecutorEdges, CanonicalAdvanceAndBodyMatchFromScratchChecks) {
  const Fixture f = settlement_fixture();
  const tokenizer::BpeTokenizer& tok = *f.tok;
  ASSERT_TRUE(f.compiled.dynamic_canonical());
  const std::size_t max_tok = tok.max_token_length();
  ASSERT_EQ(max_tok, 3u);

  std::size_t paths = 0;
  std::size_t doomed_early = 0;
  std::vector<TokenId> path;
  std::string text;
  // Extends `path` by every token, checking each extension with the state
  // resumed from its parent's.
  auto visit = [&](auto& self, CompiledQuery::CanonState parent) -> void {
    if (path.size() == 4) return;
    for (TokenId t = 1; t < tok.vocab_size(); ++t) {
      path.push_back(t);
      text += tok.token_string(t);
      CompiledQuery::CanonState state = parent;
      f.compiled.canonical_prefix_advance(path, text, state);
      ++paths;
      SCOPED_TRACE(text + " in " + std::to_string(path.size()) + " tokens");
      EXPECT_EQ(testing::canonical_continuation_exists(tok, path, text, "abc",
                                                       max_tok + 1),
                !state.doomed());
      const bool cut = state.doomed() && state.doomed_at + max_tok <= text.size();
      EXPECT_EQ(testing::distance_rule_cuts(tok, path, text), cut);
      if (state.doomed() && !cut) ++doomed_early;
      const bool canonical = tok.encode(text) == path;
      EXPECT_EQ(f.compiled.canonical_body(path, text, state), canonical);
      EXPECT_EQ(f.compiled.canonical_body(path, text, {}), canonical);
      self(self, state);
      text.resize(text.size() - tok.token_string(t).size());
      path.pop_back();
    }
  };
  visit(visit, {});
  EXPECT_EQ(paths, 7u + 49u + 343u + 2401u);
  EXPECT_GT(doomed_early, 0u);
}

// A model that records every context it scores (full contexts: it promises
// no bounded relevant suffix).
class RecordingModel : public model::LanguageModel {
 public:
  explicit RecordingModel(const model::LanguageModel& inner) : inner_(inner) {}
  std::size_t vocab_size() const override { return inner_.vocab_size(); }
  TokenId eos() const override { return inner_.eos(); }
  std::size_t max_sequence_length() const override {
    return inner_.max_sequence_length();
  }
  std::vector<double> next_log_probs(
      std::span<const TokenId> context) const override {
    {
      ScopedLock lock(mutex_);
      contexts_.emplace_back(context.begin(), context.end());
    }
    return inner_.next_log_probs(context);
  }
  std::vector<std::vector<TokenId>> contexts() const {
    ScopedLock lock(mutex_);
    return contexts_;
  }

 private:
  const model::LanguageModel& inner_;
  mutable Mutex mutex_{LockRank::kModelCacheShard};
  mutable std::vector<std::vector<TokenId>> contexts_ RELM_GUARDED_BY(mutex_);
};

// Shortest path drops a flagged child when it surfaces to the frontier, so
// the model never scores a doomed body: every context it sees still has a
// canonical continuation. The results stay those of the mask-less copy (the
// probe path) and of the oracle, which prunes with the weaker distance rule.
TEST(ExecutorEdges, ShortestPathNeverEvaluatesDoomedBodies) {
  const Fixture f = settlement_fixture();
  const testing::Oracle oracle =
      testing::build_oracle(*f.model, f.compiled, f.query);
  ASSERT_FALSE(oracle.truncated);
  SimpleSearchQuery query = f.query;
  query.max_results = oracle.by_text.size() + 4;

  RecordingModel model(*f.model);
  ShortestPathSearch search(model, f.compiled, query);
  const std::vector<SearchResult> results = search.all();
  EXPECT_EQ(testing::compare_results(oracle, results, 1e-9, true), std::nullopt);
  EXPECT_GT(search.stats().pruned_non_canonical, 0u);
  const std::vector<std::vector<TokenId>> contexts = model.contexts();
  ASSERT_EQ(contexts.size(), search.stats().llm_calls);
  for (const std::vector<TokenId>& context : contexts) {
    const std::string text = f.tok->decode(context);
    EXPECT_TRUE(testing::canonical_continuation_exists(
        *f.tok, context, text, "abc", f.tok->max_token_length() + 1))
        << "evaluated a doomed body: " << text;
  }

  const CompiledQuery probed = testing::without_masks(f.compiled);
  ShortestPathSearch plain(*f.model, probed, query);
  expect_exact_match(results, plain.all());
}

// Streams draw among flagged steps but retire on drawing one, so neither a
// GenerateEngine (at any thread count) nor RandomSampler scores a doomed
// body: every context the model sees still has a canonical continuation.
// Retiring early changes no engine stream's output: each matches its solo
// run.
TEST(ExecutorEdges, StreamsNeverEvaluateDoomedBodies) {
  const Fixture f = settlement_fixture();
  constexpr std::size_t kStreams = 64;
  constexpr std::uint64_t kSeed = 7;
  auto expect_no_doomed_context = [&](const RecordingModel& model,
                                      std::size_t llm_calls) {
    const std::vector<std::vector<TokenId>> contexts = model.contexts();
    ASSERT_EQ(contexts.size(), llm_calls);
    for (const std::vector<TokenId>& context : contexts) {
      const std::string text = f.tok->decode(context);
      EXPECT_TRUE(testing::canonical_continuation_exists(
          *f.tok, context, text, "abc", f.tok->max_token_length() + 1))
          << "evaluated a doomed body: " << text;
    }
  };

  const std::size_t restore = util::ThreadPool::shared().threads();
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    util::ThreadPool::set_shared_threads(threads);
    RecordingModel model(*f.model);
    generate::GenerateEngine engine(model, f.compiled, f.query, kSeed);
    for (std::size_t i = 0; i < kStreams; ++i) engine.add_stream();
    engine.run();
    EXPECT_GT(engine.stats().pruned_non_canonical, 0u);
    expect_no_doomed_context(model, engine.stats().llm_calls);
    for (std::size_t i = 0; i < kStreams; ++i) {
      generate::GenerateEngine solo(*f.model, f.compiled, f.query, kSeed);
      generate::StreamSpec spec;
      spec.rng_stream = i;
      const generate::GenerateEngine::StreamId id = solo.add_stream(spec);
      solo.run();
      ASSERT_EQ(engine.state(i), solo.state(id)) << "stream " << i;
      if (const auto& want = solo.result(id)) {
        expect_exact_match({*engine.result(i)}, {*want});
      }
    }
  }
  util::ThreadPool::set_shared_threads(restore);

  SimpleSearchQuery query = f.query;
  query.num_samples = kStreams;
  RecordingModel model(*f.model);
  RandomSampler sampler(model, f.compiled, query, kSeed);
  const std::vector<SearchResult> samples = sampler.sample_all();
  EXPECT_FALSE(samples.empty());
  EXPECT_EQ(testing::check_samples(*f.model, f.compiled, query, samples, 1e-9),
            std::nullopt);
  EXPECT_GT(sampler.stats().pruned_non_canonical, 0u);
  expect_no_doomed_context(model, sampler.stats().llm_calls);
}

// A flagged step whose prefix is still live is kept: a later prefix-only
// step restarts the body run below it. Here [x, a, b] dooms the body [a, b]
// ("ab" is a token) less than max_token_length (3, from "zzz") bytes back,
// yet z continues the prefix x(a|b|z)* and y then matches a fresh body, so
// [x, a, b, z, y] is a match — and, under this model, the most probable
// encoding of "xabzy".
Fixture live_prefix_fixture() {
  std::vector<std::string> vocab{"", "a", "b", "ab", "x", "y", "z", "zzz"};
  auto tok = std::make_shared<tokenizer::BpeTokenizer>(
      tokenizer::BpeTokenizer::from_vocab(vocab));
  testing::ModelSpec spec;
  spec.kind = testing::ModelSpec::Kind::kNgram;
  spec.vocab_size = vocab.size();
  spec.eos = 0;
  for (int i = 0; i < 8; ++i) spec.sequences.push_back({4, 1, 2, 6, 5});
  SimpleSearchQuery query;
  query.query_string = {"x(a|b|z)*(a|b)*y", "x(a|b|z)*"};
  query.sequence_length = 5;
  query.max_results = 1000;
  CompiledQuery compiled = CompiledQuery::compile(query, *tok);
  return {std::move(tok), spec.build(), std::move(query), std::move(compiled)};
}

TEST(ExecutorEdges, LivePrefixKeepsDoomedBodyStep) {
  const Fixture f = live_prefix_fixture();
  ASSERT_TRUE(f.compiled.dynamic_canonical());

  ShortestPathSearch search(*f.model, f.compiled, f.query);
  bool found = false;
  for (const SearchResult& r : search.all()) {
    if (r.text == "xabzy") {
      EXPECT_EQ(r.tokens, (std::vector<TokenId>{4, 1, 2, 6, 5}));
      found = true;
    }
  }
  EXPECT_TRUE(found);
  expect_all_executors_match_oracle(f);
}

// --------------------------------------------------------------------------
// Pop order. Each case's digest was recorded from a frontier that held one
// node per discovered child, keyed (cost, node id); a frontier that builds
// nodes lazily must pop the same nodes in the same order: the same model
// calls, results and counters. pruned_non_canonical is left out (it counts
// only the children a search looks at) and so are the emission stamps.

void mix_results(Fnv& digest, const std::vector<SearchResult>& results) {
  digest.mix(results.size());
  for (const SearchResult& r : results) {
    digest.mix(r.tokens.size());
    for (TokenId t : r.tokens) digest.mix(t);
    digest.mix(std::bit_cast<std::uint64_t>(r.log_prob));
  }
}

void mix_counters(Fnv& digest, const SearchStats& s) {
  for (std::size_t v :
       {s.pruned_by_rules, s.mask_words_scanned, s.mask_pruned, s.llm_calls,
        s.expansions, s.sample_attempts, s.sample_dead_ends, s.pump_rounds,
        s.speculative_expanded, s.speculative_cancelled, s.speculative_wasted,
        s.horizon_clips, s.frontier_shard_steals, s.mask_memo_hits,
        s.mask_memo_misses, s.cache_hits, s.cache_misses, s.cache_evictions}) {
    digest.mix(v);
  }
}

struct PopOrderCase {
  const char* name;
  Fixture (*make)();
  bool canonical_pruning;   // the search drops children for canonicality
  bool wide;                // every brood offers 40 children or more
  std::uint64_t strict;     // contexts, results and counters, max_in_flight 1
  std::uint64_t pipelined;  // results and counters, max_in_flight 8 and 64
};

// Uniform costs tie exactly at every depth; the budget cuts the search
// mid-frontier.
Fixture tied_budget_fixture() {
  SimpleSearchQuery base;
  base.sequence_length = 6;
  base.max_results = 100;
  base.max_expansions = 13;
  return uniform_fixture({"", "a", "b"}, "(a|b)*", base);
}

// require_eos: every match adds an EOS child after its steps.
Fixture require_eos_fixture() {
  SimpleSearchQuery base;
  base.sequence_length = 5;
  base.max_results = 100;
  base.require_eos = true;
  return skewed_fixture({"", "a", "b"}, "(a|b)+", base);
}

// Uniform rows over a two-token window, so the contexts a search evaluates
// record the order in which it expands nodes.
class WindowedUniformModel : public model::UniformModel {
 public:
  using UniformModel::UniformModel;
  std::size_t relevant_context_length() const override { return 2; }
};

// Wide broods: EOS, four prefix digits, then 40 body letters. A body state
// offers 40 steps (and EOS at a match), the hand-off state 44: its 40 letters
// come first in step order, its prefix-only digits first in token order.
Fixture wide_fixture(std::shared_ptr<model::LanguageModel> model,
                     SimpleSearchQuery query) {
  std::vector<std::string> vocab{""};
  for (char c = '0'; c <= '3'; ++c) vocab.emplace_back(1, c);
  for (char c = 'a'; c <= 'z'; ++c) vocab.emplace_back(1, c);
  for (char c = 'A'; c <= 'N'; ++c) vocab.emplace_back(1, c);
  auto tok = std::make_shared<tokenizer::BpeTokenizer>(
      tokenizer::BpeTokenizer::from_vocab(std::move(vocab)));
  query.query_string = {"[0-3]*[a-zA-N]+", "[0-3]*"};
  CompiledQuery compiled = CompiledQuery::compile(query, *tok);
  return {std::move(tok), std::move(model), std::move(query), std::move(compiled)};
}

// Uniform costs with require_eos: every sibling ties, the EOS child included,
// so step index alone orders each brood's pops. The budget runs out inside
// the second brood of two-letter paths.
Fixture wide_tied_fixture() {
  SimpleSearchQuery query;
  query.sequence_length = 3;
  query.max_results = 100;
  query.require_eos = true;
  query.max_expansions = 105;
  return wide_fixture(std::make_shared<WindowedUniformModel>(45, 0, 24), query);
}

// Skewed costs: token frequencies scrambled against token order, so costs,
// not step indices, decide which candidates each batch takes.
Fixture wide_skewed_fixture() {
  testing::ModelSpec spec;
  spec.kind = testing::ModelSpec::Kind::kNgram;
  spec.vocab_size = 45;
  spec.eos = 0;
  for (TokenId t = 1; t < 45; ++t) {
    for (TokenId r = 0; r <= (t * 7) % 11; ++r) spec.sequences.push_back({t});
  }
  SimpleSearchQuery query;
  query.sequence_length = 2;
  query.max_results = 40;
  return wide_fixture(spec.build(), query);
}

TEST(ExecutorEdges, ShortestPathPopOrderPinned) {
  const PopOrderCase cases[] = {
      {"settlement", settlement_fixture, true, false, 0x9d77a8df0798988cull,
       0x1b9bed82933b1391ull},
      {"live_prefix", live_prefix_fixture, true, false, 0xdee5180b2b381508ull,
       0x0990349b88bce60aull},
      {"tied_budget", tied_budget_fixture, false, false, 0xb9a9357438348e33ull,
       0xfe9cc4ecdcca927dull},
      {"require_eos", require_eos_fixture, false, false, 0x3674ad6ec6653893ull,
       0x4a237149eb704b8bull},
      {"wide_tied", wide_tied_fixture, false, true, 0x2e96cb02aa8138c3ull,
       0x27780a137fd799f9ull},
      {"wide_skewed", wide_skewed_fixture, false, true, 0x09889812e20ca89bull,
       0x457f5975cffcfbb4ull},
  };
  const std::size_t restore = util::ThreadPool::shared().threads();
  for (const PopOrderCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Fixture f = c.make();
    if (c.canonical_pruning) {
      ASSERT_TRUE(f.compiled.dynamic_canonical());
    }
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(threads);
      util::ThreadPool::set_shared_threads(threads);

      SimpleSearchQuery strict = f.query;
      strict.max_in_flight = 1;
      RecordingModel model(*f.model);
      ShortestPathSearch search(model, f.compiled, strict);
      const std::vector<SearchResult> results = search.all();
      Fnv digest;
      for (const std::vector<TokenId>& context : model.contexts()) {
        digest.mix(context.size());
        for (TokenId t : context) digest.mix(t);
      }
      mix_results(digest, results);
      mix_counters(digest, search.stats());
      EXPECT_EQ(digest.value, c.strict) << std::hex << digest.value;
      const SearchStats& s = search.stats();
      EXPECT_EQ(s.pruned_non_canonical > 0, c.canonical_pruning);
      EXPECT_LE(s.children_built, s.children_discovered);
      if (c.wide) {
        // Every expansion here offers 40 children or more and sorts the
        // four cheapest. A brood that pops past them sorts another batch,
        // and the search ends with children it never sorted.
        EXPECT_GT(s.children_built, 4 * s.expansions);
        EXPECT_LT(s.children_built, s.children_discovered);
      }

      Fnv piped;
      for (std::size_t width : {std::size_t{8}, std::size_t{64}}) {
        SimpleSearchQuery query = f.query;
        query.max_in_flight = width;
        ShortestPathSearch pipelined(*f.model, f.compiled, query);
        mix_results(piped, pipelined.all());
        mix_counters(piped, pipelined.stats());
      }
      EXPECT_EQ(piped.value, c.pipelined) << std::hex << piped.value;
    }
  }
  util::ThreadPool::set_shared_threads(restore);
}

// The wide fixtures, run to exhaustion, on the masked compile and on its
// probe-path copy.
TEST(ExecutorEdges, WideBroodsMatchOracle) {
  for (Fixture (*make)() : {wide_tied_fixture, wide_skewed_fixture}) {
    Fixture f = make();
    f.query.max_expansions = SimpleSearchQuery{}.max_expansions;
    ASSERT_TRUE(f.compiled.has_masks());
    expect_all_executors_match_oracle(f);
    f.compiled = testing::without_masks(f.compiled);
    expect_all_executors_match_oracle(f);
  }
}

// A pipelined search holds a match back until no frontier node could beat
// it, which can be rounds after it was found. Its stamps are read when
// next() releases it, so each equals the search's totals at that moment.
TEST(ExecutorEdges, ResultStampsReadAtRelease) {
  const Fixture fixtures[] = {tied_budget_fixture(), settlement_fixture()};
  for (const Fixture& f : fixtures) {
    for (std::size_t width : {std::size_t{8}, std::size_t{64}}) {
      SCOPED_TRACE(width);
      SimpleSearchQuery query = f.query;
      query.max_in_flight = width;
      query.max_expansions = 20000;
      ShortestPathSearch search(*f.model, f.compiled, query);
      std::size_t released = 0;
      while (const std::optional<SearchResult> r = search.next()) {
        ++released;
        EXPECT_EQ(r->llm_calls_at_emission, search.stats().llm_calls)
            << r->text;
        EXPECT_EQ(r->seconds_at_emission, search.stats().elapsed_seconds)
            << r->text;
      }
      EXPECT_GT(released, 4u);
    }
  }
}

}  // namespace
}  // namespace relm::core
