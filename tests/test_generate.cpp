// Properties of the batched multi-stream generation engine
// (src/core/generate/): per-stream RNG isolation, batched-vs-solo
// equivalence across thread counts, suspend/resume and late-join
// equivalence, EOS/budget retirement edges, and oracle-checked conditional
// probabilities of the emitted samples. Plus the StreamRng regression pin:
// stream 0 must reproduce the bare Pcg32 sequence the sampler has always
// used, bit for bit.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/generate/generate_engine.hpp"
#include "model/ngram_model.hpp"
#include "testing/generators.hpp"
#include "testing/oracle.hpp"
#include "tokenizer/bpe.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace relm::core::generate {
namespace {

using tokenizer::TokenId;

// ---------------------------------------------------------------------------
// StreamRng: the named per-stream seeding shared by the sampler and the
// engine.

// Stream 0 IS Pcg32(master): the sampler predates multi-stream generation
// and its RNG stream must not move when seeding goes through StreamRng.
TEST(StreamRng, StreamZeroMatchesBarePcg32BitForBit) {
  for (std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
        std::uint64_t{0xdeadbeef}, util::StreamRng::kDefaultSeed}) {
    util::Pcg32 bare(seed);
    util::Pcg32 stream0 = util::StreamRng::stream(seed, 0);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(bare.next(), stream0.next()) << "seed " << seed;
    }
  }
}

// Golden pin: these draws were recorded when StreamRng was introduced. If
// this test breaks, every stored seed in every script and doc changes
// meaning — do not update the constants without a migration note.
TEST(StreamRng, GoldenDrawsArePinned) {
  const std::uint32_t want0[] = {0x713066eau, 0x3c7a0d56u, 0xf424216au,
                                 0x25c89145u};
  const std::uint32_t want1[] = {0xbf8b8e1au, 0x530db62fu, 0x59f309ceu,
                                 0xa2fc55e9u};
  const std::uint32_t want2[] = {0x2297b6c3u, 0xd850c4feu, 0x33c31a1du,
                                 0x247b29e3u};
  util::Pcg32 s0 = util::StreamRng::stream(42, 0);
  util::Pcg32 s1 = util::StreamRng::stream(42, 1);
  util::Pcg32 s2 = util::StreamRng::stream(42, 2);
  for (std::uint32_t want : want0) EXPECT_EQ(s0.next(), want);
  for (std::uint32_t want : want1) EXPECT_EQ(s1.next(), want);
  for (std::uint32_t want : want2) EXPECT_EQ(s2.next(), want);
}

TEST(StreamRng, StreamsAreIndependentAndReproducible) {
  // Same (master, index) twice -> identical draws; different indices ->
  // different draws (the splitmix64 mix plus distinct PCG sequence constants
  // make a collision effectively impossible for small indices).
  for (std::uint64_t index : {std::uint64_t{0}, std::uint64_t{1},
                              std::uint64_t{2}, std::uint64_t{7},
                              std::uint64_t{63}}) {
    util::Pcg32 a = util::StreamRng::stream(9, index);
    util::Pcg32 b = util::StreamRng::stream(9, index);
    for (int i = 0; i < 16; ++i) ASSERT_EQ(a.next(), b.next());
  }
  util::Pcg32 s1 = util::StreamRng::stream(9, 1);
  util::Pcg32 s2 = util::StreamRng::stream(9, 2);
  bool all_equal = true;
  for (int i = 0; i < 16; ++i) all_equal &= (s1.next() == s2.next());
  EXPECT_FALSE(all_equal);
}

// ---------------------------------------------------------------------------
// Engine fixtures.

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
  return {std::move(tok), std::move(model), std::move(base),
          std::move(compiled)};
}

// Everything a stream emitted, for byte-identical comparison.
struct StreamOutput {
  StreamState state;
  std::vector<TokenId> tokens;
  std::string text;
  double log_prob = 0.0;

  bool operator==(const StreamOutput&) const = default;
};

StreamOutput snapshot(const GenerateEngine& engine,
                      GenerateEngine::StreamId id) {
  StreamOutput out{engine.state(id), {}, "", 0.0};
  if (const auto& r = engine.result(id)) {
    out.tokens = r->tokens;
    out.text = r->text;
    out.log_prob = r->log_prob;
  }
  return out;
}

// Runs stream `rng_stream` alone in its own engine and returns its output.
StreamOutput solo_run(const Fixture& f, std::uint64_t master_seed,
                      std::uint64_t rng_stream, StreamSpec spec = {}) {
  GenerateEngine engine(*f.model, f.compiled, f.query, master_seed);
  spec.rng_stream = rng_stream;
  const GenerateEngine::StreamId id = engine.add_stream(spec);
  engine.run();
  return snapshot(engine, id);
}

// ---------------------------------------------------------------------------
// Engine <-> sampler equivalence: a default-spec stream at rng_stream 0 is
// exactly one RandomSampler attempt with the same seed.

// FNV-1a over each attempt's (state, tokens, log_prob bits).
struct AttemptDigest {
  std::uint64_t value = 14695981039346656037ull;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      value ^= (v >> (8 * i)) & 0xffu;
      value *= 1099511628211ull;
    }
  }
  void add(StreamState state, const std::vector<TokenId>& tokens,
           double log_prob) {
    mix(static_cast<std::uint64_t>(state));
    if (state != StreamState::kDone) return;
    mix(tokens.size());
    for (TokenId t : tokens) mix(t);
    mix(std::bit_cast<std::uint64_t>(log_prob));
  }
};

// Skewed n-gram model under top-k 3 over an infinite canonical language, so
// the rule mask prunes and dynamic canonicality rejects candidates.
Fixture topk_canonical_fixture() {
  std::vector<std::string> vocab{"", "a", "b", "c", "ab", "bc"};
  auto tok = std::make_shared<tokenizer::BpeTokenizer>(
      tokenizer::BpeTokenizer::from_vocab(vocab));
  testing::ModelSpec spec;
  spec.kind = testing::ModelSpec::Kind::kNgram;
  spec.vocab_size = vocab.size();
  spec.eos = 0;
  spec.sequences = {{1, 2, 3}, {4, 3}, {1, 5}, {2, 2, 1}, {3, 1, 4}};
  SimpleSearchQuery query;
  query.query_string = {"[abc]+", ""};
  query.decoding.top_k = 3;
  query.sequence_length = 6;
  CompiledQuery compiled = CompiledQuery::compile(query, *tok);
  return {std::move(tok), spec.build(), std::move(query), std::move(compiled)};
}

TEST(GenerateEngine, SingleStreamMatchesSamplerAttemptByteForByte) {
  // The digests over seeds 0-23 were recorded while the sampler still ran
  // its own body loop, so they pin both draw sequences to that reference.
  struct Case {
    Fixture f;
    std::uint64_t digest;
  };
  Case cases[] = {
      {uniform_fixture({"", "a", "b", "ab", "c"}, "(a|b|c){1,4}"),
       0xb68a549c1f0721e4ull},
      {topk_canonical_fixture(), 0xea9460309b10cf6aull},
  };
  ASSERT_TRUE(cases[1].f.compiled.dynamic_canonical());
  for (const Case& c : cases) {
    AttemptDigest sampler_digest, stream_digest;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      RandomSampler sampler(*c.f.model, c.f.compiled, c.f.query, seed);
      const std::optional<SearchResult> want = sampler.sample_once();
      sampler_digest.add(want ? StreamState::kDone : StreamState::kDeadEnd,
                         want ? want->tokens : std::vector<TokenId>{},
                         want ? want->log_prob : 0.0);
      const StreamOutput got = solo_run(c.f, seed, /*rng_stream=*/0);
      stream_digest.add(got.state, got.tokens, got.log_prob);
    }
    EXPECT_EQ(sampler_digest.value, c.digest);
    EXPECT_EQ(stream_digest.value, c.digest);
  }
}

// ---------------------------------------------------------------------------
// RNG isolation: co-tenants cannot perturb a stream.

TEST(GenerateEngine, CoTenantsNeverChangeAStreamsOutput) {
  Fixture f = uniform_fixture({"", "a", "b", "ab"}, "(a|b){1,6}");
  const std::uint64_t seed = 5;

  const StreamOutput solo0 = solo_run(f, seed, 0);
  const StreamOutput solo1 = solo_run(f, seed, 1);

  // Two co-tenants.
  {
    GenerateEngine engine(*f.model, f.compiled, f.query, seed);
    auto id0 = engine.add_stream();
    auto id1 = engine.add_stream();
    engine.run();
    EXPECT_EQ(snapshot(engine, id0), solo0);
    EXPECT_EQ(snapshot(engine, id1), solo1);
  }

  // Eight co-tenants, one cancelled mid-run: streams 0 and 1 still match
  // their solo runs exactly.
  {
    GenerateEngine engine(*f.model, f.compiled, f.query, seed);
    std::vector<GenerateEngine::StreamId> ids;
    for (int i = 0; i < 8; ++i) ids.push_back(engine.add_stream());
    engine.tick();
    engine.cancel(ids[7]);
    engine.run();
    EXPECT_EQ(engine.state(ids[7]), StreamState::kCancelled);
    EXPECT_EQ(snapshot(engine, ids[0]), solo0);
    EXPECT_EQ(snapshot(engine, ids[1]), solo1);
  }
}

// ---------------------------------------------------------------------------
// Cursor control: suspend/resume and late joiners change scheduling, never
// content.

TEST(GenerateEngine, SuspendResumeIsOutputNeutral) {
  Fixture f = uniform_fixture({"", "a", "b"}, "(a|b){2,8}");
  const std::uint64_t seed = 11;
  const StreamOutput solo0 = solo_run(f, seed, 0);
  const StreamOutput solo1 = solo_run(f, seed, 1);

  GenerateEngine engine(*f.model, f.compiled, f.query, seed);
  auto id0 = engine.add_stream();
  auto id1 = engine.add_stream();
  engine.tick();  // both activate and take their first step
  engine.suspend(id1);
  engine.tick();  // stream 0 runs alone
  engine.tick();
  engine.resume(id1);
  engine.run();
  EXPECT_EQ(snapshot(engine, id0), solo0);
  EXPECT_EQ(snapshot(engine, id1), solo1);
}

TEST(GenerateEngine, SuspendBeforeFirstTickStillActivatesOnResume) {
  Fixture f = uniform_fixture({"", "a", "b"}, "(a|b){1,4}");
  const std::uint64_t seed = 3;
  const StreamOutput solo1 = solo_run(f, seed, 1);

  GenerateEngine engine(*f.model, f.compiled, f.query, seed);
  auto id0 = engine.add_stream();
  auto id1 = engine.add_stream();
  engine.suspend(id1);  // never ran: must not skip prefix activation later
  engine.run();         // drives stream 0 to retirement, stream 1 frozen
  EXPECT_EQ(engine.live_streams(), 1u);
  engine.resume(id1);
  engine.run();
  EXPECT_EQ(snapshot(engine, id1), solo1);
  (void)id0;
}

TEST(GenerateEngine, LateJoinersMatchTheirSoloRuns) {
  Fixture f = uniform_fixture({"", "a", "b"}, "(a|b){2,8}");
  const std::uint64_t seed = 17;
  const StreamOutput solo2 = solo_run(f, seed, 2);

  GenerateEngine engine(*f.model, f.compiled, f.query, seed);
  engine.add_stream();
  engine.add_stream();
  engine.tick();
  engine.tick();
  StreamSpec spec;
  spec.rng_stream = 2;
  auto late = engine.add_stream(spec);  // enters at the next tick
  engine.run();
  EXPECT_EQ(snapshot(engine, late), solo2);
}

// ---------------------------------------------------------------------------
// Retirement edges: token budget and EOS.

TEST(GenerateEngine, BudgetExhaustionAtNonFinalStateIsADeadEnd) {
  // "a{5}" needs five body tokens; a two-token budget can never reach a
  // final state, so the stream must retire kDeadEnd with no result.
  Fixture f = uniform_fixture({"", "a"}, "a{5}");
  StreamSpec spec;
  spec.max_new_tokens = 2;
  StreamOutput out = solo_run(f, 1, 0, spec);
  EXPECT_EQ(out.state, StreamState::kDeadEnd);
  EXPECT_TRUE(out.tokens.empty());
}

TEST(GenerateEngine, BudgetExhaustionAtFinalStateAccepts) {
  // After two 'a' tokens the automaton for "a{2,5}" is final; exhausting the
  // budget there accepts, exactly like the sampler's sequence budget.
  Fixture f = uniform_fixture({"", "a"}, "a{2,5}");
  StreamSpec spec;
  spec.max_new_tokens = 2;
  StreamOutput out = solo_run(f, 1, 0, spec);
  ASSERT_EQ(out.state, StreamState::kDone);
  EXPECT_EQ(out.text, "aa");
}

TEST(GenerateEngine, EosRetirementEmitsOnlyLanguageStrings) {
  // At final states EOS competes with the continuations; whenever it wins
  // the stream retires kDone with a string of the language.
  Fixture f = uniform_fixture({"", "a"}, "a{1,3}");
  GenerateEngine engine(*f.model, f.compiled, f.query, 7);
  for (int i = 0; i < 16; ++i) engine.add_stream();
  engine.run();
  std::size_t done = 0;
  for (GenerateEngine::StreamId id = 0; id < engine.num_streams(); ++id) {
    if (engine.state(id) != StreamState::kDone) continue;
    ++done;
    const std::string& text = engine.result(id)->text;
    EXPECT_TRUE(text == "a" || text == "aa" || text == "aaa") << text;
  }
  EXPECT_GT(done, 0u);
  EXPECT_EQ(engine.live_streams(), 0u);
  EXPECT_EQ(engine.stats().streams_retired, engine.num_streams());
}

// ---------------------------------------------------------------------------
// The tentpole invariant, at test scale: a 64-stream batch is byte-identical
// per stream to its solo runs, at every thread count.

TEST(GenerateEngine, SixtyFourStreamsMatchSoloAtEveryThreadCount) {
  Fixture f = uniform_fixture({"", "a", "b", "ab", "c"}, "(a|b|c|ab){1,6}");
  const std::uint64_t seed = 29;
  constexpr std::size_t kStreams = 64;

  const std::size_t restore = util::ThreadPool::shared().threads();
  util::ThreadPool::set_shared_threads(1);
  std::vector<StreamOutput> solo;
  for (std::size_t i = 0; i < kStreams; ++i) {
    solo.push_back(solo_run(f, seed, i));
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    util::ThreadPool::set_shared_threads(threads);
    GenerateEngine engine(*f.model, f.compiled, f.query, seed);
    for (std::size_t i = 0; i < kStreams; ++i) engine.add_stream();
    engine.run();
    for (std::size_t i = 0; i < kStreams; ++i) {
      ASSERT_EQ(snapshot(engine, i), solo[i])
          << "stream " << i << " threads " << threads;
    }
  }
  util::ThreadPool::set_shared_threads(restore);
}

// ---------------------------------------------------------------------------
// Oracle: the engine's accepted samples carry correct conditional
// probabilities, validated by the same machinery that checks the sampler.

TEST(GenerateEngine, DoneResultsPassOracleCheckSamples) {
  Fixture f = uniform_fixture({"", "a", "b", "ab"}, "(a|b|ab){1,4}");
  GenerateEngine engine(*f.model, f.compiled, f.query, 13);
  for (int i = 0; i < 24; ++i) engine.add_stream();
  engine.run();

  std::vector<SearchResult> samples;
  for (GenerateEngine::StreamId id = 0; id < engine.num_streams(); ++id) {
    if (engine.state(id) == StreamState::kDone) {
      samples.push_back(*engine.result(id));
    }
  }
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(testing::check_samples(*f.model, f.compiled, f.query, samples,
                                   1e-9),
            std::nullopt);
}

// Mask reuse is counted once per unique row: every row of a restricted run
// carries a mask, and a second pass through a warm logit cache reuses them
// all. An unrestricted run carries none.
TEST(GenerateEngine, CountsMaskReusePerUniqueRow) {
  Fixture f = topk_canonical_fixture();
  auto cached = std::make_shared<model::CachingModel>(f.model, 1 << 12);
  auto run = [&](const model::LanguageModel& model, const Fixture& fx) {
    GenerateEngine engine(model, fx.compiled, fx.query, 3);
    for (int i = 0; i < 16; ++i) engine.add_stream();
    engine.run();
    return engine.stats();
  };
  const GenerateStats cold = run(*cached, f);
  EXPECT_GT(cold.llm_calls, 0u);
  EXPECT_GT(cold.mask_memo_misses, 0u);
  EXPECT_EQ(cold.mask_memo_hits + cold.mask_memo_misses, cold.llm_calls);
  const GenerateStats warm = run(*cached, f);
  EXPECT_EQ(warm.llm_calls, cold.llm_calls);
  EXPECT_EQ(warm.mask_memo_hits, warm.llm_calls);
  EXPECT_EQ(warm.mask_memo_misses, 0u);

  Fixture plain = uniform_fixture({"", "a", "b"}, "(a|b){2,8}");
  const GenerateStats unrestricted = run(*plain.model, plain);
  EXPECT_GT(unrestricted.llm_calls, 0u);
  EXPECT_EQ(unrestricted.mask_memo_hits + unrestricted.mask_memo_misses, 0u);
}

// Engine bookkeeping: dedup hits are real (lock-step streams share evals)
// and the stats add up.
TEST(GenerateEngine, LockStepStreamsShareModelEvaluations) {
  // Two streams with the SAME rng_stream walk identical paths, so every tick
  // evaluates one unique context and the second stream is a dedup hit.
  Fixture f = uniform_fixture({"", "a", "b"}, "(a|b){2,8}");
  GenerateEngine engine(*f.model, f.compiled, f.query, 19);
  StreamSpec spec;
  spec.rng_stream = 4;
  auto id0 = engine.add_stream(spec);
  auto id1 = engine.add_stream(spec);
  engine.run();
  EXPECT_EQ(snapshot(engine, id0), snapshot(engine, id1));
  EXPECT_GT(engine.stats().batch_dedup_hits, 0u);
  EXPECT_EQ(engine.stats().streams_retired, 2u);
}

}  // namespace
}  // namespace relm::core::generate
