// Tests for the compile pass pipeline, the RELM_ARTIFACT container, and the
// content-addressed artifact cache (src/core/pipeline/).
//
// The load-bearing guarantee is byte-identity: a query compiled fresh, served
// from the in-memory cache, or reloaded from a serialized artifact must drive
// the executors to exactly the same matches at exactly the same costs. The
// Equivalence tests prove that end to end for both tokenization strategies,
// including the dynamic-canonical fallback.

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/pipeline/artifact.hpp"
#include "core/pipeline/cache.hpp"
#include "core/pipeline/pipeline.hpp"
#include "core/preprocessors.hpp"
#include "model/ngram_model.hpp"
#include "tokenizer/bpe.hpp"
#include "util/errors.hpp"

namespace relm {
namespace {

using core::SimpleSearchQuery;
using core::TokenizationStrategy;
using core::pipeline::ArtifactCache;
using core::pipeline::ArtifactCacheConfig;
using core::pipeline::ArtifactKey;
using core::pipeline::Component;
using core::pipeline::QueryArtifact;
using core::pipeline::Side;
using tokenizer::BpeTokenizer;

const BpeTokenizer& fixture_tokenizer() {
  static const BpeTokenizer tok = [] {
    std::string text;
    for (int i = 0; i < 60; ++i) {
      text += "The cat sat on the mat. The dog ran far. ";
      text += "abe acde abbbe fine dine. ";
    }
    BpeTokenizer::TrainConfig config;
    config.vocab_size = 400;
    return BpeTokenizer::train(text, config);
  }();
  return tok;
}

std::shared_ptr<model::NgramModel> fixture_model() {
  static const std::shared_ptr<model::NgramModel> model = [] {
    model::NgramModel::Config config;
    config.order = 4;
    config.alpha = 0.3;
    config.max_sequence_length = 48;
    std::vector<std::string> docs;
    for (int i = 0; i < 30; ++i) {
      docs.push_back("The cat sat on the mat.");
      docs.push_back("The dog ran far.");
      docs.push_back("abe acde abbbe.");
    }
    return model::NgramModel::train(fixture_tokenizer(), docs, config);
  }();
  return model;
}

SimpleSearchQuery make_query(const std::string& pattern,
                             TokenizationStrategy strategy,
                             const std::string& prefix = "") {
  SimpleSearchQuery query;
  query.query_string.query_str = pattern;
  query.query_string.prefix_str = prefix;
  query.tokenization_strategy = strategy;
  query.max_results = 20;
  return query;
}

// A scratch directory unique to the test, removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("relm_pipeline_test_" + name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

// ---------------------------------------------------------------------------
// Pipeline structure
// ---------------------------------------------------------------------------

TEST(Pipeline, StandardPassSequence) {
  std::vector<std::string> names;
  for (const char* name : core::pipeline::Pipeline::standard().pass_names()) {
    names.push_back(name);
  }
  EXPECT_THAT(names,
              testing::ElementsAre("parse", "thompson", "determinize",
                                   "minimize", "preprocess", "token_lift",
                                   "token_masks"));
}

TEST(Pipeline, RunRecordsEveryPass) {
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  core::pipeline::CompileResult result = core::pipeline::Pipeline::standard().run(
      query, Side::kBody, fixture_tokenizer());
  ASSERT_EQ(result.passes.size(), 7u);
  EXPECT_STREQ(result.passes.front().name, "parse");
  EXPECT_STREQ(result.passes.back().name, "token_masks");
  for (const auto& record : result.passes) {
    EXPECT_GE(record.seconds, 0.0) << record.name;
  }
  EXPECT_EQ(result.automaton.dfa.num_symbols(), fixture_tokenizer().vocab_size());
  EXPECT_FALSE(result.automaton.masks.empty());
}

TEST(Pipeline, StateExposesIntermediates) {
  SimpleSearchQuery query = make_query(
      "The ((cat)|(dog))", TokenizationStrategy::kCanonicalTokens, "The ");
  const core::pipeline::Pipeline& standard = core::pipeline::Pipeline::standard();
  core::pipeline::CompileState body =
      standard.run_to_state(query, Side::kBody, fixture_tokenizer());
  core::pipeline::CompileState prefix =
      standard.run_to_state(query, Side::kPrefix, fixture_tokenizer());
  ASSERT_TRUE(body.ast != nullptr);
  ASSERT_TRUE(body.nfa.has_value());
  ASSERT_TRUE(body.chars.has_value());
  ASSERT_TRUE(prefix.chars.has_value());
  ASSERT_TRUE(body.tokens.has_value());
  EXPECT_FALSE(body.tokens->masks.empty());  // token_masks ran last
  EXPECT_EQ(body.pattern, "((cat)|(dog))");
  EXPECT_EQ(prefix.pattern, "The ");
  // The char-level DFA operates over bytes; the token automaton over the
  // vocabulary.
  EXPECT_EQ(body.chars->num_symbols(), 256u);
  EXPECT_EQ(body.tokens->dfa.num_symbols(), fixture_tokenizer().vocab_size());
}

TEST(Pipeline, EmptyPrefixSkipsPrefixStages) {
  // A prefix-only preprocessor that would rewrite any language it touched:
  // the ε prefix is built without a pipeline run, so it stays {ε}.
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  query.preprocessors.push_back(std::make_shared<core::LevenshteinPreprocessor>(
      1, core::Preprocessor::Target::kPrefix));
  QueryArtifact artifact =
      core::pipeline::compile_query_artifact(query, fixture_tokenizer());
  // The epsilon prefix automaton: accepts only the empty token sequence.
  const automata::Dfa& prefix = artifact.prefix->automaton.dfa;
  EXPECT_EQ(prefix.num_states(), 1u);
  EXPECT_TRUE(prefix.is_final(prefix.start()));
  EXPECT_EQ(prefix, core::epsilon_token_automaton(fixture_tokenizer()).dfa);
}

TEST(Pipeline, InvalidRegexThrowsRegexError) {
  SimpleSearchQuery query =
      make_query("(unclosed", TokenizationStrategy::kCanonicalTokens);
  EXPECT_THROW(core::pipeline::Pipeline::standard().run(query, Side::kBody,
                                                        fixture_tokenizer()),
               relm::RegexError);
}

// ---------------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------------

TEST(ArtifactKey, StableAcrossCalls) {
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  auto k1 = core::pipeline::derive_artifact_key(query, fixture_tokenizer());
  auto k2 = core::pipeline::derive_artifact_key(query, fixture_tokenizer());
  ASSERT_TRUE(k1 && k2);
  EXPECT_EQ(*k1, *k2);
  EXPECT_FALSE(k1->is_zero());
}

TEST(ArtifactKey, SensitiveToEveryInput) {
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery base =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  auto base_key = core::pipeline::derive_artifact_key(base, tok);
  ASSERT_TRUE(base_key);

  SimpleSearchQuery other = base;
  other.query_string.query_str = "(cat)|(dot)";
  EXPECT_NE(*core::pipeline::derive_artifact_key(other, tok), *base_key);

  other = base;
  other.tokenization_strategy = TokenizationStrategy::kAllTokens;
  EXPECT_NE(*core::pipeline::derive_artifact_key(other, tok), *base_key);

  other = base;
  other.canonical_enumeration_budget = 7;
  EXPECT_NE(*core::pipeline::derive_artifact_key(other, tok), *base_key);

  other = base;
  other.preprocessors.push_back(
      std::make_shared<core::LevenshteinPreprocessor>(1));
  EXPECT_NE(*core::pipeline::derive_artifact_key(other, tok), *base_key);

  // Same pattern against a different vocabulary must produce a different key.
  BpeTokenizer::TrainConfig config;
  config.vocab_size = 300;
  BpeTokenizer other_tok =
      BpeTokenizer::train("cat dog cat dog cat dog mat hat", config);
  EXPECT_NE(*core::pipeline::derive_artifact_key(base, other_tok), *base_key);
}

TEST(ArtifactKey, PrefixVersusPatternSplit) {
  // "The cat" with and without a prefix are different compiles (the prefix
  // machine bypasses decoding rules) and must not share a key.
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery no_prefix =
      make_query("The cat", TokenizationStrategy::kCanonicalTokens);
  SimpleSearchQuery with_prefix =
      make_query("The cat", TokenizationStrategy::kCanonicalTokens, "The ");
  auto k1 = core::pipeline::derive_artifact_key(no_prefix, tok);
  auto k2 = core::pipeline::derive_artifact_key(with_prefix, tok);
  ASSERT_TRUE(k1 && k2);
  EXPECT_NE(*k1, *k2);
}

TEST(ArtifactKey, EquivalentPreprocessorConfigsShareKeys) {
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery a =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  a.preprocessors.push_back(std::make_shared<core::FilterPreprocessor>(
      std::vector<std::string>{"dog"}, core::Preprocessor::Target::kBody));
  SimpleSearchQuery b =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  b.preprocessors.push_back(std::make_shared<core::FilterPreprocessor>(
      "dog", core::Preprocessor::Target::kBody));
  auto ka = core::pipeline::derive_artifact_key(a, tok);
  auto kb = core::pipeline::derive_artifact_key(b, tok);
  ASSERT_TRUE(ka && kb);
  // Both preprocessors forbid the same language; their cache keys hash the
  // minimized forbidden DFA, so the configs collide deliberately.
  EXPECT_EQ(*ka, *kb);
}

TEST(ArtifactKey, UnkeyablePreprocessorDisablesKey) {
  // A preprocessor without a stable cache_key must make the whole query
  // unkeyable (compiling is fine; caching would risk wrong hits).
  class OpaquePreprocessor : public core::Preprocessor {
   public:
    automata::Dfa apply(const automata::Dfa& dfa) const override { return dfa; }
    Target target() const override { return Target::kBody; }
    std::string name() const override { return "opaque"; }
  };
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  query.preprocessors.push_back(std::make_shared<OpaquePreprocessor>());
  EXPECT_FALSE(
      core::pipeline::derive_artifact_key(query, fixture_tokenizer()));
}

TEST(ArtifactKey, HexRoundTrip) {
  ArtifactKey key{0x0123456789abcdefull, 0xfedcba9876543210ull};
  std::string hex = key.hex();
  EXPECT_EQ(hex.size(), 32u);
  auto parsed = ArtifactKey::from_hex(hex);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(*parsed, key);
  EXPECT_FALSE(ArtifactKey::from_hex("short"));
  EXPECT_FALSE(ArtifactKey::from_hex(std::string(32, 'z')));
}

// The vocabulary fingerprint's formula: FNV-1a over the vocabulary size, the
// EOS id, max_token_length and every length-prefixed token string, each u64
// as 8 little-endian bytes.
std::uint64_t recompute_fingerprint(const BpeTokenizer& tok) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto byte = [&h](unsigned char c) { h = (h ^ c) * 0x100000001b3ull; };
  auto u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  u64(tok.vocab_size());
  u64(tok.eos());
  u64(tok.max_token_length());
  for (tokenizer::TokenId t = 0; t < tok.vocab_size(); ++t) {
    u64(tok.token_string(t).size());
    for (unsigned char c : tok.token_string(t)) byte(c);
  }
  return h;
}

TEST(VocabFingerprint, MemoizedValueMatchesTheFormula) {
  const BpeTokenizer tiny = BpeTokenizer::from_vocab({"", "a", "b", "ab"});
  for (const BpeTokenizer* tok : {&fixture_tokenizer(), &tiny}) {
    EXPECT_EQ(tok->fingerprint(), recompute_fingerprint(*tok));
    EXPECT_EQ(core::pipeline::vocab_fingerprint(*tok), tok->fingerprint());
  }
  EXPECT_NE(fixture_tokenizer().fingerprint(), tiny.fingerprint());
}

// Both component keys of a query, which must be keyable.
std::pair<ArtifactKey, ArtifactKey> component_keys(const SimpleSearchQuery& query,
                                                   const BpeTokenizer& tok) {
  auto prefix = core::pipeline::derive_component_key(query, Side::kPrefix, tok);
  auto body = core::pipeline::derive_component_key(query, Side::kBody, tok);
  EXPECT_TRUE(prefix && body);
  return {prefix.value_or(ArtifactKey{}), body.value_or(ArtifactKey{})};
}

TEST(ComponentKey, PreprocessorChangesOnlyTheSidesItTargets) {
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery base = make_query(
      "The ((cat)|(dog))", TokenizationStrategy::kCanonicalTokens, "The ");
  const auto [prefix, body] = component_keys(base, tok);
  EXPECT_NE(prefix, body);

  using Target = core::Preprocessor::Target;
  for (Target target : {Target::kPrefix, Target::kBody, Target::kBoth}) {
    SCOPED_TRACE(static_cast<int>(target));
    SimpleSearchQuery other = base;
    other.preprocessors.push_back(
        std::make_shared<core::CaseInsensitivePreprocessor>(target));
    const auto [other_prefix, other_body] = component_keys(other, tok);
    EXPECT_EQ(other_prefix != prefix, target != Target::kBody);
    EXPECT_EQ(other_body != body, target != Target::kPrefix);
  }
}

TEST(ComponentKey, StrategyBudgetAndVocabularyChangeBothKeys) {
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery base = make_query(
      "The ((cat)|(dog))", TokenizationStrategy::kCanonicalTokens, "The ");
  const auto [prefix, body] = component_keys(base, tok);

  auto expect_both_change = [&](const SimpleSearchQuery& query,
                                const BpeTokenizer& with) {
    const auto [other_prefix, other_body] = component_keys(query, with);
    EXPECT_NE(other_prefix, prefix);
    EXPECT_NE(other_body, body);
  };
  SimpleSearchQuery other = base;
  other.tokenization_strategy = TokenizationStrategy::kAllTokens;
  expect_both_change(other, tok);
  other = base;
  other.canonical_enumeration_budget = 7;
  expect_both_change(other, tok);
  BpeTokenizer::TrainConfig config;
  config.vocab_size = 300;
  expect_both_change(
      base, BpeTokenizer::train("The cat dog The cat dog mat hat", config));
}

TEST(ComponentKey, SidesShareKeysButNotTheEmptyPrefix) {
  // The same pattern compiles alike on either side, so "cat" as a body and
  // "cat" as a prefix share one component. The empty prefix is the ε
  // automaton, not a compile of the empty pattern, and keys apart from an
  // empty body.
  const BpeTokenizer& tok = fixture_tokenizer();
  SimpleSearchQuery body_cat =
      make_query("cat", TokenizationStrategy::kCanonicalTokens);
  SimpleSearchQuery prefix_cat =
      make_query("cat", TokenizationStrategy::kCanonicalTokens, "cat");
  const auto [epsilon, body] = component_keys(body_cat, tok);
  const auto [prefix, empty_body] = component_keys(prefix_cat, tok);
  EXPECT_EQ(prefix, body);
  EXPECT_NE(epsilon, empty_body);
}

TEST(ComponentKey, UnkeyablePreprocessorDisablesOnlyItsSide) {
  class OpaquePreprocessor : public core::Preprocessor {
   public:
    automata::Dfa apply(const automata::Dfa& dfa) const override { return dfa; }
    Target target() const override { return Target::kBody; }
    std::string name() const override { return "opaque"; }
  };
  SimpleSearchQuery query = make_query(
      "The ((cat)|(dog))", TokenizationStrategy::kCanonicalTokens, "The ");
  query.preprocessors.push_back(std::make_shared<OpaquePreprocessor>());
  const BpeTokenizer& tok = fixture_tokenizer();
  EXPECT_TRUE(core::pipeline::derive_component_key(query, Side::kPrefix, tok));
  EXPECT_FALSE(core::pipeline::derive_component_key(query, Side::kBody, tok));
  EXPECT_FALSE(core::pipeline::derive_artifact_key(query, tok));
}

// ---------------------------------------------------------------------------
// Artifact serialization
// ---------------------------------------------------------------------------

QueryArtifact compile_artifact(const SimpleSearchQuery& query) {
  return core::pipeline::compile_query_artifact(query, fixture_tokenizer());
}

TEST(ArtifactSerialize, RoundTripPreservesEverything) {
  SimpleSearchQuery query = make_query(
      "The ((cat)|(dog))", TokenizationStrategy::kCanonicalTokens, "The ");
  QueryArtifact artifact = compile_artifact(query);
  std::stringstream buffer;
  core::pipeline::save_artifact(artifact, buffer);
  QueryArtifact loaded = core::pipeline::load_artifact(buffer);
  EXPECT_EQ(loaded.key, artifact.key);
  EXPECT_EQ(loaded.vocab_fingerprint, artifact.vocab_fingerprint);
  EXPECT_EQ(loaded.strategy, artifact.strategy);
  EXPECT_EQ(loaded.prefix->automaton.dynamic_canonical,
            artifact.prefix->automaton.dynamic_canonical);
  EXPECT_EQ(loaded.body->automaton.dynamic_canonical,
            artifact.body->automaton.dynamic_canonical);
  EXPECT_EQ(loaded.prefix->automaton.dfa, artifact.prefix->automaton.dfa);
  EXPECT_EQ(loaded.body->automaton.dfa, artifact.body->automaton.dfa);
}

TEST(ArtifactSerialize, RejectsCorruptContainers) {
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  QueryArtifact artifact = compile_artifact(query);
  std::stringstream buffer;
  core::pipeline::save_artifact(artifact, buffer);
  const std::string good = buffer.str();

  auto load_from = [](const std::string& text) {
    std::stringstream in(text);
    return core::pipeline::load_artifact(in);
  };

  EXPECT_THROW(load_from(""), relm::Error);
  EXPECT_THROW(load_from("RELM_NOPE v1\n"), relm::Error);
  EXPECT_THROW(load_from("RELM_ARTIFACT v999\n"), relm::Error);
  // Truncation anywhere must be detected.
  EXPECT_THROW(load_from(good.substr(0, 40)), relm::Error);
  EXPECT_THROW(load_from(good.substr(0, good.size() / 2)), relm::Error);
  EXPECT_THROW(load_from(good.substr(0, good.size() - 4)), relm::Error);

  // A bit-flip in the DFA payload must fail the checksum (flip a digit in
  // the last edge line, keeping the file well-formed).
  std::string flipped = good;
  std::size_t digit = flipped.find_last_of("0123456789");
  ASSERT_NE(digit, std::string::npos);
  flipped[digit] = flipped[digit] == '0' ? '1' : '0';
  EXPECT_THROW(load_from(flipped), relm::Error);
}

TEST(ArtifactSerialize, RejectsIncoherentStrategyFlags) {
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kAllTokens);
  QueryArtifact artifact = compile_artifact(query);
  ASSERT_FALSE(artifact.body->automaton.dynamic_canonical);
  // Forge the flag (and its checksum, to get past integrity) — the semantic
  // invariant must still reject it.
  auto forged = std::make_shared<Component>(*artifact.body);
  forged->automaton.dynamic_canonical = true;
  artifact.body = forged;
  std::stringstream buffer;
  core::pipeline::save_artifact(artifact, buffer);
  std::stringstream in(buffer.str());
  EXPECT_THROW(core::pipeline::load_artifact(in), relm::Error);
}

TEST(ArtifactSerialize, FileRoundTrip) {
  TempDir dir("file_roundtrip");
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kAllTokens);
  QueryArtifact artifact = compile_artifact(query);
  // Files hold components: the compile cache's disk format.
  const std::string path = dir.str() + "/component.relmc";
  core::pipeline::save_component_file(*artifact.body, path);
  Component loaded = core::pipeline::load_component_file(path);
  EXPECT_EQ(loaded.key, artifact.body->key);
  EXPECT_EQ(loaded.automaton.dfa, artifact.body->automaton.dfa);
  EXPECT_EQ(loaded.automaton.masks, artifact.body->automaton.masks);
  EXPECT_THROW(core::pipeline::load_component_file(dir.str() + "/missing"),
               relm::Error);
}

// ---------------------------------------------------------------------------
// Equivalence: fresh vs cached vs serialized+reloaded compiles
// ---------------------------------------------------------------------------

std::vector<core::SearchResult> run_search(const core::CompiledQuery& compiled,
                                           const SimpleSearchQuery& query) {
  core::ShortestPathSearch search(*fixture_model(), compiled, query);
  return search.all();
}

// Matches and costs must be *identical* — not approximately equal. The
// artifact stores exact automata and the model is deterministic, so any
// deviation marks a real semantic difference between the compile paths.
void expect_identical_results(const std::vector<core::SearchResult>& a,
                              const std::vector<core::SearchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tokens, b[i].tokens) << "result " << i;
    EXPECT_EQ(a[i].text, b[i].text) << "result " << i;
    // Bitwise equality: same automaton + same model = same float ops.
    EXPECT_EQ(a[i].log_prob, b[i].log_prob) << "result " << i;
  }
}

void check_equivalence(const SimpleSearchQuery& query) {
  const BpeTokenizer& tok = fixture_tokenizer();

  // Fresh compile through the pipeline, no cache involved.
  auto fresh = std::make_shared<const QueryArtifact>(
      core::pipeline::compile_query_artifact(query, tok));
  core::CompiledQuery from_fresh = core::CompiledQuery::from_artifact(fresh, tok);

  // Serialize, reload, rebind.
  std::stringstream buffer;
  core::pipeline::save_artifact(*fresh, buffer);
  auto reloaded = std::make_shared<const QueryArtifact>(
      core::pipeline::load_artifact(buffer));
  core::CompiledQuery from_disk =
      core::CompiledQuery::from_artifact(reloaded, tok);

  // Serve the same query through a private cache: miss then hit.
  ArtifactCache cache(ArtifactCacheConfig{});
  auto first = core::pipeline::compile_cached(query, tok, &cache);
  auto second = core::pipeline::compile_cached(query, tok, &cache);
  // The hit IS the stored components.
  EXPECT_EQ(first->prefix.get(), second->prefix.get());
  EXPECT_EQ(first->body.get(), second->body.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  core::CompiledQuery from_cache =
      core::CompiledQuery::from_artifact(second, tok);

  std::vector<core::SearchResult> baseline = run_search(from_fresh, query);
  ASSERT_FALSE(baseline.empty());
  expect_identical_results(baseline, run_search(from_disk, query));
  expect_identical_results(baseline, run_search(from_cache, query));
}

TEST(Equivalence, CanonicalTokens) {
  check_equivalence(make_query("The ((cat)|(dog))",
                               TokenizationStrategy::kCanonicalTokens, "The "));
}

TEST(Equivalence, AllTokens) {
  check_equivalence(
      make_query("The ((cat)|(dog))", TokenizationStrategy::kAllTokens));
}

TEST(Equivalence, DynamicCanonicalFallback) {
  // An infinite language cannot be enumerated within any budget, so the
  // canonical strategy falls back to the all-tokens machine with dynamic
  // pruning — the flag must survive serialization and keep pruning.
  SimpleSearchQuery query =
      make_query("a(b|(cd))*e", TokenizationStrategy::kCanonicalTokens);
  auto artifact = std::make_shared<const QueryArtifact>(
      core::pipeline::compile_query_artifact(query, fixture_tokenizer()));
  ASSERT_TRUE(artifact->body->automaton.dynamic_canonical);
  check_equivalence(query);
}

TEST(Equivalence, CompiledQueryCompileMatchesPipeline) {
  // The public entry point must be a thin wrapper over the same pipeline.
  SimpleSearchQuery query = make_query(
      "The ((cat)|(dog))", TokenizationStrategy::kCanonicalTokens, "The ");
  const BpeTokenizer& tok = fixture_tokenizer();
  core::CompiledQuery a = core::CompiledQuery::compile(query, tok);
  auto b_artifact = std::make_shared<const QueryArtifact>(
      core::pipeline::compile_query_artifact(query, tok));
  core::CompiledQuery b = core::CompiledQuery::from_artifact(b_artifact, tok);
  EXPECT_EQ(a.prefix_automaton(), b.prefix_automaton());
  EXPECT_EQ(a.body_automaton(), b.body_automaton());
  EXPECT_EQ(a.dynamic_canonical(), b.dynamic_canonical());
}

TEST(Equivalence, FromArtifactRejectsWrongVocabulary) {
  SimpleSearchQuery query =
      make_query("cat dog", TokenizationStrategy::kCanonicalTokens);
  auto artifact = std::make_shared<const QueryArtifact>(
      core::pipeline::compile_query_artifact(query, fixture_tokenizer()));
  BpeTokenizer::TrainConfig config;
  config.vocab_size = 280;
  BpeTokenizer other = BpeTokenizer::train("cat dog cat dog hat mat", config);
  EXPECT_THROW(core::CompiledQuery::from_artifact(artifact, other),
               relm::QueryError);
}

// ---------------------------------------------------------------------------
// Cache behavior
// ---------------------------------------------------------------------------

TEST(ArtifactCache, MissThenHitAndStats) {
  ArtifactCache cache(ArtifactCacheConfig{});
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  const auto [prefix_key, body_key] = component_keys(query, fixture_tokenizer());

  EXPECT_EQ(cache.lookup(prefix_key), nullptr);
  EXPECT_EQ(cache.lookup(body_key), nullptr);
  auto artifact = core::pipeline::compile_cached(query, fixture_tokenizer(),
                                                 &cache);
  ASSERT_TRUE(artifact);
  EXPECT_EQ(cache.lookup(prefix_key).get(), artifact->prefix.get());
  EXPECT_EQ(cache.lookup(body_key).get(), artifact->body.get());
  auto again = core::pipeline::compile_cached(query, fixture_tokenizer(),
                                              &cache);
  EXPECT_EQ(again->prefix.get(), artifact->prefix.get());
  EXPECT_EQ(again->body.get(), artifact->body.get());

  // Hits and misses count compile_cached calls, not component lookups.
  ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 2u);  // the ε prefix and the body
}

TEST(ArtifactCache, ZeroKeyNeverCached) {
  ArtifactCache cache(ArtifactCacheConfig{});
  QueryArtifact artifact = compile_artifact(
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens));
  cache.insert(ArtifactKey{}, artifact.body);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.lookup(ArtifactKey{}), nullptr);
  // The zero-key lookup must not even count as a miss (nothing was keyed).
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ArtifactCache, DisabledCacheCompilesEveryTime) {
  ArtifactCacheConfig config;
  config.capacity = 0;
  ArtifactCache cache(config);
  EXPECT_FALSE(cache.enabled());
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  auto a = core::pipeline::compile_cached(query, fixture_tokenizer(), &cache);
  auto b = core::pipeline::compile_cached(query, fixture_tokenizer(), &cache);
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->prefix.get(), b->prefix.get());
  EXPECT_NE(a->body.get(), b->body.get());
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ArtifactCache, EvictsLeastRecentlyUsed) {
  // Capacity 8 spread over 8 shards = 1 entry per shard: inserting two keys
  // landing in the same shard must evict the older one.
  ArtifactCacheConfig config;
  config.capacity = 8;
  ArtifactCache cache(config);
  QueryArtifact artifact = compile_artifact(
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens));
  ArtifactKey k1{1, 8};   // shard 0
  ArtifactKey k2{2, 16};  // shard 0
  cache.insert(k1, artifact.body);
  cache.insert(k2, artifact.body);
  EXPECT_EQ(cache.lookup(k1), nullptr);
  EXPECT_NE(cache.lookup(k2), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(ArtifactCache, DiskStoreSurvivesProcessRestart) {
  TempDir dir("disk_store");
  SimpleSearchQuery query = make_query(
      "The ((cat)|(dog))", TokenizationStrategy::kCanonicalTokens, "The ");
  ArtifactCacheConfig config;
  config.disk_dir = dir.str();

  std::shared_ptr<const QueryArtifact> compiled;
  {
    ArtifactCache warm(config);
    compiled = core::pipeline::compile_cached(query, fixture_tokenizer(), &warm);
    EXPECT_EQ(warm.stats().disk_stores, 2u);
  }
  // A fresh cache instance simulates a new process: both components must
  // come back from disk, not from a recompile.
  ArtifactCache cold(config);
  auto loaded = core::pipeline::compile_cached(query, fixture_tokenizer(), &cold);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->key, compiled->key);
  EXPECT_EQ(loaded->prefix->key, compiled->prefix->key);
  EXPECT_EQ(loaded->body->key, compiled->body->key);
  EXPECT_EQ(core::pipeline::artifact_checksum(*loaded),
            core::pipeline::artifact_checksum(*compiled));
  EXPECT_EQ(core::pipeline::artifact_masks_checksum(*loaded),
            core::pipeline::artifact_masks_checksum(*compiled));
  EXPECT_EQ(cold.stats().disk_loads, 2u);
  EXPECT_EQ(cold.stats().hits, 1u);
  EXPECT_EQ(cold.stats().misses, 0u);
}

TEST(ArtifactCache, CorruptDiskEntryFallsBackToRecompile) {
  TempDir dir("corrupt_entry");
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  ArtifactCacheConfig config;
  config.disk_dir = dir.str();

  ArtifactKey key;
  {
    ArtifactCache warm(config);
    key = core::pipeline::compile_cached(query, fixture_tokenizer(), &warm)
              ->body->key;
  }
  // Truncate the stored body component mid-payload.
  const std::string path = dir.str() + "/" + key.hex() + ".relmc";
  {
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    ASSERT_GT(contents.size(), 20u);
    std::ofstream out(path, std::ios::trunc);
    out << contents.substr(0, contents.size() / 2);
  }

  ArtifactCache cold(config);
  EXPECT_EQ(cold.lookup(key), nullptr);  // corrupt = miss, never a crash
  EXPECT_EQ(cold.stats().disk_errors, 1u);

  // compile_cached must recover transparently and overwrite the bad entry:
  // the call compiled the body, so it is a miss.
  auto artifact =
      core::pipeline::compile_cached(query, fixture_tokenizer(), &cold);
  ASSERT_TRUE(artifact);
  EXPECT_EQ(cold.stats().disk_errors, 2u);
  EXPECT_EQ(cold.stats().misses, 1u);
  EXPECT_EQ(cold.stats().hits, 0u);
  Component reread = core::pipeline::load_component_file(path);
  EXPECT_EQ(reread.key, key);
  EXPECT_EQ(reread.automaton.dfa, artifact->body->automaton.dfa);
}

TEST(ArtifactCache, MismatchedKeyOnDiskTreatedAsCorrupt) {
  TempDir dir("key_mismatch");
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  QueryArtifact artifact = compile_artifact(query);
  // Store a valid component under a *different* key's filename.
  ArtifactKey wrong{0xdead, 0xbeef};
  core::pipeline::save_component_file(*artifact.body,
                                      dir.str() + "/" + wrong.hex() + ".relmc");
  ArtifactCacheConfig config;
  config.disk_dir = dir.str();
  ArtifactCache cache(config);
  EXPECT_EQ(cache.lookup(wrong), nullptr);
  EXPECT_EQ(cache.stats().disk_errors, 1u);
}

TEST(ArtifactCache, UnkeyableQueryBypassesCache) {
  class OpaquePreprocessor : public core::Preprocessor {
   public:
    automata::Dfa apply(const automata::Dfa& dfa) const override { return dfa; }
    Target target() const override { return Target::kBody; }
    std::string name() const override { return "opaque"; }
  };
  ArtifactCache cache(ArtifactCacheConfig{});
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  query.preprocessors.push_back(std::make_shared<OpaquePreprocessor>());
  auto a = core::pipeline::compile_cached(query, fixture_tokenizer(), &cache);
  auto b = core::pipeline::compile_cached(query, fixture_tokenizer(), &cache);
  ASSERT_TRUE(a && b);
  // The opaque preprocessor makes only the body uncacheable: it compiles on
  // every call, while the ε prefix is cached and shared.
  EXPECT_NE(a->body.get(), b->body.get());
  EXPECT_EQ(a->prefix.get(), b->prefix.get());
  EXPECT_TRUE(a->key.is_zero());
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// The four Table 1 LAMBADA shapes over one passage, as the cloze experiment
// builds them: the passage is every shape's prefix; the baseline and
// terminated shapes share their body, the no-stop body is the same for every
// passage, and the words body is the passage's own words.
std::vector<SimpleSearchQuery> lambada_shapes(const std::string& passage) {
  std::string words;
  std::istringstream split(passage);
  for (std::string w; split >> w;) words += (words.empty() ? "(" : "|(") + w + ")";
  std::vector<SimpleSearchQuery> shapes;
  const std::string word = " ([a-zA-Z]+)(\\.)?";
  for (const std::string& body : {word, word, " (" + words + ")(\\.)?", word}) {
    shapes.push_back(make_query(passage + body,
                                TokenizationStrategy::kCanonicalTokens, passage));
  }
  shapes[1].require_eos = true;  // terminated: same compile as the baseline
  shapes[3].preprocessors.push_back(std::make_shared<core::FilterPreprocessor>(
      " ((the)|(on))(\\.)?", core::Preprocessor::Target::kBody));
  return shapes;
}

TEST(ArtifactCache, SiblingQueriesShareComponents) {
  ArtifactCache cache(ArtifactCacheConfig{});
  const BpeTokenizer& tok = fixture_tokenizer();
  // Per passage: its prefix, then bodies word, word, words, no_stop.
  std::vector<std::shared_ptr<const QueryArtifact>> first, second;
  for (const SimpleSearchQuery& q : lambada_shapes("The cat sat on the")) {
    first.push_back(core::pipeline::compile_cached(q, tok, &cache));
  }
  // Shape 0 compiles both components, shape 1 none, shapes 2 and 3 a body.
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);
  for (const SimpleSearchQuery& q : lambada_shapes("The dog ran to the")) {
    second.push_back(core::pipeline::compile_cached(q, tok, &cache));
  }
  // The second passage compiles its prefix (shape 0) and its words body
  // (shape 2); shapes 1 and 3 compile nothing.
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.stats().hits, 3u);
  // 2 prefixes + the word and no-stop bodies + 2 words bodies.
  EXPECT_EQ(cache.stats().entries, 6u);

  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(first[i]->prefix.get(), first[0]->prefix.get()) << i;
    EXPECT_EQ(second[i]->prefix.get(), second[0]->prefix.get()) << i;
    if (i != 2) {
      EXPECT_EQ(first[i]->body.get(), second[i]->body.get()) << i;
    }
  }
  EXPECT_NE(first[0]->prefix.get(), second[0]->prefix.get());
  EXPECT_NE(first[2]->body.get(), second[2]->body.get());
  EXPECT_EQ(first[0]->body.get(), first[1]->body.get());
  EXPECT_NE(first[0]->body.get(), first[2]->body.get());
  EXPECT_NE(first[0]->body.get(), first[3]->body.get());

  // Every assembled artifact equals a fresh compile of its query.
  for (const auto& [artifacts, passage] :
       {std::pair{&first, "The cat sat on the"},
        std::pair{&second, "The dog ran to the"}}) {
    const std::vector<SimpleSearchQuery> shapes = lambada_shapes(passage);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      QueryArtifact fresh = core::pipeline::compile_query_artifact(shapes[i], tok);
      EXPECT_EQ((*artifacts)[i]->key, fresh.key);
      EXPECT_EQ(core::pipeline::artifact_checksum(*(*artifacts)[i]),
                core::pipeline::artifact_checksum(fresh));
      EXPECT_EQ(core::pipeline::artifact_masks_checksum(*(*artifacts)[i]),
                core::pipeline::artifact_masks_checksum(fresh));
    }
  }
}

TEST(ArtifactCache, ConcurrentSiblingCompiles) {
  // Four threads compile overlapping sibling queries through one cache, each
  // in its own order, so components are looked up and inserted concurrently.
  const BpeTokenizer& tok = fixture_tokenizer();
  std::vector<SimpleSearchQuery> queries;
  for (const char* passage :
       {"The cat sat on the", "The dog ran to the", "abe acde abbbe "}) {
    for (SimpleSearchQuery& q : lambada_shapes(passage)) {
      queries.push_back(std::move(q));
    }
  }
  std::vector<QueryArtifact> fresh;
  for (const SimpleSearchQuery& q : queries) {
    fresh.push_back(core::pipeline::compile_query_artifact(q, tok));
  }

  ArtifactCache cache(ArtifactCacheConfig{});
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::shared_ptr<const QueryArtifact>>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].resize(queries.size());
      for (std::size_t n = 0; n < queries.size(); ++n) {
        const std::size_t k = (n + 5 * t) % queries.size();
        const std::size_t i = t % 2 == 0 ? k : queries.size() - 1 - k;
        got[t][i] = core::pipeline::compile_cached(queries[i], tok, &cache);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(got[t][i]) << t << " " << i;
      EXPECT_EQ(got[t][i]->key, fresh[i].key);
      EXPECT_EQ(got[t][i]->empty_language, fresh[i].empty_language);
      EXPECT_EQ(core::pipeline::artifact_checksum(*got[t][i]),
                core::pipeline::artifact_checksum(fresh[i]));
      EXPECT_EQ(core::pipeline::artifact_masks_checksum(*got[t][i]),
                core::pipeline::artifact_masks_checksum(fresh[i]));
    }
  }
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * queries.size());
  // 3 prefixes + the word and no-stop bodies + 3 words bodies.
  EXPECT_EQ(stats.entries, 8u);
}

}  // namespace
}  // namespace relm
