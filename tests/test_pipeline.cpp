// Tests for the compile pass pipeline, the RELM_COMPONENT container, and the
// content-addressed artifact cache (src/core/pipeline/).
//
// The load-bearing guarantee is byte-identity: a query compiled fresh, served
// from the in-memory cache, or reloaded from its serialized components must
// drive the executors to exactly the same matches at exactly the same costs.
// The Equivalence tests prove that end to end for both tokenization
// strategies, including the dynamic-canonical fallback.

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>
#include <tuple>

#include "automata/determinize.hpp"
#include "automata/ops.hpp"
#include "automata/regex.hpp"
#include "automata/regex_parser.hpp"
#include "automata/thompson.hpp"
#include "core/compiled_query.hpp"
#include "core/compiler.hpp"
#include "core/executor.hpp"
#include "core/pipeline/artifact.hpp"
#include "core/pipeline/cache.hpp"
#include "core/pipeline/pipeline.hpp"
#include "core/preprocessors.hpp"
#include "model/ngram_model.hpp"
#include "testing/canonical_trie.hpp"
#include "testing/determinize_per_byte.hpp"
#include "testing/differential.hpp"
#include "testing/hopcroft.hpp"
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
  // A side runs the same seven stages in the same order whether it compiles
  // from its strings (a finite canonical side, or any side that spells one
  // string), through the algebra compiler (a boolean tree), or through
  // Thompson and subset construction.
  struct Case {
    const char* pattern;
    TokenizationStrategy strategy;
    bool nfa;
    bool strings;
  };
  for (const Case& c : {
           Case{"(cat)|(dog)", TokenizationStrategy::kCanonicalTokens, false,
                true},
           Case{"abcdef", TokenizationStrategy::kAllTokens, false, true},
           Case{"(ab)&(a.)", TokenizationStrategy::kAllTokens, false, false},
           Case{"((cat)|(dog))+", TokenizationStrategy::kAllTokens, true,
                false},
       }) {
    SCOPED_TRACE(c.pattern);
    std::vector<core::pipeline::PassRecord> records;
    const core::pipeline::CompileState state = core::pipeline::run_to_state(
        make_query(c.pattern, c.strategy), Side::kBody, fixture_tokenizer(),
        &records);
    EXPECT_EQ(state.nfa.has_value(), c.nfa);
    EXPECT_EQ(state.strings.has_value(), c.strings);
    std::vector<std::string> names;
    for (const auto& record : records) names.push_back(record.name);
    EXPECT_THAT(names,
                ::testing::ElementsAre("parse", "thompson", "determinize",
                                       "minimize", "preprocess", "token_lift",
                                       "token_masks"));
  }
}

TEST(Pipeline, RunRecordsEveryPass) {
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens);
  core::pipeline::CompileResult result =
      core::pipeline::run(query, Side::kBody, fixture_tokenizer());
  std::vector<std::string> names;
  for (const auto& record : result.passes) {
    names.push_back(record.name);
    EXPECT_GE(record.seconds, 0.0) << record.name;
  }
  EXPECT_THAT(names,
              ::testing::ElementsAre("parse", "thompson", "determinize",
                                     "minimize", "preprocess", "token_lift",
                                     "token_masks"));
  EXPECT_EQ(result.automaton.dfa.num_symbols(), fixture_tokenizer().vocab_size());
  EXPECT_FALSE(result.automaton.masks.empty());
}

TEST(Pipeline, StateExposesIntermediates) {
  // An infinite body: Thompson, subset construction, minimize and the
  // all-encodings lift all run.
  SimpleSearchQuery query = make_query(
      "The ((cat)|(dog))+", TokenizationStrategy::kCanonicalTokens, "The ");
  core::pipeline::CompileState body =
      core::pipeline::run_to_state(query, Side::kBody, fixture_tokenizer());
  core::pipeline::CompileState prefix =
      core::pipeline::run_to_state(query, Side::kPrefix, fixture_tokenizer());
  ASSERT_TRUE(body.ast != nullptr);
  ASSERT_TRUE(body.nfa.has_value());
  EXPECT_FALSE(body.strings.has_value());
  ASSERT_TRUE(body.chars.has_value());
  ASSERT_TRUE(prefix.chars.has_value());
  ASSERT_TRUE(body.tokens.has_value());
  EXPECT_TRUE(body.tokens->dynamic_canonical);
  EXPECT_FALSE(body.tokens->masks.empty());  // token_masks ran last
  EXPECT_EQ(body.pattern, "((cat)|(dog))+");
  EXPECT_EQ(prefix.pattern, "The ");
  // The char-level DFA operates over bytes; the token automaton over the
  // vocabulary.
  EXPECT_EQ(body.chars->num_symbols(), 256u);
  EXPECT_EQ(body.tokens->dfa.num_symbols(), fixture_tokenizer().vocab_size());
}

// The reference chain for one side: Thompson, the per-byte subset
// construction, Hopcroft, the side's preprocessors (their result is
// `chars`), and the trie lift (canonical, within budget) or the
// all-encodings lift.
core::TokenAutomaton reference_component(const SimpleSearchQuery& query,
                                         Side side, const BpeTokenizer& tok,
                                         automata::Dfa& chars) {
  const automata::RegexPtr ast =
      automata::parse_regex(core::pipeline::component_pattern(query, side));
  chars = testing::minimize_hopcroft(automata::trim(
      testing::determinize_per_byte(automata::thompson_construct(*ast))));
  for (const auto& pre : query.preprocessors) {
    if (pre->target() == side || pre->target() == Side::kBoth) {
      chars = pre->apply(chars);
    }
  }
  core::TokenAutomaton tokens = core::compile_token_automaton(
      chars, tok, TokenizationStrategy::kAllTokens);
  if (query.tokenization_strategy == TokenizationStrategy::kCanonicalTokens) {
    const std::optional<std::uint64_t> count =
        automata::finite_string_count(automata::trim(chars));
    if (count && *count <= query.canonical_enumeration_budget) {
      tokens.dfa = testing::canonical_lift_by_trie(chars, tok);
    } else {
      tokens.dynamic_canonical = true;
    }
  }
  tokens.masks = core::budgeted_token_masks(tokens.dfa);
  return tokens;
}

void expect_reference_component(const SimpleSearchQuery& query, Side side) {
  const BpeTokenizer& tok = fixture_tokenizer();
  automata::Dfa chars(256);
  const core::TokenAutomaton reference =
      reference_component(query, side, tok, chars);
  EXPECT_EQ(*core::pipeline::run_to_state(query, side, tok).chars, chars);
  const std::shared_ptr<const Component> component =
      core::pipeline::compile_component(query, side, tok, ArtifactKey{});
  EXPECT_EQ(component->automaton.dfa, reference.dfa);
  EXPECT_EQ(component->automaton.masks, reference.masks);
  EXPECT_EQ(component->automaton.dynamic_canonical, reference.dynamic_canonical);
  EXPECT_EQ(component->empty_language,
            automata::is_empty_language(reference.dfa));
}

const char kPassage[] =
    "\"I can't believe it,\" Mara said\\. The keeper of the old lighthouse "
    "had left at dawn \\(without a word\\) and the boats \\- all three of "
    "them \\- were gone before the tide turned\\. Who would follow him "
    "now\\? Not the";
const char kWordList[] =
    " ((keeper)|(lighthouse)|(boats)|(tide)|(dawn)|(Mara)|(word)|(three)|"
    "(morning)|(harbor)|(island)|(storm)|(lantern)|(rope)|(sailor)|"
    "(village)|(mother)|(brother)|(window)|(stairs)|(shore)|(night)|"
    "(gulls)|(rocks)|(signal)|(captain)|(letter)|(winter)|(beacon)|(ferry)|"
    "(the)|(a)|(of))(\\.|\\!|\\?)?(\")?";

TEST(Pipeline, FiniteCanonicalSideCompilesFromItsStrings) {
  SimpleSearchQuery query = make_query(
      "The ((cat)|(dog))", TokenizationStrategy::kCanonicalTokens, "The ");
  std::vector<core::pipeline::PassRecord> records;
  core::pipeline::CompileState body = core::pipeline::run_to_state(
      query, Side::kBody, fixture_tokenizer(), &records);
  core::pipeline::CompileState prefix =
      core::pipeline::run_to_state(query, Side::kPrefix, fixture_tokenizer());
  EXPECT_EQ(records.size(), 7u);  // every stage still runs
  EXPECT_FALSE(body.nfa.has_value());
  EXPECT_FALSE(prefix.nfa.has_value());
  ASSERT_TRUE(body.strings.has_value());
  EXPECT_EQ(*body.strings, (std::vector<std::string>{"cat", "dog"}));
  EXPECT_EQ(*prefix.strings, std::vector<std::string>{"The "});
  EXPECT_EQ(*body.chars,
            testing::minimize_hopcroft(testing::determinize_per_byte(
                automata::thompson_construct(*body.ast))));
  EXPECT_EQ(*prefix.chars, automata::compile_regex("The "));
  ASSERT_TRUE(body.tokens.has_value());
  EXPECT_FALSE(body.tokens->dynamic_canonical);
  EXPECT_EQ(body.tokens->dfa,
            testing::canonical_lift_by_trie(*body.chars, fixture_tokenizer()));
  expect_reference_component(query, Side::kBody);
  expect_reference_component(query, Side::kPrefix);
}

TEST(Pipeline, ClozeShapedComponentsEqualTheReferenceChain) {
  // A cloze prefix (a regex-escaped passage) and a word-list body, both
  // compiled from their strings.
  SimpleSearchQuery cloze = make_query(std::string(kPassage) + kWordList,
                                       TokenizationStrategy::kCanonicalTokens,
                                       kPassage);
  {
    SCOPED_TRACE("cloze prefix");
    expect_reference_component(cloze, Side::kPrefix);
  }
  {
    SCOPED_TRACE("word-list body");
    expect_reference_component(cloze, Side::kBody);
  }
  // The stop-word filter: a preprocessed side compiles through Thompson,
  // and its lift enumerates the filtered DFA.
  SimpleSearchQuery filtered = cloze;
  filtered.preprocessors.push_back(std::make_shared<core::FilterPreprocessor>(
      " ((the)|(a)|(of))(\\.|\\!|\\?)?(\")?", Side::kBody));
  {
    SCOPED_TRACE("stop-word-filtered body");
    const core::pipeline::CompileState state = core::pipeline::run_to_state(
        filtered, Side::kBody, fixture_tokenizer());
    EXPECT_TRUE(state.nfa.has_value());
    EXPECT_FALSE(state.strings.has_value());
    expect_reference_component(filtered, Side::kBody);
  }
  // A toxicity query: all encodings, Levenshtein-1 edits on the body.
  SimpleSearchQuery toxic = make_query(std::string(kPassage) + "dim sod",
                                       TokenizationStrategy::kAllTokens,
                                       kPassage);
  toxic.preprocessors.push_back(std::make_shared<core::LevenshteinPreprocessor>(
      1, core::Preprocessor::Target::kBody));
  {
    SCOPED_TRACE("all-tokens prefix");
    expect_reference_component(toxic, Side::kPrefix);
  }
  {
    SCOPED_TRACE("all-tokens Levenshtein body");
    expect_reference_component(toxic, Side::kBody);
  }
}

TEST(Pipeline, StringsPathKeepsTheStateBudget) {
  // [ac]b spells 4 bytes, so its bound is 5 states, but subset construction
  // makes 3: budgets 3 and 4 compile through Thompson, 5 and up from the
  // strings, and 2 fails as subset construction does.
  SimpleSearchQuery query =
      make_query("[ac]b", TokenizationStrategy::kCanonicalTokens);
  using core::pipeline::run;
  using core::pipeline::run_to_state;
  const BpeTokenizer& tok = fixture_tokenizer();
  query.determinize_state_budget = 2;
  EXPECT_THROW(run(query, Side::kBody, tok), relm::StateBudgetError);
  query.determinize_state_budget = 3;
  const core::TokenAutomaton reference = run(query, Side::kBody, tok).automaton;
  for (std::size_t budget : {3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    query.determinize_state_budget = budget;
    core::pipeline::CompileState state = run_to_state(query, Side::kBody, tok);
    EXPECT_EQ(state.nfa.has_value(), budget < 5);
    EXPECT_EQ(state.strings.has_value(), budget >= 5);
    EXPECT_EQ(*state.chars, automata::compile_regex("[ac]b"));
    EXPECT_EQ(state.tokens->dfa, reference.dfa);
    EXPECT_EQ(state.tokens->masks, reference.masks);
  }
  // A literal's bound is its n + 1 states, one per prefix.
  SimpleSearchQuery literal =
      make_query("abcdef", TokenizationStrategy::kCanonicalTokens);
  literal.determinize_state_budget = 6;
  EXPECT_THROW(run(literal, Side::kBody, tok), relm::StateBudgetError);
  literal.determinize_state_budget = 7;
  EXPECT_TRUE(run_to_state(literal, Side::kBody, tok).strings.has_value());
  // Past the enumeration budget (counted with multiplicity), the old path.
  SimpleSearchQuery over = make_query("(a|a)b|c", TokenizationStrategy::kCanonicalTokens);
  over.canonical_enumeration_budget = 2;
  core::pipeline::CompileState state = run_to_state(over, Side::kBody, tok);
  EXPECT_TRUE(state.nfa.has_value());
  EXPECT_FALSE(state.tokens->dynamic_canonical);  // |L| = 2 still enumerates
  over.canonical_enumeration_budget = 3;
  EXPECT_TRUE(run_to_state(over, Side::kBody, tok).strings.has_value());
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
  EXPECT_THROW(core::pipeline::run(query, Side::kBody, fixture_tokenizer()),
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

// Both components of `got` equal those of `want`: identity, DFA, mask table
// and the derived empty-language bit.
void expect_same_components(const QueryArtifact& got,
                            const QueryArtifact& want) {
  for (const auto& [side, g, w] :
       {std::tuple{"prefix", got.prefix.get(), want.prefix.get()},
        std::tuple{"body", got.body.get(), want.body.get()}}) {
    SCOPED_TRACE(side);
    EXPECT_EQ(g->key, w->key);
    EXPECT_EQ(g->vocab_fingerprint, w->vocab_fingerprint);
    EXPECT_EQ(g->strategy, w->strategy);
    EXPECT_EQ(g->automaton.dynamic_canonical, w->automaton.dynamic_canonical);
    EXPECT_TRUE(g->automaton.dfa == w->automaton.dfa);
    EXPECT_EQ(g->automaton.masks, w->automaton.masks);
    EXPECT_EQ(g->empty_language, w->empty_language);
  }
}

// A query persists as its two components; reassembled, they must give back
// the same artifact, down to its key and both mask tables.
TEST(ArtifactSerialize, RoundTripPreservesEverything) {
  SimpleSearchQuery query = make_query(
      "The ((cat)|(dog))", TokenizationStrategy::kCanonicalTokens, "The ");
  QueryArtifact artifact = compile_artifact(query);
  auto loaded = relm::testing::reload_through_components(artifact);
  EXPECT_EQ(loaded->key, artifact.key);
  EXPECT_EQ(loaded->vocab_fingerprint, artifact.vocab_fingerprint);
  EXPECT_EQ(loaded->strategy, artifact.strategy);
  EXPECT_EQ(loaded->empty_language, artifact.empty_language);
  EXPECT_EQ(loaded->prefix->automaton.dynamic_canonical,
            artifact.prefix->automaton.dynamic_canonical);
  EXPECT_EQ(loaded->body->automaton.dynamic_canonical,
            artifact.body->automaton.dynamic_canonical);
  EXPECT_EQ(loaded->prefix->automaton.dfa, artifact.prefix->automaton.dfa);
  EXPECT_EQ(loaded->body->automaton.dfa, artifact.body->automaton.dfa);
  EXPECT_EQ(loaded->prefix->automaton.masks, artifact.prefix->automaton.masks);
  EXPECT_EQ(loaded->body->automaton.masks, artifact.body->automaton.masks);
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

  // Serialize and reload both components, reassemble, rebind.
  core::CompiledQuery from_disk = core::CompiledQuery::from_artifact(
      relm::testing::reload_through_components(*fresh), tok);

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
  // Capacity 2 holds exactly two entries: a lookup refreshes k1, so the
  // third insert evicts k2.
  ArtifactCacheConfig config;
  config.capacity = 2;
  ArtifactCache cache(config);
  QueryArtifact artifact = compile_artifact(
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens));
  const ArtifactKey k1{1, 1};
  const ArtifactKey k2{2, 2};
  const ArtifactKey k3{3, 3};
  cache.insert(k1, artifact.body);
  cache.insert(k2, artifact.body);
  EXPECT_NE(cache.lookup(k1), nullptr);
  cache.insert(k3, artifact.body);
  EXPECT_EQ(cache.lookup(k2), nullptr);
  EXPECT_NE(cache.lookup(k1), nullptr);
  EXPECT_NE(cache.lookup(k3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
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
  expect_same_components(*loaded, *compiled);
  EXPECT_EQ(cold.stats().disk_loads, 2u);
  EXPECT_EQ(cold.stats().hits, 1u);
  EXPECT_EQ(cold.stats().misses, 0u);
}

// Processes forked from one parent store the same components into one
// directory at the same moments. Their temp files must never share a name:
// a shared temp file lets one writer truncate the other's file or rename it
// away first, so a store fails (a disk error) or a partial file lands.
TEST(ArtifactCache, ForkedWritersNeverShareTempFiles) {
  TempDir dir("forked_writers");
  const QueryArtifact artifact = compile_artifact(make_query(
      "The ((cat)|(dog))", TokenizationStrategy::kCanonicalTokens, "The "));
  constexpr std::uint32_t kWriters = 2;
  constexpr std::uint32_t kRounds = 200;

  // A barrier in shared memory starts every round in all writers at once.
  void* shared = mmap(nullptr, sizeof(std::atomic<std::uint32_t>),
                      PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(shared, MAP_FAILED);
  auto* arrived = new (shared) std::atomic<std::uint32_t>(0);

  std::vector<pid_t> writers;
  for (std::uint32_t w = 0; w < kWriters; ++w) {
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // The child reports through its exit status only: 0 clean, 1 a disk
      // error, 2 a barrier that never filled.
      ArtifactCacheConfig config;
      config.disk_dir = dir.str();
      ArtifactCache cache(config);
      for (std::uint32_t round = 0; round < kRounds; ++round) {
        arrived->fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (arrived->load() < kWriters * (round + 1)) {
          if (std::chrono::steady_clock::now() > deadline) _exit(2);
          std::this_thread::yield();
        }
        cache.insert(artifact.prefix->key, artifact.prefix);
        cache.insert(artifact.body->key, artifact.body);
      }
      _exit(cache.stats().disk_errors == 0 ? 0 : 1);
    }
    writers.push_back(pid);
  }
  for (pid_t pid : writers) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "0 clean, 1 disk error, 2 stalled";
  }
  munmap(shared, sizeof(std::atomic<std::uint32_t>));

  // Exactly the two entries remain, no temp file, and both load intact.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir.path),
                          std::filesystem::directory_iterator{}),
            2);
  for (const auto& component : {artifact.prefix, artifact.body}) {
    Component loaded = core::pipeline::load_component_file(
        dir.str() + "/" + component->key.hex() + ".relmc");
    EXPECT_EQ(loaded.automaton.dfa, component->automaton.dfa);
    EXPECT_EQ(loaded.automaton.masks, component->automaton.masks);
  }
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

// A damaged header field is corruption like a damaged payload: the checksum
// covers key, vocab and strategy, so an entry whose vocabulary fingerprint
// was altered is discarded and recompiled, never served to a query that
// would then refuse it as compiled for another vocabulary.
TEST(ArtifactCache, DamagedHeaderFieldFallsBackToRecompile) {
  TempDir dir("damaged_header");
  SimpleSearchQuery query = make_query(
      "The ((cat)|(dog))", TokenizationStrategy::kCanonicalTokens, "The ");
  ArtifactCacheConfig config;
  config.disk_dir = dir.str();
  std::shared_ptr<const QueryArtifact> compiled;
  {
    ArtifactCache warm(config);
    compiled =
        core::pipeline::compile_cached(query, fixture_tokenizer(), &warm);
    ASSERT_EQ(warm.stats().disk_stores, 2u);
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    std::string contents;
    {
      std::ifstream in(entry.path());
      contents.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    }
    const std::size_t at = contents.find("\nvocab ");
    ASSERT_NE(at, std::string::npos);
    char& digit = contents[at + 7];
    digit = digit == '0' ? '1' : '0';
    std::ofstream out(entry.path(), std::ios::trunc);
    out << contents;
  }

  ArtifactCache cold(config);
  auto artifact =
      core::pipeline::compile_cached(query, fixture_tokenizer(), &cold);
  ASSERT_TRUE(artifact);
  EXPECT_EQ(cold.stats().disk_loads, 0u);
  EXPECT_EQ(cold.stats().disk_errors, 2u);
  EXPECT_EQ(cold.stats().misses, 1u);
  EXPECT_EQ(artifact->vocab_fingerprint, fixture_tokenizer().fingerprint());
  expect_same_components(*artifact, *compiled);
  EXPECT_NO_THROW(
      (void)core::CompiledQuery::from_artifact(artifact, fixture_tokenizer()));
  // The recompile overwrote both entries.
  for (const auto& side : {artifact->prefix, artifact->body}) {
    EXPECT_EQ(core::pipeline::load_component_file(dir.str() + "/" +
                                                  side->key.hex() + ".relmc")
                  .vocab_fingerprint,
              fixture_tokenizer().fingerprint());
  }
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
      expect_same_components(*(*artifacts)[i], fresh);
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
      expect_same_components(*got[t][i], fresh[i]);
    }
  }
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * queries.size());
  // 3 prefixes + the word and no-stop bodies + 3 words bodies.
  EXPECT_EQ(stats.entries, 8u);
}

}  // namespace
}  // namespace relm
