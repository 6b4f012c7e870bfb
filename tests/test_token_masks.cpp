// Tests for the precomputed per-state token bitmask fast path: the
// util::TokenBitset currency, the token_masks compile pass and its
// TokenMaskTable, the expand_masked executor primitive (vs the per-edge
// reference path), the v2 artifact container with its v1 back-compat, the
// decoding-rule membership test, and the `relm verify` mask invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariants.hpp"
#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/generate/generate_engine.hpp"
#include "core/pipeline/artifact.hpp"
#include "core/pipeline/cache.hpp"
#include "core/pipeline/pipeline.hpp"
#include "core/token_masks.hpp"
#include "model/decoding.hpp"
#include "model/ngram_model.hpp"
#include "testing/differential.hpp"
#include "testing/fuzz_targets.hpp"
#include "tokenizer/bpe.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/token_bitset.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: replaces the global allocator for this binary so
// TokenAllowed.NoAllocation can pin the "no allocation" contract, not just
// eyeball it. Counting is the only side effect.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}

// GCC inlines these and then flags free() against the malloc inside the
// replaced new as a mismatched pair; the pair is internally consistent.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace relm {
namespace {

using core::CompiledQuery;
using core::SimpleSearchQuery;
using core::TokenizationStrategy;
using core::TokenMaskTable;
using model::DecodingRules;
using tokenizer::BpeTokenizer;
using tokenizer::TokenId;
using util::TokenBitset;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

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

// The stable tiny vocabulary the checked-in v1 fixture artifact was compiled
// against (see tests/fuzz_corpus/README-like comment in the fixture
// generator test below). from_vocab is exact — no training randomness — so
// the vocab fingerprint is reproducible forever.
BpeTokenizer tiny_tokenizer() {
  return BpeTokenizer::from_vocab({"", "a", "b", "c", "ab", "bc", "abc"});
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

SimpleSearchQuery tiny_fixture_query() {
  SimpleSearchQuery query = make_query("(ab|c)(a|bc)",
                                       TokenizationStrategy::kCanonicalTokens);
  return query;
}

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("relm_token_masks_test_" + name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// TokenBitset
// ---------------------------------------------------------------------------

TEST(TokenBitset, SetTestResetAcrossWordBoundaries) {
  TokenBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.num_words(), 3u);
  EXPECT_TRUE(bits.none());
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits[0] && bits[63] && bits[64] && bits[129]);
  EXPECT_FALSE(bits[1] || bits[65] || bits[128]);
  EXPECT_EQ(bits.count(), 4u);
  bits.reset(64);
  EXPECT_FALSE(bits[64]);
  EXPECT_EQ(bits.count(), 3u);
}

TEST(TokenBitset, TrailingBitsStayZero) {
  TokenBitset bits(70, true);
  EXPECT_EQ(bits.count(), 70u);  // not 128: bits past size() must be clear
  bits.set_all();
  EXPECT_EQ(bits.count(), 70u);
  EXPECT_EQ(bits.word(1) >> 6, 0ull);  // only the low 6 bits of word 1 used
}

TEST(TokenBitset, AndWithIntersects) {
  TokenBitset a(100), b(100);
  for (std::size_t i = 0; i < 100; i += 2) a.set(i);
  for (std::size_t i = 0; i < 100; i += 3) b.set(i);
  a.and_with(b);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a[i], i % 6 == 0) << i;
  }
}

TEST(TokenBitset, ForEachSetAscending) {
  TokenBitset bits(200);
  std::vector<std::size_t> want{0, 5, 63, 64, 127, 128, 199};
  for (std::size_t i : want) bits.set(i);
  std::vector<std::size_t> got;
  bits.for_each_set([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(TokenBitset, DefaultConstructedIsEmpty) {
  TokenBitset bits;
  EXPECT_TRUE(bits.empty());
  EXPECT_EQ(bits.num_words(), 0u);
}

// ---------------------------------------------------------------------------
// TokenMaskTable: build + mismatch detection
// ---------------------------------------------------------------------------

automata::Dfa tiny_dfa() {
  // 3 states over a 70-symbol alphabet (so masks straddle a word boundary).
  automata::Dfa dfa(70);
  automata::StateId s0 = dfa.add_state(false);
  automata::StateId s1 = dfa.add_state(false);
  automata::StateId s2 = dfa.add_state(true);
  dfa.set_start(s0);
  dfa.add_edge(s0, 2, s1);
  dfa.add_edge(s0, 65, s2);
  dfa.add_edge(s1, 0, s2);
  dfa.add_edge(s1, 69, s1);
  return dfa;
}

TEST(TokenMasks, BuildMatchesEdges) {
  automata::Dfa dfa = tiny_dfa();
  TokenMaskTable table = core::build_token_masks(dfa);
  EXPECT_EQ(table.num_states, 3u);
  EXPECT_EQ(table.words_per_state, 2u);
  EXPECT_EQ(table.num_edges(), 4u);
  EXPECT_EQ(table.memory_bytes(), core::token_mask_table_bytes(dfa));
  // State 0: tokens 2 and 65.
  EXPECT_EQ(table.state_words(0)[0], 1ull << 2);
  EXPECT_EQ(table.state_words(0)[1], 1ull << 1);
  // State 1: tokens 0 and 69.
  EXPECT_EQ(table.state_words(1)[0], 1ull << 0);
  EXPECT_EQ(table.state_words(1)[1], 1ull << 5);
  // State 2: nothing.
  EXPECT_EQ(table.state_words(2)[0], 0ull);
  EXPECT_EQ(table.state_words(2)[1], 0ull);
  // CSR slices in token order.
  EXPECT_EQ(table.edge_offsets, (std::vector<std::uint32_t>{0, 2, 4, 4}));
  EXPECT_EQ(table.edge_tokens, (std::vector<std::uint32_t>{2, 65, 0, 69}));
  EXPECT_EQ(table.edge_targets, (std::vector<std::uint32_t>{1, 2, 2, 1}));
  EXPECT_EQ(core::masks_mismatch(dfa, table), std::nullopt);
}

TEST(TokenMasks, MismatchDetectsEveryCorruption) {
  automata::Dfa dfa = tiny_dfa();
  const TokenMaskTable good = core::build_token_masks(dfa);

  TokenMaskTable bad = good;
  bad.words[0] |= 1ull << 10;  // phantom token bit
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());

  bad = good;
  bad.words[0] &= ~(1ull << 2);  // dropped token bit
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());

  bad = good;
  bad.edge_targets[1] = 0;  // edge rerouted
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());

  bad = good;
  bad.edge_tokens[2] = 7;  // wrong token label
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());

  bad = good;
  bad.edge_offsets[1] = 1;  // broken CSR slicing
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());

  bad = good;
  bad.num_states = 2;  // wrong dimensions
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());
}

TEST(TokenMasks, PipelineBuildsMasksForBothAutomata) {
  SimpleSearchQuery query = make_query("The ((cat)|(dog))",
                                       TokenizationStrategy::kCanonicalTokens,
                                       "The ");
  auto artifact =
      core::pipeline::compile_query_artifact(query, fixture_tokenizer());
  ASSERT_FALSE(artifact.prefix->automaton.masks.empty());
  ASSERT_FALSE(artifact.body->automaton.masks.empty());
  EXPECT_EQ(core::masks_mismatch(artifact.prefix->automaton.dfa, artifact.prefix->automaton.masks),
            std::nullopt);
  EXPECT_EQ(core::masks_mismatch(artifact.body->automaton.dfa, artifact.body->automaton.masks),
            std::nullopt);
}

// ---------------------------------------------------------------------------
// expand_masked == expand + rule filter, on every reachable state set
// ---------------------------------------------------------------------------

std::vector<CompiledQuery::Step> reference_expand(const CompiledQuery& cq,
                                                  const CompiledQuery::StateSet& set,
                                                  const TokenBitset* rule_mask) {
  std::vector<CompiledQuery::Step> out;
  for (const CompiledQuery::Step& step : cq.expand(set)) {
    if (!step.prefix_only && rule_mask && !(*rule_mask)[step.token]) continue;
    out.push_back(step);
  }
  return out;
}

void expect_steps_equal(const std::vector<CompiledQuery::Step>& got,
                        const std::vector<CompiledQuery::Step>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].token, want[i].token) << i;
    EXPECT_EQ(got[i].next, want[i].next) << i;
    EXPECT_EQ(got[i].prefix_only, want[i].prefix_only) << i;
    EXPECT_EQ(got[i].body_advanced, want[i].body_advanced) << i;
  }
}

void check_expand_equivalence(const SimpleSearchQuery& query) {
  CompiledQuery cq = CompiledQuery::compile(query, fixture_tokenizer());
  ASSERT_TRUE(cq.has_masks());
  const std::size_t vocab = fixture_tokenizer().vocab_size();
  util::Pcg32 rng(99);

  // BFS the reachable state sets (unmasked) and test each against the
  // reference on several rule masks plus the unrestricted case.
  std::vector<CompiledQuery::StateSet> frontier{cq.initial()};
  std::vector<CompiledQuery::StateSet> seen{cq.initial()};
  std::size_t tested = 0;
  std::vector<CompiledQuery::Step> fast;
  while (!frontier.empty() && tested < 200) {
    CompiledQuery::StateSet set = frontier.back();
    frontier.pop_back();
    ++tested;

    for (int variant = 0; variant < 4; ++variant) {
      TokenBitset mask(vocab);
      const TokenBitset* rule = nullptr;
      if (variant > 0) {
        // Densities 1/2, 1/8, and ~0 cover merge, heavy-prune, and
        // everything-pruned behavior.
        const std::uint32_t keep = variant == 1 ? 2 : variant == 2 ? 8 : 997;
        for (std::size_t t = 0; t < vocab; ++t) {
          if (rng.bounded(keep) == 0) mask.set(t);
        }
        rule = &mask;
      }
      CompiledQuery::StepCounters stats;
      cq.expand_masked(set, rule, fast, stats);
      expect_steps_equal(fast, reference_expand(cq, set, rule));
      EXPECT_GT(stats.mask_words_scanned, 0u);

      // mask_pruned must equal the rule-filtered non-prefix-only step count.
      std::size_t want_pruned = 0;
      for (const CompiledQuery::Step& step : cq.expand(set)) {
        if (!step.prefix_only && rule && !(*rule)[step.token]) ++want_pruned;
      }
      EXPECT_EQ(stats.mask_pruned, want_pruned);
    }

    for (const CompiledQuery::Step& step : cq.expand(set)) {
      if (std::find(seen.begin(), seen.end(), step.next) == seen.end()) {
        seen.push_back(step.next);
        frontier.push_back(step.next);
      }
    }
  }
  EXPECT_GT(tested, 1u);
}

TEST(ExpandMasked, MatchesReferenceCanonical) {
  check_expand_equivalence(make_query("The ((cat)|(dog))",
                                      TokenizationStrategy::kCanonicalTokens,
                                      "The "));
}

TEST(ExpandMasked, MatchesReferenceAllTokens) {
  check_expand_equivalence(
      make_query("The ((cat)|(dog))", TokenizationStrategy::kAllTokens, "The "));
}

TEST(ExpandMasked, MatchesReferenceDynamicCanonical) {
  SimpleSearchQuery query =
      make_query("ab+e", TokenizationStrategy::kCanonicalTokens);
  query.canonical_enumeration_budget = 1;  // force dynamic canonicality
  check_expand_equivalence(query);
}

TEST(ExpandMasked, MatchesReferenceNoPrefix) {
  check_expand_equivalence(
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens));
}

// ---------------------------------------------------------------------------
// Executors: an artifact and its mask-less copy must be byte-identical;
// counters move
// ---------------------------------------------------------------------------

void expect_same_results(const std::vector<core::SearchResult>& got,
                         const std::vector<core::SearchResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tokens, want[i].tokens) << i;
    EXPECT_EQ(got[i].text, want[i].text) << i;
    EXPECT_EQ(got[i].log_prob, want[i].log_prob) << i;  // exact
  }
}

// The probe path's per-edge rule prunes move wholesale to mask_pruned;
// EOS-closure prunes (if any) are the only pruned_by_rules left.
template <typename Stats>
void expect_prunes_moved(const Stats& masked, const Stats& probed) {
  EXPECT_GT(masked.mask_words_scanned, 0u);
  EXPECT_EQ(probed.mask_words_scanned, 0u);
  EXPECT_EQ(masked.mask_pruned + masked.pruned_by_rules, probed.pruned_by_rules);
  EXPECT_EQ(masked.pruned_non_canonical, probed.pruned_non_canonical);
}

// Runs every traversal — shortest path, beam, sampler and a GenerateEngine
// cohort — on the compiled query and on its mask-less copy (the probe path).
void expect_masks_invisible(const SimpleSearchQuery& query) {
  CompiledQuery cq = CompiledQuery::compile(query, fixture_tokenizer());
  ASSERT_TRUE(cq.has_masks());
  CompiledQuery probe = testing::without_masks(cq);
  ASSERT_FALSE(probe.has_masks());

  core::ShortestPathSearch on_search(*fixture_model(), cq, query);
  core::ShortestPathSearch off_search(*fixture_model(), probe, query);
  auto on_results = on_search.all();
  ASSERT_FALSE(on_results.empty());
  expect_same_results(on_results, off_search.all());
  expect_prunes_moved(on_search.stats(), off_search.stats());

  core::BeamSearch on_beam(*fixture_model(), cq, query);
  core::BeamSearch off_beam(*fixture_model(), probe, query);
  expect_same_results(on_beam.run(), off_beam.run());
  expect_prunes_moved(on_beam.stats(), off_beam.stats());

  // Sampler: identical draws from identical seeds.
  core::RandomSampler on_sampler(*fixture_model(), cq, query, 42);
  core::RandomSampler off_sampler(*fixture_model(), probe, query, 42);
  expect_same_results(on_sampler.sample_all(), off_sampler.sample_all());
  expect_prunes_moved(on_sampler.stats(), off_sampler.stats());

  core::generate::GenerateEngine on_engine(*fixture_model(), cq, query, 7);
  core::generate::GenerateEngine off_engine(*fixture_model(), probe, query, 7);
  for (int i = 0; i < 8; ++i) {
    on_engine.add_stream();
    off_engine.add_stream();
  }
  on_engine.run();
  off_engine.run();
  std::size_t done = 0;
  for (std::size_t id = 0; id < on_engine.num_streams(); ++id) {
    ASSERT_EQ(on_engine.state(id), off_engine.state(id)) << id;
    if (!on_engine.result(id)) continue;
    ++done;
    expect_same_results({*on_engine.result(id)}, {*off_engine.result(id)});
  }
  EXPECT_GT(done, 0u);
  expect_prunes_moved(on_engine.stats(), off_engine.stats());
}

TEST(Executors, MaskFastPathIsByteIdenticalAndCounted) {
  SimpleSearchQuery query = make_query("The ((cat)|(dog))",
                                       TokenizationStrategy::kCanonicalTokens,
                                       "The ");
  query.decoding.top_k = 200;  // prunes plenty of the 400-token vocab while
                               // leaving the query's language reachable
  expect_masks_invisible(query);

  // Dynamic canonicality under a rule mask: the canonical check runs after
  // the rule filter on both paths, so its prunes must agree too.
  SimpleSearchQuery dynamic = make_query(
      "The (cat|dog) (sat|ran) on the mat\\.", TokenizationStrategy::kCanonicalTokens);
  dynamic.canonical_enumeration_budget = 1;  // force dynamic canonicality
  dynamic.decoding.top_k = 100;
  dynamic.num_samples = 16;
  expect_masks_invisible(dynamic);
  CompiledQuery dynamic_cq = CompiledQuery::compile(dynamic, fixture_tokenizer());
  ASSERT_TRUE(dynamic_cq.dynamic_canonical());
  core::ShortestPathSearch search(*fixture_model(), dynamic_cq, dynamic);
  search.all();
  EXPECT_GT(search.stats().pruned_non_canonical, 0u);
  EXPECT_GT(search.stats().mask_pruned, 0u);
}

// ---------------------------------------------------------------------------
// token_allowed: no allocation, agreement with allowed_tokens
// ---------------------------------------------------------------------------

std::vector<double> random_log_probs(util::Pcg32& rng, std::size_t vocab,
                                     bool uniform) {
  std::vector<double> p(vocab);
  double total = 0.0;
  for (double& v : p) {
    v = uniform ? 1.0 : 0.05 + rng.uniform();
    total += v;
  }
  std::vector<double> lp(vocab);
  for (std::size_t i = 0; i < vocab; ++i) lp[i] = std::log(p[i] / total);
  return lp;
}

TEST(TokenAllowed, AgreesWithAllowedTokensIncludingTies) {
  util::Pcg32 rng(7);
  std::vector<DecodingRules> rule_sets(4);
  rule_sets[1].top_k = 5;
  rule_sets[2].top_p = 0.7;
  rule_sets[3].top_k = 9;
  rule_sets[3].top_p = 0.85;
  rule_sets[3].temperature = 0.6;
  DecodingRules hot;
  hot.top_p = 0.5;
  hot.temperature = 1.7;
  rule_sets.push_back(hot);

  for (int trial = 0; trial < 12; ++trial) {
    // Half the trials are fully uniform distributions: every log-prob ties,
    // the worst case for rank-order agreement between the two functions.
    const bool uniform = trial % 2 == 0;
    std::vector<double> lp = random_log_probs(rng, 50 + trial * 13, uniform);
    for (const DecodingRules& rules : rule_sets) {
      TokenBitset mask = model::allowed_tokens(lp, rules);
      for (std::size_t t = 0; t < lp.size(); ++t) {
        EXPECT_EQ(mask[t],
                  model::token_allowed(lp, rules, static_cast<TokenId>(t)))
            << "trial " << trial << " token " << t
            << (uniform ? " (uniform)" : "");
      }
    }
  }

  // Quantized rows — a few distinct probability levels, so the tie class
  // at rank k straddles the cut — some with -inf entries (tokens the model
  // rules out), under top-k at the vocabulary edges k in {1, V-1, V, V+1}
  // alone and combined with top-p and temperature: 50 rows x 4 k x 7 rule
  // variants.
  const std::pair<double, std::optional<double>> variants[] = {
      {1.0, std::nullopt}, {1.0, 0.3}, {1.0, 0.9}, {0.7, std::nullopt},
      {0.7, 0.5},          {1.6, std::nullopt}, {1.6, 0.8}};
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t vocab = 6 + static_cast<std::size_t>(trial);
    const std::uint32_t levels = 2 + static_cast<std::uint32_t>(trial % 4);
    std::vector<double> p(vocab);
    double total = 0.0;
    for (double& v : p) {
      v = 1.0 + rng.bounded(levels);
      total += v;
    }
    std::vector<double> lp(vocab);
    for (std::size_t i = 0; i < vocab; ++i) lp[i] = std::log(p[i] / total);
    if (trial % 3 == 0) {
      // Rule out about a quarter of the tokens, always keeping token 0.
      for (std::size_t i = 1; i < vocab; ++i) {
        if (rng.bounded(4) == 0) lp[i] = -std::numeric_limits<double>::infinity();
      }
    }
    const int V = static_cast<int>(vocab);
    for (int k : {1, V - 1, V, V + 1}) {
      for (const auto& [temperature, top_p] : variants) {
        DecodingRules rules;
        rules.top_k = k;
        rules.top_p = top_p;
        rules.temperature = temperature;
        TokenBitset mask = model::allowed_tokens(lp, rules);
        if (!top_p) {
          EXPECT_EQ(mask.count(), std::min(vocab, static_cast<std::size_t>(k)))
              << "trial " << trial << " k " << k;
        }
        for (std::size_t t = 0; t < vocab; ++t) {
          EXPECT_EQ(mask[t],
                    model::token_allowed(lp, rules, static_cast<TokenId>(t)))
              << "quantized trial " << trial << " k " << k << " T "
              << temperature << " token " << t;
        }
      }
    }
  }
}

TEST(TokenAllowed, NoAllocation) {
  util::Pcg32 rng(13);
  std::vector<double> lp = random_log_probs(rng, 512, /*uniform=*/false);
  DecodingRules rules;
  rules.top_k = 7;
  rules.top_p = 0.9;
  rules.temperature = 0.7;
  (void)model::token_allowed(lp, rules, 3);  // warm-up (lazy runtime state)

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  bool any = false;
  for (std::size_t t = 0; t < lp.size(); ++t) {
    any |= model::token_allowed(lp, rules, static_cast<TokenId>(t));
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "token_allowed allocated on a membership test";
  EXPECT_TRUE(any);
}

// ---------------------------------------------------------------------------
// Artifact container: v2 round-trip, corruption rejection, v1 back-compat
// ---------------------------------------------------------------------------

TEST(ArtifactV2, RoundTripPreservesMasks) {
  SimpleSearchQuery query = make_query("The ((cat)|(dog))",
                                       TokenizationStrategy::kCanonicalTokens,
                                       "The ");
  auto artifact =
      core::pipeline::compile_query_artifact(query, fixture_tokenizer());
  std::ostringstream sink;
  core::pipeline::save_artifact(artifact, sink);
  EXPECT_NE(sink.str().find("RELM_ARTIFACT v2"), std::string::npos);
  EXPECT_NE(sink.str().find("RELM_MASKS v1"), std::string::npos);

  std::istringstream source(sink.str());
  core::pipeline::QueryArtifact reloaded = core::pipeline::load_artifact(source);
  EXPECT_EQ(reloaded.prefix->automaton.masks, artifact.prefix->automaton.masks);
  EXPECT_EQ(reloaded.body->automaton.masks, artifact.body->automaton.masks);
  EXPECT_EQ(core::pipeline::artifact_checksum(reloaded),
            core::pipeline::artifact_checksum(artifact));
}

std::string v2_container_text() {
  SimpleSearchQuery query = make_query("The ((cat)|(dog))",
                                       TokenizationStrategy::kCanonicalTokens,
                                       "The ");
  auto artifact =
      core::pipeline::compile_query_artifact(query, fixture_tokenizer());
  std::ostringstream sink;
  core::pipeline::save_artifact(artifact, sink);
  return sink.str();
}

void expect_load_fails_with(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  try {
    (void)core::pipeline::load_artifact(in);
    FAIL() << "corrupt container loaded cleanly (wanted \"" << needle << "\")";
  } catch (const relm::Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

TEST(ArtifactV2, BitFlippedMaskWordRejected) {
  std::string text = v2_container_text();
  // Flip one hex digit inside the first "bits" payload line.
  std::size_t bits_pos = text.find("\nbits ");
  ASSERT_NE(bits_pos, std::string::npos);
  std::size_t digit = bits_pos + 6;
  text[digit] = text[digit] == '0' ? '1' : '0';
  expect_load_fails_with(text, "masks_checksum mismatch");
}

TEST(ArtifactV2, TruncatedMaskSectionRejectedWithLocation) {
  std::string text = v2_container_text();
  std::size_t bits_pos = text.find("\nbits ");
  ASSERT_NE(bits_pos, std::string::npos);
  expect_load_fails_with(text.substr(0, bits_pos + 8), "masks");
}

TEST(ArtifactV2, MaskDimensionForgeryRejectedBeforeAllocation) {
  std::string text = v2_container_text();
  // Forge an absurd state count in the first RELM_MASKS header (the DFA
  // section's own dimensions line carries no field labels, so anchor on the
  // masks section). The loader must refuse by comparing against the
  // already-loaded DFA instead of allocating what the header claims.
  std::size_t masks_pos = text.find("RELM_MASKS");
  ASSERT_NE(masks_pos, std::string::npos);
  std::size_t pos = text.find("states ", masks_pos);
  ASSERT_NE(pos, std::string::npos);
  std::size_t digits = pos + 7;
  std::size_t digits_end = text.find(' ', digits);
  ASSERT_NE(digits_end, std::string::npos);
  text.replace(digits, digits_end - digits, "99999999");
  expect_load_fails_with(text, "states");
}

TEST(ArtifactV2, UnsupportedVersionNamesReadableRange) {
  expect_load_fails_with("RELM_ARTIFACT v3\nkey junk\n", "v1-v2");
}

TEST(ArtifactV1, LegacyWriterOutputReloadsWithRecomputedMasks) {
  for (auto strategy : {TokenizationStrategy::kCanonicalTokens,
                        TokenizationStrategy::kAllTokens}) {
    SimpleSearchQuery query =
        make_query("The ((cat)|(dog))", strategy, "The ");
    auto artifact =
        core::pipeline::compile_query_artifact(query, fixture_tokenizer());
    std::ostringstream sink;
    core::pipeline::save_artifact_v1(artifact, sink);
    EXPECT_NE(sink.str().find("RELM_ARTIFACT v1"), std::string::npos);
    EXPECT_EQ(sink.str().find("RELM_MASKS"), std::string::npos);

    std::istringstream source(sink.str());
    core::pipeline::QueryArtifact reloaded =
        core::pipeline::load_artifact(source);
    // Masks were not in the file; the loader recomputes them, bit-identical
    // to the fresh compile's token_masks pass.
    EXPECT_EQ(reloaded.prefix->automaton.masks, artifact.prefix->automaton.masks);
    EXPECT_EQ(reloaded.body->automaton.masks, artifact.body->automaton.masks);
  }
}

TEST(ArtifactV1, DynamicCanonicalReloadDrivesExecutorsIdentically) {
  SimpleSearchQuery query =
      make_query("ab+e", TokenizationStrategy::kCanonicalTokens);
  query.canonical_enumeration_budget = 1;  // force dynamic canonicality
  query.require_eos = false;
  auto fresh =
      core::pipeline::compile_query_artifact(query, fixture_tokenizer());
  ASSERT_TRUE(fresh.body->automaton.dynamic_canonical);

  std::ostringstream sink;
  core::pipeline::save_artifact_v1(fresh, sink);
  std::istringstream source(sink.str());
  auto reloaded = std::make_shared<core::pipeline::QueryArtifact>(
      core::pipeline::load_artifact(source));

  CompiledQuery from_fresh = CompiledQuery::from_artifact(
      std::make_shared<core::pipeline::QueryArtifact>(fresh),
      fixture_tokenizer());
  CompiledQuery from_v1 =
      CompiledQuery::from_artifact(reloaded, fixture_tokenizer());

  core::ShortestPathSearch fresh_search(*fixture_model(), from_fresh, query);
  core::ShortestPathSearch v1_search(*fixture_model(), from_v1, query);
  auto fresh_results = fresh_search.all();
  auto v1_results = v1_search.all();
  ASSERT_FALSE(fresh_results.empty());
  ASSERT_EQ(fresh_results.size(), v1_results.size());
  for (std::size_t i = 0; i < fresh_results.size(); ++i) {
    EXPECT_EQ(fresh_results[i].tokens, v1_results[i].tokens);
    EXPECT_EQ(fresh_results[i].log_prob, v1_results[i].log_prob);  // bitwise
  }
}

// The checked-in fixture: a v1 container written by the legacy writer against
// the stable tiny_tokenizer() vocabulary. It must keep loading forever, and
// drive the executors exactly like a fresh v2 compile of the same query.
TEST(ArtifactV1, CheckedInFixtureMatchesFreshCompile) {
  const std::string path =
      std::string(RELM_FUZZ_CORPUS_DIR) + "/artifact-v1-tiny.relmq";
  BpeTokenizer tok = tiny_tokenizer();
  std::string text = slurp(path);
  ASSERT_NE(text.find("RELM_ARTIFACT v1"), std::string::npos);

  std::istringstream in(text);
  auto reloaded = std::make_shared<core::pipeline::QueryArtifact>(
      core::pipeline::load_artifact(in));
  ASSERT_FALSE(reloaded->prefix->automaton.masks.empty());
  ASSERT_FALSE(reloaded->body->automaton.masks.empty());

  SimpleSearchQuery query = tiny_fixture_query();
  auto fresh = core::pipeline::compile_query_artifact(query, tok);
  // The fixture's stored key predates component keys, so its automata
  // identify the query it was built for.
  EXPECT_EQ(core::pipeline::artifact_checksum(*reloaded),
            core::pipeline::artifact_checksum(fresh))
      << "fixture was built for another query";
  EXPECT_EQ(reloaded->prefix->automaton.dfa, fresh.prefix->automaton.dfa);
  EXPECT_EQ(reloaded->body->automaton.dfa, fresh.body->automaton.dfa);
  EXPECT_EQ(reloaded->prefix->automaton.masks, fresh.prefix->automaton.masks);
  EXPECT_EQ(reloaded->body->automaton.masks, fresh.body->automaton.masks);

  model::NgramModel::Config config;
  config.order = 2;
  config.max_sequence_length = 16;
  auto model = model::NgramModel::train(tok, {"aba", "cbc", "abc"}, config);

  CompiledQuery from_fixture = CompiledQuery::from_artifact(reloaded, tok);
  CompiledQuery from_fresh = CompiledQuery::from_artifact(
      std::make_shared<core::pipeline::QueryArtifact>(fresh), tok);
  core::ShortestPathSearch fixture_search(*model, from_fixture, query);
  core::ShortestPathSearch fresh_search(*model, from_fresh, query);
  auto fixture_results = fixture_search.all();
  auto fresh_results = fresh_search.all();
  ASSERT_FALSE(fresh_results.empty());
  ASSERT_EQ(fixture_results.size(), fresh_results.size());
  for (std::size_t i = 0; i < fresh_results.size(); ++i) {
    EXPECT_EQ(fixture_results[i].tokens, fresh_results[i].tokens);
    EXPECT_EQ(fixture_results[i].log_prob, fresh_results[i].log_prob);
  }
}

// ---------------------------------------------------------------------------
// Component container (the compile cache's disk format): the same section
// checks as the v2 artifact container
// ---------------------------------------------------------------------------

std::string component_text(TokenizationStrategy strategy =
                               TokenizationStrategy::kCanonicalTokens) {
  SimpleSearchQuery query = make_query("The ((cat)|(dog))", strategy, "The ");
  auto artifact =
      core::pipeline::compile_query_artifact(query, fixture_tokenizer());
  std::ostringstream sink;
  core::pipeline::save_component(*artifact.body, sink);
  return sink.str();
}

void expect_component_load_fails_with(const std::string& text,
                                      const std::string& needle) {
  std::istringstream in(text);
  try {
    (void)core::pipeline::load_component(in);
    FAIL() << "corrupt component loaded cleanly (wanted \"" << needle << "\")";
  } catch (const relm::Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

TEST(ComponentV1, RoundTripPreservesEverything) {
  for (auto strategy : {TokenizationStrategy::kCanonicalTokens,
                        TokenizationStrategy::kAllTokens}) {
    SimpleSearchQuery query = make_query("The a(b|(cd))*e", strategy, "The ");
    auto artifact =
        core::pipeline::compile_query_artifact(query, fixture_tokenizer());
    for (const auto& component : {artifact.prefix, artifact.body}) {
      std::ostringstream sink;
      core::pipeline::save_component(*component, sink);
      EXPECT_EQ(sink.str().rfind("RELM_COMPONENT v1\n", 0), 0u);
      std::istringstream source(sink.str());
      core::pipeline::Component loaded = core::pipeline::load_component(source);
      EXPECT_EQ(loaded.key, component->key);
      EXPECT_EQ(loaded.vocab_fingerprint, component->vocab_fingerprint);
      EXPECT_EQ(loaded.strategy, component->strategy);
      EXPECT_EQ(loaded.automaton.dynamic_canonical,
                component->automaton.dynamic_canonical);
      EXPECT_EQ(loaded.automaton.dfa, component->automaton.dfa);
      EXPECT_EQ(loaded.automaton.masks, component->automaton.masks);
      EXPECT_EQ(loaded.empty_language, component->empty_language);
    }
  }
}

TEST(ComponentV1, CorruptionRejectedWithLocation) {
  const std::string good = component_text();
  const std::size_t bits_pos = good.find("\nbits ");
  ASSERT_NE(bits_pos, std::string::npos);

  std::string flipped = good;
  flipped[bits_pos + 6] = flipped[bits_pos + 6] == '0' ? '1' : '0';
  expect_component_load_fails_with(flipped, "masks_checksum mismatch");
  expect_component_load_fails_with(good.substr(0, bits_pos + 8), "masks");

  std::string forged = good;
  const std::size_t states = forged.find("states ", forged.find("RELM_MASKS"));
  ASSERT_NE(states, std::string::npos);
  forged.replace(states + 7, forged.find(' ', states + 7) - (states + 7),
                 "99999999");
  expect_component_load_fails_with(forged, "states");

  // A bit-flip in the DFA payload: the last digit before the masks section.
  std::string payload = good;
  const std::size_t digit =
      payload.find_last_of("0123456789", payload.find("RELM_MASKS"));
  ASSERT_GT(digit, payload.find("RELM_DFA v1\n"));
  payload[digit] = payload[digit] == '0' ? '1' : '0';
  std::istringstream payload_in(payload);
  EXPECT_THROW((void)core::pipeline::load_component(payload_in), relm::Error);

  expect_component_load_fails_with("RELM_COMPONENT v2\nkey junk\n", "v1-v1");
  expect_component_load_fails_with(v2_container_text(), "bad magic");
  for (std::size_t cut : {std::size_t{10}, good.size() / 2, good.size() - 4}) {
    std::istringstream in(good.substr(0, cut));
    EXPECT_THROW((void)core::pipeline::load_component(in), relm::Error) << cut;
  }
}

TEST(ComponentV1, RejectsIncoherentStrategyFlag) {
  SimpleSearchQuery query =
      make_query("(cat)|(dog)", TokenizationStrategy::kAllTokens);
  auto artifact =
      core::pipeline::compile_query_artifact(query, fixture_tokenizer());
  core::pipeline::Component forged = *artifact.body;
  forged.automaton.dynamic_canonical = true;  // checksum rewritten to match
  std::ostringstream sink;
  core::pipeline::save_component(forged, sink);
  expect_component_load_fails_with(sink.str(), "dynamic_canonical");
}

// ---------------------------------------------------------------------------
// Fuzz corpus: corrupt v2 containers must be rejected, never crash
// ---------------------------------------------------------------------------

TEST(FuzzCorpus, CorruptV2ArtifactsRejectedWithDiagnostics) {
  for (const char* name :
       {"artifact-v2-truncated-masks.relmq", "artifact-v2-mask-bitflip.relmq"}) {
    SCOPED_TRACE(name);
    std::string text = slurp(std::string(RELM_FUZZ_CORPUS_DIR) + "/" + name);
    ASSERT_FALSE(text.empty());
    // The fuzz entry point must treat the input as a clean rejection (return
    // 0 without aborting) ...
    EXPECT_EQ(testing::fuzz_artifact_loader(
                  reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()),
              0);
    // ... and the loader must say *where* it gave up.
    std::istringstream in(text);
    try {
      (void)core::pipeline::load_artifact(in);
      FAIL() << "corrupt corpus file loaded cleanly";
    } catch (const relm::Error& e) {
      EXPECT_NE(std::string(e.what()).find("masks"), std::string::npos)
          << "diagnostic was: " << e.what();
    }
  }
}

// The checked-in component seeds: the valid one loads, passes the audit and
// equals a fresh compile of its query; the two corrupt ones are rejected by
// both the loader and the fuzz entry point.
TEST(FuzzCorpus, ComponentSeedsLoadOrRejectWithDiagnostics) {
  const std::string dir = std::string(RELM_FUZZ_CORPUS_DIR) + "/";
  BpeTokenizer tok = tiny_tokenizer();
  core::pipeline::Component valid =
      core::pipeline::load_component_file(dir + "component-v1-tiny.relmc");
  analysis::InvariantReport report;
  analysis::check_component(valid, &tok, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
  auto fresh = core::pipeline::compile_query_artifact(tiny_fixture_query(), tok);
  EXPECT_EQ(valid.vocab_fingerprint, tok.fingerprint());
  EXPECT_EQ(valid.automaton.dfa, fresh.body->automaton.dfa);
  EXPECT_EQ(valid.automaton.masks, fresh.body->automaton.masks);

  for (const char* name : {"component-v1-tiny.relmc",
                           "component-v1-truncated-masks.relmc",
                           "component-v1-mask-bitflip.relmc"}) {
    SCOPED_TRACE(name);
    std::string text = slurp(dir + name);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(testing::fuzz_artifact_loader(
                  reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()),
              0);
    if (std::string(name) == "component-v1-tiny.relmc") continue;
    expect_component_load_fails_with(text, "masks");
  }
}

// ---------------------------------------------------------------------------
// Compile cache: a disk entry with a corrupted mask section falls back to
// recompilation (counted), never crashes or serves wrong masks
// ---------------------------------------------------------------------------

TEST(ArtifactCache, CorruptMaskSectionFallsBackToRecompile) {
  using core::pipeline::ArtifactCache;
  using core::pipeline::ArtifactCacheConfig;
  using core::pipeline::ArtifactKey;

  TempDir dir("corrupt_masks");
  SimpleSearchQuery query = make_query("(cat)|(dog)",
                                       TokenizationStrategy::kCanonicalTokens);
  ArtifactCacheConfig config;
  config.disk_dir = dir.str();

  ArtifactKey key;
  {
    ArtifactCache warm(config);
    key = core::pipeline::compile_cached(query, fixture_tokenizer(), &warm)
              ->body->key;
  }
  const std::string path = dir.str() + "/" + key.hex() + ".relmc";
  {
    std::string contents = slurp(path);
    std::size_t bits_pos = contents.find("\nbits ");
    ASSERT_NE(bits_pos, std::string::npos);
    std::size_t digit = bits_pos + 6;
    contents[digit] = contents[digit] == '0' ? '1' : '0';
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << contents;
  }

  ArtifactCache cold(config);
  EXPECT_EQ(cold.lookup(key), nullptr);  // corrupt = miss, never a crash
  EXPECT_EQ(cold.stats().disk_errors, 1u);

  auto artifact = core::pipeline::compile_cached(query, fixture_tokenizer(), &cold);
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(cold.stats().misses, 1u);  // the body was recompiled
  EXPECT_EQ(core::masks_mismatch(artifact->body->automaton.dfa,
                                 artifact->body->automaton.masks),
            std::nullopt);
  // The recompile overwrote the bad entry.
  EXPECT_EQ(core::pipeline::load_component_file(path).automaton.masks,
            artifact->body->automaton.masks);
}

// ---------------------------------------------------------------------------
// relm verify: persisted masks are audited against the automata
// ---------------------------------------------------------------------------

TEST(CheckQueryArtifact, FlagsMaskMismatchAndHalfPresence) {
  SimpleSearchQuery query = make_query("(cat)|(dog)",
                                       TokenizationStrategy::kCanonicalTokens);
  auto artifact =
      core::pipeline::compile_query_artifact(query, fixture_tokenizer());

  {
    analysis::InvariantReport report;
    analysis::check_query_artifact(artifact, nullptr, report);
    EXPECT_FALSE(report.has("artifact.token-masks")) << report.to_string();
  }
  {
    core::pipeline::QueryArtifact bad = artifact;
    auto body = std::make_shared<core::pipeline::Component>(*artifact.body);
    body->automaton.masks.words[0] ^= 1;  // one flipped mask bit
    bad.body = body;
    analysis::InvariantReport report;
    analysis::check_query_artifact(bad, nullptr, report);
    EXPECT_TRUE(report.has("artifact.token-masks")) << report.to_string();
    analysis::InvariantReport component_report;
    analysis::check_component(*body, nullptr, component_report);
    EXPECT_TRUE(component_report.has("artifact.token-masks"))
        << component_report.to_string();
  }
  {
    // The mask budget applies per component, so a half-present pair is a
    // legal artifact: executors need both tables, and take the probe path.
    core::pipeline::QueryArtifact half = artifact;
    auto prefix = std::make_shared<core::pipeline::Component>(*artifact.prefix);
    prefix->automaton.masks = core::TokenMaskTable{};
    half.prefix = prefix;
    analysis::InvariantReport report;
    analysis::check_query_artifact(half, nullptr, report);
    EXPECT_FALSE(report.has("artifact.token-masks")) << report.to_string();
    CompiledQuery probe = CompiledQuery::from_artifact(
        std::make_shared<const core::pipeline::QueryArtifact>(half),
        fixture_tokenizer());
    EXPECT_FALSE(probe.has_masks());
    CompiledQuery masked = CompiledQuery::from_artifact(
        std::make_shared<const core::pipeline::QueryArtifact>(artifact),
        fixture_tokenizer());
    ASSERT_TRUE(masked.has_masks());
    core::ShortestPathSearch probe_search(*fixture_model(), probe, query);
    core::ShortestPathSearch masked_search(*fixture_model(), masked, query);
    auto masked_results = masked_search.all();
    ASSERT_FALSE(masked_results.empty());
    expect_same_results(probe_search.all(), masked_results);
  }
}

}  // namespace
}  // namespace relm
