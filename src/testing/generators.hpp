#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "automata/regex_ast.hpp"
#include "core/query.hpp"
#include "model/language_model.hpp"
#include "testing/json.hpp"
#include "tokenizer/bpe.hpp"
#include "util/rng.hpp"

namespace relm::testing {

// Generative harness: seeded random regexes, vocabularies, model configs and
// complete trial cases for the differential fuzzer.
//
// Everything here is a pure function of a Pcg32 stream, so a failing trial is
// identified by its seed alone; the repro file (TrialCase::to_json) addition-
// ally pins the fully expanded case so replay does not depend on generator
// code staying frozen across revisions.

// ---------------------------------------------------------------------------
// Random regex ASTs

struct RegexGenConfig {
  std::string alphabet = "abcd";  // chars drawn for literals / classes
  int max_depth = 4;              // nesting bound; depth 0 forces a leaf
  int max_repeat = 2;             // repeat bounds stay small: min in [0,2],
                                  // max = min + [0,2] (or unbounded)
  double unbounded_prob = 0.15;   // chance a repeat becomes r{min,}
  // Weight of each boolean-algebra bucket (intersect / complement /
  // difference) relative to concat's 4. 0 disables the algebra buckets and
  // restores the pre-algebra generator draw-for-draw.
  double algebra_weight = 1.0;
};

// Draws a valid AST: never kEmptySet, repeat bounds always satisfiable, every
// char class non-empty and drawn from `alphabet`. The weighting favours small
// shapes so most cases compile into automata an oracle can enumerate.
automata::RegexPtr random_regex(util::Pcg32& rng, const RegexGenConfig& config);

// Total AST nodes (the shrinker's progress measure and the "<= 3 node"
// acceptance bound for minimized repros).
std::size_t node_count(const automata::RegexNode& node);

// Renders an AST in this repository's regex dialect such that
// parse_regex(pattern_of(n)) accepts and describes the same language.
// Epsilon prints as "()", an empty class as "[^\x00-\xff]"; kEmptySet has
// no dialect syntax and throws relm::Error (generators never produce it).
std::string pattern_of(const automata::RegexNode& node);

// ---------------------------------------------------------------------------
// Random vocabularies

struct VocabGenConfig {
  std::string alphabet = "abcd";
  std::size_t max_merged = 6;   // multi-char tokens beyond the base alphabet
  std::size_t max_token_len = 3;
};

// Token list acceptable to BpeTokenizer::from_vocab: exactly one "" entry
// (EOS) first, every single alphabet char (so all generated regexes stay
// encodable), plus up to max_merged random multi-char strings, deduplicated.
std::vector<std::string> random_vocab(util::Pcg32& rng,
                                      const VocabGenConfig& config);

// ---------------------------------------------------------------------------
// Model specifications (replayable: build() retrains deterministically)

struct ModelSpec {
  enum class Kind { kUniform, kNgram, kMlp };

  Kind kind = Kind::kUniform;
  std::size_t vocab_size = 0;
  tokenizer::TokenId eos = 0;
  std::size_t max_sequence_length = 24;

  // kNgram
  std::size_t ngram_order = 3;
  double ngram_alpha = 0.3;

  // kMlp
  std::size_t mlp_context = 3;
  std::size_t mlp_embedding = 8;
  std::size_t mlp_hidden = 16;
  std::size_t mlp_epochs = 2;
  std::uint64_t mlp_seed = 13;

  // Training documents (token ids, EOS excluded; trainers add the wrapping).
  std::vector<std::vector<tokenizer::TokenId>> sequences;

  std::shared_ptr<model::LanguageModel> build() const;

  Json to_json() const;
  static ModelSpec from_json(const Json& j);
};

// Draws a spec for the given vocabulary: random kind, random hyperparameters
// in small ranges, random training corpus over the full token id space.
ModelSpec random_model_spec(util::Pcg32& rng, std::size_t vocab_size,
                            tokenizer::TokenId eos);

// ---------------------------------------------------------------------------
// Complete trial cases

struct TrialCase {
  std::uint64_t seed = 0;            // generator seed (provenance only)
  std::vector<std::string> vocab;    // BpeTokenizer::from_vocab input
  ModelSpec model;
  std::string prefix;                // literal prefix pattern (may be empty)
  std::string body;                  // body pattern (dialect syntax)
  // Non-empty enables the difference configuration (G): the one-pass query
  // `prefix((body)-(body_b))` is compared against running `prefix(body)` and
  // filtering the results through body_b's character DFA afterwards.
  std::string body_b;
  bool all_tokens = false;           // kAllTokens vs kCanonicalTokens
  bool require_eos = false;
  std::size_t top_k = 0;             // 0 = off
  double top_p = 1.0;
  double temperature = 1.0;
  std::size_t sequence_length = 8;
  std::size_t num_samples = 24;
  std::uint64_t sampler_seed = 1;
  std::size_t canonical_enumeration_budget = 50000;

  // Assembles the SimpleSearchQuery this case describes (strategy left at
  // the default; the differential runner overrides it per executor).
  core::SimpleSearchQuery query() const;

  Json to_json() const;
  static TrialCase from_json(const Json& j);
};

struct GenConfig {
  RegexGenConfig regex;
  VocabGenConfig vocab;
  double difference_prob = 0.25;   // chance the trial carries a body_b
  double prefix_prob = 0.35;       // chance the query carries a literal prefix
  double all_tokens_prob = 0.3;
  double require_eos_prob = 0.35;
  double decoding_prob = 0.3;      // chance of a non-trivial top-k/top-p
  std::size_t min_seq_len = 3;
  std::size_t max_seq_len = 8;
};

// Fully expands a seed into a trial case. Distinct Pcg32 streams are used for
// the independent components so tweaking one generator does not reshuffle the
// others' draws for the same seed.
TrialCase generate_case(std::uint64_t seed, const GenConfig& config = {});

}  // namespace relm::testing
