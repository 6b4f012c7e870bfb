#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariants.hpp"
#include "analysis/verify.hpp"
#include "automata/regex.hpp"
#include "core/compiled_query.hpp"
#include "core/compiler.hpp"
#include "core/pipeline/artifact.hpp"
#include "core/pipeline/pipeline.hpp"
#include "model/mlp_model.hpp"
#include "model/ngram_model.hpp"
#include "tokenizer/bpe.hpp"

namespace relm::analysis {
namespace {

using automata::Dfa;
using automata::Edge;
using automata::Nfa;
using automata::StateId;
using automata::Symbol;
using tokenizer::TokenId;

// ---------------------------------------------------------------------------
// InvariantReport
// ---------------------------------------------------------------------------

TEST(InvariantReport, StartsClean) {
  InvariantReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.to_string(), "ok\n");
}

TEST(InvariantReport, RecordsAndFormats) {
  InvariantReport report;
  report.fail("dfa.determinism", "state 3 has two transitions on symbol 7");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("dfa.determinism"));
  EXPECT_FALSE(report.has("dfa.start-range"));
  std::string text = report.to_string();
  EXPECT_NE(text.find("dfa.determinism"), std::string::npos);
  EXPECT_NE(text.find("state 3"), std::string::npos);
}

TEST(InvariantReport, SuppressesFloodsPerCheck) {
  InvariantReport report;
  for (int i = 0; i < 100; ++i) {
    report.fail("ngram.row-total", "row " + std::to_string(i));
  }
  report.fail("dfa.determinism", "independent check is not suppressed");
  // kMaxPerCheck details + one suppression marker + the other check.
  EXPECT_EQ(report.violations().size(), InvariantReport::kMaxPerCheck + 2);
  EXPECT_NE(report.to_string().find("suppressed"), std::string::npos);
  EXPECT_TRUE(report.has("dfa.determinism"));
}

// ---------------------------------------------------------------------------
// (a) automata checkers
// ---------------------------------------------------------------------------

TEST(CheckDfa, CompiledRegexIsClean) {
  Dfa dfa = automata::compile_regex("(cat)|(dog)");
  InvariantReport report;
  check_dfa(dfa, report);
  check_trim(dfa, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(CheckDfa, FlagsDanglingTransition) {
  // Two states, but an edge jumps to nonexistent state 7.
  Dfa dfa = Dfa::from_parts(
      /*num_symbols=*/256, /*start=*/0,
      {{Edge{'a', 1}, Edge{'b', 7}}, {}},
      {false, true});
  InvariantReport report;
  check_dfa(dfa, report);
  EXPECT_TRUE(report.has("dfa.transition-range")) << report.to_string();
}

TEST(CheckDfa, FlagsNondeterminism) {
  // Two transitions out of state 0 on the same symbol — an NFA smuggled into
  // a Dfa (possible via deserialization or from_parts, never via add_edge).
  Dfa dfa = Dfa::from_parts(
      256, 0, {{Edge{'a', 1}, Edge{'a', 2}}, {}, {}}, {false, true, true});
  InvariantReport report;
  check_dfa(dfa, report);
  EXPECT_TRUE(report.has("dfa.determinism")) << report.to_string();
}

TEST(CheckDfa, FlagsUnsortedEdges) {
  Dfa dfa = Dfa::from_parts(
      256, 0, {{Edge{'b', 1}, Edge{'a', 1}}, {}}, {false, true});
  InvariantReport report;
  check_dfa(dfa, report);
  EXPECT_TRUE(report.has("dfa.determinism"));
}

TEST(CheckDfa, FlagsEpsilonAndOutOfAlphabetSymbols) {
  Dfa dfa = Dfa::from_parts(
      256, 0, {{Edge{automata::kEpsilon, 1}, Edge{300, 1}}, {}}, {false, true});
  InvariantReport report;
  check_dfa(dfa, report);
  EXPECT_TRUE(report.has("dfa.symbol-range"));
  EXPECT_NE(report.to_string().find("epsilon"), std::string::npos);
}

TEST(CheckDfa, FlagsStartOutOfRange) {
  Dfa dfa = Dfa::from_parts(256, /*start=*/5, {{}}, {true});
  InvariantReport report;
  check_dfa(dfa, report);
  EXPECT_TRUE(report.has("dfa.start-range"));
}

TEST(CheckTrim, FlagsUnreachableAcceptingState) {
  // State 1 accepts but nothing reaches it: the machine's language is empty
  // while its structure claims otherwise.
  Dfa dfa = Dfa::from_parts(256, 0, {{}, {}}, {false, true});
  InvariantReport report;
  check_trim(dfa, report);
  EXPECT_TRUE(report.has("dfa.reachability")) << report.to_string();
  EXPECT_TRUE(report.has("dfa.accept-reachability"));
}

TEST(CheckTrim, FlagsDeadState) {
  // State 2 is reachable but can never reach the accepting state 1.
  Dfa dfa = Dfa::from_parts(
      256, 0, {{Edge{'a', 1}, Edge{'b', 2}}, {}, {}}, {false, true, false});
  InvariantReport report;
  check_trim(dfa, report);
  EXPECT_TRUE(report.has("dfa.coreachability")) << report.to_string();
}

TEST(CheckTrim, AcceptsCanonicalEmptyMachine) {
  Dfa empty(256);
  empty.set_start(empty.add_state(false));
  InvariantReport report;
  check_dfa(empty, report);
  check_trim(empty, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(CheckNfa, EpsilonIsLegalButFlaggedByEpsilonFree) {
  Nfa nfa(256);
  StateId a = nfa.add_state();
  StateId b = nfa.add_state(true);
  nfa.set_start(a);
  nfa.add_edge(a, automata::kEpsilon, b);
  InvariantReport report;
  check_nfa(nfa, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
  check_epsilon_free(nfa, report);
  EXPECT_TRUE(report.has("nfa.epsilon-free"));
}

TEST(CheckNfa, FlagsDanglingTransition) {
  Nfa nfa(256);
  StateId a = nfa.add_state(true);
  nfa.set_start(a);
  nfa.add_edge(a, 'x', 9);
  InvariantReport report;
  check_nfa(nfa, report);
  EXPECT_TRUE(report.has("nfa.transition-range"));
}

// ---------------------------------------------------------------------------
// token automata
// ---------------------------------------------------------------------------

tokenizer::BpeTokenizer tiny_tokenizer() {
  std::vector<std::string> vocab{""};  // EOS
  for (unsigned char c = 'a'; c <= 'z'; ++c) vocab.emplace_back(1, c);
  vocab.push_back(" ");
  vocab.push_back("cat");
  vocab.push_back("dog");
  vocab.push_back("ca");
  return tokenizer::BpeTokenizer::from_vocab(std::move(vocab));
}

TEST(CheckTokenAutomaton, CompilerOutputIsClean) {
  tokenizer::BpeTokenizer tok = tiny_tokenizer();
  Dfa char_dfa = automata::compile_regex("(cat)|(dog)");
  core::TokenAutomaton token =
      core::compile_token_automaton(char_dfa, tok,
                                    core::TokenizationStrategy::kAllTokens);
  InvariantReport report;
  check_token_automaton(token.dfa, tok, report);
  check_trim(token.dfa, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(CheckTokenAutomaton, FlagsAlphabetMismatch) {
  tokenizer::BpeTokenizer tok = tiny_tokenizer();
  Dfa wrong(tok.vocab_size() + 5);
  wrong.set_start(wrong.add_state(true));
  InvariantReport report;
  check_token_automaton(wrong, tok, report);
  EXPECT_TRUE(report.has("token.alphabet"));
}

TEST(CheckTokenAutomaton, FlagsEosTransition) {
  tokenizer::BpeTokenizer tok = tiny_tokenizer();
  Dfa dfa(static_cast<Symbol>(tok.vocab_size()));
  StateId a = dfa.add_state(false);
  StateId b = dfa.add_state(true);
  dfa.set_start(a);
  dfa.add_edge(a, tok.eos(), b);
  InvariantReport report;
  check_token_automaton(dfa, tok, report);
  EXPECT_TRUE(report.has("token.eos-edge"));
}

// ---------------------------------------------------------------------------
// (b) models
// ---------------------------------------------------------------------------

std::shared_ptr<model::NgramModel> tiny_ngram(std::size_t vocab_size = 8) {
  std::vector<std::vector<TokenId>> sequences{
      {1, 2, 3, 1, 2}, {2, 3, 1, 2, 3}, {1, 1, 4, 5}, {6, 7, 6, 7, 6}};
  model::NgramModel::Config config;
  config.order = 3;
  return model::NgramModel::train_on_tokens(vocab_size, /*eos=*/0, sequences,
                                            config);
}

TEST(CheckNgram, TrainedModelIsClean) {
  InvariantReport report;
  check_ngram_model(*tiny_ngram(), report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// Corrupts the first stored row of a serialized model (line 4:
// "<key_hex> <total> <n> <token> <count> ...") and reloads it.
std::shared_ptr<model::NgramModel> perturbed_ngram(int field, long delta) {
  std::ostringstream out;
  tiny_ngram()->save(out);
  std::istringstream lines(out.str());
  std::string line, rebuilt;
  for (int n = 1; std::getline(lines, line); ++n) {
    if (n == 4) {
      std::istringstream fields(line);
      std::vector<std::string> parts;
      std::string f;
      while (fields >> f) parts.push_back(f);
      parts[static_cast<std::size_t>(field)] = std::to_string(
          std::stol(parts[static_cast<std::size_t>(field)]) + delta);
      line.clear();
      for (std::size_t i = 0; i < parts.size(); ++i) {
        line += (i ? " " : "") + parts[i];
      }
    }
    rebuilt += line + "\n";
  }
  std::istringstream in(rebuilt);
  return model::NgramModel::load(in);
}

TEST(CheckNgram, FlagsPerturbedRowTotal) {
  // Field 1 is the row total; +1000 breaks total == sum(counts), which
  // un-normalizes every distribution interpolated through the row.
  std::shared_ptr<model::NgramModel> corrupt = perturbed_ngram(1, 1000);
  InvariantReport report;
  check_ngram_model(*corrupt, report);
  EXPECT_TRUE(report.has("ngram.row-total")) << report.to_string();
  // The black-box distribution probe sees the fallout too: the unigram row
  // is part of every interpolated distribution.
  EXPECT_TRUE(report.has("model.row-sum")) << report.to_string();
}

TEST(CheckNgram, FlagsOutOfVocabularyToken) {
  // Rebuild the tiny model claiming a smaller vocabulary than its counts use.
  std::ostringstream out;
  tiny_ngram(/*vocab_size=*/8)->save(out);
  std::string text = out.str();
  // Header line 2: "<order> <alpha> <max_seq_len> <vocab_size> <eos>".
  std::size_t line2 = text.find('\n') + 1;
  std::size_t line3 = text.find('\n', line2);
  std::string header = text.substr(line2, line3 - line2);
  std::size_t pos = header.rfind(" 8 ");
  ASSERT_NE(pos, std::string::npos);
  header.replace(pos, 3, " 3 ");
  text.replace(line2, line3 - line2, header);
  std::istringstream in(text);
  std::shared_ptr<model::NgramModel> corrupt = model::NgramModel::load(in);
  InvariantReport report;
  check_ngram_model(*corrupt, report);
  EXPECT_TRUE(report.has("ngram.token-range")) << report.to_string();
}

// A deliberately broken LanguageModel for the black-box distribution checks.
class BrokenModel : public model::LanguageModel {
 public:
  enum class Mode { kWrongSize, kNan, kUnnormalized, kPositive };
  explicit BrokenModel(Mode mode) : mode_(mode) {}

  std::size_t vocab_size() const override { return 8; }
  TokenId eos() const override { return 0; }
  std::size_t max_sequence_length() const override { return 16; }
  std::vector<double> next_log_probs(std::span<const TokenId>) const override {
    switch (mode_) {
      case Mode::kWrongSize:
        return std::vector<double>(3, std::log(1.0 / 3.0));
      case Mode::kNan: {
        std::vector<double> lp(8, std::log(1.0 / 8.0));
        lp[5] = std::numeric_limits<double>::quiet_NaN();
        return lp;
      }
      case Mode::kUnnormalized:
        return std::vector<double>(8, std::log(1.0 / 4.0));  // sums to 2
      case Mode::kPositive: {
        std::vector<double> lp(8, std::log(1.0 / 8.0));
        lp[2] = 0.5;  // p > 1
        return lp;
      }
    }
    return {};
  }

 private:
  Mode mode_;
};

TEST(CheckModel, FlagsWrongDistributionSize) {
  InvariantReport report;
  check_model_distributions(BrokenModel(BrokenModel::Mode::kWrongSize), report);
  EXPECT_TRUE(report.has("model.distribution-size"));
}

TEST(CheckModel, FlagsNanLogit) {
  InvariantReport report;
  check_model_distributions(BrokenModel(BrokenModel::Mode::kNan), report);
  EXPECT_TRUE(report.has("model.nan-logit"));
}

TEST(CheckModel, FlagsUnnormalizedRow) {
  InvariantReport report;
  check_model_distributions(BrokenModel(BrokenModel::Mode::kUnnormalized), report);
  EXPECT_TRUE(report.has("model.row-sum"));
}

TEST(CheckModel, FlagsPositiveLogit) {
  InvariantReport report;
  check_model_distributions(BrokenModel(BrokenModel::Mode::kPositive), report);
  EXPECT_TRUE(report.has("model.positive-logit"));
}

TEST(CheckModel, MlpModelEmitsFiniteNormalizedRows) {
  std::vector<std::vector<TokenId>> sequences{
      {1, 2, 3, 1, 2}, {2, 3, 1, 2, 3}, {4, 5, 4, 5}};
  model::MlpModel::Config config;
  config.epochs = 1;
  config.embedding_dim = 4;
  config.hidden_dim = 8;
  auto mlp = model::MlpModel::train_on_tokens(8, /*eos=*/0, sequences, config);
  InvariantReport report;
  ModelCheckOptions options;
  options.probe_contexts = 12;
  check_model_distributions(*mlp, report, options, "mlp");
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---------------------------------------------------------------------------
// (c) compiled queries + verify layer
// ---------------------------------------------------------------------------

TEST(CheckCompiledQuery, BothStrategiesProduceCleanOutput) {
  tokenizer::BpeTokenizer tok = tiny_tokenizer();
  for (auto strategy : {core::TokenizationStrategy::kCanonicalTokens,
                        core::TokenizationStrategy::kAllTokens}) {
    core::SimpleSearchQuery query;
    query.query_string.query_str = "the (cat)|(dog) ran";
    query.query_string.prefix_str = "";
    query.tokenization_strategy = strategy;
    core::CompiledQuery compiled = core::CompiledQuery::compile(query, tok);
    InvariantReport report;
    check_compiled_query(compiled, report);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(Verify, TokenizerSelfChecksPass) {
  InvariantReport report;
  verify_tokenizer(tiny_tokenizer(), report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Verify, QueryCompilationProbesPass) {
  InvariantReport report;
  verify_query_compilation(tiny_tokenizer(), {"(cat)|(dog)", "ca*t"}, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Verify, ModelTokenizerMismatchIsFlagged) {
  tokenizer::BpeTokenizer tok = tiny_tokenizer();
  // Vocabulary size disagrees with the tokenizer's.
  auto model = tiny_ngram(/*vocab_size=*/tok.vocab_size() + 3);
  InvariantReport report;
  verify_model(*model, tok, "mismatched", report);
  EXPECT_TRUE(report.has("artifact.vocab-mismatch")) << report.to_string();
}

// ---------------------------------------------------------------------------
// pipeline artifacts / compile-cache auditing
// ---------------------------------------------------------------------------

core::pipeline::QueryArtifact tiny_artifact(
    const tokenizer::BpeTokenizer& tok,
    core::TokenizationStrategy strategy =
        core::TokenizationStrategy::kCanonicalTokens) {
  core::SimpleSearchQuery query;
  query.query_string.query_str = "(cat)|(dog)";
  query.tokenization_strategy = strategy;
  return core::pipeline::compile_query_artifact(query, tok);
}

TEST(CheckQueryArtifact, PipelineOutputIsClean) {
  tokenizer::BpeTokenizer tok = tiny_tokenizer();
  for (auto strategy : {core::TokenizationStrategy::kCanonicalTokens,
                        core::TokenizationStrategy::kAllTokens}) {
    core::pipeline::QueryArtifact artifact = tiny_artifact(tok, strategy);
    InvariantReport report;
    check_query_artifact(artifact, &tok, report);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(CheckQueryArtifact, FlagsIncoherentStrategyFlags) {
  tokenizer::BpeTokenizer tok = tiny_tokenizer();
  core::pipeline::QueryArtifact artifact =
      tiny_artifact(tok, core::TokenizationStrategy::kAllTokens);
  auto body = std::make_shared<core::pipeline::Component>(*artifact.body);
  body->automaton.dynamic_canonical = true;
  artifact.body = body;
  InvariantReport report;
  check_query_artifact(artifact, &tok, report);
  EXPECT_TRUE(report.has("artifact.strategy-flags")) << report.to_string();
}

TEST(CheckQueryArtifact, FlagsAlphabetSplit) {
  tokenizer::BpeTokenizer tok = tiny_tokenizer();
  core::pipeline::QueryArtifact artifact = tiny_artifact(tok);
  // Replace the prefix machine with one over a different alphabet.
  Dfa other(7);
  other.set_start(other.add_state(true));
  auto prefix = std::make_shared<core::pipeline::Component>(*artifact.prefix);
  prefix->automaton = core::TokenAutomaton{std::move(other), false, {}};
  artifact.prefix = prefix;
  InvariantReport report;
  check_query_artifact(artifact, /*tok=*/nullptr, report);
  EXPECT_TRUE(report.has("artifact.alphabet")) << report.to_string();
}

TEST(CheckQueryArtifact, SkipsVocabularyChecksOnFingerprintMismatch) {
  // An artifact from another vocabulary is structurally audited but not
  // flagged: shared cache directories legitimately mix vocabularies.
  tokenizer::BpeTokenizer tok = tiny_tokenizer();
  core::pipeline::QueryArtifact artifact = tiny_artifact(tok);
  artifact.vocab_fingerprint ^= 1;
  for (auto* side : {&artifact.prefix, &artifact.body}) {
    auto other = std::make_shared<core::pipeline::Component>(**side);
    other->vocab_fingerprint ^= 1;
    *side = other;
  }
  InvariantReport report;
  check_query_artifact(artifact, &tok, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(VerifyCompileCacheDir, CleanStoreAndEveryCorruptionMode) {
  namespace fs = std::filesystem;
  tokenizer::BpeTokenizer tok = tiny_tokenizer();
  const fs::path dir =
      fs::temp_directory_path() / "relm_test_verify_cache_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const core::pipeline::QueryArtifact artifact = tiny_artifact(tok);
  const core::pipeline::Component& component = *artifact.body;
  core::pipeline::save_component_file(
      component, (dir / (component.key.hex() + ".relmc")).string());
  InvariantReport clean;
  EXPECT_EQ(verify_compile_cache_dir(dir.string(), &tok, clean), 1u);
  EXPECT_TRUE(clean.ok()) << clean.to_string();

  // Truncated entry, misnamed entry, key/filename mismatch — each must be
  // reported with its own check id; non-.relmc files are ignored.
  std::ofstream(dir / (std::string(32, '0') + ".relmc")) << "RELM_COMP";
  core::pipeline::save_component_file(component,
                                      (dir / "notakey.relmc").string());
  core::pipeline::save_component_file(
      component, (dir / (std::string(31, '0') + "1.relmc")).string());
  std::ofstream(dir / "README.txt") << "not an artifact";

  InvariantReport report;
  EXPECT_EQ(verify_compile_cache_dir(dir.string(), &tok, report), 4u);
  EXPECT_TRUE(report.has("cache.corrupt-entry")) << report.to_string();
  EXPECT_TRUE(report.has("cache.entry-name")) << report.to_string();
  EXPECT_TRUE(report.has("cache.key-mismatch")) << report.to_string();
  fs::remove_all(dir);
}

TEST(VerifyCompileCacheDir, MissingDirectoryIsAViolation) {
  InvariantReport report;
  EXPECT_EQ(verify_compile_cache_dir("/nonexistent/cache-dir", nullptr,
                                     report),
            0u);
  EXPECT_TRUE(report.has("cache.missing-dir"));
}

}  // namespace
}  // namespace relm::analysis
