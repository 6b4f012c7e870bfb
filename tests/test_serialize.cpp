#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <sstream>

#include "automata/regex.hpp"
#include "automata/serialize.hpp"
#include "model/ngram_model.hpp"
#include "tokenizer/serialize.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace relm {
namespace {

using tokenizer::BpeTokenizer;

std::string fixture_corpus() {
  std::string corpus;
  for (int i = 0; i < 40; ++i) {
    corpus += "The cat sat on the mat. Strange bytes: \t tabs! ";
  }
  return corpus;
}

BpeTokenizer fixture_tokenizer() {
  BpeTokenizer::TrainConfig config;
  config.vocab_size = 360;
  return BpeTokenizer::train(fixture_corpus(), config);
}

TEST(TokenizerSerialize, RoundTripPreservesVocabulary) {
  BpeTokenizer tok = fixture_tokenizer();
  std::stringstream buffer;
  tokenizer::save_tokenizer(tok, buffer);
  BpeTokenizer loaded = tokenizer::load_tokenizer(buffer);

  ASSERT_EQ(loaded.vocab_size(), tok.vocab_size());
  EXPECT_EQ(loaded.eos(), tok.eos());
  EXPECT_EQ(loaded.max_token_length(), tok.max_token_length());
  for (tokenizer::TokenId t = 0; t < tok.vocab_size(); ++t) {
    EXPECT_EQ(loaded.token_string(t), tok.token_string(t));
  }
  // Encoding behaviour is identical.
  for (const char* text : {"The cat sat", "tabs!\t", "zebra"}) {
    EXPECT_EQ(loaded.encode(text), tok.encode(text)) << text;
  }
}

TEST(TokenizerSerialize, RejectsGarbage) {
  std::stringstream buffer("not a tokenizer file");
  EXPECT_THROW(tokenizer::load_tokenizer(buffer), relm::Error);
}

TEST(TokenizerSerialize, RejectsTruncated) {
  BpeTokenizer tok = fixture_tokenizer();
  std::stringstream buffer;
  tokenizer::save_tokenizer(tok, buffer);
  std::string text = buffer.str();
  std::stringstream cut(text.substr(0, text.size() / 2));
  EXPECT_THROW(tokenizer::load_tokenizer(cut), relm::Error);
}

TEST(TokenizerFromVocab, ValidatesInput) {
  EXPECT_THROW(BpeTokenizer::from_vocab({"a", "b"}), relm::Error);       // no EOS
  EXPECT_THROW(BpeTokenizer::from_vocab({"a", "", ""}), relm::Error);    // two EOS
  EXPECT_THROW(BpeTokenizer::from_vocab({"a", "a", ""}), relm::Error);   // dup
  auto tok = BpeTokenizer::from_vocab({"a", "b", "ab", ""});
  EXPECT_EQ(tok.eos(), 3u);
  EXPECT_EQ(tok.encode("ab").size(), 1u);  // longest match
}

TEST(ModelSerialize, RoundTripPreservesDistributions) {
  BpeTokenizer tok = fixture_tokenizer();
  model::NgramModel::Config config;
  config.order = 4;
  config.alpha = 0.25;
  config.non_canonical_document_rate = 0.3;
  std::vector<std::string> docs(25, "The cat sat on the mat.");
  auto model = model::NgramModel::train(tok, docs, config);

  std::stringstream buffer;
  model->save(buffer);
  auto loaded = model::NgramModel::load(buffer);

  EXPECT_EQ(loaded->vocab_size(), model->vocab_size());
  EXPECT_EQ(loaded->eos(), model->eos());
  EXPECT_EQ(loaded->num_contexts(), model->num_contexts());
  EXPECT_EQ(loaded->config().order, model->config().order);
  EXPECT_DOUBLE_EQ(loaded->config().alpha, model->config().alpha);

  // Rows derive from the stored counts alone, so they come back exactly.
  for (const char* ctx_text : {"", "The", "The cat sat on"}) {
    auto ctx = tok.encode(ctx_text);
    EXPECT_EQ(model->next_log_probs(ctx), loaded->next_log_probs(ctx)) << ctx_text;
  }
}

// Checks that `text` is a model file whose contexts ascend by key within
// each table and whose continuations ascend by token within each row.
void expect_canonical_order(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);  // magic
  std::getline(lines, line);  // header
  std::uint64_t previous_key = 0;
  bool first_row = true;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    if (line.rfind("table ", 0) == 0) {
      first_row = true;
      continue;
    }
    std::uint64_t key = 0, total = 0;
    std::size_t n = 0;
    fields >> std::hex >> key >> std::dec >> total >> n;
    EXPECT_TRUE(first_row || key > previous_key) << line;
    previous_key = key;
    first_row = false;
    tokenizer::TokenId token = 0, previous_token = 0;
    std::uint32_t count = 0;
    for (std::size_t i = 0; i < n && fields >> token >> count; ++i) {
      EXPECT_TRUE(i == 0 || token > previous_token) << line;
      previous_token = token;
    }
  }
}

// `text` with every table's rows, and every row's continuations, reversed.
std::string reverse_rows(const std::string& text) {
  std::istringstream lines(text);
  std::string line, out;
  std::vector<std::string> rows;
  auto flush = [&] {
    for (auto it = rows.rbegin(); it != rows.rend(); ++it) out += *it + "\n";
    rows.clear();
  };
  for (int n = 1; std::getline(lines, line); ++n) {
    if (n <= 2 || line.rfind("table ", 0) == 0) {
      flush();
      out += line + "\n";
      continue;
    }
    std::istringstream fields(line);
    std::string key, total;
    std::size_t count = 0;
    fields >> key >> total >> count;
    std::vector<std::string> pairs(count);
    for (auto& pair : pairs) {
      std::string token, c;
      fields >> token >> c;
      pair = token + " " + c;
    }
    std::string reversed = key + " " + total + " " + std::to_string(count);
    for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) reversed += " " + *it;
    rows.push_back(reversed);
  }
  flush();
  return out;
}

TEST(ModelSerialize, SaveIsCanonical) {
  std::vector<std::shared_ptr<model::NgramModel>> models;
  model::NgramModel::Config config;
  config.order = 3;
  models.push_back(model::NgramModel::train_on_tokens(
      8, /*eos=*/0, {{1, 2, 3, 1, 2}, {2, 3, 1, 2, 3}, {1, 1, 4, 5}, {6, 7, 6, 7, 6}},
      config));
  util::Pcg32 rng(99);
  std::vector<std::vector<tokenizer::TokenId>> sequences(200);
  for (auto& seq : sequences) {
    for (std::size_t n = 1 + rng.bounded(10); n > 0; --n) {
      seq.push_back(1 + rng.bounded(30));
    }
  }
  config.order = 5;
  config.alpha = 0.15;
  models.push_back(model::NgramModel::train_on_tokens(31, /*eos=*/0, sequences, config));

  for (const auto& model : models) {
    std::stringstream first;
    model->save(first);
    expect_canonical_order(first.str());
    auto loaded = model::NgramModel::load(first);
    std::stringstream second;
    loaded->save(second);
    EXPECT_EQ(first.str(), second.str());

    // A file in any other order (as hash-map order wrote them) loads to the
    // same model and saves canonically.
    std::istringstream scrambled(reverse_rows(first.str()));
    ASSERT_NE(scrambled.str(), first.str());
    auto unscrambled = model::NgramModel::load(scrambled);
    std::stringstream third;
    unscrambled->save(third);
    EXPECT_EQ(first.str(), third.str());
  }

  // A repeated context or continuation keeps its first occurrence.
  std::ostringstream text;
  text << "RELM_NGRAM v1\n1 0.5 16 4 0\ntable 0 2\n"
       << std::hex << model::hash_tokens({}) << std::dec << " 3 2 2 2 2 9\n"
       << std::hex << model::hash_tokens({}) << std::dec << " 5 1 3 5\n";
  std::istringstream in(text.str());
  std::stringstream saved;
  model::NgramModel::load(in)->save(saved);
  std::ostringstream expected;
  expected << "RELM_NGRAM v1\n1 0.5 16 4 0\ntable 0 1\n" << std::hex
           << model::hash_tokens({}) << std::dec << " 3 1 2 2\n";
  EXPECT_EQ(saved.str(), expected.str());
}

TEST(ModelSerialize, RejectsGarbage) {
  std::stringstream buffer("RELM_NGRAM v9\n");
  EXPECT_THROW(model::NgramModel::load(buffer), relm::Error);
  std::stringstream empty;
  EXPECT_THROW(model::NgramModel::load(empty), relm::Error);
}

TEST(ModelSerialize, FileRoundTrip) {
  BpeTokenizer tok = fixture_tokenizer();
  model::NgramModel::Config config;
  config.order = 3;
  auto model = model::NgramModel::train(tok, {"The cat sat."}, config);
  std::string path = testing::TempDir() + "relm_model_test.relm";
  model->save_file(path);
  auto loaded = model::NgramModel::load_file(path);
  EXPECT_EQ(loaded->num_contexts(), model->num_contexts());
  EXPECT_THROW(model::NgramModel::load_file("/nonexistent/x.relm"), relm::Error);
}

}  // namespace
}  // namespace relm

namespace relm {
namespace {

TEST(DfaSerialize, RoundTripPreservesLanguage) {
  automata::Dfa dfa = automata::compile_regex(
      "https://www.([a-zA-Z0-9]|\\-)+.([a-zA-Z0-9]|/)+");
  std::stringstream buffer;
  automata::save_dfa(dfa, buffer);
  automata::Dfa loaded = automata::load_dfa(buffer);
  EXPECT_EQ(loaded, dfa);  // canonical structural equality
  EXPECT_TRUE(loaded.accepts_bytes("https://www.a-b.com/x"));
  EXPECT_FALSE(loaded.accepts_bytes("http://a"));
}

TEST(DfaSerialize, TokenAlphabetRoundTrip) {
  // A token-level automaton (non-byte alphabet) serializes fine too.
  automata::Dfa dfa(5000);
  auto s0 = dfa.add_state(false);
  auto s1 = dfa.add_state(true);
  dfa.set_start(s0);
  dfa.add_edge(s0, 4321, s1);
  std::stringstream buffer;
  automata::save_dfa(dfa, buffer);
  automata::Dfa loaded = automata::load_dfa(buffer);
  EXPECT_EQ(loaded, dfa);
}

TEST(DfaSerialize, RejectsCorruptInput) {
  std::stringstream garbage("hello");
  EXPECT_THROW(automata::load_dfa(garbage), relm::Error);
  std::stringstream bad_edge("RELM_DFA v1\n256 2 0 1\n01\n0 999999 5\n");
  EXPECT_THROW(automata::load_dfa(bad_edge), relm::Error);
  std::stringstream bad_start("RELM_DFA v1\n256 2 7 0\n01\n");
  EXPECT_THROW(automata::load_dfa(bad_start), relm::Error);
}

// Each corruption mode must fail with a *located* diagnostic, not a generic
// parse error — the message is what a user sees when a cache entry or saved
// artifact goes bad.
std::string load_error(const std::string& text) {
  std::stringstream in(text);
  try {
    automata::load_dfa(in);
  } catch (const relm::Error& e) {
    return e.what();
  }
  return "";
}

TEST(DfaSerialize, CorruptHeaderDiagnostics) {
  EXPECT_NE(load_error(""), "");
  EXPECT_THAT(load_error(""), testing::HasSubstr("truncated before header"));
  EXPECT_THAT(load_error("RELM_NOPE v1\n"), testing::HasSubstr("not a RELM_DFA"));
  EXPECT_THAT(load_error("RELM_DFA v9\n"), testing::HasSubstr("not a RELM_DFA"));
  EXPECT_THAT(load_error("RELM_DFA v1\n256 2"),
              testing::HasSubstr("truncated header"));
  EXPECT_THAT(load_error("RELM_DFA v1\n256 0 0 0\n"),
              testing::HasSubstr("zero states"));
  EXPECT_THAT(load_error("RELM_DFA v1\n0 2 0 0\n01\n"),
              testing::HasSubstr("empty alphabet"));
  EXPECT_THAT(load_error("RELM_DFA v1\n256 2 9 0\n01\n"),
              testing::HasSubstr("start state 9 out of range"));
}

TEST(DfaSerialize, RejectsAbsurdEdgeCount) {
  // 2 states x 4 symbols bounds a DFA at 8 edges; a count of 9 cannot be a
  // DFA and must be rejected before the read loop trusts it.
  EXPECT_THAT(load_error("RELM_DFA v1\n4 2 0 9\n01\n"),
              testing::HasSubstr("exceeds num_states * num_symbols"));
}

TEST(DfaSerialize, RejectsBadFinality) {
  EXPECT_THAT(load_error("RELM_DFA v1\n256 3 0 0\n01\n"),
              testing::HasSubstr("finality bits"));
  EXPECT_THAT(load_error("RELM_DFA v1\n256 2 0 0\n0x\n"),
              testing::HasSubstr("not 0/1"));
}

TEST(DfaSerialize, RejectsShortRead) {
  // Header promises two edges; the file ends after one.
  EXPECT_THAT(load_error("RELM_DFA v1\n256 2 0 2\n01\n0 97 1\n"),
              testing::HasSubstr("truncated at edge 1 of 2"));
}

TEST(DfaSerialize, RejectsOutOfRangeEdgeFields) {
  EXPECT_THAT(load_error("RELM_DFA v1\n256 2 0 1\n01\n5 97 1\n"),
              testing::HasSubstr("edge 0 out of range"));
  EXPECT_THAT(load_error("RELM_DFA v1\n256 2 0 1\n01\n0 97 5\n"),
              testing::HasSubstr("edge 0 out of range"));
  EXPECT_THAT(load_error("RELM_DFA v1\n256 2 0 1\n01\n0 400 1\n"),
              testing::HasSubstr("edge 0 out of range"));
}

TEST(DfaStructuralHash, DistinguishesStructureAndMatchesSelf) {
  automata::Dfa a = automata::compile_regex("(cat)|(dog)");
  automata::Dfa b = automata::compile_regex("(cat)|(dog)");
  automata::Dfa c = automata::compile_regex("(cat)|(dot)");
  EXPECT_EQ(automata::dfa_structural_hash(a), automata::dfa_structural_hash(b));
  EXPECT_NE(automata::dfa_structural_hash(a), automata::dfa_structural_hash(c));

  // Finality flips and edge retargets must change the hash.
  automata::Dfa d(2);
  auto s0 = d.add_state(false);
  auto s1 = d.add_state(true);
  d.set_start(s0);
  d.add_edge(s0, 0, s1);
  automata::Dfa e(2);
  auto t0 = e.add_state(false);
  auto t1 = e.add_state(true);
  e.set_start(t0);
  e.add_edge(t0, 1, t1);
  EXPECT_NE(automata::dfa_structural_hash(d), automata::dfa_structural_hash(e));
}

}  // namespace
}  // namespace relm
