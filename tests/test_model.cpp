#include <gtest/gtest.h>

#include <barrier>
#include <bit>
#include <cmath>
#include <iomanip>
#include <list>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "experiments/setup.hpp"
#include "model/decoding.hpp"
#include "model/logit_cache_table.hpp"
#include "model/ngram_model.hpp"
#include "tokenizer/bpe.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace relm::model {
namespace {

std::string training_corpus() {
  std::string corpus;
  for (int i = 0; i < 40; ++i) {
    corpus += "The cat sat on the mat. ";
    corpus += "The dog ran to the park. ";
    corpus += "https://www.example.com/path ";
  }
  return corpus;
}

struct Fixture {
  tokenizer::BpeTokenizer tok;
  std::shared_ptr<NgramModel> model;

  Fixture() : tok(tokenizer::BpeTokenizer::train(training_corpus(), {})) {
    NgramModel::Config config;
    config.order = 4;
    config.alpha = 0.3;
    std::vector<std::string> docs;
    for (int i = 0; i < 20; ++i) {
      docs.push_back("The cat sat on the mat.");
      docs.push_back("The dog ran to the park.");
      docs.push_back("https://www.example.com/path");
    }
    model = NgramModel::train(tok, docs, config);
  }
};

double logsumexp(std::span<const double> v) {
  double m = *std::max_element(v.begin(), v.end());
  double z = 0;
  for (double x : v) z += std::exp(x - m);
  return m + std::log(z);
}

TEST(NgramModel, LogProbsNormalize) {
  Fixture f;
  std::vector<tokenizer::TokenId> ctx = f.tok.encode("The cat");
  auto lp = f.model->next_log_probs(ctx);
  ASSERT_EQ(lp.size(), f.tok.vocab_size());
  EXPECT_NEAR(logsumexp(lp), 0.0, 1e-9);
}

TEST(NgramModel, EmptyContextNormalizes) {
  Fixture f;
  auto lp = f.model->next_log_probs({});
  EXPECT_NEAR(logsumexp(lp), 0.0, 1e-9);
}

TEST(NgramModel, TrainedContinuationPreferred) {
  Fixture f;
  // After "The cat sat on the" the next canonical token should be that of
  // " mat" (or its first sub-token), far more likely than a random token.
  auto ctx = f.tok.encode("The cat sat on the");
  auto lp = f.model->next_log_probs(ctx);
  auto continuation = f.tok.encode(" mat");
  ASSERT_FALSE(continuation.empty());
  double trained = lp[continuation[0]];
  double uniform = -std::log(static_cast<double>(f.tok.vocab_size()));
  EXPECT_GT(trained, uniform + 2.0);  // much more likely than chance
}

TEST(NgramModel, MemorizationOfTrainingSpans) {
  Fixture f;
  // Whole-sequence log prob of a memorized string beats a novel permutation.
  auto ctx = f.tok.encode("The cat");
  double memorized = f.model->sequence_log_prob(ctx, f.tok.encode(" sat on the mat."));
  double novel = f.model->sequence_log_prob(ctx, f.tok.encode(" ran on the park."));
  EXPECT_GT(memorized, novel);
}

TEST(NgramModel, HigherOrderMemorizesHarder) {
  Fixture f;
  NgramModel::Config small_config;
  small_config.order = 2;
  small_config.alpha = 1.5;
  std::vector<std::string> docs(20, "The cat sat on the mat.");
  auto small = NgramModel::train(f.tok, docs, small_config);

  NgramModel::Config xl_config;
  xl_config.order = 5;
  xl_config.alpha = 0.1;
  auto xl = NgramModel::train(f.tok, docs, xl_config);

  auto ctx = f.tok.encode("The cat sat on");
  auto target = f.tok.encode(" the mat.");
  EXPECT_GT(xl->sequence_log_prob(ctx, target), small->sequence_log_prob(ctx, target));
}

TEST(NgramModel, EosLikelyAtDocumentEnd) {
  Fixture f;
  auto ctx = f.tok.encode("The cat sat on the mat.");
  auto lp = f.model->next_log_probs(ctx);
  double uniform = -std::log(static_cast<double>(f.tok.vocab_size()));
  EXPECT_GT(lp[f.model->eos()], uniform);
}

TEST(NgramModel, RejectsZeroOrder) {
  NgramModel::Config config;
  config.order = 0;
  EXPECT_THROW(
      NgramModel::train_on_tokens(10, 0, {{1, 2, 3}}, config), relm::Error);
}

// The estimator as first written, kept as the reference for the flat rows:
// one hash map per stored context, rebuilt from visit_context_rows, and an
// evaluation that starts uniform, then for k = 0..max_k multiplies by lambda
// and adds scale · count, then takes the log.
class ReferenceNgram {
 public:
  explicit ReferenceNgram(const NgramModel& model)
      : alpha_(model.config().alpha),
        vocab_size_(model.vocab_size()),
        eos_(model.eos()),
        tables_(model.config().order) {
    model.visit_context_rows([&](const NgramModel::ContextRowView& row) {
      Stats& stats = tables_[row.order_k][row.key];
      stats.total = row.total;
      for (const auto& [token, count] : row.counts) stats.counts.emplace(token, count);
    });
  }

  std::vector<double> next_log_probs(std::span<const tokenizer::TokenId> context) const {
    const std::size_t V = vocab_size_;
    std::vector<double> probs(V, 1.0 / static_cast<double>(V));
    std::vector<tokenizer::TokenId> anchored;
    if (context.size() + 1 < tables_.size()) {
      anchored.push_back(eos_);
      anchored.insert(anchored.end(), context.begin(), context.end());
      context = anchored;
    }
    const std::size_t max_k = std::min(context.size(), tables_.size() - 1);
    for (std::size_t k = 0; k <= max_k; ++k) {
      auto it = tables_[k].find(hash_tokens(context.subspan(context.size() - k, k)));
      if (it == tables_[k].end()) continue;
      const Stats& stats = it->second;
      const double fanout = static_cast<double>(stats.counts.size());
      const double lambda =
          alpha_ * fanout / (static_cast<double>(stats.total) + alpha_ * fanout);
      for (double& p : probs) p *= lambda;
      const double scale = (1.0 - lambda) / static_cast<double>(stats.total);
      for (const auto& [token, count] : stats.counts) {
        probs[token] += scale * static_cast<double>(count);
      }
    }
    std::vector<double> log_probs(V);
    for (std::size_t t = 0; t < V; ++t) log_probs[t] = std::log(probs[t]);
    return log_probs;
  }

 private:
  struct Stats {
    std::unordered_map<tokenizer::TokenId, std::uint32_t> counts;
    std::uint64_t total = 0;
  };
  double alpha_;
  std::size_t vocab_size_;
  tokenizer::TokenId eos_;
  std::vector<std::unordered_map<std::uint64_t, Stats>> tables_;
};

using Contexts = std::vector<std::vector<tokenizer::TokenId>>;

// Fails on the first entry whose bits differ between `model`'s rows and the
// reference's (or `twin`'s, when given) over `contexts`.
void expect_rows_bit_identical(const NgramModel& model, const Contexts& contexts,
                               const std::string& label,
                               const NgramModel* twin = nullptr) {
  ASSERT_FALSE(contexts.empty()) << label;
  const ReferenceNgram reference(model);
  for (std::size_t c = 0; c < contexts.size(); ++c) {
    const std::vector<double> got = model.next_log_probs(contexts[c]);
    const std::vector<double> want =
        twin ? twin->next_log_probs(contexts[c]) : reference.next_log_probs(contexts[c]);
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t t = 0; t < got.size(); ++t) {
      if (std::bit_cast<std::uint64_t>(got[t]) != std::bit_cast<std::uint64_t>(want[t])) {
        FAIL() << label << ": context " << c << " (" << contexts[c].size()
               << " tokens), token " << t << ": " << std::setprecision(17)
               << got[t] << " vs " << want[t];
      }
    }
  }
}

// Every window of up to `max_len` tokens of every sequence (the empty
// context and the sequences' short prefixes included), deduplicated.
Contexts windows(const Contexts& sequences, std::size_t max_len) {
  std::set<std::vector<tokenizer::TokenId>> seen;
  Contexts out;
  for (const auto& seq : sequences) {
    for (std::size_t end = 0; end <= seq.size(); ++end) {
      for (std::size_t len = 0; len <= std::min(end, max_len); ++len) {
        std::vector<tokenizer::TokenId> ctx(seq.begin() + static_cast<std::ptrdiff_t>(end - len),
                                            seq.begin() + static_cast<std::ptrdiff_t>(end));
        if (seen.insert(ctx).second) out.push_back(std::move(ctx));
      }
    }
  }
  return out;
}

// `n` seeded random contexts of up to `max_len` tokens.
Contexts random_contexts(std::size_t n, std::size_t vocab_size, std::size_t max_len,
                         std::uint64_t seed) {
  util::Pcg32 rng(seed);
  Contexts out(n);
  for (auto& ctx : out) {
    ctx.resize(rng.bounded(static_cast<std::uint32_t>(max_len + 1)));
    for (auto& t : ctx) t = rng.bounded(static_cast<std::uint32_t>(vocab_size));
  }
  return out;
}

// A save -> load copy of `model`.
std::shared_ptr<NgramModel> reloaded(const NgramModel& model) {
  std::stringstream buffer;
  model.save(buffer);
  return NgramModel::load(buffer);
}

// 200 token sequences over a 40-token vocabulary (EOS 0) whose successors
// are drawn from three per token, so contexts recur with several
// continuations at every order.
constexpr std::size_t kVocab = 40;
Contexts recurring_sequences() {
  util::Pcg32 rng(2023);
  Contexts sequences(200);
  for (auto& seq : sequences) {
    tokenizer::TokenId t = 1 + rng.bounded(kVocab - 1);
    for (std::size_t n = 1 + rng.bounded(12); n > 0; --n) {
      seq.push_back(t);
      t = 1 + (t * 7 + rng.bounded(3)) % (kVocab - 1);
    }
  }
  return sequences;
}

TEST(NgramModel, FlatRowsMatchReferenceBitForBit) {
  const Contexts sequences = recurring_sequences();
  for (std::size_t order : {1u, 3u, 6u}) {
    for (double alpha : {0.15, 1.2}) {
      NgramModel::Config config;
      config.order = order;
      config.alpha = alpha;
      auto model = NgramModel::train_on_tokens(kVocab, /*eos=*/0, sequences, config);
      Contexts contexts = windows(sequences, order);
      for (auto& ctx : random_contexts(200, kVocab, order + 2, order)) {
        contexts.push_back(std::move(ctx));
      }
      const std::string label =
          "order " + std::to_string(order) + " alpha " + std::to_string(alpha);
      expect_rows_bit_identical(*model, contexts, label);

      // The stored rows are the counts of the training sequences.
      std::map<std::pair<std::size_t, std::uint64_t>,
               std::pair<std::uint64_t, std::map<tokenizer::TokenId, std::uint32_t>>>
          stored, counted;
      model->visit_context_rows([&](const NgramModel::ContextRowView& row) {
        auto& [total, counts] = stored[{row.order_k, row.key}];
        total = row.total;
        for (const auto& [token, count] : row.counts) counts[token] = count;
      });
      for (const auto& seq : sequences) {
        std::vector<tokenizer::TokenId> wrapped{0};
        wrapped.insert(wrapped.end(), seq.begin(), seq.end());
        wrapped.push_back(0);
        for (std::size_t i = 1; i < wrapped.size(); ++i) {
          for (std::size_t k = 0; k < order && k <= i; ++k) {
            auto& [total, counts] = counted[{k, hash_tokens({wrapped.data() + i - k, k})}];
            ++total;
            ++counts[wrapped[i]];
          }
        }
      }
      EXPECT_EQ(stored, counted) << label;

      if (order == 6 && alpha == 0.15) {
        auto copy = reloaded(*model);
        expect_rows_bit_identical(*copy, contexts, label + " reloaded");
        expect_rows_bit_identical(*copy, contexts, label + " reloaded vs trained",
                                  model.get());
      }
    }
  }

  // The scale-0.25 world's sim-xl over windows of its first documents.
  const experiments::World world =
      experiments::build_world(experiments::WorldConfig::scaled(0.25));
  Contexts documents;
  for (std::size_t d = 0; d < 12; ++d) {
    documents.push_back(world.tokenizer->encode(world.corpus.documents[d]));
  }
  Contexts contexts = windows(documents, world.xl->config().order);
  for (auto& ctx : random_contexts(200, world.xl->vocab_size(), 8, 5)) {
    contexts.push_back(std::move(ctx));
  }
  expect_rows_bit_identical(*world.xl, contexts, "sim-xl");
  auto copy = reloaded(*world.xl);
  expect_rows_bit_identical(*copy, contexts, "sim-xl reloaded");
  expect_rows_bit_identical(*copy, contexts, "sim-xl reloaded vs trained",
                            world.xl.get());
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return std::ranges::equal(a, b, [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

// (context length, key) of every row visit_context_rows reports.
using StoredRows = std::set<std::pair<std::size_t, std::uint64_t>>;

// The longest suffix of `context`, anchored as next_log_probs anchors it,
// that has one of `model`'s stored rows: every length tried.
std::vector<tokenizer::TokenId> brute_force_key(const NgramModel& model,
                                                const StoredRows& stored,
                                                std::span<const tokenizer::TokenId> context) {
  std::vector<tokenizer::TokenId> anchored(context.begin(), context.end());
  const std::size_t order = model.config().order;
  if (context.size() + 1 < order) anchored.insert(anchored.begin(), model.eos());
  for (std::size_t k = std::min(anchored.size(), order - 1); k > 0; --k) {
    const auto suffix = std::span<const tokenizer::TokenId>(anchored).last(k);
    if (stored.contains({k, hash_tokens(suffix)})) return {suffix.begin(), suffix.end()};
  }
  return {};
}

// Over `contexts`: every key is the brute-force key, contexts with equal
// keys have bitwise-equal rows, and a key of order - 1 tokens is its own
// key. Returns how many contexts share a key with an earlier one and how
// many keys are shorter than their context's relevant suffix, so callers
// can check that the comparisons were not vacuous.
std::pair<std::size_t, std::size_t> expect_keys_exact(const NgramModel& model,
                                                      const Contexts& contexts,
                                                      const std::string& label) {
  StoredRows stored;
  model.visit_context_rows([&](const NgramModel::ContextRowView& row) {
    stored.emplace(row.order_k, row.key);
  });
  std::map<std::vector<tokenizer::TokenId>, std::vector<double>> row_of_key;
  std::vector<tokenizer::TokenId> scratch;
  std::size_t shared = 0;
  std::size_t shorter = 0;
  for (const auto& context : contexts) {
    const auto view = model.distribution_key(context, scratch);
    const std::vector<tokenizer::TokenId> key(view.begin(), view.end());
    EXPECT_EQ(key, brute_force_key(model, stored, context))
        << label << ", " << context.size() << "-token context";
    if (key.size() < relevant_suffix(model, context).size()) ++shorter;
    const std::vector<double> row = model.next_log_probs(context);
    const auto [it, inserted] = row_of_key.emplace(key, row);
    if (!inserted) {
      ++shared;
      EXPECT_TRUE(bitwise_equal(it->second, row)) << label << ", " << key.size() << "-token key";
    }
    if (key.size() == model.relevant_context_length()) {
      EXPECT_TRUE(std::ranges::equal(model.distribution_key(key, scratch), key)) << label;
    }
  }
  return {shared, shorter};
}

// `per_length` seeded random contexts of every length from 0 to max_len.
Contexts random_contexts_of_every_length(std::size_t per_length, std::size_t vocab_size,
                                         std::size_t max_len, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  Contexts out;
  for (std::size_t len = 0; len <= max_len; ++len) {
    for (std::size_t n = 0; n < per_length; ++n) {
      auto& ctx = out.emplace_back(len);
      for (auto& t : ctx) t = rng.bounded(static_cast<std::uint32_t>(vocab_size));
    }
  }
  return out;
}

TEST(NgramModel, DistributionKeyIsLongestStoredSuffix) {
  const Contexts sequences = recurring_sequences();
  for (std::size_t order : {1u, 3u, 6u}) {
    for (double alpha : {0.15, 1.2}) {
      NgramModel::Config config;
      config.order = order;
      config.alpha = alpha;
      auto model = NgramModel::train_on_tokens(kVocab, /*eos=*/0, sequences, config);
      Contexts contexts = windows(sequences, order);
      for (auto& ctx : random_contexts_of_every_length(20, kVocab, order + 1, order)) {
        contexts.push_back(std::move(ctx));
      }
      const std::string label =
          "order " + std::to_string(order) + " alpha " + std::to_string(alpha);
      const auto [shared, shorter] = expect_keys_exact(*model, contexts, label);
      EXPECT_GT(shared, 0u) << label;
      if (order > 1) {
        EXPECT_GT(shorter, 0u) << label;
      }
    }
  }

  const experiments::World world =
      experiments::build_world(experiments::WorldConfig::scaled(0.25));
  const std::size_t order = world.xl->config().order;
  Contexts documents;
  for (std::size_t d = 0; d < 12; ++d) {
    documents.push_back(world.tokenizer->encode(world.corpus.documents[d]));
  }
  Contexts contexts = windows(documents, order);
  for (auto& ctx : random_contexts_of_every_length(20, world.xl->vocab_size(), order + 1, 5)) {
    contexts.push_back(std::move(ctx));
  }
  const auto [shared, shorter] = expect_keys_exact(*world.xl, contexts, "sim-xl");
  EXPECT_GT(shared, 0u);
  EXPECT_GT(shorter, 0u);
}

// An order-4 model over 8 tokens (EOS 0), written by hand: the order-3 row
// [1 2 3] has no row for its order-2 suffix [2 3], and the one order-2 row
// is the document-initial [0 6].
std::shared_ptr<NgramModel> model_without_suffix_rows() {
  auto key = [](std::initializer_list<tokenizer::TokenId> tokens) {
    std::ostringstream hex;
    hex << std::hex << hash_tokens(std::vector<tokenizer::TokenId>(tokens));
    return hex.str();
  };
  std::istringstream in("RELM_NGRAM v1\n4 0.5 16 8 0\n"
                        "table 0 1\n" + key({}) + " 6 3 1 2 2 2 3 2\n"
                        "table 1 2\n" + key({3}) + " 4 2 1 2 4 2\n" +
                        key({6}) + " 2 1 7 2\n"
                        "table 2 1\n" + key({0, 6}) + " 3 2 5 1 6 2\n"
                        "table 3 1\n" + key({1, 2, 3}) + " 3 1 5 3\n");
  return NgramModel::load(in);
}

TEST(NgramModel, DistributionKeyOnModelWithoutSuffixRows) {
  const auto model = model_without_suffix_rows();
  using Key = std::vector<tokenizer::TokenId>;
  std::vector<tokenizer::TokenId> scratch;
  auto key_of = [&](const Key& context) {
    const auto view = model->distribution_key(context, scratch);
    return Key(view.begin(), view.end());
  };
  EXPECT_EQ(key_of({1, 2, 3}), (Key{1, 2, 3}));
  // Orders 3 and 2 have no row: the key skips both.
  EXPECT_EQ(key_of({4, 2, 3}), Key{3});
  EXPECT_EQ(key_of({2, 3}), Key{3});  // anchored [0 2 3]
  // The anchoring EOS is part of the key, written into scratch.
  const Key six{6};
  EXPECT_EQ(model->distribution_key(six, scratch).data(), scratch.data());
  EXPECT_EQ(key_of(six), (Key{0, 6}));
  EXPECT_EQ(key_of({7, 0, 6}), (Key{0, 6}));
  EXPECT_EQ(key_of({5}), Key{});
  EXPECT_EQ(key_of({}), Key{});

  const Contexts contexts = {{1, 2, 3}, {4, 2, 3}, {2, 3}, {3}, {6}, {7, 0, 6},
                             {5}, {}, {1, 2, 3, 3}, {0, 1, 2, 3}};
  expect_rows_bit_identical(*model, contexts, "hand-written");
  const auto [shared, shorter] = expect_keys_exact(*model, contexts, "hand-written");
  // [2 3], [3] and [1 2 3 3] share [3]; [0 1 2 3] shares [1 2 3]; [7 0 6]
  // shares [0 6]; [] shares the empty key.
  EXPECT_EQ(shared, 6u);
  EXPECT_GT(shorter, 0u);
  // The skipped order matters: [1 2 3] interpolates a row [4 2 3] does not.
  EXPECT_FALSE(bitwise_equal(model->next_log_probs(Key{1, 2, 3}),
                             model->next_log_probs(Key{4, 2, 3})));
}

TEST(NgramModel, OutOfVocabularyRowThrowsOnEvaluation) {
  // Rows that count tokens past the vocabulary are built without writing
  // past it (the base vector included), and evaluating the model throws.
  NgramModel::Config config;
  config.order = 3;
  auto trained = NgramModel::train_on_tokens(4, /*eos=*/0, {{1, 2, 7}, {9, 1}}, config);
  EXPECT_THROW(trained->next_log_probs({}), relm::Error);
  EXPECT_THROW(trained->next_log_probs(std::vector<tokenizer::TokenId>{1, 2}),
               relm::Error);

  // The same model file with a header claiming 3 tokens instead of 8: the
  // rows load (relm verify reports them as ngram.token-range).
  auto clean = NgramModel::train_on_tokens(8, /*eos=*/0, {{1, 2, 3, 1, 2}, {6, 7, 6}},
                                           config);
  EXPECT_NO_THROW(clean->next_log_probs({}));
  std::stringstream saved;
  clean->save(saved);
  std::string text = saved.str();
  const std::size_t line2 = text.find('\n') + 1;
  const std::size_t vocab_at = text.find(" 8 ", line2);
  ASSERT_LT(vocab_at, text.find('\n', line2));
  text.replace(vocab_at, 3, " 3 ");
  std::istringstream in(text);
  auto corrupt = NgramModel::load(in);
  EXPECT_EQ(corrupt->vocab_size(), 3u);
  EXPECT_THROW(corrupt->next_log_probs({}), relm::Error);
}

TEST(UniformModel, AllTokensEqual) {
  UniformModel model(10, 9);
  auto lp = model.next_log_probs({});
  for (double v : lp) EXPECT_DOUBLE_EQ(v, -std::log(10.0));
  EXPECT_NEAR(logsumexp(lp), 0.0, 1e-12);
}

TEST(CachingModel, HitsAfterRepeats) {
  Fixture f;
  CachingModel cached(f.model);
  auto ctx = f.tok.encode("The cat");
  auto a = cached.next_log_probs(ctx);
  auto b = cached.next_log_probs(ctx);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.misses(), 1u);
}

TEST(CachingModel, DistinguishesContexts) {
  Fixture f;
  CachingModel cached(f.model);
  auto a = cached.next_log_probs(f.tok.encode("The cat"));
  auto b = cached.next_log_probs(f.tok.encode("The dog"));
  EXPECT_NE(a, b);
  EXPECT_EQ(cached.hits(), 0u);
}

TEST(NgramModel, SuffixEquivalence) {
  // The model's distribution depends on at most order-1 trailing tokens:
  // next_log_probs(ctx) must equal next_log_probs(suffix) exactly. This is
  // the contract relevant_context_length() advertises and the logit cache
  // relies on (it evaluates through the suffix).
  Fixture f;
  ASSERT_EQ(f.model->relevant_context_length(), f.model->config().order - 1);
  auto ctx = f.tok.encode("The dog ran to the park. The cat sat on the");
  ASSERT_GT(ctx.size(), f.model->relevant_context_length());
  std::vector<tokenizer::TokenId> suffix(
      ctx.end() - static_cast<std::ptrdiff_t>(f.model->relevant_context_length()),
      ctx.end());
  EXPECT_EQ(f.model->next_log_probs(ctx), f.model->next_log_probs(suffix));

  // relevant_suffix() computes exactly that view.
  auto view = relevant_suffix(*f.model, ctx);
  EXPECT_EQ(std::vector<tokenizer::TokenId>(view.begin(), view.end()), suffix);
}

TEST(CachingModel, SuffixKeyedHits) {
  // Distinct full contexts sharing their last order-1 tokens map to one
  // cache entry: the second lookup is a hit, not a second miss.
  Fixture f;
  CachingModel cached(f.model);
  auto a = cached.next_log_probs(
      f.tok.encode("The dog ran to the park. The cat sat on the"));
  auto b = cached.next_log_probs(f.tok.encode("The dog sat on the"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.entries(), 1u);
}

TEST(CachingModel, EntryCountNeverExceedsCapacity) {
  // Regression: the old half-table purge keyed on hash buckets, so the
  // table could hold up to 2x capacity entries. The LRU bounds *entries*.
  Fixture f;
  const std::size_t capacity = 10;
  CachingModel cached(f.model, capacity);
  EXPECT_EQ(cached.capacity(), capacity);
  for (tokenizer::TokenId t = 0; t < 100; ++t) {
    std::vector<tokenizer::TokenId> ctx = {
        t, static_cast<tokenizer::TokenId>(t + 1)};
    cached.next_log_probs(ctx);
    EXPECT_LE(cached.entries(), capacity);
  }
  EXPECT_EQ(cached.misses(), 100u);
  // Every eviction and every resident entry came from a miss (with a
  // capacity below the shard count, some inserts are dropped outright, so
  // this is an inequality).
  EXPECT_LE(cached.evictions() + cached.entries(), cached.misses());
  EXPECT_GT(cached.evictions(), 0u);
}

TEST(CachingModel, BatchDeduplicatesMisses) {
  // A batch with repeated (suffix-equivalent) contexts evaluates each
  // distinct suffix once; duplicates count as hits.
  Fixture f;
  CachingModel cached(f.model);
  auto ctx_a = f.tok.encode("The cat sat on the");
  auto ctx_b = f.tok.encode("The dog ran to the");
  std::vector<std::vector<tokenizer::TokenId>> batch = {ctx_a, ctx_b, ctx_a,
                                                        ctx_b, ctx_a};
  auto out = cached.next_log_probs_batch(batch);
  ASSERT_EQ(out.size(), batch.size());
  EXPECT_EQ(out[0], out[2]);
  EXPECT_EQ(out[0], out[4]);
  EXPECT_EQ(out[1], out[3]);
  EXPECT_EQ(out[0], f.model->next_log_probs(ctx_a));
  EXPECT_EQ(cached.misses(), 2u);
  EXPECT_EQ(cached.hits(), 3u);

  auto stats = cached.cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->hits, 3u);
  EXPECT_EQ(stats->misses, 2u);
  EXPECT_EQ(stats->entries, 2u);
  EXPECT_EQ(stats->evictions, 0u);

  // The inner model reports no cache.
  EXPECT_FALSE(f.model->cache_stats().has_value());
}

TEST(CachingModel, ConcurrentRowsMatchFreshEvaluation) {
  // Pool threads call next_rows at once on overlapping suffixes under two
  // rule sets, in single-row and batch calls, through a cache small enough
  // to evict: concurrent misses on one suffix each evaluate and store it,
  // hits race on stored masks. Every row must hold the bare model's
  // distribution and the mask built fresh for its own rules, whichever
  // thread evaluated it.
  Fixture f;
  CachingModel cached(f.model, /*capacity=*/24);
  std::vector<std::vector<tokenizer::TokenId>> contexts;
  for (const char* text : {"The cat sat on the", "The dog ran to the",
                           "https://www.example", "The cat", "The dog",
                           "sat on the mat.", "ran to the park.", "The"}) {
    contexts.push_back(f.tok.encode(text));
  }
  std::vector<DecodingRules> rule_sets(2);
  rule_sets[0].top_k = 3;
  rule_sets[1].top_p = 0.9;
  auto check = [&](const LanguageModel::Row& row, std::size_t c,
                   const DecodingRules& rules) {
    EXPECT_EQ(*row.log_probs, f.model->next_log_probs(contexts[c]));
    ASSERT_TRUE(row.mask);
    EXPECT_EQ(*row.mask, allowed_tokens(*row.log_probs, rules));
  };

  // Plain threads, not a pool: a batch call fans its masks out over the
  // shared pool, which a pool task may not enter.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCalls = 96;
  std::vector<std::vector<LanguageModel::Row>> got(kCalls);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < kCalls; i += kThreads) {
        const DecodingRules& rules = rule_sets[i % 2];
        if (i % 3 == 0) {
          got[i] = cached.next_rows(contexts, rules);
        } else {
          got[i] = cached.next_rows({&contexts[i % contexts.size()], 1}, rules);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < kCalls; ++i) {
    if (i % 3 == 0) {
      ASSERT_EQ(got[i].size(), contexts.size());
      for (std::size_t c = 0; c < contexts.size(); ++c) {
        check(got[i][c], c, rule_sets[i % 2]);
      }
    } else {
      ASSERT_EQ(got[i].size(), 1u);
      check(got[i][0], i % contexts.size(), rule_sets[i % 2]);
    }
  }
  const auto stats = cached.cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_LE(stats->entries, cached.capacity());
  // One outcome per requested row: each probe counts once, as a hit or a
  // miss.
  EXPECT_EQ(stats->hits + stats->misses,
            (kCalls / 3) * contexts.size() + (kCalls - kCalls / 3));
}

TEST(CachingModel, ConcurrentMissesOnOneSuffixKeepOneEntry) {
  // Plain threads (a batch call fans its masks out over the shared pool,
  // which a pool task may not enter) start together on a barrier and ask
  // an empty cache for one suffix under one rule set. Several may miss and
  // evaluate it; a store that finds the suffix live keeps that entry.
  Fixture f;
  CachingModel cached(f.model);
  const std::vector<std::vector<tokenizer::TokenId>> contexts = {
      f.tok.encode("The cat sat on the")};
  DecodingRules rules;
  rules.top_k = 3;
  constexpr std::size_t kThreads = 4;
  std::barrier start(kThreads);
  std::vector<std::vector<LanguageModel::Row>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = cached.next_rows(contexts, rules);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<double> fresh = f.model->next_log_probs(contexts[0]);
  for (const std::vector<LanguageModel::Row>& rows : got) {
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(*rows[0].log_probs, fresh);
    ASSERT_TRUE(rows[0].mask);
    EXPECT_EQ(*rows[0].mask, allowed_tokens(*rows[0].log_probs, rules));
  }
  EXPECT_EQ(cached.entries(), 1u);
  EXPECT_EQ(cached.hits() + cached.misses(), kThreads);
}

TEST(CachingModel, OneEntryPerDistribution) {
  // [4 2 3] and [5 2 3] differ in their relevant suffix but share the key
  // [3]: the second is a hit on the first's entry and gets its buffers.
  const auto model = model_without_suffix_rows();
  DecodingRules rules;
  rules.top_k = 2;
  CachingModel cached(model);
  const Contexts first = {{4, 2, 3}}, second = {{5, 2, 3}}, third = {{1, 2, 3}};
  const auto a = cached.next_rows(first, rules);
  const auto b = cached.next_rows(second, rules);
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.entries(), 1u);
  EXPECT_EQ(a[0].log_probs, b[0].log_probs);
  EXPECT_EQ(a[0].mask, b[0].mask);
  EXPECT_TRUE(b[0].mask_reused);
  EXPECT_EQ(*b[0].log_probs, model->next_log_probs(second[0]));

  // Another key misses.
  const auto c = cached.next_rows(third, rules);
  EXPECT_EQ(cached.misses(), 2u);
  EXPECT_EQ(cached.entries(), 2u);
  EXPECT_EQ(*c[0].log_probs, model->next_log_probs(third[0]));

  // Only a full-length suffix is looked up as it is: [6] is the key of
  // [5 5 6], but the shorter context [6] is anchored, and its key is [0 6].
  const Contexts keyed_six = {{5, 5, 6}}, six = {{6}};
  cached.next_rows(keyed_six, rules);
  const auto d = cached.next_rows(six, rules);
  EXPECT_EQ(cached.misses(), 4u);
  EXPECT_EQ(*d[0].log_probs, model->next_log_probs(six[0]));
  EXPECT_FALSE(bitwise_equal(*d[0].log_probs, model->next_log_probs(keyed_six[0])));

  // Within one call the two suffixes join one job.
  CachingModel fresh(model);
  const auto rows = fresh.next_rows(Contexts{first[0], second[0]}, rules);
  EXPECT_EQ(fresh.misses(), 1u);
  EXPECT_EQ(fresh.hits(), 1u);
  EXPECT_EQ(fresh.entries(), 1u);
  EXPECT_EQ(rows[0].log_probs, rows[1].log_probs);
}

TEST(CachingModel, FlatShardMatchesReferenceLru) {
  // One shard's table against a list + map LRU with the shard's policy: a
  // hit moves to the front once the table is at least half full, a store of
  // a live suffix only takes its mask, a new suffix goes to the front and a
  // full table evicts its tail. Keys crowd onto three home slots, one of
  // them the last slot (its probe run wraps), and pairs of suffixes share
  // one full hash, so probing, suffix comparison and backward-shift
  // deletion run on long clusters. Every hit, miss, eviction, served row
  // and the whole recency order must match after every operation.
  using Key = std::vector<tokenizer::TokenId>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return std::hash<std::uint64_t>()(hash_tokens(key));
    }
  };
  util::Pcg32 rng(23);
  constexpr std::size_t kKeys = 400;
  std::vector<Key> keys;
  std::vector<std::uint64_t> hashes;
  for (std::size_t k = 0; k < kKeys; ++k) {
    keys.push_back({static_cast<tokenizer::TokenId>(k), 7});
    const std::uint64_t homes[] = {0x5, 0x2a, ~0ull >> 36};
    hashes.push_back((static_cast<std::uint64_t>(k / 2) << 40) |
                     (homes[k / 2 % 3] << LogitCacheTable::kShardBits));
  }
  for (const std::size_t capacity : {0, 1, 2, 7, 64, 150}) {
    LogitCacheTable table(capacity);
    std::list<std::size_t> lru;  // key indices, front = most recent
    std::unordered_map<Key, std::list<std::size_t>::iterator, KeyHash> index;
    std::vector<std::shared_ptr<const std::vector<double>>> stored(kKeys);
    std::vector<std::shared_ptr<const util::TokenBitset>> masks(kKeys);
    for (int op = 0; op < 6000; ++op) {
      const std::size_t k = rng.bounded(capacity < 8 ? 12 : kKeys);
      const LogitCacheTable::Entry* entry = table.lookup(hashes[k], keys[k]);
      const auto it = index.find(keys[k]);
      ASSERT_EQ(entry != nullptr, it != index.end()) << "capacity " << capacity << " op " << op;
      if (entry) {
        EXPECT_EQ(entry->log_probs, stored[k]);
        EXPECT_EQ(entry->mask, masks[k]);
        if (lru.size() * 2 >= capacity) lru.splice(lru.begin(), lru, it->second);
      }
      // A miss stores a fresh row; one hit in five stores again, as a
      // caller that missed concurrently would, with a new mask.
      if (!entry || rng.bounded(5) == 0) {
        LanguageModel::Row row{
            entry ? entry->log_probs
                  : std::make_shared<const std::vector<double>>(1, double(op)),
            std::make_shared<const util::TokenBitset>(4, op % 2 == 0), false};
        const bool evicted = table.store(hashes[k], keys[k], row, DecodingRules{});
        bool expect_evicted = false;
        if (entry) {
          masks[k] = row.mask;
        } else if (capacity > 0) {
          if (lru.size() >= capacity) {
            index.erase(keys[lru.back()]);
            lru.pop_back();
            expect_evicted = true;
          }
          lru.push_front(k);
          index[keys[k]] = lru.begin();
          stored[k] = row.log_probs;
          masks[k] = row.mask;
        }
        ASSERT_EQ(evicted, expect_evicted) << "capacity " << capacity << " op " << op;
      }
      std::vector<std::size_t> order;
      table.for_each_recent([&](const LogitCacheTable::Entry& e) {
        order.push_back(e.key[0]);
      });
      ASSERT_EQ(order, std::vector<std::size_t>(lru.begin(), lru.end()))
          << "capacity " << capacity << " op " << op;
      ASSERT_EQ(table.size(), lru.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Decoding rules
// ---------------------------------------------------------------------------

TEST(Decoding, TopKKeepsExactlyK) {
  std::vector<double> lp{std::log(0.4), std::log(0.3), std::log(0.2), std::log(0.1)};
  DecodingRules rules;
  rules.top_k = 2;
  auto mask = allowed_tokens(lp, rules);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_FALSE(mask[2]);
  EXPECT_FALSE(mask[3]);
}

TEST(Decoding, TopKLargerThanVocabAllowsAll) {
  std::vector<double> lp{std::log(0.5), std::log(0.5)};
  DecodingRules rules;
  rules.top_k = 40;
  auto mask = allowed_tokens(lp, rules);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
}

TEST(Decoding, TopPNucleus) {
  std::vector<double> lp{std::log(0.5), std::log(0.3), std::log(0.15), std::log(0.05)};
  DecodingRules rules;
  rules.top_p = 0.8;
  auto mask = allowed_tokens(lp, rules);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);  // cumulative hits 0.8 here
  EXPECT_FALSE(mask[2]);
  EXPECT_FALSE(mask[3]);
}

TEST(Decoding, UnrestrictedAllowsEverything) {
  std::vector<double> lp{std::log(0.999), std::log(0.001)};
  DecodingRules rules;
  auto mask = allowed_tokens(lp, rules);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_TRUE(rules.unrestricted());
}

TEST(Decoding, InvalidParamsThrow) {
  std::vector<double> lp{0.0};
  DecodingRules bad_k;
  bad_k.top_k = 0;
  EXPECT_THROW(allowed_tokens(lp, bad_k), relm::Error);
  DecodingRules bad_p;
  bad_p.top_p = 1.5;
  EXPECT_THROW(allowed_tokens(lp, bad_p), relm::Error);
  EXPECT_THROW(apply_temperature(lp, 0.0), relm::Error);
}

TEST(Decoding, TemperatureSharpens) {
  std::vector<double> lp{std::log(0.6), std::log(0.4)};
  auto cold = apply_temperature(lp, 0.5);
  EXPECT_GT(cold[0], lp[0]);  // more peaked
  EXPECT_NEAR(logsumexp(cold), 0.0, 1e-9);
  auto hot = apply_temperature(lp, 2.0);
  EXPECT_LT(hot[0], lp[0]);  // flatter
}

TEST(Decoding, SampleTokenHonorsMask) {
  util::Pcg32 rng(11);
  std::vector<double> lp{std::log(0.9), std::log(0.05), std::log(0.05)};
  util::TokenBitset mask(3, true);
  mask.reset(0);
  for (int i = 0; i < 200; ++i) {
    tokenizer::TokenId t = sample_token(lp, mask, rng);
    EXPECT_NE(t, 0u);
    EXPECT_LT(t, 3u);
  }
}

TEST(Decoding, SampleTokenZeroMass) {
  util::Pcg32 rng(11);
  std::vector<double> lp{std::log(1.0)};
  util::TokenBitset mask(1, false);
  EXPECT_EQ(sample_token(lp, mask, rng), 1u);
}

TEST(Decoding, SamplingFollowsDistribution) {
  util::Pcg32 rng(17);
  std::vector<double> lp{std::log(0.75), std::log(0.25)};
  int zero = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (sample_token(lp, {}, rng) == 0) ++zero;
  }
  EXPECT_NEAR(static_cast<double>(zero) / kTrials, 0.75, 0.02);
}

TEST(Decoding, GenerateStopsAtEos) {
  Fixture f;
  util::Pcg32 rng(23);
  DecodingRules rules;
  rules.top_k = 5;
  auto ctx = f.tok.encode("The cat sat on the mat.");
  bool saw_eos_stop = false;
  for (int i = 0; i < 50 && !saw_eos_stop; ++i) {
    auto out = generate(*f.model, ctx, 32, rules, rng);
    if (!out.empty() && out.back() == f.model->eos() && out.size() < 32) {
      saw_eos_stop = true;
    }
  }
  EXPECT_TRUE(saw_eos_stop);
}

TEST(Decoding, GenerateRespectsLengthBudget) {
  Fixture f;
  util::Pcg32 rng(29);
  DecodingRules rules;
  auto out = generate(*f.model, {}, 7, rules, rng, /*stop_at_eos=*/false);
  EXPECT_LE(out.size(), 7u);
}

TEST(Decoding, GeneratedTextOftenEchoesTraining) {
  // Sanity link between model and decoding: with a sharp model and greedy-ish
  // top-k, generations starting from a training prefix reproduce corpus text.
  Fixture f;
  util::Pcg32 rng(31);
  DecodingRules rules;
  rules.top_k = 1;
  auto ctx = f.tok.encode("The cat sat");
  auto out = generate(*f.model, ctx, 8, rules, rng);
  std::vector<tokenizer::TokenId> text_tokens;
  for (auto t : out) {
    if (t != f.model->eos()) text_tokens.push_back(t);
  }
  std::string text = f.tok.decode(text_tokens);
  EXPECT_EQ(text.substr(0, 11), " on the mat");
}

}  // namespace
}  // namespace relm::model

namespace relm::model {
namespace {

TEST(NgramModel, NonCanonicalTrainingGivesAlternativeEncodingsMass) {
  tokenizer::BpeTokenizer tok =
      tokenizer::BpeTokenizer::train(
          [] {
            std::string s;
            for (int i = 0; i < 60; ++i) s += "The cat sat on the mat. ";
            return s;
          }(),
          {});
  std::vector<std::string> docs(40, "The cat sat on the mat.");

  NgramModel::Config canonical_only;
  canonical_only.order = 3;
  auto plain = NgramModel::train(tok, docs, canonical_only);

  NgramModel::Config mixed = canonical_only;
  mixed.non_canonical_document_rate = 0.5;
  auto noisy = NgramModel::train(tok, docs, mixed);

  // Probability of a non-canonical spelling of "The": byte "T" then "h"...
  auto t_tok = *tok.find("T");
  auto ctx = std::vector<tokenizer::TokenId>{};
  double plain_p = plain->next_log_probs(ctx)[t_tok];
  double noisy_p = noisy->next_log_probs(ctx)[t_tok];
  EXPECT_GT(noisy_p, plain_p);
}

TEST(NgramModel, SubwordPriorDocumentsAlwaysRandomized) {
  tokenizer::BpeTokenizer tok =
      tokenizer::BpeTokenizer::train(
          [] {
            std::string s;
            for (int i = 0; i < 60; ++i) s += "The cat sat on the mat. ";
            return s;
          }(),
          {});
  NgramModel::Config config;
  config.order = 3;
  auto model = NgramModel::train(tok, {}, config,
                                 std::vector<std::string>(40, "The cat sat."));
  // The model has contexts (it trained on something).
  EXPECT_GT(model->num_contexts(), 0u);
}

TEST(NgramModel, EmptyContextAnchorsToDocumentStart) {
  tokenizer::BpeTokenizer tok =
      tokenizer::BpeTokenizer::train(
          [] {
            std::string s;
            for (int i = 0; i < 60; ++i) s += "Zebras run far. The cat sat. ";
            return s;
          }(),
          {});
  NgramModel::Config config;
  config.order = 3;
  // Documents always START with "Zebras" but contain "The" more often overall.
  std::vector<std::string> docs(30, "Zebras eat. The cat. The dog. The mat.");
  auto model = NgramModel::train(tok, docs, config);
  auto lp = model->next_log_probs({});
  auto zeb = tok.encode("Zebras")[0];
  auto the = tok.encode("The")[0];
  // Document-anchored: the document-initial token dominates the globally
  // frequent one.
  EXPECT_GT(lp[zeb], lp[the]);
}

}  // namespace
}  // namespace relm::model
