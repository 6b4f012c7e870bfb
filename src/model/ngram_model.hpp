#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/language_model.hpp"

namespace relm::model {

// Interpolated-backoff n-gram language model over BPE tokens.
//
// This is the repository's GPT-2 stand-in (see DESIGN.md). The estimator is
// additive-smoothed interpolation:
//
//   p_k(t | ctx_k) = (count(ctx_k, t) + alpha · p_{k-1}(t | ctx_{k-1}) · f(ctx_k))
//                    / (count(ctx_k) + alpha · f(ctx_k))
//
// recursing down to the uniform distribution at k = -1, with f(ctx) the
// number of distinct continuations (Witten-Bell flavored). High order + low
// alpha reproduces training spans nearly verbatim (memorization); low order +
// high alpha behaves like a small model that has "seen" patterns but cannot
// recite them — exactly the small-vs-XL contrast the paper's experiments
// exercise.
//
// The counts live in flat tables, one per context length k: rows sorted by
// context key, each holding its stored total, its interpolation weight
// lambda = alpha·f / (total + alpha·f), its per-count weight
// scale = (1 - lambda) / total, and a span of one (token, count) array sorted
// by token. The order-0 step every distribution starts with
// (uniform · lambda_0 + scale_0 · count) is precomputed as a base vector, so
// a distribution is a copy of the base, one dense multiply by lambda and one
// sparse add of scale · count per matched order k >= 1, and a log.
class NgramModel : public LanguageModel {
 public:
  struct Config {
    std::size_t order = 5;        // n in n-gram (context length = n-1)
    double alpha = 0.3;           // interpolation strength toward backoff
    std::size_t max_sequence_length = 96;

    // Fraction of training documents encoded with a randomized
    // (non-canonical) tokenization instead of the canonical one. Real LLMs
    // place probability mass on alternative encodings — the paper measures
    // 2-3% non-canonical unprompted samples from GPT-2 (§3.2) — and this is
    // how the simulator acquires that behaviour. 0 disables.
    double non_canonical_document_rate = 0.0;
    double non_canonical_step_prob = 0.5;
    std::uint64_t encoding_seed = 7;
  };

  // Trains on documents. Each document is tokenized with `tok` (canonical
  // encoding, or a randomized one for the configured fraction) and wrapped
  // in EOS boundaries, so the model learns both document-initial and
  // document-final statistics.
  //
  // `subword_prior_documents` are always encoded non-canonically (high
  // randomization). This is the n-gram stand-in for a neural model's
  // subword-prior generalization: GPT-2 spreads a word family's probability
  // across alternative segmentations at inference time (the §4.2.1 "trained
  // is 10x more likely non-canonically" observation); a count-based model
  // can only exhibit that if the counts contain those segmentations.
  static std::shared_ptr<NgramModel> train(
      const tokenizer::BpeTokenizer& tok,
      const std::vector<std::string>& documents, const Config& config,
      const std::vector<std::string>& subword_prior_documents = {});

  // Trains directly on token sequences (already encoded). Used by tests.
  static std::shared_ptr<NgramModel> train_on_tokens(
      std::size_t vocab_size, TokenId eos,
      const std::vector<std::vector<TokenId>>& sequences, const Config& config);

  std::size_t vocab_size() const override { return vocab_size_; }
  TokenId eos() const override { return eos_; }
  std::size_t max_sequence_length() const override {
    return config_.max_sequence_length;
  }
  // Throws relm::Error when a stored row counts a token outside the
  // vocabulary (a corrupt model file; relm verify reports it as
  // ngram.token-range).
  std::vector<double> next_log_probs(std::span<const TokenId> context) const override;

  // An order-n model reads at most the last n-1 tokens: next_log_probs
  // interpolates tables of context length 0..n-1, and the EOS document
  // anchoring only triggers for contexts already shorter than n-1 (which
  // relevant_suffix leaves untouched). tests/test_model.cpp pins this
  // suffix equivalence.
  std::size_t relevant_context_length() const override {
    return config_.order - 1;
  }

  // The longest suffix of the anchored context (EOS-prepended as
  // next_log_probs anchors it) that has a stored row, empty when no order
  // matches; the anchoring EOS, when the key includes it, is written into
  // `scratch`. next_log_probs interpolates exactly the orders whose last k
  // tokens have a stored row, and none above the key's length has one, so
  // the distribution is a function of the key's tokens alone, whether or
  // not the stored contexts are suffix-closed (KenLM's state minimization,
  // Heafield 2011). One hash and one table probe per order tried, from the
  // longest down.
  std::span<const TokenId> distribution_key(std::span<const TokenId> context,
                                            std::vector<TokenId>& scratch) const override;

  const Config& config() const { return config_; }
  std::size_t num_contexts() const;

  // One stored continuation of a context row.
  struct Continuation {
    TokenId token;
    std::uint32_t count;
  };

  // Read-only view of one stored context row, for the relm::analysis
  // verification layer: context length `order_k`, the row's hashed key, the
  // stored continuation total, and the row's continuations in token order.
  // `counts` points into the model and is valid only during the visit.
  struct ContextRowView {
    std::size_t order_k;
    std::uint64_t key;
    std::uint64_t total;
    std::span<const Continuation> counts;
  };

  // Calls `fn` for every stored context row: order by order, and within an
  // order in key order.
  void visit_context_rows(
      const std::function<void(const ContextRowView&)>& fn) const;

  // Text serialization (see tools/relm_cli): counts are stored per context
  // hash. Format:
  //   RELM_NGRAM v1
  //   <order> <alpha> <max_seq_len> <vocab_size> <eos>
  //   per order k: "table <k> <num_contexts>" then one line per context:
  //   "<key_hex> <total> <n> (<token> <count>)*n"
  // save writes contexts in key order and each context's continuations in
  // token order, so save -> load -> save is byte-identical. load accepts any
  // order (a repeated key or token keeps its first occurrence) and derives
  // every row's interpolation weights from its *stored* total.
  void save(std::ostream& out) const;
  static std::shared_ptr<NgramModel> load(std::istream& in);
  void save_file(const std::string& path) const;
  static std::shared_ptr<NgramModel> load_file(const std::string& path);

 private:
  NgramModel() = default;

  // One context row of a flat table.
  struct ContextRow {
    std::uint64_t key;
    std::uint64_t total;  // stored continuation total (the normalizer)
    double lambda;        // weight kept on the backoff distribution
    double scale;         // (1 - lambda) / total: the weight of one count
    std::uint32_t begin;  // the row's run in Table::continuations
    std::uint32_t size;   // distinct continuations, f(ctx)
  };

  // The rows of one context length, in key order; their continuations share
  // one array, each row's run in token order. `slots` is an open-addressing
  // index from key to row (row index + 1, 0 = empty).
  struct Table {
    std::vector<ContextRow> rows;
    std::vector<Continuation> continuations;
    std::vector<std::uint32_t> slots;

    std::span<const Continuation> run(const ContextRow& row) const {
      return {continuations.data() + row.begin, row.size};
    }
    const ContextRow* find(std::uint64_t key) const;
    // probs <- lambda · probs + scale · counts. Every token of the row must
    // index probs: callers check the model's out-of-vocabulary flag first.
    void interpolate(const ContextRow& row, std::span<double> probs) const;
  };

  static std::uint64_t context_key(std::span<const TokenId> ctx);

  // Derives each row's lambda and scale, the key indexes, the base vector
  // and the out-of-vocabulary flag from the stored rows.
  void finish();

  // tables_[k]: rows for contexts of length k (k = 0 is the unigram table
  // with the single empty context).
  std::vector<Table> tables_;
  // The order-0 step every distribution starts with.
  std::vector<double> base_;
  bool out_of_vocabulary_ = false;
  Config config_;
  std::size_t vocab_size_ = 0;
  TokenId eos_ = 0;
};

// Uniform model: every token equally likely. Used by tests to isolate
// automaton behaviour from model behaviour.
class UniformModel : public LanguageModel {
 public:
  UniformModel(std::size_t vocab_size, TokenId eos, std::size_t max_len = 64)
      : vocab_size_(vocab_size), eos_(eos), max_len_(max_len) {}
  std::size_t vocab_size() const override { return vocab_size_; }
  TokenId eos() const override { return eos_; }
  std::size_t max_sequence_length() const override { return max_len_; }
  std::vector<double> next_log_probs(std::span<const TokenId> context) const override;
  std::size_t relevant_context_length() const override { return 0; }

 private:
  std::size_t vocab_size_;
  TokenId eos_;
  std::size_t max_len_;
};

// Bounded memoization wrapper. ReLM's traversals re-evaluate the same
// contexts frequently (every random-traversal sample re-walks the prefix;
// Dijkstra siblings share parents), which in the paper is hidden by GPU
// batching; here a cache fills the same role.
//
// Entries are keyed on the inner model's *distribution key* (see
// LanguageModel::distribution_key): for an order-n n-gram, every context
// whose longest stored suffix is the same shares one cache entry, however
// its earlier tokens differ — full-path keys would make almost every lookup
// a miss, and the last n-1 tokens would store one row many times. An entry
// keeps the distribution and the decoding-rule mask last built over it,
// tagged with the exact rules that asked for it, so a hit under the same
// rules returns both from one shard lookup. The key's hash picks one of 16
// shards, each under its own mutex and each an exact LRU in one flat
// LogitCacheTable (model/logit_cache_table.hpp: entries in one array,
// index-linked recency, an open-addressed index), so it is safe under
// concurrent callers; the capacity bounds *entries* across all shards,
// never exceeded regardless of hash collisions.
class CachingModel : public LanguageModel {
 public:
  CachingModel(std::shared_ptr<const LanguageModel> inner, std::size_t capacity = 1 << 16);
  ~CachingModel() override;

  std::size_t vocab_size() const override { return inner_->vocab_size(); }
  TokenId eos() const override { return inner_->eos(); }
  std::size_t max_sequence_length() const override {
    return inner_->max_sequence_length();
  }
  std::size_t relevant_context_length() const override {
    return inner_->relevant_context_length();
  }
  std::span<const TokenId> distribution_key(std::span<const TokenId> context,
                                            std::vector<TokenId>& scratch) const override {
    return inner_->distribution_key(context, scratch);
  }
  // Both copy their distributions out of next_rows (unrestricted rules).
  std::vector<double> next_log_probs(std::span<const TokenId> context) const override;
  std::vector<std::vector<double>> next_log_probs_batch(
      std::span<const std::vector<TokenId>> contexts) const override;

  // Serves each context from its key's entry, with the stored mask when it
  // was built for exactly `rules` (no O(vocab) work on such a hit). A
  // relevant suffix of full length is looked up as it is first, since an
  // entry stored under it serves it; the key is computed only when that
  // misses or the suffix is shorter. Distinct missing keys are evaluated
  // once, through the relevant suffix of the first context that asked,
  // with the inner model's next_rows — so decorators see every evaluation —
  // and their masks, plus those of hits whose stored mask was built for
  // other rules, are built across the shared pool and stored. Misses are
  // deduplicated within the call only: two concurrent callers that miss on
  // one key both evaluate it, and the second store keeps the live entry.
  std::vector<Row> next_rows(std::span<const std::vector<TokenId>> contexts,
                             const DecodingRules& rules) const override;

  std::optional<CacheStats> cache_stats() const override;

  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t evictions() const;
  std::size_t entries() const;  // current entry count, <= capacity()
  std::size_t capacity() const { return capacity_; }

 private:
  struct Shard;

  Shard& shard_for(std::uint64_t hash) const;

  // The one lookup path behind next_rows and next_log_probs: fills out[i]
  // for context_at(i) (a std::span<const TokenId>) under `rules`.
  template <typename ContextAt>
  void serve(ContextAt context_at, const DecodingRules& rules,
             std::span<Row> out) const;

  std::shared_ptr<const LanguageModel> inner_;
  std::size_t capacity_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace relm::model
