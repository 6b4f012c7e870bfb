#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "tokenizer/bpe.hpp"
#include "util/token_bitset.hpp"

namespace relm::model {

using tokenizer::TokenId;

struct DecodingRules;  // model/decoding.hpp

// Abstract autoregressive language model: p(x_i | x_1..x_{i-1}) over a token
// vocabulary (§2.4). ReLM's engine only ever talks to this interface — the
// paper's GPT-2 fills this slot in the original system; here an n-gram
// simulator does (see DESIGN.md substitution table), and a llama.cpp-style
// backend could implement it without touching the engine.
class LanguageModel {
 public:
  // relevant_context_length() value meaning "the whole context matters".
  static constexpr std::size_t kUnboundedContext = SIZE_MAX;

  // Cache telemetry exposed by memoizing wrappers (CachingModel). Plain
  // models report nothing; traversals surface the deltas in SearchStats.
  struct CacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t entries = 0;  // current size, not cumulative
  };

  virtual ~LanguageModel() = default;

  virtual std::size_t vocab_size() const = 0;
  virtual TokenId eos() const = 0;

  // The model's context window; traversals unroll cycles up to this bound
  // (§3.3: "LLMs have finite state").
  virtual std::size_t max_sequence_length() const = 0;

  // Natural-log probabilities of every next token given the context. The
  // returned vector has vocab_size() entries and logsumexp == 0.
  //
  // Must be safe to call concurrently from multiple threads: the default
  // next_log_probs_batch fans contexts out across the shared thread pool.
  // A model with non-const evaluation state must either synchronize here or
  // override next_log_probs_batch with a serial loop.
  virtual std::vector<double> next_log_probs(std::span<const TokenId> context) const = 0;

  // Number of trailing context tokens that can influence next_log_probs:
  // for every context c longer than this bound,
  //   next_log_probs(c) == next_log_probs(last relevant_context_length()
  //   tokens of c).
  // An n-gram model of order n depends on at most n-1 tokens; a fixed-window
  // neural model on its window. kUnboundedContext (the default) promises
  // nothing, and callers must pass full contexts. CachingModel keys and
  // evaluates on this suffix, which is what gives the cache structural hit
  // rates (distinct traversal paths share suffixes); ShortestPathSearch uses
  // it to avoid rebuilding full root-to-node paths per expansion.
  virtual std::size_t relevant_context_length() const { return kUnboundedContext; }

  // Batched evaluation: one distribution per context. The paper's Executor
  // "schedules massive sets of test vectors on accelerators" (§3.3); this is
  // the seam a GPU-backed implementation overrides. The default fans the
  // contexts out across util::ThreadPool::shared() and is deterministic:
  // results come back in input order with values independent of thread count
  // or scheduling (slot i always holds next_log_probs(contexts[i])).
  virtual std::vector<std::vector<double>> next_log_probs_batch(
      std::span<const std::vector<TokenId>> contexts) const;

  // One evaluated context as the traversals consume it: the distribution
  // and the decoding-rule mask over it. Both buffers are immutable and
  // shared, so a row stays valid across later model calls (a memoizing
  // model hands out its stored buffers without copying them).
  struct Row {
    std::shared_ptr<const std::vector<double>> log_probs;
    // model::allowed_tokens(*log_probs, rules); null when the rules are
    // unrestricted.
    std::shared_ptr<const util::TokenBitset> mask;
    // The mask was built for an earlier, suffix-equal evaluation and reused
    // here instead of being computed for this call.
    bool mask_reused = false;
  };

  // The traversals' evaluation call: row i holds contexts[i]'s distribution
  // and its mask under `rules`, in input order whatever the thread count.
  // The default evaluates through next_log_probs (one context) or
  // next_log_probs_batch (several) and builds the masks across the shared
  // pool; CachingModel serves both from its entries.
  virtual std::vector<Row> next_rows(std::span<const std::vector<TokenId>> contexts,
                                     const DecodingRules& rules) const;

  // Cache telemetry, if this model memoizes (CachingModel). Cumulative over
  // the model's lifetime; callers diff snapshots to attribute work.
  virtual std::optional<CacheStats> cache_stats() const { return std::nullopt; }

  // Total log probability of `continuation` given `context`, chaining
  // next_log_probs. Non-virtual convenience.
  double sequence_log_prob(std::span<const TokenId> context,
                           std::span<const TokenId> continuation) const;
};

// Order-sensitive 64-bit hash of a token sequence (FNV-1a with mixing).
// Shared by the n-gram context tables and the logit cache.
std::uint64_t hash_tokens(std::span<const TokenId> tokens);

// The trailing slice of `context` that can influence `model`'s next-token
// distribution: the last relevant_context_length() tokens, or all of them
// when the context is shorter (or the model's dependence is unbounded).
std::span<const TokenId> relevant_suffix(const LanguageModel& model,
                                         std::span<const TokenId> context);

// Sets every row's mask to the tokens `rules` admit over its log_probs,
// across the shared pool when there are several rows; masks stay null when
// the rules are unrestricted. Throws relm::Error on invalid rules.
void fill_rule_masks(std::span<LanguageModel::Row> rows, const DecodingRules& rules);

}  // namespace relm::model
