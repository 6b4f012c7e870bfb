#pragma once

#include <optional>
#include <span>
#include <vector>

#include "model/language_model.hpp"
#include "util/rng.hpp"
#include "util/token_bitset.hpp"

namespace relm::model {

// Decoding/decision rules (§2.4): the rule that converts next-token
// probabilities into the set of tokens the model "can emit". A token outside
// the allowed set is rejected, and — the key executor property (§3.3) — every
// string sharing the rejected prefix is transitively rejected with it.
struct DecodingRules {
  std::optional<int> top_k;      // keep only the k most likely tokens
  std::optional<double> top_p;   // nucleus: smallest set with mass >= p
  double temperature = 1.0;      // applied before top_p mass computation

  bool unrestricted() const { return !top_k && !top_p; }

  // Field-wise exact equality: a mask built under one rule set is served
  // only to a request with exactly the same rules (CachingModel).
  bool operator==(const DecodingRules&) const = default;
};

// Mask of tokens admitted by the rules given full-vocabulary natural-log
// probabilities. With no rules set, everything with p > 0 is allowed — the
// paper's "vacuous" decision rule where nearly every string is in the
// language. Returned as a dense word-addressable bitset so the executors can
// intersect it with the compiled per-state token masks word-wise (the
// mask-and-scan fast path).
//
// Rank ties resolve by a fixed total order — token u precedes token t iff
// lp_u > lp_t, or lp_u == lp_t and u < t — so the admitted set is a pure
// function of the distribution: top-k admits the first k tokens of that
// order and top-p its shortest prefix with mass >= p, both over the
// temperature-adjusted row. Top-k selects on values: a pivot sampled from 64
// strided values bounds the k-th largest from below whenever at least k
// tokens reach it (V >= 256 and 8k <= V), and one nth_element over those
// tokens finds it exactly; otherwise nth_element runs over the whole row.
// With top-p as well, only the k survivors are sorted for the nucleus.
// testing::token_allowed is the per-token reference.
util::TokenBitset allowed_tokens(std::span<const double> log_probs,
                                 const DecodingRules& rules);

// Applies temperature to log-probs and renormalizes.
std::vector<double> apply_temperature(std::span<const double> log_probs,
                                      double temperature);

// Samples a token from the distribution restricted to `mask` (renormalized).
// An empty (default-constructed) bitset means "no restriction". Returns
// vocab_size if the masked distribution has zero mass.
TokenId sample_token(std::span<const double> log_probs,
                     const util::TokenBitset& mask, util::Pcg32& rng);

// Free-running generation: extends `context` by up to `max_new_tokens`
// tokens sampled under the rules, stopping early on EOS. Returns only the
// newly generated tokens. This is the HuggingFace run_generation-style
// loop that the paper's baselines use (§4.1).
std::vector<TokenId> generate(const LanguageModel& model,
                              std::span<const TokenId> context,
                              std::size_t max_new_tokens,
                              const DecodingRules& rules, util::Pcg32& rng,
                              bool stop_at_eos = true);

}  // namespace relm::model
