#pragma once

#include <span>
#include <string>

#include "model/decoding.hpp"
#include "util/token_bitset.hpp"

namespace relm::testing {

// References for the decoding-rule mask (model::allowed_tokens). Both rank
// tokens by the rules' total order over the temperature-adjusted row —
// token u precedes t iff its value is higher, or equal with u < t — and
// neither shares code with the production kernel.

// True iff `token` survives the rules: a single-membership test in O(vocab)
// time with no allocation. It counts the tokens ranked before `token`
// (top-k) and sums their mass (top-p) without sorting the row. Where that
// mass is within rounding of p, it re-sums it in rank order, as the nucleus
// does, one pass per value level above the token: in another order a
// partial sum that equals p exactly (0.9 over integer weights whose total
// is a multiple of 10) can round to either side of p. The oracle calls it
// once per token per step.
bool token_allowed(std::span<const double> log_probs,
                   const model::DecodingRules& rules, tokenizer::TokenId token);

// The whole-row partition: nth_element over a copy of the row for the k-th
// largest value, a threshold scan that drops the highest ids of the tie
// class at it, and a full rank-order sort for the nucleus.
util::TokenBitset allowed_tokens_partition(std::span<const double> log_probs,
                                           const model::DecodingRules& rules);

// Checks model::allowed_tokens against both references: the partition on
// every token, token_allowed on every token up to V = 256 and above it on
// every (V/16)-th plus the two that straddle the cut (the last admitted and
// the first excluded in rank order), and the size of a top-k-only mask.
// Returns the first disagreement, or an empty string.
std::string rule_mask_mismatch(std::span<const double> log_probs,
                               const model::DecodingRules& rules);

}  // namespace relm::testing
