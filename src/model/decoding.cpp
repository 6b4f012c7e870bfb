#include "model/decoding.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>

#include "util/errors.hpp"

namespace relm::model {

namespace {

// The rank order of the decoding rules: u precedes t on higher probability,
// ties on lower token id. Top-k admits the first k tokens of this order and
// top-p a prefix of it, so their intersection is a prefix too.
inline bool rank_before(std::span<const double> lp, std::size_t a,
                        std::size_t b) {
  return lp[a] > lp[b] || (lp[a] == lp[b] && a < b);
}

void validate_top_k(int k) {
  if (k <= 0) throw relm::Error("top_k must be positive");
}

void validate_top_p(double p) {
  if (p <= 0.0 || p > 1.0) throw relm::Error("top_p must be in (0, 1]");
}

void temper(std::span<const double> log_probs, double temperature,
            std::span<double> out) {
  if (temperature <= 0.0) throw relm::Error("temperature must be positive");
  double max_lp = -std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < log_probs.size(); ++t) {
    out[t] = log_probs[t] / temperature;
    max_lp = std::max(max_lp, out[t]);
  }
  double z = 0.0;
  for (double v : out) z += std::exp(v - max_lp);
  double log_z = max_lp + std::log(z);
  for (double& v : out) v -= log_z;
}

// Per-thread scratch: masks are built on pool workers, and a call allocates
// only the bitset it returns.
struct MaskScratch {
  std::vector<double> tempered;
  std::vector<double> values;
  std::vector<std::uint32_t> ids;
};

MaskScratch& mask_scratch(std::size_t vocab) {
  thread_local MaskScratch scratch;
  if (scratch.ids.size() < vocab) {
    scratch.tempered.resize(vocab);
    scratch.values.resize(vocab);
    scratch.ids.resize(vocab);
  }
  return scratch;
}

// A pivot for top-k: the (2k·64/V + 1)-th largest of 64 evenly strided
// values. About 2k tokens reach it on a typical row; whenever at least k do,
// the k largest values are all among them.
double sampled_pivot(std::span<const double> row, std::size_t k) {
  constexpr std::size_t kSamples = 64;
  std::array<double, kSamples> sample{};
  const std::size_t stride = row.size() / kSamples;
  for (std::size_t i = 0; i < kSamples; ++i) sample[i] = row[i * stride];
  const std::size_t rank = 2 * k * kSamples / row.size();
  std::nth_element(sample.begin(), sample.begin() + rank, sample.end(),
                   std::greater<double>());
  return sample[rank];
}

// Writes the first k tokens of the rank order (k < row.size()) to ids[0, k)
// in id order: every token above the k-th largest value, then the lowest
// ids of the tie class at it.
void select_top_k(std::span<const double> row, std::size_t k, MaskScratch& s) {
  const std::size_t V = row.size();
  double* values = s.values.data();
  std::uint32_t* ids = s.ids.data();
  std::size_t n = 0;
  if (V >= 256 && 8 * k <= V) {
    // Keep every token at or above the pivot, in id order, branch-free. When
    // the row's largest values dodge the sample, fewer than k are kept and
    // the whole row is partitioned instead.
    const double pivot = sampled_pivot(row, k);
    for (std::size_t t = 0; t < V; ++t) {
      values[n] = row[t];
      ids[n] = static_cast<std::uint32_t>(t);
      n += row[t] >= pivot ? 1 : 0;
    }
  }
  if (n < k) {
    for (std::size_t t = 0; t < V; ++t) {
      values[t] = row[t];
      ids[t] = static_cast<std::uint32_t>(t);
    }
    n = V;
  }
  std::nth_element(values, values + (k - 1), values + n, std::greater<double>());
  const double kth = values[k - 1];
  // Everything before the k-th is at least kth: the tie class admits the
  // k-th itself plus the ties partitioned before it.
  std::size_t ties = 1;
  for (std::size_t i = 0; i + 1 < k; ++i) ties += values[i] == kth ? 1 : 0;
  std::size_t taken = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = row[ids[i]];
    if (v > kth || (v == kth && ties > 0)) {
      ties -= v == kth ? 1 : 0;
      ids[taken++] = ids[i];
    }
  }
}

}  // namespace

util::TokenBitset allowed_tokens(std::span<const double> log_probs,
                                 const DecodingRules& rules) {
  const std::size_t V = log_probs.size();
  MaskScratch& s = mask_scratch(V);
  std::span<const double> row = log_probs;
  if (rules.temperature != 1.0) {
    temper(log_probs, rules.temperature, {s.tempered.data(), V});
    row = {s.tempered.data(), V};
  }
  if (rules.top_k) validate_top_k(*rules.top_k);
  if (rules.top_p) validate_top_p(*rules.top_p);

  const bool cut_k = rules.top_k && static_cast<std::size_t>(*rules.top_k) < V;
  if (!cut_k && !rules.top_p) return util::TokenBitset(V, true);

  // The admitted tokens are a prefix of the rank order over the candidates
  // ids[0, n): the top-k survivors, or the whole vocabulary.
  std::size_t n = V;
  if (cut_k) {
    n = static_cast<std::size_t>(*rules.top_k);
    select_top_k(row, n, s);
  } else {
    std::iota(s.ids.begin(), s.ids.begin() + V, 0u);
  }
  if (rules.top_p) {
    // The nucleus: the shortest rank-order prefix with mass >= p, summed in
    // rank order.
    std::sort(s.ids.begin(), s.ids.begin() + n,
              [&](std::uint32_t a, std::uint32_t b) { return rank_before(row, a, b); });
    double mass = 0.0;
    std::size_t prefix = 0;
    while (prefix < n) {
      mass += std::exp(row[s.ids[prefix++]]);
      if (mass >= *rules.top_p) break;
    }
    n = prefix;
  }
  util::TokenBitset mask(V, false);
  for (std::size_t i = 0; i < n; ++i) mask.set(s.ids[i]);
  return mask;
}

std::vector<double> apply_temperature(std::span<const double> log_probs,
                                      double temperature) {
  std::vector<double> out(log_probs.size());
  temper(log_probs, temperature, out);
  return out;
}

TokenId sample_token(std::span<const double> log_probs,
                     const util::TokenBitset& mask, util::Pcg32& rng) {
  std::vector<double> weights(log_probs.size(), 0.0);
  for (std::size_t t = 0; t < log_probs.size(); ++t) {
    if (mask.empty() || mask[t]) weights[t] = std::exp(log_probs[t]);
  }
  std::size_t pick = rng.weighted(weights);
  return static_cast<TokenId>(pick);  // == vocab_size on zero mass
}

std::vector<TokenId> generate(const LanguageModel& model,
                              std::span<const TokenId> context,
                              std::size_t max_new_tokens,
                              const DecodingRules& rules, util::Pcg32& rng,
                              bool stop_at_eos) {
  std::vector<TokenId> running(context.begin(), context.end());
  std::vector<TokenId> fresh;
  for (std::size_t step = 0; step < max_new_tokens; ++step) {
    if (running.size() >= model.max_sequence_length()) break;
    std::vector<double> lp = model.next_log_probs(running);
    util::TokenBitset mask = allowed_tokens(lp, rules);
    TokenId t = sample_token(lp, mask, rng);
    if (t >= model.vocab_size()) break;  // degenerate distribution
    running.push_back(t);
    fresh.push_back(t);
    if (stop_at_eos && t == model.eos()) break;
  }
  return fresh;
}

}  // namespace relm::model
