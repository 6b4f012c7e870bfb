#include "model/decoding.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "util/errors.hpp"

namespace relm::model {

namespace {

// The shared rank order for decoding rules: u precedes t on higher
// probability, ties on lower token id. Both allowed_tokens and token_allowed
// use exactly this order, so the two always agree on set membership — even on
// distributions full of exact ties (uniform models), where an unspecified
// nth_element partition would make them diverge.
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

}  // namespace

util::TokenBitset allowed_tokens(std::span<const double> log_probs,
                                 const DecodingRules& rules) {
  const std::size_t V = log_probs.size();
  util::TokenBitset mask(V, true);

  std::vector<double> lp;
  std::span<const double> effective = log_probs;
  if (rules.temperature != 1.0) {
    lp = apply_temperature(log_probs, rules.temperature);
    effective = lp;
  }

  if (rules.top_k) {
    const int k = *rules.top_k;
    validate_top_k(k);
    const auto kk = static_cast<std::size_t>(k);
    if (kk < V) {
      // Partition copied values to find the k-th largest and admit
      // everything at or above it. When the tie class at that value
      // straddles rank k, drop its highest token ids: what remains is
      // exactly the first k of the rank_before order.
      std::vector<double> values(effective.begin(), effective.end());
      std::nth_element(values.begin(), values.begin() + (k - 1), values.end(),
                       std::greater<double>());
      const double kth = values[kk - 1];
      mask.reset_all();
      std::size_t taken = 0;
      for (std::size_t t = 0; t < V; ++t) {
        if (effective[t] >= kth) {
          mask.set(t);
          ++taken;
        }
      }
      for (std::size_t t = V; taken > kk; --t) {
        if (effective[t - 1] == kth) {
          mask.reset(t - 1);
          --taken;
        }
      }
    }
  }

  if (rules.top_p) {
    double p = *rules.top_p;
    validate_top_p(p);
    std::vector<std::size_t> order(V);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return rank_before(effective, a, b);
    });
    double mass = 0.0;
    util::TokenBitset nucleus(V, false);
    for (std::size_t i = 0; i < V; ++i) {
      nucleus.set(order[i]);
      mass += std::exp(effective[order[i]]);
      if (mass >= p) break;
    }
    mask.and_with(nucleus);
  }

  return mask;
}

bool token_allowed(std::span<const double> log_probs, const DecodingRules& rules,
                   TokenId token) {
  if (rules.unrestricted()) return true;
  const std::size_t V = log_probs.size();
  const std::size_t t = token;

  // Temperature is a monotone transform (divide by T > 0, subtract a
  // constant normalizer), so the rank order — and with it the top-k set — is
  // decided on the raw log-probs; only the top-p mass needs the adjusted
  // distribution.
  if (rules.top_k) {
    int k = *rules.top_k;
    validate_top_k(k);
    if (static_cast<std::size_t>(k) < V) {
      std::size_t better = 0;
      for (std::size_t u = 0; u < V; ++u) {
        if (u != t && rank_before(log_probs, u, t)) ++better;
      }
      if (better >= static_cast<std::size_t>(k)) return false;
    }
  }

  if (rules.top_p) {
    double p = *rules.top_p;
    validate_top_p(p);
    // The nucleus admits a token iff the mass of strictly-better tokens is
    // below p. Mass is computed under the temperature-adjusted normalized
    // distribution with max-subtraction for stability — the same arithmetic
    // apply_temperature performs, without materializing the O(V) buffer.
    const double T = rules.temperature;
    if (T <= 0.0) throw relm::Error("temperature must be positive");
    double mass_before = 0.0;
    if (T != 1.0) {
      double max_e = -std::numeric_limits<double>::infinity();
      for (std::size_t u = 0; u < V; ++u) max_e = std::max(max_e, log_probs[u] / T);
      double z = 0.0;
      for (std::size_t u = 0; u < V; ++u) z += std::exp(log_probs[u] / T - max_e);
      const double log_z = max_e + std::log(z);
      for (std::size_t u = 0; u < V; ++u) {
        if (u != t && rank_before(log_probs, u, t)) {
          mass_before += std::exp(log_probs[u] / T - log_z);
        }
      }
    } else {
      for (std::size_t u = 0; u < V; ++u) {
        if (u != t && rank_before(log_probs, u, t)) {
          mass_before += std::exp(log_probs[u]);
        }
      }
    }
    if (mass_before >= p) return false;
  }

  return true;
}

std::vector<double> apply_temperature(std::span<const double> log_probs,
                                      double temperature) {
  if (temperature <= 0.0) throw relm::Error("temperature must be positive");
  const std::size_t V = log_probs.size();
  std::vector<double> out(V);
  double max_lp = -std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < V; ++t) {
    out[t] = log_probs[t] / temperature;
    max_lp = std::max(max_lp, out[t]);
  }
  double z = 0.0;
  for (double v : out) z += std::exp(v - max_lp);
  double log_z = max_lp + std::log(z);
  for (double& v : out) v -= log_z;
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
