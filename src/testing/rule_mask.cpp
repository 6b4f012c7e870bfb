#include "testing/rule_mask.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "util/errors.hpp"

namespace relm::testing {

namespace {

bool rank_before(std::span<const double> lp, std::size_t a, std::size_t b) {
  return lp[a] > lp[b] || (lp[a] == lp[b] && a < b);
}

void validate(const model::DecodingRules& rules) {
  if (rules.top_k && *rules.top_k <= 0) throw relm::Error("top_k must be positive");
  if (rules.top_p && (*rules.top_p <= 0.0 || *rules.top_p > 1.0)) {
    throw relm::Error("top_p must be in (0, 1]");
  }
}

}  // namespace

bool token_allowed(std::span<const double> log_probs,
                   const model::DecodingRules& rules, tokenizer::TokenId token) {
  if (rules.unrestricted()) return true;
  const double T = rules.temperature;
  if (T <= 0.0) throw relm::Error("temperature must be positive");
  validate(rules);
  const std::size_t V = log_probs.size();
  const std::size_t t = token;

  // The temperature-adjusted value of token u, with the arithmetic of
  // model::apply_temperature (divide by T, subtract the max-shifted log
  // normalizer) but without its O(V) buffer. Ranks are decided on these
  // values: dividing can merge two raw values into one tie class.
  double log_z = 0.0;
  if (T != 1.0) {
    double max_e = -std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < V; ++u) max_e = std::max(max_e, log_probs[u] / T);
    double z = 0.0;
    for (std::size_t u = 0; u < V; ++u) z += std::exp(log_probs[u] / T - max_e);
    log_z = max_e + std::log(z);
  }
  auto value = [&](std::size_t u) {
    return T == 1.0 ? log_probs[u] : log_probs[u] / T - log_z;
  };
  const double own = value(t);

  if (rules.top_k && static_cast<std::size_t>(*rules.top_k) < V) {
    std::size_t better = 0;
    for (std::size_t u = 0; u < V; ++u) {
      const double v = value(u);
      better += v > own || (v == own && u < t) ? 1 : 0;
    }
    if (better >= static_cast<std::size_t>(*rules.top_k)) return false;
  }
  if (rules.top_p) {
    // The nucleus admits a token iff the mass ranked before it, summed in
    // rank order as the nucleus is, stays below p. A sum in id order lies
    // within 2(V-1)·u·mass of it (u the unit roundoff), so it decides
    // whenever it is farther from p than that; otherwise walk the value
    // levels from the top, each level's tokens in id order.
    const double p = *rules.top_p;
    double mass = 0.0;
    for (std::size_t u = 0; u < V; ++u) {
      const double v = value(u);
      if (v > own || (v == own && u < t)) mass += std::exp(v);
    }
    const double slack = 4.0 * static_cast<double>(V) *
                         std::numeric_limits<double>::epsilon() * mass;
    if (std::abs(mass - p) <= slack) {
      mass = 0.0;
      double above = std::numeric_limits<double>::infinity();
      while (mass < p) {
        bool found = false;
        double level = 0.0;
        for (std::size_t u = 0; u < V; ++u) {
          const double v = value(u);
          if (v < above && (!found || v > level)) {
            level = v;
            found = true;
          }
        }
        if (!found || level < own) break;
        for (std::size_t u = 0; u < V; ++u) {
          if (value(u) == level && (level > own || u < t)) mass += std::exp(level);
        }
        if (level == own) break;
        above = level;
      }
    }
    if (mass >= p) return false;
  }
  return true;
}

util::TokenBitset allowed_tokens_partition(std::span<const double> log_probs,
                                           const model::DecodingRules& rules) {
  const std::size_t V = log_probs.size();
  util::TokenBitset mask(V, true);

  std::vector<double> lp;
  std::span<const double> effective = log_probs;
  if (rules.temperature != 1.0) {
    lp = model::apply_temperature(log_probs, rules.temperature);
    effective = lp;
  }
  validate(rules);

  if (rules.top_k && static_cast<std::size_t>(*rules.top_k) < V) {
    const auto k = static_cast<std::size_t>(*rules.top_k);
    std::vector<double> values(effective.begin(), effective.end());
    std::nth_element(values.begin(), values.begin() + (k - 1), values.end(),
                     std::greater<double>());
    const double kth = values[k - 1];
    mask.reset_all();
    std::size_t taken = 0;
    for (std::size_t t = 0; t < V; ++t) {
      if (effective[t] >= kth) {
        mask.set(t);
        ++taken;
      }
    }
    for (std::size_t t = V; taken > k; --t) {
      if (effective[t - 1] == kth) {
        mask.reset(t - 1);
        --taken;
      }
    }
  }

  if (rules.top_p) {
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
      if (mass >= *rules.top_p) break;
    }
    mask.and_with(nucleus);
  }
  return mask;
}

std::string rule_mask_mismatch(std::span<const double> log_probs,
                               const model::DecodingRules& rules) {
  const std::size_t V = log_probs.size();
  const util::TokenBitset mask = model::allowed_tokens(log_probs, rules);
  if (mask != allowed_tokens_partition(log_probs, rules)) {
    return "allowed_tokens differs from the whole-row partition";
  }
  if (rules.top_k && !rules.top_p &&
      mask.count() != std::min<std::size_t>(V, static_cast<std::size_t>(*rules.top_k))) {
    return "top-k mask admits " + std::to_string(mask.count()) + " tokens";
  }
  std::vector<std::size_t> probes;
  const std::size_t stride = V <= 256 ? 1 : V / 16;
  for (std::size_t t = 0; t < V; t += stride) probes.push_back(t);
  const std::vector<double> row = model::apply_temperature(log_probs, rules.temperature);
  std::optional<std::size_t> last_in;
  std::optional<std::size_t> first_out;
  for (std::size_t t = 0; t < V; ++t) {
    if (mask[t] && (!last_in || row[t] <= row[*last_in])) last_in = t;
    if (!mask[t] && (!first_out || row[t] > row[*first_out])) first_out = t;
  }
  if (last_in) probes.push_back(*last_in);
  if (first_out) probes.push_back(*first_out);
  for (std::size_t t : probes) {
    if (mask[t] != token_allowed(log_probs, rules, static_cast<tokenizer::TokenId>(t))) {
      return "allowed_tokens and token_allowed disagree on token " + std::to_string(t);
    }
  }
  return "";
}

}  // namespace relm::testing
