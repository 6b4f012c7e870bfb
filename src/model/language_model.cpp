#include "model/language_model.hpp"

#include "model/decoding.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace relm::model {

namespace {

struct BatchMetrics {
  obs::Counter& evals;
  obs::Histogram& batch_size;

  static BatchMetrics& get() {
    static BatchMetrics m{
        obs::Registry::instance().counter("model.evals"),
        obs::Registry::instance().histogram(
            "model.batch.size", obs::Histogram::default_size_bounds())};
    return m;
  }
};

}  // namespace

std::vector<std::vector<double>> LanguageModel::next_log_probs_batch(
    std::span<const std::vector<TokenId>> contexts) const {
  BatchMetrics& metrics = BatchMetrics::get();
  metrics.evals.add(contexts.size());
  metrics.batch_size.observe(static_cast<double>(contexts.size()));
  std::vector<std::vector<double>> out(contexts.size());
  if (contexts.size() < 2) {
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      out[i] = next_log_probs(contexts[i]);
    }
    return out;
  }
  // Deterministic parallel map: whichever thread evaluates contexts[i], the
  // distribution lands in out[i], so the result is byte-identical for every
  // pool size (including 1).
  RELM_TRACE_SPAN("model.batch");
  util::ThreadPool::shared().parallel_for(
      contexts.size(), [&](std::size_t i) { out[i] = next_log_probs(contexts[i]); });
  return out;
}

std::span<const TokenId> LanguageModel::distribution_key(
    std::span<const TokenId> context, std::vector<TokenId>& /*scratch*/) const {
  return relevant_suffix(*this, context);
}

std::vector<LanguageModel::Row> LanguageModel::next_rows(
    std::span<const std::vector<TokenId>> contexts,
    const DecodingRules& rules) const {
  std::vector<std::vector<double>> lps;
  if (contexts.size() == 1) {
    BatchMetrics::get().evals.add();
    lps.push_back(next_log_probs(contexts.front()));
  } else {
    lps = next_log_probs_batch(contexts);
  }
  RELM_DCHECK(lps.size() == contexts.size(),
              "batched model evaluation must return one row per context");
  std::vector<Row> rows(contexts.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].log_probs = std::make_shared<const std::vector<double>>(std::move(lps[i]));
  }
  fill_rule_masks(rows, rules);
  return rows;
}

double LanguageModel::sequence_log_prob(std::span<const TokenId> context,
                                        std::span<const TokenId> continuation) const {
  std::vector<TokenId> running(context.begin(), context.end());
  double total = 0.0;
  for (TokenId t : continuation) {
    std::vector<double> lp = next_log_probs(running);
    total += lp[t];
    running.push_back(t);
  }
  return total;
}

std::uint64_t hash_tokens(std::span<const TokenId> tokens) {
  std::uint64_t h = 1469598103934665603ULL;
  for (TokenId t : tokens) {
    h ^= t;
    h *= 1099511628211ULL;
    h ^= h >> 29;
  }
  return h;
}

std::span<const TokenId> relevant_suffix(const LanguageModel& model,
                                         std::span<const TokenId> context) {
  const std::size_t relevant = model.relevant_context_length();
  if (relevant >= context.size()) return context;
  return context.subspan(context.size() - relevant, relevant);
}

void fill_rule_masks(std::span<LanguageModel::Row> rows, const DecodingRules& rules) {
  if (rules.unrestricted()) return;
  auto build = [&](std::size_t i) {
    rows[i].mask = std::make_shared<const util::TokenBitset>(
        allowed_tokens(*rows[i].log_probs, rules));
  };
  if (rows.size() < 2) {
    for (std::size_t i = 0; i < rows.size(); ++i) build(i);
    return;
  }
  // Slot i is written only by index i, so masks are identical for every
  // pool size.
  util::ThreadPool::shared().parallel_for(rows.size(), build);
}

}  // namespace relm::model
