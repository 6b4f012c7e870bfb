#include "testing/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>

#include "model/decoding.hpp"
#include "testing/rule_mask.hpp"

namespace relm::testing {

using core::CompiledQuery;
using core::SearchResult;
using core::SimpleSearchQuery;
using model::LanguageModel;
using tokenizer::TokenId;

namespace {

// Full-context model evaluation with memoization. The executors trim
// contexts to the model's relevant suffix; the oracle deliberately does not,
// so a model whose relevant_context_length() over-promises shows up as a
// differential failure instead of being silently assumed correct.
class ScoringCache {
 public:
  explicit ScoringCache(const LanguageModel& model) : model_(model) {}

  const std::vector<double>& log_probs(const std::vector<TokenId>& context) {
    auto it = cache_.find(context);
    if (it != cache_.end()) return it->second;
    return cache_.emplace(context, model_.next_log_probs(context)).first->second;
  }

 private:
  const LanguageModel& model_;
  std::map<std::vector<TokenId>, std::vector<double>> cache_;
};

struct Walker {
  const LanguageModel& model;
  const CompiledQuery& compiled;
  const SimpleSearchQuery& query;
  const OracleConfig& config;
  ScoringCache scores;
  Oracle out;
  std::vector<std::size_t> width_at_depth;
  std::size_t seq_limit;

  Walker(const LanguageModel& m, const CompiledQuery& c,
         const SimpleSearchQuery& q, const OracleConfig& cfg)
      : model(m), compiled(c), query(q), config(cfg), scores(m) {
    seq_limit = std::min(q.sequence_length.value_or(m.max_sequence_length()),
                         m.max_sequence_length());
  }

  bool final_canonical_ok(const std::vector<TokenId>& tokens,
                          std::uint32_t body_len) {
    if (!compiled.dynamic_canonical()) return true;
    std::span<const TokenId> body(tokens.data() + (tokens.size() - body_len),
                                  body_len);
    std::string body_text = compiled.tokenizer().decode(body);
    std::vector<TokenId> canonical = compiled.tokenizer().encode(body_text);
    return canonical.size() == body.size() &&
           std::equal(canonical.begin(), canonical.end(), body.begin());
  }

  void record(const std::vector<TokenId>& tokens, double log_prob,
              std::uint32_t body_len) {
    if (!final_canonical_ok(tokens, body_len)) return;
    if (out.paths.size() >= config.max_paths) {
      out.truncated = true;
      return;
    }
    out.paths.push_back(OraclePath{tokens, compiled.tokenizer().decode(tokens),
                                   log_prob, body_len});
  }

  void visit(const CompiledQuery::StateSet& set, std::vector<TokenId>& tokens,
             double log_prob, std::uint32_t body_len) {
    if (out.truncated) return;
    if (++out.nodes_explored > config.max_nodes) {
      out.truncated = true;
      return;
    }
    const std::size_t depth = tokens.size();
    if (width_at_depth.size() <= depth) width_at_depth.resize(depth + 1, 0);
    ++width_at_depth[depth];

    const std::vector<double>& lp = scores.log_probs(tokens);
    util::TokenBitset mask;
    if (!query.decoding.unrestricted()) {
      mask = model::allowed_tokens(lp, query.decoding);
    }

    if (compiled.is_match(set)) {
      if (!query.require_eos) {
        record(tokens, log_prob, body_len);
      } else if (depth < seq_limit) {
        // EOS termination consumes one budget slot and must itself survive
        // the decoding rules (prefix bypass never applies to EOS).
        TokenId eos = model.eos();
        if (mask.empty() || mask[eos]) {
          record(tokens, log_prob + lp[eos], body_len);
        }
      }
    }

    if (depth >= seq_limit) return;
    for (const CompiledQuery::Step& step : compiled.expand(set)) {
      if (!step.prefix_only && !mask.empty() && !mask[step.token]) continue;
      if (compiled.dynamic_canonical() && step.body_advanced) {
        std::vector<TokenId> body;
        body.reserve(body_len + 1);
        for (std::size_t i = tokens.size() - body_len; i < tokens.size(); ++i) {
          body.push_back(tokens[i]);
        }
        body.push_back(step.token);
        std::string body_text = compiled.tokenizer().decode(body);
        if (distance_rule_cuts(compiled.tokenizer(), body, body_text)) continue;
      }
      tokens.push_back(step.token);
      visit(step.next, tokens, log_prob + lp[step.token],
            step.body_advanced ? body_len + 1 : 0);
      tokens.pop_back();
      if (out.truncated) return;
    }
  }

  Oracle run() {
    std::vector<TokenId> tokens;
    visit(compiled.initial(), tokens, 0.0, 0);

    std::unordered_map<std::string, std::size_t> best;
    for (const OraclePath& path : out.paths) {
      auto [it, inserted] = best.emplace(path.text, &path - out.paths.data());
      if (!inserted && path.log_prob > out.paths[it->second].log_prob) {
        it->second = static_cast<std::size_t>(&path - out.paths.data());
      }
    }
    for (const auto& [text, idx] : best) out.by_text.push_back(out.paths[idx]);
    std::stable_sort(out.by_text.begin(), out.by_text.end(),
                     [](const OraclePath& a, const OraclePath& b) {
                       return a.log_prob > b.log_prob;
                     });
    for (std::size_t w : width_at_depth) out.max_width = std::max(out.max_width, w);
    return std::move(out);
  }
};

}  // namespace

bool distance_rule_cuts(const tokenizer::BpeTokenizer& tok,
                        std::span<const TokenId> body, std::string_view text) {
  const std::vector<TokenId> canonical = tok.encode(text);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (pos + tok.max_token_length() > text.size()) return false;
    if (body[i] != canonical[i]) return true;
    pos += tok.token_string(body[i]).size();
  }
  return false;
}

bool canonical_continuation_exists(const tokenizer::BpeTokenizer& tok,
                                   std::span<const TokenId> body,
                                   const std::string& text,
                                   std::string_view alphabet,
                                   std::size_t max_extra) {
  const std::vector<TokenId> canonical = tok.encode(text);
  if (canonical.size() >= body.size() &&
      std::equal(body.begin(), body.end(), canonical.begin())) {
    return true;
  }
  if (max_extra == 0) return false;
  std::string longer = text + ' ';
  for (char c : alphabet) {
    longer.back() = c;
    if (canonical_continuation_exists(tok, body, longer, alphabet,
                                      max_extra - 1)) {
      return true;
    }
  }
  return false;
}

std::optional<double> Oracle::log_prob_of(const std::string& text) const {
  for (const OraclePath& path : by_text) {
    if (path.text == text) return path.log_prob;
  }
  return std::nullopt;
}

Oracle build_oracle(const LanguageModel& model, const CompiledQuery& compiled,
                    const SimpleSearchQuery& query, const OracleConfig& config) {
  Walker walker(model, compiled, query, config);
  return walker.run();
}

std::optional<std::string> compare_results(
    const Oracle& oracle, const std::vector<SearchResult>& results,
    double tolerance, bool check_order) {
  std::ostringstream err;
  auto flush = [&]() -> std::optional<std::string> {
    std::string s = err.str();
    if (s.empty()) return std::nullopt;
    return s;
  };

  std::unordered_map<std::string, const OraclePath*> expected;
  for (const OraclePath& path : oracle.by_text) expected[path.text] = &path;

  std::unordered_map<std::string, std::size_t> seen;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SearchResult& r = results[i];
    if (!seen.emplace(r.text, i).second) {
      err << "duplicate text emitted at rank " << i << ": \"" << r.text << "\"\n";
      continue;
    }
    auto it = expected.find(r.text);
    if (it == expected.end()) {
      err << "result not in oracle language at rank " << i << ": \"" << r.text
          << "\" (log_prob " << r.log_prob << ")\n";
      continue;
    }
    const OraclePath& want = *it->second;
    if (std::abs(r.log_prob - want.log_prob) > tolerance) {
      err << "log_prob mismatch for \"" << r.text << "\": executor "
          << r.log_prob << " vs oracle " << want.log_prob << " (delta "
          << (r.log_prob - want.log_prob) << ")\n";
    }
    // The emitted token path must be a genuine argmax witness: some oracle
    // path with exactly these tokens, at the text's best log-prob.
    bool witness = false;
    for (const OraclePath& path : oracle.paths) {
      if (path.text == r.text && path.tokens == r.tokens &&
          std::abs(path.log_prob - want.log_prob) <= tolerance) {
        witness = true;
        break;
      }
    }
    if (!witness) {
      err << "token path for \"" << r.text
          << "\" is not a most-probable encoding witness\n";
    }
  }

  if (results.size() != oracle.by_text.size()) {
    err << "result count mismatch: executor " << results.size() << " vs oracle "
        << oracle.by_text.size() << "\n";
    for (const OraclePath& path : oracle.by_text) {
      if (!seen.count(path.text)) {
        err << "  missing from executor: \"" << path.text << "\" (log_prob "
            << path.log_prob << ")\n";
      }
    }
  }

  if (check_order) {
    for (std::size_t i = 1; i < results.size(); ++i) {
      if (results[i].log_prob > results[i - 1].log_prob + tolerance) {
        err << "emission order violated at rank " << i << ": \""
            << results[i].text << "\" (" << results[i].log_prob
            << ") after \"" << results[i - 1].text << "\" ("
            << results[i - 1].log_prob << ")\n";
      }
    }
  }
  return flush();
}

std::optional<std::string> check_samples(
    const LanguageModel& model, const CompiledQuery& compiled,
    const SimpleSearchQuery& query, const std::vector<SearchResult>& samples,
    double tolerance) {
  ScoringCache scores(model);
  const std::size_t seq_limit =
      std::min(query.sequence_length.value_or(model.max_sequence_length()),
               model.max_sequence_length());
  const automata::Dfa& prefix = compiled.prefix_automaton();
  const automata::Dfa& body = compiled.body_automaton();
  std::ostringstream err;

  auto prefix_accepts = [&](std::span<const TokenId> tokens) {
    automata::StateId s = prefix.start();
    for (TokenId t : tokens) {
      s = prefix.next(s, t);
      if (s == automata::kNoState) return false;
    }
    return prefix.is_final(s);
  };

  for (std::size_t n = 0; n < samples.size(); ++n) {
    const SearchResult& sample = samples[n];
    if (compiled.tokenizer().decode(sample.tokens) != sample.text) {
      err << "sample " << n << ": text does not match decoded tokens\n";
      continue;
    }
    if (sample.tokens.size() > seq_limit) {
      err << "sample " << n << ": exceeds the sequence budget\n";
      continue;
    }
    const std::size_t len = sample.tokens.size();
    bool member = false;
    bool lp_match = false;
    for (std::size_t split = 0; split <= len && !lp_match; ++split) {
      std::span<const TokenId> pre(sample.tokens.data(), split);
      if (!prefix_accepts(pre)) continue;

      // Walk the body machine over the remainder, replaying the decoding
      // mask at every step on the full context.
      automata::StateId s = body.start();
      double lp_body = 0.0;
      bool ok = true;
      std::vector<TokenId> context(pre.begin(), pre.end());
      for (std::size_t i = split; i < len; ++i) {
        TokenId t = sample.tokens[i];
        automata::StateId next = body.next(s, t);
        if (next == automata::kNoState) {
          ok = false;
          break;
        }
        const std::vector<double>& lp = scores.log_probs(context);
        if (!query.decoding.unrestricted()) {
          if (!token_allowed(lp, query.decoding, t)) {
            ok = false;
            break;
          }
        }
        lp_body += lp[t];
        context.push_back(t);
        s = next;
      }
      if (!ok || !body.is_final(s)) continue;
      member = true;

      // Termination factor, replicating the sampler's stop semantics: a
      // terminated (require_eos) sample always pays p(EOS | string) and
      // needs a free budget slot; otherwise EOS is paid only when stopping
      // was ambiguous (the stop state still had outgoing body edges).
      double factor = 0.0;
      bool stop_ok = true;
      bool ambiguous = !body.edges(s).empty();
      if (query.require_eos || ambiguous) {
        if (len >= seq_limit && query.require_eos) {
          stop_ok = false;
        } else if (len >= seq_limit) {
          factor = 0.0;  // budget exhausted at a final state: forced stop
        } else {
          const std::vector<double>& lp = scores.log_probs(context);
          TokenId eos = model.eos();
          if (!query.decoding.unrestricted() &&
              !token_allowed(lp, query.decoding, eos)) {
            stop_ok = false;
          } else {
            factor = lp[eos];
          }
        }
      }
      if (!stop_ok) continue;
      if (std::abs(sample.log_prob - (lp_body + factor)) <= tolerance) {
        lp_match = true;
      }
    }
    if (!member) {
      err << "sample " << n << ": \"" << sample.text
          << "\" is not in the query language (no admissible prefix/body "
             "split)\n";
    } else if (!lp_match) {
      err << "sample " << n << ": \"" << sample.text << "\" log_prob "
          << sample.log_prob
          << " does not match the exact conditional for any split\n";
    }
  }
  std::string s = err.str();
  if (s.empty()) return std::nullopt;
  return s;
}

}  // namespace relm::testing
