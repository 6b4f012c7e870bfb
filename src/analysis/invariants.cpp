#include "analysis/invariants.hpp"

#include <cmath>
#include <deque>
#include <sstream>

#include "util/rng.hpp"

namespace relm::analysis {

namespace {

using automata::Dfa;
using automata::Edge;
using automata::Nfa;
using automata::StateId;
using tokenizer::TokenId;

std::string state_str(const std::string& name, StateId s) {
  return name + " state " + std::to_string(s);
}

}  // namespace

// ---------------------------------------------------------------------------
// InvariantReport
// ---------------------------------------------------------------------------

void InvariantReport::fail(const std::string& check, const std::string& detail) {
  for (auto& [id, count] : counts_) {
    if (id != check) continue;
    ++count;
    if (count <= kMaxPerCheck) {
      violations_.push_back(Violation{check, detail});
    } else if (count == kMaxPerCheck + 1) {
      violations_.push_back(Violation{check, "... further violations suppressed"});
    }
    return;
  }
  counts_.emplace_back(check, 1);
  violations_.push_back(Violation{check, detail});
}

bool InvariantReport::has(const std::string& check) const {
  for (const auto& [id, count] : counts_) {
    if (id == check) return count > 0;
  }
  return false;
}

std::string InvariantReport::to_string() const {
  if (ok()) return "ok\n";
  std::ostringstream out;
  out << violations_.size() << " invariant violation"
      << (violations_.size() == 1 ? "" : "s") << ":\n";
  for (const Violation& v : violations_) {
    out << "  [" << v.check << "] " << v.detail << '\n';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// (a) automata
// ---------------------------------------------------------------------------

void check_dfa(const Dfa& dfa, InvariantReport& report, const std::string& name) {
  const std::size_t n = dfa.num_states();
  if (n == 0) {
    report.fail("dfa.empty", name + " has no states");
    return;
  }
  if (dfa.start() >= n) {
    report.fail("dfa.start-range",
                name + " start state " + std::to_string(dfa.start()) +
                    " out of range (num_states " + std::to_string(n) + ")");
  }
  for (StateId s = 0; s < n; ++s) {
    auto edges = dfa.edges(s);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const Edge& e = edges[i];
      if (e.to >= n) {
        report.fail("dfa.transition-range",
                    state_str(name, s) + " has a dangling transition on symbol " +
                        std::to_string(e.symbol) + " to state " +
                        std::to_string(e.to) + " (num_states " +
                        std::to_string(n) + ")");
      }
      // An out-of-alphabet symbol covers kEpsilon too: a DFA must be
      // epsilon-free, and kEpsilon == 0xffffffff can never be < num_symbols.
      if (e.symbol >= dfa.num_symbols()) {
        report.fail("dfa.symbol-range",
                    state_str(name, s) + " edge " + std::to_string(i) +
                        (e.symbol == automata::kEpsilon
                             ? " is an epsilon transition (DFAs must be epsilon-free)"
                             : " symbol " + std::to_string(e.symbol) +
                                   " outside alphabet of " +
                                   std::to_string(dfa.num_symbols())));
      }
      if (i > 0 && edges[i - 1].symbol >= e.symbol) {
        report.fail(
            "dfa.determinism",
            state_str(name, s) +
                (edges[i - 1].symbol == e.symbol
                     ? " has two transitions on symbol " + std::to_string(e.symbol) +
                           " (nondeterministic)"
                     : " edge list is not sorted by symbol (next() is a binary "
                       "search over sorted edges)"));
      }
    }
  }
}

void check_nfa(const Nfa& nfa, InvariantReport& report, const std::string& name) {
  const std::size_t n = nfa.num_states();
  if (n == 0) {
    report.fail("nfa.empty", name + " has no states");
    return;
  }
  if (nfa.start() >= n) {
    report.fail("nfa.start-range",
                name + " start state " + std::to_string(nfa.start()) +
                    " out of range (num_states " + std::to_string(n) + ")");
  }
  for (StateId s = 0; s < n; ++s) {
    for (const Edge& e : nfa.edges(s)) {
      if (e.to >= n) {
        report.fail("nfa.transition-range",
                    state_str(name, s) + " has a dangling transition to state " +
                        std::to_string(e.to));
      }
      if (e.symbol != automata::kEpsilon && e.symbol >= nfa.num_symbols()) {
        report.fail("nfa.symbol-range",
                    state_str(name, s) + " symbol " + std::to_string(e.symbol) +
                        " outside alphabet of " +
                        std::to_string(nfa.num_symbols()));
      }
    }
  }
}

void check_epsilon_free(const Nfa& nfa, InvariantReport& report,
                        const std::string& name) {
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    for (const Edge& e : nfa.edges(s)) {
      if (e.symbol == automata::kEpsilon) {
        report.fail("nfa.epsilon-free",
                    state_str(name, s) + " still has an epsilon transition to " +
                        std::to_string(e.to));
      }
    }
  }
}

void check_trim(const Dfa& dfa, InvariantReport& report, const std::string& name) {
  const std::size_t n = dfa.num_states();
  if (n == 0 || dfa.start() >= n) return;  // check_dfa reports these

  bool any_final = false;
  for (StateId s = 0; s < n; ++s) any_final = any_final || dfa.is_final(s);
  if (!any_final) {
    // The canonical empty-language machine: one bare non-final start state.
    if (n != 1 || !dfa.edges(0).empty()) {
      report.fail("dfa.accept-reachability",
                  name + " has no accepting state but is not the canonical "
                         "single-state empty machine");
    }
    return;
  }

  // Forward reachability from the start state.
  std::vector<bool> reachable(n, false);
  std::deque<StateId> work{dfa.start()};
  reachable[dfa.start()] = true;
  while (!work.empty()) {
    StateId s = work.front();
    work.pop_front();
    for (const Edge& e : dfa.edges(s)) {
      if (e.to < n && !reachable[e.to]) {
        reachable[e.to] = true;
        work.push_back(e.to);
      }
    }
  }

  // Backward reachability from accepting states.
  std::vector<std::vector<StateId>> reverse(n);
  for (StateId s = 0; s < n; ++s) {
    for (const Edge& e : dfa.edges(s)) {
      if (e.to < n) reverse[e.to].push_back(s);
    }
  }
  std::vector<bool> productive(n, false);
  for (StateId s = 0; s < n; ++s) {
    if (dfa.is_final(s)) {
      productive[s] = true;
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    StateId s = work.front();
    work.pop_front();
    for (StateId p : reverse[s]) {
      if (!productive[p]) {
        productive[p] = true;
        work.push_back(p);
      }
    }
  }

  bool accept_reachable = false;
  for (StateId s = 0; s < n; ++s) {
    if (dfa.is_final(s) && reachable[s]) accept_reachable = true;
    if (!reachable[s]) {
      report.fail("dfa.reachability",
                  state_str(name, s) +
                      (dfa.is_final(s) ? " (accepting)" : "") +
                      " is unreachable from the start state");
    } else if (!productive[s]) {
      report.fail("dfa.coreachability",
                  state_str(name, s) +
                      " cannot reach an accepting state (dead state)");
    }
  }
  if (!accept_reachable) {
    report.fail("dfa.accept-reachability",
                name + " has accepting states but none is reachable from the "
                       "start state");
  }
}

void check_token_automaton(const Dfa& dfa, const tokenizer::BpeTokenizer& tok,
                           InvariantReport& report, const std::string& name) {
  check_dfa(dfa, report, name);
  if (dfa.num_symbols() != tok.vocab_size()) {
    report.fail("token.alphabet",
                name + " alphabet size " + std::to_string(dfa.num_symbols()) +
                    " does not equal the tokenizer vocabulary (" +
                    std::to_string(tok.vocab_size()) + ")");
  }
  for (StateId s = 0; s < dfa.num_states(); ++s) {
    for (const Edge& e : dfa.edges(s)) {
      if (e.symbol == tok.eos()) {
        report.fail("token.eos-edge",
                    state_str(name, s) + " consumes EOS (token " +
                        std::to_string(tok.eos()) +
                        ") as a transition; EOS is the reserved stop symbol");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// (b) models
// ---------------------------------------------------------------------------

namespace {

// Checks one distribution row; returns the row so walks can continue on it,
// or an empty vector when the row is unusable.
std::vector<double> check_row(const model::LanguageModel& model,
                              std::span<const TokenId> context,
                              InvariantReport& report, double tolerance,
                              const std::string& name) {
  std::vector<double> lp = model.next_log_probs(context);
  std::string where = name + " context of length " + std::to_string(context.size());
  if (lp.size() != model.vocab_size()) {
    report.fail("model.distribution-size",
                where + ": next_log_probs returned " + std::to_string(lp.size()) +
                    " entries for a vocabulary of " +
                    std::to_string(model.vocab_size()));
    return {};
  }
  double sum = 0.0;
  for (std::size_t t = 0; t < lp.size(); ++t) {
    if (std::isnan(lp[t])) {
      report.fail("model.nan-logit",
                  where + ": log p(token " + std::to_string(t) + ") is NaN");
      return {};
    }
    // -Inf is legal underflow (p == 0); anything meaningfully positive means
    // p > 1, a broken normalizer.
    if (lp[t] > tolerance) {
      report.fail("model.positive-logit",
                  where + ": log p(token " + std::to_string(t) + ") = " +
                      std::to_string(lp[t]) + " > 0 (probability above 1)");
    }
    sum += std::exp(lp[t]);
  }
  if (std::abs(sum - 1.0) > tolerance) {
    report.fail("model.row-sum",
                where + ": probabilities sum to " + std::to_string(sum) +
                    ", expected 1 +/- " + std::to_string(tolerance));
  }
  return lp;
}

}  // namespace

void check_model_distributions(const model::LanguageModel& model,
                               InvariantReport& report,
                               const ModelCheckOptions& options,
                               const std::string& name) {
  if (model.vocab_size() == 0) {
    report.fail("model.vocab-empty", name + " has an empty vocabulary");
    return;
  }
  if (model.eos() >= model.vocab_size()) {
    report.fail("model.eos-range",
                name + " EOS token " + std::to_string(model.eos()) +
                    " outside the vocabulary of " +
                    std::to_string(model.vocab_size()));
    return;
  }

  util::Pcg32 rng(options.seed);
  std::size_t evaluated = 0;
  auto probe = [&](std::span<const TokenId> ctx) {
    ++evaluated;
    return check_row(model, ctx, report, options.tolerance, name);
  };

  // Fixed probes: the unconditional row and the post-EOS (document start) row.
  probe({});
  std::vector<TokenId> ctx{model.eos()};
  probe(ctx);

  // Random-walk probes through the model itself, so stored statistics (not
  // just backoff paths) are exercised; every step's row is checked.
  while (evaluated < options.probe_contexts) {
    ctx.clear();
    for (std::size_t depth = 0; depth < options.probe_depth; ++depth) {
      if (evaluated >= options.probe_contexts) break;
      std::vector<double> lp = probe(ctx);
      if (lp.empty()) return;  // row was unusable; report already has it
      TokenId next;
      if (rng.uniform() < 0.5) {
        // Uniform token: exercises unseen contexts and the backoff path.
        next = static_cast<TokenId>(
            rng.bounded(static_cast<std::uint32_t>(model.vocab_size())));
      } else {
        std::vector<double> weights(lp.size());
        for (std::size_t t = 0; t < lp.size(); ++t) weights[t] = std::exp(lp[t]);
        std::size_t pick = rng.weighted(weights);
        if (pick >= weights.size()) break;
        next = static_cast<TokenId>(pick);
      }
      if (next == model.eos()) break;
      ctx.push_back(next);
    }
  }
}

void check_ngram_model(const model::NgramModel& model, InvariantReport& report,
                       const ModelCheckOptions& options, const std::string& name) {
  const model::NgramModel::Config& config = model.config();
  if (config.order < 1) {
    report.fail("ngram.config", name + " order must be >= 1, got " +
                                    std::to_string(config.order));
  }
  if (!std::isfinite(config.alpha) || config.alpha <= 0.0) {
    report.fail("ngram.config",
                name + " interpolation weight alpha must be finite and > 0, got " +
                    std::to_string(config.alpha));
  }
  if (config.max_sequence_length == 0) {
    report.fail("ngram.config", name + " max_sequence_length must be > 0");
  }

  bool tokens_in_range = true;
  model.visit_context_rows([&](const model::NgramModel::ContextRowView& row) {
    std::string where = name + " order-" + std::to_string(row.order_k) +
                        " row " + std::to_string(row.key);
    if (row.counts.empty() || row.total == 0) {
      report.fail("ngram.row-empty",
                  where + " is stored but has no continuations");
      return;
    }
    std::uint64_t sum = 0;
    for (const auto& [token, count] : row.counts) {
      if (token >= model.vocab_size()) {
        tokens_in_range = false;
        report.fail("ngram.token-range",
                    where + " counts token " + std::to_string(token) +
                        " outside the vocabulary of " +
                        std::to_string(model.vocab_size()));
      }
      if (count == 0) {
        report.fail("ngram.zero-count",
                    where + " stores a zero count for token " +
                        std::to_string(token));
      }
      sum += count;
    }
    // The row total is the normalizer of p(token | context): a mismatch
    // silently un-normalizes every distribution interpolated through the row.
    if (sum != row.total) {
      report.fail("ngram.row-total",
                  where + " total " + std::to_string(row.total) +
                      " does not equal the sum of its counts (" +
                      std::to_string(sum) + ")");
    }
  });

  // A table that references out-of-vocabulary tokens has no distribution
  // (next_log_probs throws on it). The structural violation is already
  // reported; don't compound it.
  if (tokens_in_range) {
    check_model_distributions(model, report, options, name);
  }
}

// ---------------------------------------------------------------------------
// (c) compiled queries
// ---------------------------------------------------------------------------

void check_compiled_query(const core::CompiledQuery& compiled,
                          InvariantReport& report, const std::string& name) {
  const tokenizer::BpeTokenizer& tok = compiled.tokenizer();
  check_token_automaton(compiled.prefix_automaton(), tok, report,
                        name + ".prefix");
  check_token_automaton(compiled.body_automaton(), tok, report, name + ".body");
  // Compiler outputs are trimmed (all-tokens path) or minimized (canonical
  // enumeration path); junk states in either machine are compiler bugs.
  check_trim(compiled.prefix_automaton(), report, name + ".prefix");
  check_trim(compiled.body_automaton(), report, name + ".body");

  core::CompiledQuery::StateSet initial = compiled.initial();
  if (initial.prefix_state == automata::kNoState &&
      initial.body_state == automata::kNoState) {
    report.fail("query.initial",
                name + " initial state has neither machine live");
  }
  if (initial.prefix_state != automata::kNoState &&
      initial.prefix_state >= compiled.prefix_automaton().num_states()) {
    report.fail("query.initial", name + " initial prefix state out of range");
  }
  if (initial.body_state != automata::kNoState &&
      initial.body_state >= compiled.body_automaton().num_states()) {
    report.fail("query.initial", name + " initial body state out of range");
  }
}

void check_component(const core::pipeline::Component& component,
                     const tokenizer::BpeTokenizer* tok,
                     InvariantReport& report, const std::string& name) {
  // The loaders validate checksums; in memory, the audit is structural.
  const core::TokenAutomaton& ta = component.automaton;
  check_dfa(ta.dfa, report, name);
  check_trim(ta.dfa, report, name);
  // All-tokens automata admit every encoding by construction; a set
  // dynamic-canonical flag under that strategy marks a buggy writer (and
  // would make the executor prune encodings the query asked for).
  if (component.strategy == core::TokenizationStrategy::kAllTokens &&
      ta.dynamic_canonical) {
    report.fail("artifact.strategy-flags",
                name + " uses the all-tokens strategy but has a "
                       "dynamic-canonical flag set");
  }
  if (tok != nullptr && component.vocab_fingerprint == tok->fingerprint()) {
    check_token_automaton(ta.dfa, *tok, report, name);
  }
}

}  // namespace relm::analysis
