#include "core/generate/gen_stream.hpp"

#include <cmath>

#include "util/errors.hpp"

namespace relm::core::generate {

using tokenizer::TokenId;

const char* to_string(StreamState state) {
  switch (state) {
    case StreamState::kPending:
      return "pending";
    case StreamState::kRunning:
      return "running";
    case StreamState::kSuspended:
      return "suspended";
    case StreamState::kDone:
      return "done";
    case StreamState::kDeadEnd:
      return "dead_end";
    case StreamState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

GenStream::GenStream(const model::LanguageModel& model,
                     const CompiledQuery& compiled,
                     const SimpleSearchQuery& query,
                     const automata::WalkCounts& prefix_walks, StreamSpec spec,
                     util::Pcg32 rng)
    : model_(&model),
      compiled_(&compiled),
      query_(&query),
      prefix_walks_(&prefix_walks),
      spec_(std::move(spec)),
      rng_(rng) {}

bool GenStream::budget_spent() const {
  return context_.size() >= sequence_budget(*query_, *model_) ||
         body_tokens_.size() >= spec_.max_new_tokens;
}

void GenStream::activate(GenerateStats& stats) {
  state_ = StreamState::kRunning;
  activated_ = true;
  // Empty-language fast path, before any RNG draw.
  if (compiled_->empty_language()) {
    dead_end(stats);
    return;
  }

  // Prefix phase: uniform over prefix walks (bypasses decoding rules).
  std::vector<TokenId> prefix;
  const automata::Dfa& pa = compiled_->prefix_automaton();
  if (query_->walk_normalized_sampling) {
    std::vector<automata::Symbol> walk;
    if (!prefix_walks_->sample_uniform_walk(pa, rng_, walk)) {
      dead_end(stats);
      return;
    }
    prefix.assign(walk.begin(), walk.end());
  } else {
    // Unnormalized ablation: each stop-or-edge decision is uniform.
    automata::StateId state = pa.start();
    const std::size_t limit = prefix_walks_->max_len();
    bool ok = false;
    for (std::size_t step = 0; step <= limit; ++step) {
      auto edges = pa.edges(state);
      bool can_stop = pa.is_final(state);
      std::size_t options = edges.size() + (can_stop ? 1 : 0);
      if (options == 0) break;
      std::size_t pick = rng_.bounded(static_cast<std::uint32_t>(options));
      if (can_stop && pick == edges.size()) {
        ok = true;
        break;
      }
      const automata::Edge& e = edges[pick];
      prefix.push_back(static_cast<TokenId>(e.symbol));
      state = e.to;
    }
    if (!ok) ok = pa.is_final(state);
    if (!ok) {
      dead_end(stats);
      return;
    }
  }

  context_ = std::move(prefix);
  prefix_len_ = context_.size();
  body_state_ = compiled_->body_automaton().start();
}

bool GenStream::needs_model() const {
  if (state_ != StreamState::kRunning || !activated_) return false;
  if (budget_spent()) return false;
  const automata::Dfa& ba = compiled_->body_automaton();
  // An unambiguous stop (final state, no way to continue) ends a plain
  // stream for free; a terminated query still owes p(EOS | string) and must
  // pay for a distribution.
  return !(ba.edges(body_state_).empty() && ba.is_final(body_state_) &&
           !query_->require_eos);
}

std::span<const TokenId> GenStream::context() const {
  return model::relevant_suffix(*model_, context_);
}

void GenStream::advance_no_model(GenerateStats& stats) {
  const automata::Dfa& ba = compiled_->body_automaton();
  const bool at_final = ba.is_final(body_state_);
  if (budget_spent()) {
    // Budget exhausted: a plain query accepts whatever the automaton
    // accepts; a terminated query cannot — the EOS it still owes would
    // exceed the budget.
    if (at_final && !query_->require_eos) {
      accept(stats);
    } else {
      dead_end(stats);
    }
    return;
  }
  accept(stats);  // free stop: final state with no outgoing edge
}

void GenStream::advance(const model::LanguageModel::Row& row,
                        GenerateStats& stats) {
  const std::vector<double>& lp = *row.log_probs;
  RELM_DCHECK(lp.size() == model_->vocab_size(),
              "model distribution size must equal the vocabulary");
  const TokenId eos = model_->eos();
  const CompiledQuery::StateSet set{automata::kNoState, body_state_};
  // Per-thread scratch: an engine keeps its retired streams.
  thread_local CompiledQuery::StepOutput out;
  compiled_->decode_step(set, row.mask.get(), eos,
                         {body_tokens_, body_text_, canon_}, out);
  stats += out.counters;

  // Candidate weights: surviving automaton edges (plus EOS-as-stop at final
  // states), renormalized over true model probabilities (§3.3).
  const std::vector<CompiledQuery::Step>& steps = out.steps;
  std::vector<double> weights;
  weights.reserve(steps.size() + 1);
  for (const CompiledQuery::Step& step : steps) {
    weights.push_back(std::exp(lp[step.token]));
  }
  if (compiled_->is_match(set) && out.eos_allowed) {
    weights.push_back(std::exp(lp[eos]));
  }
  // No candidate, or no weight: weighted() returns size() without a draw.
  std::size_t pick = rng_.weighted(weights);
  if (pick >= weights.size()) {
    dead_end(stats);
    return;
  }
  if (pick == steps.size()) {  // EOS-as-stop
    body_log_prob_ += lp[eos];
    accept(stats);
    return;
  }
  if (out.canon[pick].doomed()) {
    // No continuation can make this body canonical, so accept()'s gate
    // would reject it: retire now instead of paying a model row per token.
    ++stats.pruned_non_canonical;
    dead_end(stats);
    return;
  }

  const TokenId t = steps[pick].token;
  body_log_prob_ += lp[t];
  context_.push_back(t);
  body_tokens_.push_back(t);
  body_text_ += compiled_->tokenizer().token_string(t);
  body_state_ = steps[pick].next.body_state;
  canon_ = out.canon[pick];
  ++stats.tokens_emitted;
}

void GenStream::accept(GenerateStats& stats) {
  // Final canonicality gate: a dynamic-canonical body must be exactly its
  // canonical encoding.
  if (!compiled_->canonical_body(body_tokens_, body_text_, canon_)) {
    ++stats.pruned_non_canonical;
    dead_end(stats);
    return;
  }
  std::span<const TokenId> prefix(context_.data(), prefix_len_);
  std::string text = compiled_->tokenizer().decode(prefix) + body_text_;
  result_ = SearchResult{context_, std::move(text), body_log_prob_, 0, 0.0};
  state_ = StreamState::kDone;
  ++stats.streams_retired;
  ++stats.streams_done;
}

void GenStream::dead_end(GenerateStats& stats) {
  state_ = StreamState::kDeadEnd;
  ++stats.streams_retired;
  ++stats.streams_dead_end;
}

void GenStream::suspend() {
  if (state_ == StreamState::kRunning || state_ == StreamState::kPending) {
    state_ = StreamState::kSuspended;
  }
}

void GenStream::resume() {
  if (state_ == StreamState::kSuspended) state_ = StreamState::kRunning;
}

void GenStream::cancel(GenerateStats& stats) {
  if (state_ == StreamState::kDone || state_ == StreamState::kDeadEnd ||
      state_ == StreamState::kCancelled) {
    return;
  }
  state_ = StreamState::kCancelled;
  ++stats.streams_retired;
  ++stats.streams_cancelled;
}

}  // namespace relm::core::generate
