#include "core/generate/gen_stream.hpp"

#include <bit>
#include <cmath>

#include "core/token_masks.hpp"
#include "util/logging.hpp"

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

std::size_t GenStream::sequence_limit() const {
  return std::min(query_->sequence_length.value_or(model_->max_sequence_length()),
                  model_->max_sequence_length());
}

bool GenStream::budget_spent() const {
  return context_.size() >= sequence_limit() ||
         body_tokens_.size() >= spec_.max_new_tokens;
}

void GenStream::activate(GenerateStats& stats) {
  state_ = StreamState::kRunning;
  activated_ = true;
  // Empty-language fast path, before any RNG draw: the sampler skips the
  // attempt entirely, so the stream's RNG sequence stays aligned with it.
  if (compiled_->empty_language()) {
    dead_end(stats);
    return;
  }

  // Prefix phase: uniform over prefix walks (bypasses decoding rules),
  // byte-for-byte RandomSampler::sample_prefix_tokens.
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
    // exceed the budget. Exactly the sampler's budget semantics.
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
  const util::TokenBitset* mask = row.mask.get();  // null: unrestricted
  RELM_DCHECK(lp.size() == model_->vocab_size(),
              "model distribution size must equal the vocabulary");
  const automata::Dfa& ba = compiled_->body_automaton();
  auto edges = ba.edges(body_state_);
  const bool at_final = ba.is_final(body_state_);

  // Edges surviving the decoding rules, as indices into `edges`. Identical
  // to the sampler: the precompiled per-state bitmask intersected with the
  // rule mask word-wise, a surviving bit's rank within the state row being
  // its edge index; or the per-edge probe loop when masks are off.
  std::vector<std::size_t> allowed_idx;
  allowed_idx.reserve(edges.size());
  if (query_->use_token_masks && compiled_->has_masks()) {
    const TokenMaskTable& bm = compiled_->artifact().body.masks;
    const std::uint64_t* state_row = bm.state_words(body_state_);
    const std::uint64_t* rule_words = mask ? mask->words().data() : nullptr;
    std::size_t rank_base = 0;
    for (std::uint32_t w = 0; w < bm.words_per_state; ++w) {
      const std::uint64_t word = state_row[w];
      const std::uint64_t surv = rule_words ? (word & rule_words[w]) : word;
      ++stats.mask_words_scanned;
      stats.mask_pruned += std::size_t(std::popcount(word)) -
                           std::size_t(std::popcount(surv));
      std::uint64_t bits = surv;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        allowed_idx.push_back(
            rank_base + std::size_t(std::popcount(word & ((1ull << b) - 1))));
      }
      rank_base += std::size_t(std::popcount(word));
    }
  } else {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      TokenId t = static_cast<TokenId>(edges[i].symbol);
      if (mask && !(*mask)[t]) {
        ++stats.pruned_by_rules;
        continue;
      }
      allowed_idx.push_back(i);
    }
  }

  // Candidate weights: surviving automaton edges (plus EOS-as-stop at final
  // states), renormalized over true model probabilities (§3.3).
  std::vector<double> weights;
  weights.reserve(allowed_idx.size() + 1);
  std::vector<std::size_t> candidate_edges;
  for (std::size_t i : allowed_idx) {
    TokenId t = static_cast<TokenId>(edges[i].symbol);
    if (compiled_->dynamic_canonical()) {
      std::vector<TokenId> candidate(body_tokens_);
      candidate.push_back(t);
      std::string text = body_text_ + compiled_->tokenizer().token_string(t);
      if (!compiled_->canonical_prefix_ok(candidate, text)) {
        ++stats.pruned_non_canonical;
        continue;
      }
    }
    candidate_edges.push_back(i);
    weights.push_back(std::exp(lp[t]));
  }
  bool eos_stop_available = false;
  if (at_final) {
    TokenId eos = model_->eos();
    if (!mask || (*mask)[eos]) {
      eos_stop_available = true;
      weights.push_back(std::exp(lp[eos]));
    }
  }
  if (weights.empty()) {
    dead_end(stats);
    return;
  }
  std::size_t pick = rng_.weighted(weights);
  if (pick >= weights.size()) {
    dead_end(stats);
    return;
  }
  if (eos_stop_available && pick == weights.size() - 1) {
    body_log_prob_ += lp[model_->eos()];
    accept(stats);
    return;
  }

  const automata::Edge& e = edges[candidate_edges[pick]];
  TokenId t = static_cast<TokenId>(e.symbol);
  body_log_prob_ += lp[t];
  context_.push_back(t);
  body_tokens_.push_back(t);
  body_text_ += compiled_->tokenizer().token_string(t);
  body_state_ = e.to;
  ++stats.tokens_emitted;
}

void GenStream::accept(GenerateStats& stats) {
  // Final canonicality gate for dynamic-canonical queries: the completed
  // body must be exactly its canonical encoding.
  if (compiled_->dynamic_canonical()) {
    std::vector<TokenId> canonical = compiled_->tokenizer().encode(body_text_);
    if (canonical != body_tokens_) {
      ++stats.pruned_non_canonical;
      dead_end(stats);
      return;
    }
  }
  std::span<const TokenId> prefix(context_.data(), prefix_len_);
  std::string text = compiled_->tokenizer().decode(prefix) + body_text_;
  result_ = SearchResult{context_, std::move(text), body_log_prob_,
                         stats.llm_calls, stats.elapsed_seconds};
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
