#include "core/compiled_query.hpp"

#include <algorithm>
#include <bit>

#include "core/pipeline/cache.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"

namespace relm::core {

using automata::kNoState;
using automata::StateId;
using tokenizer::TokenId;

CompiledQuery CompiledQuery::compile(const SimpleSearchQuery& query,
                                     const tokenizer::BpeTokenizer& tok) {
  return from_artifact(pipeline::compile_cached(query, tok), tok);
}

CompiledQuery CompiledQuery::from_artifact(
    std::shared_ptr<const pipeline::QueryArtifact> artifact,
    const tokenizer::BpeTokenizer& tok) {
  if (!artifact || !artifact->prefix || !artifact->body) {
    throw relm::QueryError("null query artifact");
  }
  if (artifact->vocab_fingerprint != tok.fingerprint()) {
    throw relm::QueryError(
        "query artifact was compiled against a different vocabulary "
        "(stale cache entry?)");
  }
  if (artifact->prefix->automaton.dfa.num_symbols() != tok.vocab_size() ||
      artifact->body->automaton.dfa.num_symbols() != tok.vocab_size()) {
    throw relm::QueryError(
        "query artifact alphabet does not match the tokenizer vocabulary");
  }
  return CompiledQuery(std::move(artifact), tok);
}

CompiledQuery::StateSet CompiledQuery::initial() const {
  StateSet set;
  set.prefix_state = prefix_->dfa.start();
  if (prefix_->dfa.is_final(set.prefix_state)) {
    set.body_state = body_->dfa.start();
  }
  return set;
}

std::vector<CompiledQuery::Step> CompiledQuery::expand(const StateSet& set) const {
  const automata::Dfa& prefix = prefix_->dfa;
  const automata::Dfa& body = body_->dfa;
  std::vector<Step> steps;

  // Body transitions.
  if (set.body_state != kNoState) {
    for (const automata::Edge& e : body.edges(set.body_state)) {
      steps.push_back(Step{static_cast<TokenId>(e.symbol),
                           StateSet{kNoState, e.to}, /*prefix_only=*/false,
                           /*body_advanced=*/true});
    }
  }

  // Prefix transitions (merged with body steps on the same token).
  if (set.prefix_state != kNoState) {
    for (const automata::Edge& e : prefix.edges(set.prefix_state)) {
      TokenId token = static_cast<TokenId>(e.symbol);
      StateId body_after = kNoState;
      if (prefix.is_final(e.to)) body_after = body.start();

      auto it = std::find_if(steps.begin(), steps.end(),
                             [&](const Step& s) { return s.token == token; });
      if (it != steps.end()) {
        // Token reachable through both machines: keep both live; not
        // prefix-only (the body interpretation is subject to rules, but the
        // prefix interpretation guarantees admission).
        it->next.prefix_state = e.to;
        if (it->next.body_state == kNoState) it->next.body_state = body_after;
        it->prefix_only = false;
      } else {
        steps.push_back(Step{token, StateSet{e.to, body_after},
                             /*prefix_only=*/true, /*body_advanced=*/false});
      }
    }
  }
  return steps;
}

void CompiledQuery::expand_masked(const StateSet& set,
                                  const util::TokenBitset* rule_mask,
                                  std::vector<Step>& out,
                                  StepCounters& counters) const {
  const TokenMaskTable& pmask = prefix_->masks;
  const TokenMaskTable& bmask = body_->masks;
  const automata::Dfa& prefix = prefix_->dfa;
  const automata::Dfa& body = body_->dfa;
  out.clear();

  const std::uint32_t W = bmask.words_per_state;  // == pmask.words_per_state
  const bool body_live = set.body_state != kNoState;
  const bool prefix_live = set.prefix_state != kNoState;
  const std::uint64_t* body_row =
      body_live ? bmask.state_words(set.body_state) : nullptr;
  const std::uint64_t* prefix_row =
      prefix_live ? pmask.state_words(set.prefix_state) : nullptr;
  const std::uint64_t* rule_words =
      rule_mask && !rule_mask->empty() ? rule_mask->words().data() : nullptr;

  // Body transitions: survivors of (state mask ∩ rule mask), token order.
  // A surviving bit's edge is found by rank: the number of set bits before
  // it in the *unmasked* state word, plus the running per-word base — a
  // popcount, not a pointer walk, so cost is words + survivors.
  if (body_live) {
    const std::uint32_t* targets =
        bmask.edge_targets.data() + bmask.edge_offsets[set.body_state];
    const std::uint32_t* ptargets =
        prefix_live ? pmask.edge_targets.data() : nullptr;
    std::uint32_t body_base = 0;
    std::uint32_t prefix_base =
        prefix_live ? pmask.edge_offsets[set.prefix_state] : 0;
    for (std::uint32_t w = 0; w < W; ++w) {
      const std::uint64_t word = body_row[w];
      const std::uint64_t surv = rule_words ? (word & rule_words[w]) : word;
      const std::uint64_t pword = prefix_live ? prefix_row[w] : 0;
      counters.mask_words_scanned += 1;
      counters.mask_pruned +=
          std::size_t(std::popcount(word)) - std::size_t(std::popcount(surv));
      std::uint64_t bits = surv;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const TokenId token = static_cast<TokenId>(w * 64u + std::uint32_t(b));
        const std::uint32_t rank =
            body_base + std::uint32_t(std::popcount(word & ((1ull << b) - 1)));
        Step step{token, StateSet{kNoState, targets[rank]},
                  /*prefix_only=*/false, /*body_advanced=*/true};
        if ((pword >> b) & 1) {
          // Token reachable through both machines (the slow path's merge):
          // the body edge already fixed body_state, so only the prefix side
          // of the state pair is added.
          const std::uint32_t prank =
              prefix_base +
              std::uint32_t(std::popcount(pword & ((1ull << b) - 1)));
          step.next.prefix_state = ptargets[prank];
        }
        out.push_back(step);
      }
      body_base += std::uint32_t(std::popcount(word));
      if (prefix_live) prefix_base += std::uint32_t(std::popcount(pword));
    }
  }

  // Prefix transitions not shadowed by a body edge: appended prefix-only in
  // token order, exactly like the slow path. Decoding rules never prune
  // these (§2.4), so the rule mask is not consulted. Note a prefix edge
  // shadowed by a *rule-pruned* body edge stays dropped — same as the slow
  // path, where the merge marks it !prefix_only and the rule filter kills it.
  if (prefix_live) {
    const std::uint32_t* ptargets = pmask.edge_targets.data();
    std::uint32_t prefix_base = pmask.edge_offsets[set.prefix_state];
    for (std::uint32_t w = 0; w < W; ++w) {
      const std::uint64_t pword = prefix_row[w];
      counters.mask_words_scanned += 1;
      std::uint64_t bits = pword & ~(body_live ? body_row[w] : 0ull);
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const TokenId token = static_cast<TokenId>(w * 64u + std::uint32_t(b));
        const std::uint32_t prank =
            prefix_base +
            std::uint32_t(std::popcount(pword & ((1ull << b) - 1)));
        const StateId to = ptargets[prank];
        const StateId body_after = prefix.is_final(to) ? body.start() : kNoState;
        out.push_back(Step{token, StateSet{to, body_after},
                           /*prefix_only=*/true, /*body_advanced=*/false});
      }
      prefix_base += std::uint32_t(std::popcount(pword));
    }
  }
}

bool CompiledQuery::is_match(const StateSet& set) const {
  return set.body_state != kNoState && body_->dfa.is_final(set.body_state);
}

bool CompiledQuery::has_continuation(const StateSet& set) const {
  if (set.body_state != kNoState && !body_->dfa.edges(set.body_state).empty()) {
    return true;
  }
  if (set.prefix_state != kNoState &&
      !prefix_->dfa.edges(set.prefix_state).empty()) {
    return true;
  }
  return false;
}

void CompiledQuery::canonical_prefix_advance(
    std::span<const TokenId> body_tokens, std::string_view body_text,
    CanonState& state) const {
  if (!body_->dynamic_canonical || state.doomed()) return;

  // Walk the vocabulary trie from the first unsettled boundary. The path's
  // own token there is always on the walk, so the canonical token is either
  // it or a longer one: seeing a longer one dooms the path, and a walk that
  // falls off or ends at a leaf settles the decision to the path's token.
  const std::size_t len = body_text.size();
  while (state.idx < body_tokens.size()) {
    const std::size_t own = tok_->token_string(body_tokens[state.idx]).size();
    std::uint32_t node = state.node;
    std::size_t end = state.walked;
    while (end < len) {
      node = tok_->trie_child(node, static_cast<unsigned char>(body_text[end]));
      if (node == tokenizer::BpeTokenizer::kNoTrieNode) break;
      if (++end - state.pos > own && tok_->trie_token(node)) {
        state.doomed_at = state.pos;
        return;
      }
    }
    if (end == len && tok_->trie_has_children(node)) {  // undecided
      state.walked = static_cast<std::uint32_t>(end);
      state.node = node;
      return;
    }
    state.pos += static_cast<std::uint32_t>(own);
    ++state.idx;
    state.walked = state.pos;
    state.node = tok_->trie_root();
  }
}

bool CompiledQuery::canonical_body(std::span<const TokenId> body_tokens,
                                   std::string_view body_text,
                                   CanonState state) const {
  if (!body_->dynamic_canonical) return true;
  if (state.doomed()) return false;

  // The string is complete, so every greedy decision is final: continue the
  // longest-match walk from the settled boundary and require the path tokens
  // to reproduce it exactly, consuming the whole text. Equivalent to
  // `encode(body_text) == body_tokens` (encode() is the same greedy walk)
  // without re-walking the settled prefix or materializing either buffer.
  const std::size_t len = body_text.size();
  std::size_t pos = state.pos;
  std::size_t idx = state.idx;
  while (pos < len) {
    auto match = tok_->longest_match(body_text.substr(pos));
    if (!match) {
      // encode() throws here too; a body built from vocabulary tokens can
      // only hit this if the vocabulary lacks single-byte coverage.
      throw relm::Error("byte not in tokenizer vocabulary during canonical "
                        "finalization");
    }
    if (idx >= body_tokens.size() || body_tokens[idx] != *match) return false;
    pos += tok_->token_string(*match).size();
    ++idx;
  }
  return idx == body_tokens.size();
}

void CompiledQuery::decode_step(const StateSet& set,
                                const util::TokenBitset* rule_mask,
                                TokenId eos, const BodyCursor& body,
                                StepOutput& out) const {
  out.counters = {};
  out.canon.clear();
  const bool masked = has_masks();
  if (masked) {
    expand_masked(set, rule_mask, out.steps, out.counters);
  } else {
    out.steps = expand(set);
  }

  const bool check_canon = body_->dynamic_canonical;
  if (check_canon) {
    // Scratch = parent body + one placeholder slot, rewritten per step below
    // (cheaper than re-assembling the prefix for every candidate token).
    out.body_scratch.assign(body.tokens.begin(), body.tokens.end());
    out.body_scratch.push_back(0);
    out.text_scratch.assign(body.text);
  }
  std::size_t kept = 0;
  for (const Step& step : out.steps) {
    if (!masked && !step.prefix_only && rule_mask && !(*rule_mask)[step.token]) {
      ++out.counters.pruned_by_rules;
      continue;  // pruned, and transitively all its extensions (§3.3)
    }
    CanonState canon;  // default: body run resets
    if (check_canon && step.body_advanced) {
      // Child body = parent body + this token; resume the settled-boundary
      // check from the parent's state instead of re-walking the body.
      out.body_scratch.back() = step.token;
      out.text_scratch.resize(body.text.size());
      out.text_scratch.append(tok_->token_string(step.token));
      canon = body.canon;
      canonical_prefix_advance(out.body_scratch, out.text_scratch, canon);
      if (canon.doomed() &&
          canon.doomed_at + tok_->max_token_length() <= out.text_scratch.size()) {
        ++out.counters.pruned_non_canonical;  // the distance rule's cut
        continue;
      }
    }
    out.steps[kept++] = step;
    out.canon.push_back(canon);
  }
  out.steps.resize(kept);
  out.eos_allowed = !rule_mask || (*rule_mask)[eos];
}

}  // namespace relm::core
