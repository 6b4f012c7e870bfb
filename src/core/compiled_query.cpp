#include "core/compiled_query.hpp"

#include <algorithm>

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
  const std::uint32_t* btargets =
      set.body_state != kNoState
          ? bmask.edge_targets.data() + bmask.edge_offsets[set.body_state]
          : nullptr;
  const std::uint32_t* ptargets =
      set.prefix_state != kNoState
          ? pmask.edge_targets.data() + pmask.edge_offsets[set.prefix_state]
          : nullptr;
  out.clear();
  walk_masks(set, rule_mask, counters,
             [&](TokenId token, bool body, std::uint32_t rank,
                 std::uint32_t prank) {
               if (body) {
                 Step step{token, StateSet{kNoState, btargets[rank]},
                           /*prefix_only=*/false, /*body_advanced=*/true};
                 if (prank != kNoRank) step.next.prefix_state = ptargets[prank];
                 out.push_back(step);
                 return;
               }
               const StateId to = ptargets[prank];
               out.push_back(Step{token,
                                  StateSet{to, prefix_->dfa.is_final(to)
                                                   ? body_->dfa.start()
                                                   : kNoState},
                                  /*prefix_only=*/true, /*body_advanced=*/false});
             });
}

CompiledQuery::Step CompiledQuery::resolve(const StateSet& set, TokenId token,
                                           bool body) const {
  const automata::Dfa& prefix = prefix_->dfa;
  if (body) {
    return Step{token,
                StateSet{set.prefix_state == kNoState
                             ? kNoState
                             : prefix.next(set.prefix_state, token),
                         body_->dfa.next(set.body_state, token)},
                /*prefix_only=*/false, /*body_advanced=*/true};
  }
  const StateId to = prefix.next(set.prefix_state, token);
  return Step{token,
              StateSet{to, prefix.is_final(to) ? body_->dfa.start() : kNoState},
              /*prefix_only=*/true, /*body_advanced=*/false};
}

bool CompiledQuery::is_match(const StateSet& set) const {
  return set.body_state != kNoState && body_->dfa.is_final(set.body_state);
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

void CompiledQuery::decode_candidates(const StateSet& set,
                                      const util::TokenBitset* rule_mask,
                                      TokenId eos, StepOutput& out) const {
  out.counters = {};
  out.canon.clear();
  if (has_masks()) {
    expand_masked(set, rule_mask, out.steps, out.counters);
  } else {
    out.steps = expand(set);
    if (rule_mask) {
      // Pruned, and transitively all its extensions (§3.3).
      const std::size_t before = out.steps.size();
      std::erase_if(out.steps, [&](const Step& step) {
        return !step.prefix_only && !(*rule_mask)[step.token];
      });
      out.counters.pruned_by_rules += before - out.steps.size();
    }
  }
  out.eos_allowed = !rule_mask || (*rule_mask)[eos];
}

bool CompiledQuery::extend_canon(BodyScratch& run, TokenId token,
                                 CanonState& canon) const {
  run.tokens.back() = token;
  run.text.resize(run.parent_bytes);
  run.text.append(tok_->token_string(token));
  canonical_prefix_advance(run.tokens, run.text, canon);
  return !canon.doomed() ||
         canon.doomed_at + tok_->max_token_length() > run.text.size();
}

void CompiledQuery::decode_step(const StateSet& set,
                                const util::TokenBitset* rule_mask,
                                TokenId eos, const BodyCursor& body,
                                StepOutput& out) const {
  decode_candidates(set, rule_mask, eos, out);
  if (!body_->dynamic_canonical) {
    out.canon.assign(out.steps.size(), CanonState{});
    return;
  }
  out.body.load(body.tokens, body.text);
  std::size_t kept = 0;
  for (const Step& step : out.steps) {
    CanonState canon;  // default: body run resets
    if (step.body_advanced) {
      canon = body.canon;
      if (!extend_canon(out.body, step.token, canon)) {
        ++out.counters.pruned_non_canonical;
        continue;
      }
    }
    out.steps[kept++] = step;
    out.canon.push_back(canon);
  }
  out.steps.resize(kept);
}

}  // namespace relm::core
