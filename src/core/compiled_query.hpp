#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/pipeline/artifact.hpp"
#include "core/query.hpp"
#include "tokenizer/bpe.hpp"
#include "util/token_bitset.hpp"

namespace relm::core {

// A fully compiled query: an immutable pipeline::QueryArtifact (the prefix
// and body token automata plus identity metadata) bound to the tokenizer,
// with the glue the executor needs. The prefix automaton's strings bypass
// decoding rules (§2.4/§3.3); the body automaton's transitions are subject
// to them. The artifact is shared, not owned: the same compiled artifact —
// fresh from the pass pipeline, from the in-memory cache, or reloaded from
// disk — backs any number of CompiledQuery instances, which is what makes
// cached and fresh compiles byte-identical by construction.
//
// Execution state is a (prefix state, body state) pair with kNoState marking
// an inactive machine. Both machines are DFAs; nondeterminism only arises at
// the prefix->body hand-off (a prefix-final state starts the body while the
// prefix may also continue), so a state may have both machines live at once.
class CompiledQuery {
 public:
  struct StateSet {
    automata::StateId prefix_state = automata::kNoState;
    automata::StateId body_state = automata::kNoState;

    friend bool operator==(const StateSet&, const StateSet&) = default;
  };

  struct Step {
    tokenizer::TokenId token;
    StateSet next;
    // True when this token is reachable only through the prefix machine and
    // therefore bypasses decoding rules (it is still costed at its true
    // probability — the paper's startup-latency heuristic).
    bool prefix_only;
    // True when the body machine consumed this token (as opposed to going
    // live at its start state via the prefix hand-off). The executor uses
    // this to reconstruct the body token subsequence for canonicality checks.
    bool body_advanced;
  };

  // Compiles a query against a tokenizer through the pass pipeline
  // (src/core/pipeline/), consulting the process-global artifact cache: a
  // hot (pattern, preprocessors, strategy, vocabulary) tuple is served from
  // memory or disk instead of recompiled.
  static CompiledQuery compile(const SimpleSearchQuery& query,
                               const tokenizer::BpeTokenizer& tok);

  // Binds an already-compiled artifact (cache hit, disk load) to the
  // tokenizer. Throws relm::QueryError when the artifact was compiled
  // against a different vocabulary (fingerprint or alphabet mismatch).
  static CompiledQuery from_artifact(
      std::shared_ptr<const pipeline::QueryArtifact> artifact,
      const tokenizer::BpeTokenizer& tok);

  StateSet initial() const;

  // All token transitions out of `set`, prefix hand-off included.
  std::vector<Step> expand(const StateSet& set) const;

  // What one decoding step pruned, and what its mask scan cost. The
  // traversals fold it into SearchStats / GenerateStats with one +=.
  struct StepCounters {
    std::size_t pruned_by_rules = 0;  // edges the rule mask cut (probe path)
    std::size_t pruned_non_canonical = 0;
    // Mask-and-scan: words of the state∩rule scan, and the tokens it cut —
    // exactly what the probe path counts in pruned_by_rules.
    std::size_t mask_words_scanned = 0;
    std::size_t mask_pruned = 0;

    StepCounters& operator+=(const StepCounters& other) {
      pruned_by_rules += other.pruned_by_rules;
      pruned_non_canonical += other.pruned_non_canonical;
      mask_words_scanned += other.mask_words_scanned;
      mask_pruned += other.mask_pruned;
      return *this;
    }
  };

  // The mask-and-scan fast path: equivalent to expand(set) followed by the
  // executor's rule filter (drop steps with !prefix_only whose token the
  // rule mask rejects), but computed by intersecting the precompiled
  // per-state bitmask with `rule_mask` word-wise and visiting only the
  // surviving bits — O(vocab/64 + survivors) instead of a probe per edge.
  // `rule_mask == nullptr` means unrestricted. Steps are appended to `out`
  // (cleared first) in exactly the slow path's order: body transitions in
  // token order, then unshadowed prefix transitions in token order.
  // Requires has_masks().
  void expand_masked(const StateSet& set, const util::TokenBitset* rule_mask,
                     std::vector<Step>& out, StepCounters& counters) const;

  // True when both automata carry mask tables (the token_masks pass ran and
  // stayed within its memory budget), i.e. expand_masked is available.
  bool has_masks() const {
    return !artifact_->prefix.masks.empty() && !artifact_->body.masks.empty();
  }

  // True when the compiled language is empty (vacuous algebra query like
  // `a & !a`): no token sequence can ever match. Executors check this first
  // and return cleanly with zero model calls.
  bool empty_language() const { return artifact_->empty_language; }

  // A match requires the body machine to be in a final state. (A query with
  // an empty body pattern accepts at the hand-off itself.)
  bool is_match(const StateSet& set) const;

  // Whether any transition leaves the set (false = the only option is to
  // stop; used for EOS disambiguation in sampling, §3.3).
  bool has_continuation(const StateSet& set) const;

  const automata::Dfa& prefix_automaton() const { return artifact_->prefix.dfa; }
  const automata::Dfa& body_automaton() const { return artifact_->body.dfa; }
  bool dynamic_canonical() const { return artifact_->body.dynamic_canonical; }
  bool prefix_dynamic_canonical() const {
    return artifact_->prefix.dynamic_canonical;
  }

  // Dynamic canonicality pruning (§3.2 option 2). `body_text` is the decoded
  // body-so-far and `body_tokens` its token path; returns false when the
  // path already deviates from the canonical (greedy longest-match) encoding
  // on a settled boundary — i.e. a boundary more than max_token_length bytes
  // from the end, which no future input can re-merge.
  bool canonical_prefix_ok(std::span<const tokenizer::TokenId> body_tokens,
                           const std::string& body_text) const;

  // Resumable form of canonical_prefix_ok. Settled greedy decisions are
  // final, so a path that passed the check with `state` settled need not
  // re-verify them when it grows: the child check resumes from the parent's
  // state in O(newly settled decisions) instead of re-walking the whole body
  // (which made per-path verification quadratic in depth). A default state
  // means "nothing settled yet"; on return `state` holds the new settled
  // boundary and is valid for every extension of (body_tokens, body_text).
  struct CanonState {
    std::uint32_t pos = 0;  // settled byte offset into body_text
    std::uint32_t idx = 0;  // settled token index into body_tokens
  };
  bool canonical_prefix_advance(std::span<const tokenizer::TokenId> body_tokens,
                                std::string_view body_text,
                                CanonState& state) const;

  // Emission-time finalization: true iff `body_tokens` IS the canonical
  // (greedy longest-match) encoding of the complete `body_text`. `state` must
  // be a settled boundary previously produced for this body by
  // canonical_prefix_advance (default state = verify from scratch); only the
  // unsettled tail is walked. Equivalent to re-encoding the text and
  // comparing, without the two temporary buffers.
  bool canonical_body(std::span<const tokenizer::TokenId> body_tokens,
                      std::string_view body_text, CanonState state) const;

  // The body run a step extends: its tokens, their decoded text and its
  // settled canonicality boundary. Read only by dynamic-canonical queries.
  struct BodyCursor {
    std::span<const tokenizer::TokenId> tokens;
    std::string_view text;
    CanonState canon;
  };

  // One decode_step's result. steps[i] survived the automaton, the decoding
  // rules (prefix edges exempt, §2.4) and canonicality (§3.2); canon[i] is
  // its child's settled boundary (default when the body run resets).
  struct StepOutput {
    std::vector<Step> steps;
    std::vector<CanonState> canon;
    bool eos_allowed = false;  // the rule mask admits EOS
    StepCounters counters;     // this call's prunes only
    std::vector<tokenizer::TokenId> body_scratch;  // reused across calls
    std::string text_scratch;
  };

  // The constrained-decoding step every traversal takes (shortest path,
  // beam, generate streams): automaton edges out of `set` ∩ the rule mask,
  // then the resumable canonicality check against `body`. Uses the
  // mask-and-scan path when the artifact carries masks, the per-edge probe
  // otherwise; both yield the same steps in the same order.
  void decode_step(const StateSet& set, const util::TokenBitset* rule_mask,
                   tokenizer::TokenId eos, const BodyCursor& body,
                   StepOutput& out) const;

  const tokenizer::BpeTokenizer& tokenizer() const { return *tok_; }
  const pipeline::QueryArtifact& artifact() const { return *artifact_; }
  std::shared_ptr<const pipeline::QueryArtifact> shared_artifact() const {
    return artifact_;
  }

 private:
  CompiledQuery(std::shared_ptr<const pipeline::QueryArtifact> artifact,
                const tokenizer::BpeTokenizer& tok)
      : artifact_(std::move(artifact)), tok_(&tok) {}

  std::shared_ptr<const pipeline::QueryArtifact> artifact_;
  const tokenizer::BpeTokenizer* tok_;
};

}  // namespace relm::core
