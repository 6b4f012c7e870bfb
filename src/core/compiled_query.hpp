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

// A fully compiled query: an immutable pipeline::QueryArtifact (pointers to
// the prefix and body components plus identity metadata) bound to the
// tokenizer, with the glue the executor needs. The prefix automaton's
// strings bypass decoding rules (§2.4/§3.3); the body automaton's
// transitions are subject to them. The artifact and its components are
// shared, not owned: the same compiled component — fresh from the pass
// pipeline, from the in-memory cache, or reloaded from disk — backs any
// number of CompiledQuery instances, which is what makes cached and fresh
// compiles byte-identical by construction.
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
  // prefix or body already compiled under the same preprocessors, strategy
  // and vocabulary is served from memory or disk instead of recompiled.
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
    return !prefix_->masks.empty() && !body_->masks.empty();
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

  const automata::Dfa& prefix_automaton() const { return prefix_->dfa; }
  const automata::Dfa& body_automaton() const { return body_->dfa; }
  bool dynamic_canonical() const { return body_->dynamic_canonical; }

  // Dynamic canonicality (§3.2 option 2), settled exactly. `body_text` is
  // the decoded body-so-far and `body_tokens` its token path. The greedy
  // (longest-match) decision at a token boundary is final once the
  // vocabulary-trie walk from it falls off or reaches a leaf: no later byte
  // can change it. The path is doomed there as soon as the walk passes a
  // token longer than the path's own: whatever follows, the canonical
  // encoding takes that longer token or a longer one still.
  struct CanonState {
    static constexpr std::uint32_t kLive = 0xffffffffu;
    std::uint32_t pos = 0;  // first unsettled boundary: byte offset
    std::uint32_t idx = 0;  // ... and token index
    std::uint32_t walked = 0;  // the trie walk from pos reached this byte
    std::uint32_t node = 0;    // ... at this trie node (0 = the root)
    std::uint32_t doomed_at = kLive;  // byte offset of the doomed boundary
    bool doomed() const { return doomed_at != kLive; }
  };
  // Settles every boundary from `state` on that the visible text decides,
  // or marks the state doomed. Settled decisions depend only on bytes that
  // were visible when they settled, so a child resumes from its parent's
  // state, trie walk included, instead of re-walking the body, and a doomed
  // state's children inherit it without walking. A default state means
  // "nothing settled".
  void canonical_prefix_advance(std::span<const tokenizer::TokenId> body_tokens,
                                std::string_view body_text,
                                CanonState& state) const;

  // Emission-time finalization: true iff `body_tokens` IS the canonical
  // (greedy longest-match) encoding of the complete `body_text`. `state` must
  // come from canonical_prefix_advance on this body (default state = verify
  // from scratch); only the unsettled tail is walked. Equivalent to
  // re-encoding the text and comparing, without the two temporary buffers.
  bool canonical_body(std::span<const tokenizer::TokenId> body_tokens,
                      std::string_view body_text, CanonState state) const;

  // The body run a step extends: its tokens, their decoded text and its
  // CanonState. Read only by dynamic-canonical queries.
  struct BodyCursor {
    std::span<const tokenizer::TokenId> tokens;
    std::string_view text;
    CanonState canon;
  };

  // One decode_step's result. steps[i] survived the automaton, the decoding
  // rules (prefix edges exempt, §2.4) and canonicality (§3.2); canon[i] is
  // its child's CanonState (default when the body run resets). A step whose
  // canon[i] is doomed is flagged: its body can never end canonically, but
  // only a boundary doomed max_token_length bytes back is dropped here —
  // the cut of the older distance rule, which beam's width cut and the
  // streams' weighted draw still see. Shortest path drops flagged steps
  // itself.
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
  // then canonical_prefix_advance from `body`'s state. Uses the
  // mask-and-scan path when the artifact carries masks, the per-edge probe
  // otherwise; both yield the same steps in the same order.
  void decode_step(const StateSet& set, const util::TokenBitset* rule_mask,
                   tokenizer::TokenId eos, const BodyCursor& body,
                   StepOutput& out) const;

  const tokenizer::BpeTokenizer& tokenizer() const { return *tok_; }
  const pipeline::QueryArtifact& artifact() const { return *artifact_; }

 private:
  CompiledQuery(std::shared_ptr<const pipeline::QueryArtifact> artifact,
                const tokenizer::BpeTokenizer& tok)
      : artifact_(std::move(artifact)),
        prefix_(&artifact_->prefix->automaton),
        body_(&artifact_->body->automaton),
        tok_(&tok) {}

  std::shared_ptr<const pipeline::QueryArtifact> artifact_;
  // The automata of artifact_'s components, read in place.
  const TokenAutomaton* prefix_;
  const TokenAutomaton* body_;
  const tokenizer::BpeTokenizer* tok_;
};

}  // namespace relm::core
