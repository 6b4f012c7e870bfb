#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace relm::tokenizer {

using TokenId = std::uint32_t;

// Byte-level BPE tokenizer, trained from scratch on a corpus.
//
// This substitutes for the GPT-2 tokenizer (§3.2): everything ReLM needs from
// a tokenizer is (a) a subword vocabulary where strings admit multiple
// tokenizations — `The` can be T|h|e, Th|e, T|he, or The once those merges
// exist — and (b) a deterministic *canonical* encoding. Training follows
// Gage (1994)/GPT-2: pretokenize into space-prefixed word chunks, then
// iteratively merge the most frequent adjacent symbol pair.
//
// Canonical encoding is greedy longest-match over the learned vocabulary.
// This satisfies the paper's characterization of the canonical form — it is
// (near-)shortest and, critically, *stable under repeated encodings and
// decodings* — while being simple enough to reason about in the graph
// compiler. The deviation from merge-order BPE is documented in DESIGN.md.
class BpeTokenizer {
 public:
  struct TrainConfig {
    std::size_t vocab_size = 512;   // including base bytes and EOS
    std::size_t min_pair_count = 2; // stop merging below this frequency
    std::size_t max_token_length = 16;
    // Strings guaranteed to be single tokens regardless of merge order or
    // max_token_length (added after training if the merges did not produce
    // them). Models like GPT-2 carry many whole-word tokens the merge budget
    // of a small trained vocabulary would miss.
    std::vector<std::string> force_tokens;
    // No token may strictly extend any of these prefixes (the prefixes
    // themselves may exist as tokens). Keeps a designated subword — e.g.
    // " art" — the canonical leading token of a word family, the situation
    // ReLM's §4.2.1 subword-overlap analysis hinges on.
    std::vector<std::string> blocked_token_prefixes;
  };

  static BpeTokenizer train(std::string_view corpus, const TrainConfig& config);

  // Builds a tokenizer from an explicit vocabulary (deserialization, custom
  // vocabularies). Exactly one entry must be the empty string — it becomes
  // EOS — and entries must be unique. Throws relm::Error otherwise.
  static BpeTokenizer from_vocab(std::vector<std::string> tokens);

  // Canonical encoding (greedy longest match). Throws relm::Error if the
  // input contains a byte absent from the base vocabulary.
  std::vector<TokenId> encode(std::string_view text) const;

  // A randomized, generally non-canonical encoding: at each position, with
  // probability `step_prob` a uniformly random matching token is taken
  // instead of the longest match. Used to train simulators that — like
  // GPT-2, per §3.2's observation that 2-3% of its unprompted samples are
  // non-canonical — place real probability mass on alternative encodings.
  std::vector<TokenId> encode_random(std::string_view text, util::Pcg32& rng,
                                     double step_prob = 0.5) const;

  // Inverse of any encoding. EOS decodes to the empty string.
  std::string decode(std::span<const TokenId> tokens) const;

  std::size_t vocab_size() const { return tokens_.size(); }
  TokenId eos() const { return eos_; }
  const std::string& token_string(TokenId id) const { return tokens_[id]; }
  std::size_t max_token_length() const { return max_token_length_; }

  // Order-sensitive hash of the observable identity: every token string,
  // the EOS id and max_token_length. Computed once at construction.
  std::uint64_t fingerprint() const { return fingerprint_; }

  // Token id whose string equals `text` exactly, if any.
  std::optional<TokenId> find(std::string_view text) const;

  // Longest vocabulary token that is a prefix of `text`, if any.
  std::optional<TokenId> longest_match(std::string_view text) const;

  // Number of distinct token sequences that decode to `text` (the full set
  // of encodings of §3.2; for a fully-merged n-char string this is 2^(n-1)).
  // Saturates as a double.
  double count_encodings(std::string_view text) const;

  // True iff `tokens` is the canonical encoding of its own decoding. The
  // paper observes ~2-3% of GPT-2's unprompted samples are non-canonical.
  bool is_canonical(std::span<const TokenId> tokens) const;

  // All (token, end_position) pairs matching at text[pos..]: every vocabulary
  // token that is a prefix of the remaining text. Used by tests and by the
  // encoding-count DP.
  std::vector<TokenId> matches_at(std::string_view text, std::size_t pos) const;

  // Read-only view of the vocabulary byte trie, used by ReLM's graph
  // compiler (§3.2) to walk the trie and a character automaton in lockstep
  // when adding token "shortcut" edges. kNoTrieNode marks an absent child.
  static constexpr std::uint32_t kNoTrieNode = 0xffffffffu;
  std::uint32_t trie_root() const { return 0; }
  std::uint32_t trie_child(std::uint32_t node, unsigned char c) const {
    return trie_[node].child[c];
  }
  // Token ending exactly at `node`, if any.
  std::optional<TokenId> trie_token(std::uint32_t node) const {
    TokenId t = trie_[node].token_at;
    return t == static_cast<TokenId>(-1) ? std::nullopt : std::optional<TokenId>(t);
  }
  // False at a leaf: no token extends the string spelled by `node`.
  bool trie_has_children(std::uint32_t node) const {
    return trie_[node].has_children;
  }

 private:
  BpeTokenizer() = default;
  // Builds the trie and the fingerprint once the vocabulary is final.
  void finish();

  std::vector<std::string> tokens_;
  std::unordered_map<std::string, TokenId> index_;
  TokenId eos_ = 0;
  std::size_t max_token_length_ = 1;
  std::uint64_t fingerprint_ = 0;

  // Byte trie for longest-match lookups. Node 0 is the root; kNoChild marks
  // an absent edge; `token_at` is the token ending at this node, if any.
  static constexpr std::uint32_t kNoChild = 0xffffffffu;
  struct TrieNode {
    std::array<std::uint32_t, 256> child;
    TokenId token_at;
    bool has_children = false;
  };
  std::vector<TrieNode> trie_;
};

}  // namespace relm::tokenizer
