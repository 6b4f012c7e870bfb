#include "tokenizer/bpe.hpp"

#include <algorithm>
#include <map>

#include "util/errors.hpp"

namespace relm::tokenizer {
namespace {

// GPT-2-style pretokenization: a chunk is an (optional leading space +)
// alphabetic run, an (optional leading space +) digit run, or a single other
// byte. BPE merges never cross chunk boundaries, which is what confines
// tokens to word-like units.
std::vector<std::string> pretokenize(std::string_view text) {
  std::vector<std::string> chunks;
  std::size_t i = 0;
  auto is_alpha = [](unsigned char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
  };
  auto is_digit = [](unsigned char c) { return c >= '0' && c <= '9'; };
  while (i < text.size()) {
    std::size_t start = i;
    unsigned char c = text[i];
    if (c == ' ' && i + 1 < text.size() &&
        (is_alpha(text[i + 1]) || is_digit(text[i + 1]))) {
      ++i;
      c = text[i];
    }
    if (is_alpha(c)) {
      while (i < text.size() && is_alpha(static_cast<unsigned char>(text[i]))) ++i;
    } else if (is_digit(c)) {
      while (i < text.size() && is_digit(static_cast<unsigned char>(text[i]))) ++i;
    } else {
      ++i;
    }
    chunks.emplace_back(text.substr(start, i - start));
  }
  return chunks;
}

}  // namespace

BpeTokenizer BpeTokenizer::train(std::string_view corpus, const TrainConfig& config) {
  // Chunk frequency table.
  std::map<std::string, std::uint64_t> chunk_counts;
  for (auto& chunk : pretokenize(corpus)) ++chunk_counts[std::move(chunk)];

  BpeTokenizer tok;

  // Base vocabulary: printable ASCII + common whitespace, plus any byte seen
  // in the corpus. Guarantees every printable string is encodable.
  std::array<bool, 256> base{};
  for (int b = 0x20; b <= 0x7e; ++b) base[b] = true;
  base['\n'] = base['\t'] = base['\r'] = true;
  for (const auto& [chunk, _] : chunk_counts) {
    for (unsigned char c : chunk) base[c] = true;
  }
  for (int b = 0; b < 256; ++b) {
    if (base[b]) {
      std::string s(1, static_cast<char>(b));
      tok.index_.emplace(s, static_cast<TokenId>(tok.tokens_.size()));
      tok.tokens_.push_back(std::move(s));
    }
  }

  // Each chunk as a sequence of current symbols (token strings).
  struct Word {
    std::vector<std::string> symbols;
    std::uint64_t count;
  };
  std::vector<Word> words;
  words.reserve(chunk_counts.size());
  for (const auto& [chunk, count] : chunk_counts) {
    Word w;
    w.count = count;
    for (unsigned char c : chunk) w.symbols.emplace_back(1, static_cast<char>(c));
    words.push_back(std::move(w));
  }

  auto merge_blocked = [&config](const std::string& merged) {
    for (const std::string& prefix : config.blocked_token_prefixes) {
      if (merged.size() > prefix.size() &&
          merged.compare(0, prefix.size(), prefix) == 0) {
        return true;
      }
    }
    return false;
  };

  // Iterative merging of the most frequent adjacent pair. A std::map keyed by
  // the pair keeps tie-breaking deterministic (lexicographically smallest
  // pair wins ties), so trained vocabularies are reproducible.
  const std::size_t budget = config.vocab_size > tok.tokens_.size() + 1
                                 ? config.vocab_size - tok.tokens_.size() - 1
                                 : 0;  // reserve one slot for EOS
  for (std::size_t round = 0; round < budget; ++round) {
    std::map<std::pair<std::string, std::string>, std::uint64_t> pair_counts;
    for (const Word& w : words) {
      for (std::size_t i = 0; i + 1 < w.symbols.size(); ++i) {
        if (w.symbols[i].size() + w.symbols[i + 1].size() > config.max_token_length) {
          continue;
        }
        if (merge_blocked(w.symbols[i] + w.symbols[i + 1])) continue;
        pair_counts[{w.symbols[i], w.symbols[i + 1]}] += w.count;
      }
    }
    if (pair_counts.empty()) break;
    auto best = pair_counts.begin();
    for (auto it = pair_counts.begin(); it != pair_counts.end(); ++it) {
      if (it->second > best->second) best = it;
    }
    if (best->second < config.min_pair_count) break;

    std::string merged = best->first.first + best->first.second;
    if (!tok.index_.contains(merged)) {
      tok.index_.emplace(merged, static_cast<TokenId>(tok.tokens_.size()));
      tok.tokens_.push_back(merged);
    }

    // Apply the merge everywhere.
    for (Word& w : words) {
      std::vector<std::string> next;
      next.reserve(w.symbols.size());
      std::size_t i = 0;
      while (i < w.symbols.size()) {
        if (i + 1 < w.symbols.size() && w.symbols[i] == best->first.first &&
            w.symbols[i + 1] == best->first.second) {
          next.push_back(merged);
          i += 2;
        } else {
          next.push_back(w.symbols[i]);
          ++i;
        }
      }
      w.symbols = std::move(next);
    }
  }

  for (const std::string& forced : config.force_tokens) {
    if (!forced.empty() && !tok.index_.contains(forced)) {
      tok.index_.emplace(forced, static_cast<TokenId>(tok.tokens_.size()));
      tok.tokens_.push_back(forced);
    }
  }

  // EOS is the last id; its string is empty so decode() naturally skips it.
  tok.eos_ = static_cast<TokenId>(tok.tokens_.size());
  tok.tokens_.emplace_back("");

  for (const auto& t : tok.tokens_) {
    tok.max_token_length_ = std::max(tok.max_token_length_, t.size());
  }
  tok.finish();
  return tok;
}

BpeTokenizer BpeTokenizer::from_vocab(std::vector<std::string> tokens) {
  BpeTokenizer tok;
  tok.tokens_ = std::move(tokens);
  bool saw_eos = false;
  for (TokenId id = 0; id < tok.tokens_.size(); ++id) {
    const std::string& s = tok.tokens_[id];
    if (s.empty()) {
      if (saw_eos) throw relm::Error("from_vocab: multiple empty (EOS) tokens");
      saw_eos = true;
      tok.eos_ = id;
      continue;
    }
    if (!tok.index_.emplace(s, id).second) {
      throw relm::Error("from_vocab: duplicate token string");
    }
    tok.max_token_length_ = std::max(tok.max_token_length_, s.size());
  }
  if (!saw_eos) throw relm::Error("from_vocab: missing empty (EOS) token");
  tok.finish();
  return tok;
}

void BpeTokenizer::finish() {
  // FNV-1a over length-prefixed fields, each u64 as 8 little-endian bytes.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto u64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) h = (h ^ (v & 0xff)) * 0x100000001b3ull;
  };
  u64(tokens_.size());
  u64(eos_);
  u64(max_token_length_);
  for (const std::string& t : tokens_) {
    u64(t.size());
    for (unsigned char c : t) h = (h ^ c) * 0x100000001b3ull;
  }
  fingerprint_ = h;

  trie_.clear();
  TrieNode root;
  root.child.fill(kNoChild);
  root.token_at = static_cast<TokenId>(-1);
  trie_.push_back(root);
  for (TokenId id = 0; id < tokens_.size(); ++id) {
    const std::string& s = tokens_[id];
    if (s.empty()) continue;  // EOS
    std::uint32_t node = 0;
    for (unsigned char c : s) {
      if (trie_[node].child[c] == kNoChild) {
        trie_[node].child[c] = static_cast<std::uint32_t>(trie_.size());
        trie_[node].has_children = true;
        TrieNode fresh;
        fresh.child.fill(kNoChild);
        fresh.token_at = static_cast<TokenId>(-1);
        trie_.push_back(fresh);
      }
      node = trie_[node].child[c];
    }
    trie_[node].token_at = id;
  }
}

std::vector<TokenId> BpeTokenizer::encode(std::string_view text) const {
  std::vector<TokenId> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::optional<TokenId> best = longest_match(text.substr(pos));
    if (!best) {
      throw relm::Error("byte not in tokenizer vocabulary: \\x" +
                        std::to_string(static_cast<unsigned char>(text[pos])));
    }
    out.push_back(*best);
    pos += tokens_[*best].size();
  }
  return out;
}

std::vector<TokenId> BpeTokenizer::encode_random(std::string_view text,
                                                 util::Pcg32& rng,
                                                 double step_prob) const {
  std::vector<TokenId> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::vector<TokenId> candidates = matches_at(text, pos);
    if (candidates.empty()) {
      throw relm::Error("byte not in tokenizer vocabulary in encode_random");
    }
    TokenId chosen;
    if (candidates.size() > 1 && rng.uniform() < step_prob) {
      chosen = candidates[rng.bounded(static_cast<std::uint32_t>(candidates.size()))];
    } else {
      chosen = candidates.back();  // matches_at returns shortest..longest
    }
    out.push_back(chosen);
    pos += tokens_[chosen].size();
  }
  return out;
}

std::string BpeTokenizer::decode(std::span<const TokenId> tokens) const {
  std::string out;
  for (TokenId id : tokens) {
    if (id >= tokens_.size()) throw relm::Error("token id out of range in decode");
    out += tokens_[id];
  }
  return out;
}

std::optional<TokenId> BpeTokenizer::find(std::string_view text) const {
  auto it = index_.find(std::string(text));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::optional<TokenId> BpeTokenizer::longest_match(std::string_view text) const {
  std::uint32_t node = 0;
  std::optional<TokenId> best;
  for (unsigned char c : text) {
    std::uint32_t next = trie_[node].child[c];
    if (next == kNoChild) break;
    node = next;
    if (trie_[node].token_at != static_cast<TokenId>(-1)) {
      best = trie_[node].token_at;
    }
  }
  return best;
}

std::vector<TokenId> BpeTokenizer::matches_at(std::string_view text,
                                              std::size_t pos) const {
  std::vector<TokenId> out;
  std::uint32_t node = 0;
  for (std::size_t i = pos; i < text.size(); ++i) {
    std::uint32_t next = trie_[node].child[static_cast<unsigned char>(text[i])];
    if (next == kNoChild) break;
    node = next;
    if (trie_[node].token_at != static_cast<TokenId>(-1)) {
      out.push_back(trie_[node].token_at);
    }
  }
  return out;
}

double BpeTokenizer::count_encodings(std::string_view text) const {
  // ways[i] = number of tokenizations of text[i..]; ways[n] = 1.
  std::vector<double> ways(text.size() + 1, 0.0);
  ways[text.size()] = 1.0;
  for (std::size_t i = text.size(); i-- > 0;) {
    double total = 0.0;
    for (TokenId t : matches_at(text, i)) {
      total += ways[i + tokens_[t].size()];
      if (total > 1e300) {
        total = 1e300;
        break;
      }
    }
    ways[i] = total;
  }
  return ways[0];
}

bool BpeTokenizer::is_canonical(std::span<const TokenId> tokens) const {
  // A trailing EOS is a sequence terminator, not part of the text encoding.
  while (!tokens.empty() && tokens.back() == eos_) {
    tokens = tokens.first(tokens.size() - 1);
  }
  std::vector<TokenId> reencoded = encode(decode(tokens));
  return reencoded.size() == tokens.size() &&
         std::equal(reencoded.begin(), reencoded.end(), tokens.begin());
}

}  // namespace relm::tokenizer
