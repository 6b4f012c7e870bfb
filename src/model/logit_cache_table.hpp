#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/decoding.hpp"
#include "model/language_model.hpp"
#include "util/token_bitset.hpp"

namespace relm::model {

// One shard of CachingModel's logit cache: an exact LRU over distribution
// keys (LanguageModel::distribution_key, at most relevant_context_length()
// tokens). Entries sit in one array and an evicted entry's index is reused;
// prev/next indices link them from the most recent (head) to the least
// recent (tail); an open-addressed index (linear probing, at most half full,
// backward-shift deletion) maps a key hash to entry index + 1, 0 = empty.
// Both arrays grow geometrically up to what the capacity needs. The table is
// not synchronized: CachingModel holds the shard's mutex around every call.
class LogitCacheTable {
 public:
  // The low kShardBits of a key hash pick the shard; the index's home slot
  // comes from the bits above them.
  static constexpr unsigned kShardBits = 4;
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Entry {
    std::uint64_t hash = 0;     // the well-mixed key hash
    std::vector<TokenId> key;   // stored to rule out hash collisions
    // Shared so hits hand the buffers out without copying them; eviction
    // merely drops the cache's references while readers keep theirs.
    std::shared_ptr<const std::vector<double>> log_probs;
    // The mask last built over log_probs and the exact rules it was built
    // for; null until a restricted request fills it.
    DecodingRules mask_rules;
    std::shared_ptr<const util::TokenBitset> mask;
    std::uint32_t prev = kNone;  // toward the head
    std::uint32_t next = kNone;  // toward the tail
  };

  LogitCacheTable() = default;
  // Indices are uint32, so a shard holds at most kNone - 1 entries (far more
  // rows than any host's memory holds).
  explicit LogitCacheTable(std::size_t capacity)
      : capacity_(std::min<std::size_t>(capacity, kNone - 1)) {}

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  // The live entry for `key`, or null. Recency order only matters once
  // eviction is plausible, so a hit moves to the head only while the table
  // is at least half full.
  const Entry* lookup(std::uint64_t hash, std::span<const TokenId> key) {
    const std::uint32_t i = locate(hash, key);
    if (i == kNone) return nullptr;
    if (entries_.size() * 2 >= capacity_ && i != head_) {
      unlink(i);
      push_front(i);
    }
    return &entries_[i];
  }

  // Stores `row` for `key`: a live entry (another caller may have stored
  // the key since this one missed) takes its mask and keeps its place;
  // otherwise a new head entry is inserted, reusing the tail's index when
  // the table is full. Returns true iff it evicted the tail.
  bool store(std::uint64_t hash, std::span<const TokenId> key,
             const LanguageModel::Row& row, const DecodingRules& rules) {
    if (const std::uint32_t live = locate(hash, key); live != kNone) {
      if (row.mask) {
        entries_[live].mask_rules = rules;
        entries_[live].mask = row.mask;
      }
      return false;
    }
    if (capacity_ == 0) return false;
    const bool evict = entries_.size() >= capacity_;
    std::uint32_t i = tail_;
    if (evict) {
      unindex(i);
      unlink(i);
    } else {
      if (2 * (entries_.size() + 1) > slots_.size()) {
        rehash(std::max<std::size_t>(16, 2 * slots_.size()));
      }
      i = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    Entry& entry = entries_[i];
    entry.hash = hash;
    entry.key.assign(key.begin(), key.end());
    entry.log_probs = row.log_probs;
    entry.mask_rules = rules;
    entry.mask = row.mask;
    place(i);
    push_front(i);
    return evict;
  }

  // Calls fn(entry) from the most to the least recent entry.
  template <typename Fn>
  void for_each_recent(Fn&& fn) const {
    for (std::uint32_t i = head_; i != kNone; i = entries_[i].next) fn(entries_[i]);
  }

 private:
  std::size_t home(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash >> kShardBits) & (slots_.size() - 1);
  }

  std::uint32_t locate(std::uint64_t hash, std::span<const TokenId> key) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = home(hash); slots_[s] != 0; s = (s + 1) & mask) {
      const Entry& entry = entries_[slots_[s] - 1];
      if (entry.hash == hash && std::ranges::equal(entry.key, key)) {
        return slots_[s] - 1;
      }
    }
    return kNone;
  }

  void place(std::uint32_t i) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = home(entries_[i].hash);
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = i + 1;
  }

  // Removes entry i from the index, shifting each later entry of its probe
  // run back into the hole unless its home lies after the hole.
  void unindex(std::uint32_t i) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = home(entries_[i].hash);
    while (slots_[hole] != i + 1) hole = (hole + 1) & mask;
    for (std::size_t s = (hole + 1) & mask; slots_[s] != 0; s = (s + 1) & mask) {
      const std::size_t want = home(entries_[slots_[s] - 1].hash);
      if (((s - want) & mask) >= ((s - hole) & mask)) {
        slots_[hole] = slots_[s];
        hole = s;
      }
    }
    slots_[hole] = 0;
  }

  void rehash(std::size_t slot_count) {
    slots_.assign(slot_count, 0);
    for (std::uint32_t i = 0; i < entries_.size(); ++i) place(i);
  }

  void unlink(std::uint32_t i) {
    const Entry& entry = entries_[i];
    if (entry.prev == kNone) {
      head_ = entry.next;
    } else {
      entries_[entry.prev].next = entry.next;
    }
    if (entry.next == kNone) {
      tail_ = entry.prev;
    } else {
      entries_[entry.next].prev = entry.prev;
    }
  }

  void push_front(std::uint32_t i) {
    entries_[i].prev = kNone;
    entries_[i].next = head_;
    if (head_ == kNone) {
      tail_ = i;
    } else {
      entries_[head_].prev = i;
    }
    head_ = i;
  }

  std::size_t capacity_ = 0;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;
  std::uint32_t head_ = kNone;
  std::uint32_t tail_ = kNone;
};

}  // namespace relm::model
