#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "automata/automaton.hpp"

namespace relm::core {

// Precomputed per-state transition index for a token automaton — the compile
// side of the Outlines-style mask-and-scan fast path (Willard & Louf). For
// every state it holds
//
//   * a dense bitmask of the outgoing token ids (`words_per_state` 64-bit
//     words, bit t set iff the state has an edge on token t), and
//   * a CSR edge index: per-state [edge_offsets[s], edge_offsets[s+1]) slices
//     of `edge_tokens`/`edge_targets`, sorted by token (the Dfa invariant).
//
// The executor intersects a state's mask with the decoding-rule mask word by
// word and recovers each surviving edge's target by *rank*: the i-th set bit
// of the state mask is the i-th CSR entry, and the rank of a surviving bit is
// a running popcount — O(vocab/64 + survivors) per expansion with no per-edge
// probing and no lockstep pointer walk.
//
// An empty table (num_states == 0) means "masks not built" (memory budget
// exceeded, or a v2 artifact saved without them); executors then fall back to
// the per-edge path. Emptiness is decided only by the query-independent
// budget below, so cached, fresh, and reloaded compiles agree on it.
struct TokenMaskTable {
  std::uint32_t num_states = 0;
  std::uint32_t words_per_state = 0;
  std::vector<std::uint64_t> words;          // num_states * words_per_state
  std::vector<std::uint32_t> edge_offsets;   // num_states + 1
  std::vector<std::uint32_t> edge_tokens;    // num_edges, per-state sorted
  std::vector<std::uint32_t> edge_targets;   // num_edges

  bool empty() const { return num_states == 0; }
  std::size_t num_edges() const {
    return edge_offsets.empty() ? 0 : edge_offsets.back();
  }

  const std::uint64_t* state_words(automata::StateId s) const {
    return words.data() + static_cast<std::size_t>(s) * words_per_state;
  }

  // Approximate heap footprint, for the build budget.
  std::size_t memory_bytes() const {
    return words.size() * sizeof(std::uint64_t) +
           (edge_offsets.size() + edge_tokens.size() + edge_targets.size()) *
               sizeof(std::uint32_t);
  }

  friend bool operator==(const TokenMaskTable&, const TokenMaskTable&) = default;
};

// Hard cap on the dense-mask footprint of one token automaton (one prefix
// or body component). Dense masks cost num_states * ceil(vocab/64) * 8
// bytes, which explodes for huge automata over large vocabularies; past the
// budget the compile skips mask materialization and executors keep the
// per-edge path. Must stay a compile-time constant independent of the query
// so that cache keys and artifacts remain deterministic.
inline constexpr std::size_t kTokenMaskBudgetBytes = 256ull << 20;  // 256 MiB

// Bytes build_token_masks(dfa) would allocate, without building it.
std::size_t token_mask_table_bytes(const automata::Dfa& dfa);

// Builds the dense mask + CSR index for a token automaton. The Dfa's
// per-state edge sortedness makes rank order == token order by construction.
TokenMaskTable build_token_masks(const automata::Dfa& dfa);

// The table a compile attaches to `dfa`: build_token_masks within
// kTokenMaskBudgetBytes, an empty table past it.
TokenMaskTable budgeted_token_masks(const automata::Dfa& dfa);

// Structural cross-check of a (possibly untrusted, e.g. deserialized) table
// against the automaton it claims to index: state/edge counts, offsets
// monotonicity, per-edge token/target agreement, and bit-for-bit mask
// equality. Returns a located diagnostic for the first mismatch, or nullopt
// when the table is exactly the recomputed edge set. Allocation-free.
std::optional<std::string> masks_mismatch(const automata::Dfa& dfa,
                                          const TokenMaskTable& table);

}  // namespace relm::core
