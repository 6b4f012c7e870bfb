#include "core/token_masks.hpp"

namespace relm::core {

using automata::Dfa;
using automata::Edge;
using automata::StateId;

std::size_t token_mask_table_bytes(const Dfa& dfa) {
  const std::size_t words_per_state =
      (static_cast<std::size_t>(dfa.num_symbols()) + 63) / 64;
  return dfa.num_states() * words_per_state * sizeof(std::uint64_t) +
         (dfa.num_states() + 1 + dfa.num_edges()) * sizeof(std::uint32_t);
}

TokenMaskTable build_token_masks(const Dfa& dfa) {
  TokenMaskTable table;
  table.num_states = static_cast<std::uint32_t>(dfa.num_states());
  table.words_per_state = static_cast<std::uint32_t>(
      (static_cast<std::size_t>(dfa.num_symbols()) + 63) / 64);
  table.words.assign(
      static_cast<std::size_t>(table.num_states) * table.words_per_state, 0);
  table.edge_offsets.reserve(table.num_states + 1);
  table.edge_offsets.push_back(0);
  table.edge_targets.reserve(dfa.num_edges());

  for (StateId s = 0; s < table.num_states; ++s) {
    std::uint64_t* row =
        table.words.data() + static_cast<std::size_t>(s) * table.words_per_state;
    for (const Edge& e : dfa.edges(s)) {
      row[e.symbol / 64] |= 1ull << (e.symbol % 64);
      table.edge_targets.push_back(e.to);
    }
    table.edge_offsets.push_back(
        static_cast<std::uint32_t>(table.edge_targets.size()));
  }
  return table;
}

TokenMaskTable budgeted_token_masks(const Dfa& dfa) {
  if (token_mask_table_bytes(dfa) > kTokenMaskBudgetBytes) return {};
  return build_token_masks(dfa);
}

}  // namespace relm::core
