#include "core/token_masks.hpp"

#include <bit>

namespace relm::core {

using automata::Dfa;
using automata::Edge;
using automata::StateId;

std::size_t token_mask_table_bytes(const Dfa& dfa) {
  const std::size_t words_per_state =
      (static_cast<std::size_t>(dfa.num_symbols()) + 63) / 64;
  return dfa.num_states() * words_per_state * sizeof(std::uint64_t) +
         (dfa.num_states() + 1 + 2 * dfa.num_edges()) * sizeof(std::uint32_t);
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
  table.edge_tokens.reserve(dfa.num_edges());
  table.edge_targets.reserve(dfa.num_edges());

  for (StateId s = 0; s < table.num_states; ++s) {
    std::uint64_t* row =
        table.words.data() + static_cast<std::size_t>(s) * table.words_per_state;
    for (const Edge& e : dfa.edges(s)) {
      row[e.symbol / 64] |= 1ull << (e.symbol % 64);
      table.edge_tokens.push_back(e.symbol);
      table.edge_targets.push_back(e.to);
    }
    table.edge_offsets.push_back(
        static_cast<std::uint32_t>(table.edge_tokens.size()));
  }
  return table;
}

TokenMaskTable budgeted_token_masks(const Dfa& dfa) {
  if (token_mask_table_bytes(dfa) > kTokenMaskBudgetBytes) return {};
  return build_token_masks(dfa);
}

std::optional<std::string> masks_mismatch(const Dfa& dfa,
                                          const TokenMaskTable& table) {
  if (table.num_states != dfa.num_states()) {
    return "mask table covers " + std::to_string(table.num_states) +
           " states, automaton has " + std::to_string(dfa.num_states());
  }
  const std::size_t want_words =
      (static_cast<std::size_t>(dfa.num_symbols()) + 63) / 64;
  if (table.words_per_state != want_words) {
    return "mask table words_per_state " + std::to_string(table.words_per_state) +
           " does not cover the alphabet of " +
           std::to_string(dfa.num_symbols()) + " (want " +
           std::to_string(want_words) + ")";
  }
  if (table.words.size() !=
      static_cast<std::size_t>(table.num_states) * table.words_per_state) {
    return "mask word array has " + std::to_string(table.words.size()) +
           " words, want " +
           std::to_string(static_cast<std::size_t>(table.num_states) *
                          table.words_per_state);
  }
  if (table.edge_offsets.size() !=
      static_cast<std::size_t>(table.num_states) + 1) {
    return "mask edge_offsets has " + std::to_string(table.edge_offsets.size()) +
           " entries, want " + std::to_string(table.num_states + 1);
  }
  if (table.edge_offsets.front() != 0) {
    return "mask edge_offsets[0] must be 0";
  }
  if (table.edge_tokens.size() != table.edge_offsets.back() ||
      table.edge_targets.size() != table.edge_offsets.back()) {
    return "mask edge arrays (" + std::to_string(table.edge_tokens.size()) +
           " tokens, " + std::to_string(table.edge_targets.size()) +
           " targets) do not match edge_offsets total " +
           std::to_string(table.edge_offsets.back());
  }

  for (StateId s = 0; s < table.num_states; ++s) {
    const std::uint32_t begin = table.edge_offsets[s];
    const std::uint32_t end = table.edge_offsets[s + 1];
    if (end < begin) {
      return "mask edge_offsets decrease at state " + std::to_string(s);
    }
    auto edges = dfa.edges(s);
    if (end - begin != edges.size()) {
      return "state " + std::to_string(s) + ": mask indexes " +
             std::to_string(end - begin) + " edges, automaton has " +
             std::to_string(edges.size());
    }
    std::size_t popcount = 0;
    const std::uint64_t* row = table.state_words(s);
    for (std::uint32_t w = 0; w < table.words_per_state; ++w) {
      popcount += static_cast<std::size_t>(std::popcount(row[w]));
    }
    if (popcount != edges.size()) {
      return "state " + std::to_string(s) + ": mask popcount " +
             std::to_string(popcount) + " does not equal edge count " +
             std::to_string(edges.size());
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const Edge& e = edges[i];
      if (table.edge_tokens[begin + i] != e.symbol) {
        return "state " + std::to_string(s) + " edge " + std::to_string(i) +
               ": mask token " + std::to_string(table.edge_tokens[begin + i]) +
               " vs automaton token " + std::to_string(e.symbol);
      }
      if (table.edge_targets[begin + i] != e.to) {
        return "state " + std::to_string(s) + " edge " + std::to_string(i) +
               " (token " + std::to_string(e.symbol) + "): mask target " +
               std::to_string(table.edge_targets[begin + i]) +
               " vs automaton target " + std::to_string(e.to);
      }
      if (e.symbol / 64 >= table.words_per_state ||
          !((row[e.symbol / 64] >> (e.symbol % 64)) & 1u)) {
        return "state " + std::to_string(s) + ": mask bit for token " +
               std::to_string(e.symbol) + " is clear but the edge exists";
      }
    }
  }
  return std::nullopt;
}

}  // namespace relm::core
