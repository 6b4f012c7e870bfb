#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "automata/automaton.hpp"

namespace relm::automata {

// Text serialization for DFAs. The motivating use is caching compiled token
// automata — the all-encodings construction over a large vocabulary is the
// most expensive compile step (see bench/micro_compiler) and is fully
// determined by (pattern, vocabulary), so tools can persist it. The query
// compiler's artifact cache (src/core/pipeline/) embeds this format as the
// payload of its RELM_COMPONENT container, one section per component; the
// container stores nothing else that the automaton determines.
//
// Format:
//   RELM_DFA v1
//   <num_symbols> <num_states> <start> <num_edges>
//   <finality bits, one char per state: 0/1>
//   <from> <symbol> <to>      (num_edges lines)
void save_dfa(const Dfa& dfa, std::ostream& out);

// Loads one RELM_DFA section. Malformed input never crashes or yields a
// structurally invalid machine: every state/symbol/edge index is
// bounds-checked and truncation (a stream that runs dry mid-section) is
// diagnosed separately from corruption, both as relm::Error with enough
// context to locate the damage. Callers holding untrusted files (the
// on-disk artifact cache) catch the error and recompile.
Dfa load_dfa(std::istream& in);

void save_dfa_file(const Dfa& dfa, const std::string& path);
Dfa load_dfa_file(const std::string& path);

// Order-independent-of-nothing structural hash: covers alphabet size, start
// state, per-state finality, and every edge in canonical (state, symbol)
// order. Two structurally equal DFAs (operator==) hash equal; since
// minimize() renumbers canonically, minimized DFAs of the same language
// collide exactly. Hashed into the integrity checksum of RELM_COMPONENT
// files and used to fingerprint preprocessor configuration for cache keys.
std::uint64_t dfa_structural_hash(const Dfa& dfa);

}  // namespace relm::automata
