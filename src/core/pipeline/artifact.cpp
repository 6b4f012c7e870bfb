#include "core/pipeline/artifact.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/ops.hpp"
#include "automata/serialize.hpp"
#include "core/token_masks.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"

namespace relm::core::pipeline {

namespace {

// Two independent FNV-1a streams over the same tagged bytes give the
// 128-bit content address. Fields are length-prefixed so no two distinct
// field sequences serialize to the same stream.
struct KeyHasher {
  std::uint64_t a = 0xcbf29ce484222325ull;
  std::uint64_t b = 0x84222325cbf29ce4ull;

  void byte(unsigned char c) {
    a = (a ^ c) * 0x100000001b3ull;
    b = (b ^ c) * 0x100000001b3ull;
    b ^= b >> 29;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void str(std::string_view s) {
    u64(s.size());
    for (unsigned char c : s) byte(c);
  }
  ArtifactKey key() const {
    ArtifactKey key{a, b};
    if (key.is_zero()) key.lo = 1;  // zero is reserved for "no key"
    return key;
  }
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::optional<std::uint64_t> parse_hex64(std::string_view s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

const char* strategy_tag(TokenizationStrategy s) {
  return s == TokenizationStrategy::kAllTokens ? "all" : "canonical";
}

ArtifactKey combine_keys(const ArtifactKey& prefix, const ArtifactKey& body) {
  if (prefix.is_zero() || body.is_zero()) return {};
  KeyHasher h;
  for (std::uint64_t v : {prefix.hi, prefix.lo, body.hi, body.lo}) h.u64(v);
  return h.key();
}

}  // namespace

std::string ArtifactKey::hex() const { return hex64(hi) + hex64(lo); }

std::optional<ArtifactKey> ArtifactKey::from_hex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  auto hi = parse_hex64(hex.substr(0, 16));
  auto lo = parse_hex64(hex.substr(16));
  if (!hi || !lo) return std::nullopt;
  return ArtifactKey{*hi, *lo};
}

std::uint64_t vocab_fingerprint(const tokenizer::BpeTokenizer& tok) {
  return tok.fingerprint();
}

std::string component_pattern(const SimpleSearchQuery& query, Side side) {
  return side == Side::kPrefix ? query.query_string.prefix_str
                               : query.query_string.body_str();
}

std::optional<ArtifactKey> derive_component_key(
    const SimpleSearchQuery& query, Side side,
    const tokenizer::BpeTokenizer& tok) {
  const std::string pattern = component_pattern(query, side);
  const bool epsilon = side == Side::kPrefix && pattern.empty();
  KeyHasher h;
  h.u64(Component::kFormatVersion);
  h.u64(QueryArtifact::kGrammarVersion);
  h.byte(epsilon ? 1 : 0);
  h.str(pattern);
  h.str(strategy_tag(query.tokenization_strategy));
  h.u64(query.canonical_enumeration_budget);
  h.u64(tok.fingerprint());
  if (epsilon) return h.key();  // no preprocessor touches the ε prefix
  for (const auto& pre : query.preprocessors) {
    if (pre->target() != side && pre->target() != Side::kBoth) continue;
    std::string key = pre->cache_key();
    if (key.empty()) return std::nullopt;  // unkeyable preprocessor
    h.str(key);
  }
  return h.key();
}

std::optional<ArtifactKey> derive_artifact_key(
    const SimpleSearchQuery& query, const tokenizer::BpeTokenizer& tok) {
  auto prefix = derive_component_key(query, Side::kPrefix, tok);
  auto body = derive_component_key(query, Side::kBody, tok);
  if (!prefix || !body) return std::nullopt;
  return combine_keys(*prefix, *body);
}

QueryArtifact assemble_artifact(std::shared_ptr<const Component> prefix,
                                std::shared_ptr<const Component> body) {
  RELM_TRACE_SPAN("compile.pass.assemble");
  if (!prefix || !body) throw relm::QueryError("artifact lacks a component");
  if (prefix->vocab_fingerprint != body->vocab_fingerprint ||
      prefix->strategy != body->strategy) {
    throw relm::QueryError(
        "query components disagree on vocabulary or tokenization strategy");
  }
  QueryArtifact artifact;
  artifact.key = combine_keys(prefix->key, body->key);
  artifact.vocab_fingerprint = body->vocab_fingerprint;
  artifact.strategy = body->strategy;
  // Executors check this first and bail out before their first model call.
  artifact.empty_language = prefix->empty_language || body->empty_language;
  artifact.prefix = std::move(prefix);
  artifact.body = std::move(body);
  return artifact;
}

namespace {

using Sections = std::vector<const TokenAutomaton*>;

// Structural hash of the automata and their flags: a component's `checksum`
// field, and artifact_checksum over both sides.
std::uint64_t checksum_of(const Sections& sections) {
  KeyHasher h;
  for (const TokenAutomaton* ta : sections) {
    h.u64(automata::dfa_structural_hash(ta->dfa));
    h.byte(ta->dynamic_canonical ? 1 : 0);
  }
  return h.a;
}

// Hash over the mask tables: a component's `masks_checksum` field, and
// artifact_masks_checksum over both sides.
std::uint64_t masks_checksum_of(const Sections& sections) {
  KeyHasher h;
  for (const TokenAutomaton* ta : sections) {
    const core::TokenMaskTable& table = ta->masks;
    h.u64(table.num_states);
    h.u64(table.words_per_state);
    h.u64(table.words.size());
    for (std::uint64_t w : table.words) h.u64(w);
    h.u64(table.edge_offsets.size());
    for (std::uint32_t v : table.edge_offsets) h.u64(v);
    h.u64(table.edge_tokens.size());
    for (std::uint32_t v : table.edge_tokens) h.u64(v);
    h.u64(table.edge_targets.size());
    for (std::uint32_t v : table.edge_targets) h.u64(v);
  }
  return h.a;
}

void save_masks(const core::TokenMaskTable& table, std::ostream& out) {
  out << "RELM_MASKS v1\n";
  out << "present " << (table.empty() ? 0 : 1) << "\n";
  if (table.empty()) return;
  out << "states " << table.num_states << " words " << table.words_per_state
      << " edges " << table.edge_offsets.back() << "\n";
  out << "offsets";
  for (std::uint32_t v : table.edge_offsets) out << ' ' << v;
  out << "\ntokens";
  for (std::uint32_t v : table.edge_tokens) out << ' ' << v;
  out << "\ntargets";
  for (std::uint32_t v : table.edge_targets) out << ' ' << v;
  out << "\nbits";
  for (std::uint64_t w : table.words) out << ' ' << hex64(w);
  out << "\n";
}

// Parses one RELM_COMPONENT container. Every diagnostic names the container.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  [[noreturn]] void corrupt(const std::string& what) const {
    throw relm::Error("RELM_COMPONENT file: " + what);
  }

  // The header, the DFA and its masks, then the checks that need them all:
  // both checksums, persisted masks against the edge sets recomputed from
  // the DFA (a consistently forged section passes the checksum), and
  // strategy/flag coherence.
  Component component() {
    Component c;
    std::string magic, version;
    in_ >> magic >> version;
    if (!in_) corrupt("truncated before header");
    if (magic != "RELM_COMPONENT") corrupt("bad magic \"" + magic + "\"");
    if (version != "v" + std::to_string(Component::kFormatVersion)) {
      corrupt("unsupported version \"" + version + "\" (this build reads v" +
              std::to_string(Component::kFormatVersion) + ")");
    }
    auto key = ArtifactKey::from_hex(field("key"));
    if (!key) corrupt("malformed key");
    c.key = *key;
    c.vocab_fingerprint = hex_field("vocab");
    const std::string strategy = field("strategy");
    if (strategy != "all" && strategy != "canonical") {
      corrupt("unknown strategy \"" + strategy + "\"");
    }
    c.strategy = strategy == "all" ? TokenizationStrategy::kAllTokens
                                   : TokenizationStrategy::kCanonicalTokens;
    TokenAutomaton& ta = c.automaton;
    ta.dynamic_canonical = flag_field("dynamic_canonical");
    const std::uint64_t checksum = hex_field("checksum");
    const std::uint64_t masks_checksum = hex_field("masks_checksum");
    ta.dfa = automata::load_dfa(in_);  // throws relm::Error with its own detail
    ta.masks = masks(ta.dfa);

    if (checksum_of({&ta}) != checksum) {
      corrupt("checksum mismatch (payload corrupted)");
    }
    if (masks_checksum_of({&ta}) != masks_checksum) {
      corrupt("masks_checksum mismatch (mask payload corrupted)");
    }
    if (!ta.masks.empty()) {
      if (auto mismatch = core::masks_mismatch(ta.dfa, ta.masks)) {
        corrupt("masks disagree with the automaton: " + *mismatch);
      }
    }
    // All-tokens automata never need dynamic pruning, so a set flag means
    // the writer was buggy.
    if (c.strategy == TokenizationStrategy::kAllTokens && ta.dynamic_canonical) {
      corrupt("dynamic_canonical set on an all-tokens component");
    }
    c.empty_language = automata::is_empty_language(ta.dfa);
    return c;
  }

 private:
  // Reads "<label> <value>" and returns the value, diagnosing a wrong label
  // or truncation.
  std::string field(const char* label) {
    std::string got, value;
    in_ >> got >> value;
    if (!in_) corrupt(std::string("truncated at field \"") + label + "\"");
    if (got != label) {
      corrupt("expected field \"" + std::string(label) + "\", got \"" + got +
              "\"");
    }
    return value;
  }

  std::uint64_t hex_field(const char* label) {
    auto value = parse_hex64(field(label));
    if (!value) corrupt(std::string("malformed ") + label);
    return *value;
  }

  bool flag_field(const char* label) {
    std::string value = field(label);
    if (value != "0" && value != "1") corrupt(label + std::string(" must be 0/1"));
    return value == "1";
  }

  // Reads a RELM_MASKS section for an automaton whose DFA is already
  // loaded. Dimensions are validated against the DFA *before* any array
  // allocation, so a forged header can never trigger a multi-gigabyte
  // allocation; the bit-for-bit agreement check runs in component().
  core::TokenMaskTable masks(const automata::Dfa& dfa) {
    auto here = [&](const std::string& what) { corrupt("masks: " + what); };
    std::string magic, version;
    in_ >> magic >> version;
    if (!in_) here("truncated before RELM_MASKS header");
    if (magic != "RELM_MASKS") here("bad magic \"" + magic + "\"");
    if (version != "v1") here("unsupported version \"" + version + "\"");

    std::string present = field("present");
    if (present == "0") return {};
    if (present != "1") here("present must be 0/1, got \"" + present + "\"");

    core::TokenMaskTable table;
    std::uint64_t states = 0, words = 0, edges = 0;
    std::string label;
    in_ >> label >> states;
    if (!in_ || label != "states") here("malformed states field");
    in_ >> label >> words;
    if (!in_ || label != "words") here("malformed words field");
    in_ >> label >> edges;
    if (!in_ || label != "edges") here("malformed edges field");
    if (states != dfa.num_states()) {
      here("declares " + std::to_string(states) + " states, automaton has " +
           std::to_string(dfa.num_states()));
    }
    const std::uint64_t want_words =
        (static_cast<std::uint64_t>(dfa.num_symbols()) + 63) / 64;
    if (words != want_words) {
      here("declares " + std::to_string(words) + " words per state, want " +
           std::to_string(want_words));
    }
    if (edges != dfa.num_edges()) {
      here("declares " + std::to_string(edges) + " edges, automaton has " +
           std::to_string(dfa.num_edges()));
    }
    table.num_states = static_cast<std::uint32_t>(states);
    table.words_per_state = static_cast<std::uint32_t>(words);

    auto read_u32_array = [&](const char* what, std::size_t count,
                              std::vector<std::uint32_t>& out_vec) {
      in_ >> label;
      if (!in_ || label != what) {
        here(std::string("expected \"") + what + "\" array, got \"" + label +
             "\"");
      }
      out_vec.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        if (!(in_ >> out_vec[i])) {
          here(std::string("truncated in \"") + what + "\" array at entry " +
               std::to_string(i) + " of " + std::to_string(count));
        }
      }
    };
    read_u32_array("offsets", states + 1, table.edge_offsets);
    read_u32_array("tokens", edges, table.edge_tokens);
    read_u32_array("targets", edges, table.edge_targets);

    in_ >> label;
    if (!in_ || label != "bits") {
      here("expected \"bits\" array, got \"" + label + "\"");
    }
    const std::size_t num_bit_words = static_cast<std::size_t>(states * words);
    table.words.resize(num_bit_words);
    std::string word_hex;
    for (std::size_t i = 0; i < num_bit_words; ++i) {
      if (!(in_ >> word_hex)) {
        here("truncated in \"bits\" array at word " + std::to_string(i) +
             " of " + std::to_string(num_bit_words));
      }
      auto parsed = parse_hex64(word_hex);
      if (!parsed) here("malformed bitmask word \"" + word_hex + "\"");
      table.words[i] = *parsed;
    }
    return table;
  }

  std::istream& in_;
};

}  // namespace

std::uint64_t artifact_checksum(const QueryArtifact& artifact) {
  return checksum_of({&artifact.prefix->automaton, &artifact.body->automaton});
}

std::uint64_t artifact_masks_checksum(const QueryArtifact& artifact) {
  return masks_checksum_of(
      {&artifact.prefix->automaton, &artifact.body->automaton});
}

void save_component(const Component& component, std::ostream& out) {
  const TokenAutomaton& ta = component.automaton;
  out << "RELM_COMPONENT v" << Component::kFormatVersion << "\nkey "
      << component.key.hex() << "\nvocab " << hex64(component.vocab_fingerprint)
      << "\nstrategy " << strategy_tag(component.strategy) << "\n";
  out << "dynamic_canonical " << (ta.dynamic_canonical ? 1 : 0) << "\n";
  out << "checksum " << hex64(checksum_of({&ta})) << "\n";
  out << "masks_checksum " << hex64(masks_checksum_of({&ta})) << "\n";
  automata::save_dfa(ta.dfa, out);
  save_masks(ta.masks, out);
}

Component load_component(std::istream& in) { return Reader(in).component(); }

void save_component_file(const Component& component, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw relm::Error("cannot open for writing: " + path);
  save_component(component, out);
  out.flush();
  if (!out) throw relm::Error("write failed: " + path);
}

Component load_component_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw relm::Error("cannot open for reading: " + path);
  return load_component(in);
}

}  // namespace relm::core::pipeline
