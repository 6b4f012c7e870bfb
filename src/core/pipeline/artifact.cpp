#include "core/pipeline/artifact.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>

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

// A component's `checksum` field: every header field and the automaton, so
// a damaged key, vocabulary or strategy is caught like a damaged DFA.
std::uint64_t checksum_of(const Component& c) {
  KeyHasher h;
  h.u64(c.key.hi);
  h.u64(c.key.lo);
  h.u64(c.vocab_fingerprint);
  h.str(strategy_tag(c.strategy));
  h.byte(c.automaton.dynamic_canonical ? 1 : 0);
  h.u64(automata::dfa_structural_hash(c.automaton.dfa));
  return h.a;
}

// Parses one RELM_COMPONENT container. Every diagnostic names the container.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  [[noreturn]] void corrupt(const std::string& what) const {
    throw relm::Error("RELM_COMPONENT file: " + what);
  }

  // The header and the DFA, then the checksum over both and strategy/flag
  // coherence; the mask table is derived from the checked DFA exactly as
  // the token_masks pass builds it.
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
    ta.dfa = automata::load_dfa(in_);  // throws relm::Error with its own detail

    if (checksum_of(c) != checksum) {
      corrupt("checksum mismatch (header or payload corrupted)");
    }
    // All-tokens automata never need dynamic pruning, so a set flag means
    // the writer was buggy.
    if (c.strategy == TokenizationStrategy::kAllTokens && ta.dynamic_canonical) {
      corrupt("dynamic_canonical set on an all-tokens component");
    }
    ta.masks = core::budgeted_token_masks(ta.dfa);
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

  std::istream& in_;
};

}  // namespace

void save_component(const Component& component, std::ostream& out) {
  const TokenAutomaton& ta = component.automaton;
  out << "RELM_COMPONENT v" << Component::kFormatVersion << "\nkey "
      << component.key.hex() << "\nvocab " << hex64(component.vocab_fingerprint)
      << "\nstrategy " << strategy_tag(component.strategy) << "\n";
  out << "dynamic_canonical " << (ta.dynamic_canonical ? 1 : 0) << "\n";
  out << "checksum " << hex64(checksum_of(component)) << "\n";
  automata::save_dfa(ta.dfa, out);
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
