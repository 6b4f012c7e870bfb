#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "core/compiler.hpp"
#include "core/query.hpp"
#include "tokenizer/bpe.hpp"

namespace relm::core::pipeline {

// Content address of a compiled component or query: a stable 128-bit hash
// over everything that determines the compile output (see
// derive_component_key). Equal keys imply byte-identical output, which is
// what lets the cache substitute a stored component for a fresh compile.
struct ArtifactKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool is_zero() const { return hi == 0 && lo == 0; }
  std::string hex() const;  // 32 lowercase hex chars
  static std::optional<ArtifactKey> from_hex(std::string_view hex);

  friend bool operator==(const ArtifactKey&, const ArtifactKey&) = default;
};

// Which half of a query a component compiles: kPrefix or kBody. The
// preprocessors that apply to it are those targeting that side or kBoth.
using Side = Preprocessor::Target;

// One compiled half of a query: a token automaton with its masks and
// dynamic-canonical flag, plus the identity that makes it safe to share —
// its content address, the fingerprint of the vocabulary it was compiled
// against, and the tokenization strategy. Queries whose prefixes (or bodies)
// compile alike share one Component; the cache stores components.
struct Component {
  // The RELM_COMPONENT container version, folded into every component key,
  // so files of another version are never looked up.
  static constexpr std::uint32_t kFormatVersion = 2;

  ArtifactKey key;                      // zero when the side is unkeyable
  std::uint64_t vocab_fingerprint = 0;  // tokenizer identity at compile time
  TokenizationStrategy strategy = TokenizationStrategy::kCanonicalTokens;
  // Dfa has no default constructor; a 1-symbol empty machine stands in
  // until the compile (or the loader) fills it.
  TokenAutomaton automaton{automata::Dfa(1), false, {}};
  // No token sequence is accepted. Derived from the automaton — never
  // serialized; the loader recomputes it.
  bool empty_language = false;
};

// A compiled query: its two components, shared by pointer (a cache hit
// copies no automaton), plus the identity metadata executors check.
// Immutable after assembly; CompiledQuery shares it by shared_ptr<const>.
struct QueryArtifact {
  // Version of the *query grammar*, folded into component keys but NOT
  // into any container format: bumping it retires cached keys for patterns
  // whose meaning changed without invalidating existing files.
  // 2 = the boolean query algebra (`&`, `~`/`!`, `-` became metacharacters,
  // so e.g. "a-b" now names a different language than it did under v1).
  static constexpr std::uint32_t kGrammarVersion = 2;

  ArtifactKey key;  // from the component keys; zero when either is zero
  std::uint64_t vocab_fingerprint = 0;
  TokenizationStrategy strategy = TokenizationStrategy::kCanonicalTokens;
  std::shared_ptr<const Component> prefix;
  std::shared_ptr<const Component> body;
  // True when no token sequence can match (vacuous algebra query such as
  // `a & !a`, an over-restrictive preprocessor, a prefix no token sequence
  // can spell): either component's language is empty.
  bool empty_language = false;
};

// BpeTokenizer::fingerprint(). Token automata are defined over token *ids*,
// so any vocabulary change invalidates them — component keys fold it in and
// artifact binding re-checks it.
std::uint64_t vocab_fingerprint(const tokenizer::BpeTokenizer& tok);

// The pattern one side compiles: the prefix pattern, or the body remainder
// (QueryString::body_str). Empty for an unconditional query's prefix.
std::string component_pattern(const SimpleSearchQuery& query, Side side);

// A component's content address, over exactly what determines its bytes:
// the side's pattern, the ordered cache_key()s of the preprocessors that
// apply to it, strategy, enumeration budget, format and grammar versions,
// and the vocabulary fingerprint. The ε prefix has its own address. nullopt
// when an applicable preprocessor has no stable cache_key(): that side
// compiles fine but bypasses the cache; the other side still caches.
std::optional<ArtifactKey> derive_component_key(
    const SimpleSearchQuery& query, Side side,
    const tokenizer::BpeTokenizer& tok);

// The query's content address, hashed from its two component keys; nullopt
// when either side is unkeyable.
std::optional<ArtifactKey> derive_artifact_key(
    const SimpleSearchQuery& query, const tokenizer::BpeTokenizer& tok);

// Binds two components into a query artifact: the key hashed from theirs,
// their shared fingerprint and strategy, and the empty-language bit. Throws
// relm::QueryError when the components disagree on vocabulary or strategy.
QueryArtifact assemble_artifact(std::shared_ptr<const Component> prefix,
                                std::shared_ptr<const Component> body);

// RELM_COMPONENT v2 — one component; the compile cache's disk format
// (<key hex>.relmc):
//
//   RELM_COMPONENT v2
//   key <32 hex>
//   vocab <16 hex>
//   strategy <all|canonical>
//   dynamic_canonical <0|1>
//   checksum <16 hex>          (hash over every field above and the DFA)
//   RELM_DFA v1 ...
//
// The loader checks every header field, the DFA (hardened
// automata::load_dfa), the checksum, and strategy/flag coherence. Any
// mismatch throws relm::Error with a located diagnostic: a truncated or
// bit-flipped file is always detected, never half-loaded. The mask table
// and the empty-language bit are derived from the loaded DFA, as a compile
// derives them, so a file has no table to forge. A whole query persists as
// its two components, reassembled with assemble_artifact.
void save_component(const Component& component, std::ostream& out);
Component load_component(std::istream& in);
void save_component_file(const Component& component, const std::string& path);
Component load_component_file(const std::string& path);

}  // namespace relm::core::pipeline
