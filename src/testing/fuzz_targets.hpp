#pragma once

#include <cstddef>
#include <cstdint>

namespace relm::testing {

// Structured fuzz entry points (libFuzzer signature: return 0, crash/abort
// on a bug). Each target feeds attacker-controlled bytes into one of the
// codebase's parse boundaries; the declared error type (relm::Error and
// subclasses) is the ONLY acceptable rejection path — any other exception,
// signal, or sanitizer report is a finding. See fuzz/ for the drivers (real
// libFuzzer under Clang, a seeded replay loop elsewhere) and docs/TESTING.md
// for how to run them.

// Regex dialect parser: parse; on success re-render via pattern_of and
// re-parse, which must succeed (renderer and parser must agree).
int fuzz_regex_parser(const std::uint8_t* data, std::size_t size);

// Hardened DFA deserializer (RELM_DFA v1). A successful load must satisfy
// the check_dfa structural invariants.
int fuzz_dfa_loader(const std::uint8_t* data, std::size_t size);

// Compiled-query deserializers, dispatched on the magic: RELM_COMPONENT v1
// (the compile cache's disk format) must satisfy check_component after a
// successful load, RELM_ARTIFACT v1/v2 check_query_artifact.
int fuzz_artifact_loader(const std::uint8_t* data, std::size_t size);

// Boolean-algebra compiler: parse, then compile through the algebra
// product/subset construction under a small state budget (so adversarial
// complements terminate). On success with both evaluation modes inside the
// budget, the lazy and eager DFAs must be language-equivalent.
int fuzz_algebra_compile(const std::uint8_t* data, std::size_t size);

// Fuzz-repro JSON reader: strict Json::parse, then TrialCase::from_json on
// schema-tagged documents; a successfully loaded case must survive a
// serialize/parse round-trip.
int fuzz_repro_json(const std::uint8_t* data, std::size_t size);

// Canonicality settlement: the bytes decode into a vocabulary over {a, b, c}
// (every single byte present, merged tokens of 2-4 bytes) and a body token
// path. At every prefix of the path, CompiledQuery::canonical_prefix_advance
// must cut exactly where the distance rule over encode() cuts (doomed
// max_token_length bytes back), and the first doomed prefix must have no
// continuation of up to max_token_length + 1 bytes that encodes through it.
int fuzz_canonical_settlement(const std::uint8_t* data, std::size_t size);

}  // namespace relm::testing
