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

// Compiled-component deserializer (RELM_COMPONENT v2, the compile cache's
// disk format). A successful load must satisfy check_component.
int fuzz_artifact_loader(const std::uint8_t* data, std::size_t size);

// Boolean-algebra compiler: parse, then compile through the algebra
// product/subset construction under a small state budget (so adversarial
// complements terminate). When the eager reference (compile_ast_eager) also
// fits the budget, the two DFAs must be language-equivalent. For a
// boolean-free pattern, subset construction of its Thompson NFA must equal
// determinize_per_byte structurally, and its minimized DFA must equal
// minimize_hopcroft over that reference; so must minimal_dfa over its
// finite_strings, whenever the pipeline would compile it from them.
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

// Decoding-rule mask: the bytes decode into a vocabulary of up to 2,048
// tokens, a row drawn from a palette of up to 8 values (ties, -inf), top-k
// at the kernel's edges (small, about V/8, about V, anywhere), and optional
// top-p and temperature. model::allowed_tokens must agree with the
// whole-row partition and with token_allowed (testing::rule_mask_mismatch).
int fuzz_rule_mask(const std::uint8_t* data, std::size_t size);

// Distribution keys: the bytes decode into a token corpus over up to 8
// tokens, an n-gram order from 1 to 5 and contexts (random, or windows of
// the corpus). The model is trained on the corpus and, half the time,
// passed through save -> load. Contexts with equal distribution keys must
// have bitwise-equal rows, a key of order - 1 tokens must be its own key,
// and a CachingModel of 4-64 entries (so it evicts) must serve every row,
// and every mask under a top-k rule, bitwise-equal to the bare model's.
int fuzz_distribution_key(const std::uint8_t* data, std::size_t size);

}  // namespace relm::testing
