#include "testing/fuzz_targets.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/invariants.hpp"
#include "automata/algebra.hpp"
#include "automata/ops.hpp"
#include "automata/regex_parser.hpp"
#include "automata/serialize.hpp"
#include "core/compiled_query.hpp"
#include "core/pipeline/artifact.hpp"
#include "core/pipeline/cache.hpp"
#include "testing/generators.hpp"
#include "testing/json.hpp"
#include "testing/oracle.hpp"
#include "util/errors.hpp"

namespace relm::testing {

namespace {

// Invariant failure inside a fuzz target: print and abort so both libFuzzer
// and the fallback driver register a crash at this input.
[[noreturn]] void die(const char* target, const std::string& why) {
  std::fprintf(stderr, "%s: invariant violated: %s\n", target, why.c_str());
  std::abort();
}

}  // namespace

int fuzz_regex_parser(const std::uint8_t* data, std::size_t size) {
  std::string pattern(reinterpret_cast<const char*>(data), size);
  automata::RegexPtr ast;
  try {
    ast = automata::parse_regex(pattern);
  } catch (const relm::Error&) {
    return 0;  // rejection is the expected path for malformed patterns
  }
  // Renderer/parser agreement: what the parser accepted, pattern_of must be
  // able to print, and the printed form must parse again.
  std::string rendered;
  try {
    rendered = pattern_of(*ast);
  } catch (const relm::Error& e) {
    // Only the empty-set node is unprintable, and the parser never emits it.
    die("fuzz_regex_parser", std::string("unprintable parsed AST: ") + e.what());
  }
  try {
    automata::RegexPtr again = automata::parse_regex(rendered);
    (void)again;
  } catch (const relm::Error& e) {
    die("fuzz_regex_parser",
        "re-render of accepted pattern failed to parse: \"" + rendered +
            "\": " + e.what());
  }
  return 0;
}

int fuzz_dfa_loader(const std::uint8_t* data, std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  automata::Dfa dfa(1);  // placeholder; Dfa has no default constructor
  try {
    dfa = automata::load_dfa(in);
  } catch (const relm::Error&) {
    return 0;
  }
  analysis::InvariantReport report;
  analysis::check_dfa(dfa, report, "fuzzed");
  if (!report.ok()) die("fuzz_dfa_loader", report.to_string());
  return 0;
}

int fuzz_artifact_loader(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::istringstream in(text);
  // Dispatch on the magic: a compile-cache component or a whole artifact.
  std::optional<core::pipeline::Component> component;
  std::optional<core::pipeline::QueryArtifact> artifact;
  try {
    if (text.starts_with("RELM_COMPONENT")) {
      component = core::pipeline::load_component(in);
    } else {
      artifact = core::pipeline::load_artifact(in);
    }
  } catch (const relm::Error&) {
    return 0;
  }
  analysis::InvariantReport report;
  if (component) {
    analysis::check_component(*component, /*tok=*/nullptr, report, "fuzzed");
  } else {
    analysis::check_query_artifact(*artifact, /*tok=*/nullptr, report,
                                   "fuzzed");
  }
  if (!report.ok()) die("fuzz_artifact_loader", report.to_string());
  return 0;
}

int fuzz_algebra_compile(const std::uint8_t* data, std::size_t size) {
  // Bound the pattern: compile cost grows with pattern size and the point
  // here is operator interaction, not giant inputs.
  if (size > 64) size = 64;
  std::string pattern(reinterpret_cast<const char*>(data), size);
  automata::RegexPtr ast;
  try {
    ast = automata::parse_regex(pattern);
  } catch (const relm::Error&) {
    return 0;
  }
  automata::AlgebraOptions lazy;
  lazy.lazy = true;
  lazy.state_budget = 4096;  // adversarial complements must terminate
  automata::Dfa lazy_dfa(1);
  try {
    lazy_dfa = automata::compile_ast(*ast, lazy);
  } catch (const relm::StateBudgetError&) {
    return 0;  // over budget is an accepted outcome, not a finding
  } catch (const relm::Error& e) {
    die("fuzz_algebra_compile",
        std::string("non-budget compile failure on accepted parse: ") +
            e.what());
  }
  analysis::InvariantReport report;
  analysis::check_dfa(lazy_dfa, report, "algebra-lazy");
  if (!report.ok()) die("fuzz_algebra_compile", report.to_string());
  // Differential check against the eager reference path when it also fits
  // the budget: same language, or one of the two compilers is wrong.
  automata::AlgebraOptions eager = lazy;
  eager.lazy = false;
  try {
    automata::Dfa eager_dfa = automata::compile_ast(*ast, eager);
    if (!automata::dfa_equivalent(lazy_dfa, eager_dfa)) {
      die("fuzz_algebra_compile",
          "lazy and eager compiles disagree on \"" + pattern + "\"");
    }
  } catch (const relm::StateBudgetError&) {
    // Eager paying more than lazy is expected (it is why lazy exists).
  }
  return 0;
}

int fuzz_repro_json(const std::uint8_t* data, std::size_t size) {
  std::string text(reinterpret_cast<const char*>(data), size);
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const relm::Error&) {
    return 0;
  }
  TrialCase trial;
  try {
    trial = TrialCase::from_json(doc);
  } catch (const relm::Error&) {
    return 0;  // structurally valid JSON that is not a repro file
  }
  // A loaded case must round-trip: dump -> parse -> from_json -> dump equal.
  std::string dumped = trial.to_json().dump();
  TrialCase again;
  try {
    again = TrialCase::from_json(Json::parse(dumped));
  } catch (const relm::Error& e) {
    die("fuzz_repro_json",
        std::string("serialized case failed to re-load: ") + e.what());
  }
  if (again.to_json().dump() != dumped) {
    die("fuzz_repro_json", "case does not round-trip byte-identically");
  }
  return 0;
}

int fuzz_canonical_settlement(const std::uint8_t* data, std::size_t size) {
  std::size_t at = 0;
  auto next = [&] { return at < size ? data[at++] : std::uint8_t{0}; };
  std::vector<std::string> vocab{"", "a", "b", "c"};
  const std::size_t merged = next() % 9;
  for (std::size_t m = 0; m < merged; ++m) {
    std::string token(2 + next() % 3, 'a');
    for (char& c : token) c = static_cast<char>('a' + next() % 3);
    if (std::find(vocab.begin(), vocab.end(), token) == vocab.end()) {
      vocab.push_back(token);
    }
  }
  const auto tok = tokenizer::BpeTokenizer::from_vocab(vocab);
  core::SimpleSearchQuery query;
  query.query_string = {"[abc]+", ""};
  query.tokenization_strategy = core::TokenizationStrategy::kCanonicalTokens;
  const core::CompiledQuery compiled = core::CompiledQuery::from_artifact(
      core::pipeline::compile_cached(query, tok, nullptr), tok);
  if (!compiled.dynamic_canonical()) {
    die("fuzz_canonical_settlement",
        "[abc]+ compiled without dynamic canonicality");
  }

  const std::size_t max_tok = tok.max_token_length();
  std::vector<tokenizer::TokenId> path;
  std::string text;
  core::CompiledQuery::CanonState state;
  bool doom_checked = false;
  while (at < size && path.size() < 8) {
    path.push_back(
        static_cast<tokenizer::TokenId>(1 + next() % (vocab.size() - 1)));
    text += tok.token_string(path.back());
    compiled.canonical_prefix_advance(path, text, state);
    const bool cut = state.doomed() && state.doomed_at + max_tok <= text.size();
    if (distance_rule_cuts(tok, path, text) != cut) {
      die("fuzz_canonical_settlement",
          "distance rule and settlement disagree on \"" + text + "\"");
    }
    if (state.doomed() && !doom_checked) {
      doom_checked = true;
      if (canonical_continuation_exists(tok, path, text, "abc", max_tok + 1)) {
        die("fuzz_canonical_settlement",
            "doomed body \"" + text + "\" has a canonical continuation");
      }
    }
  }
  return 0;
}

}  // namespace relm::testing
