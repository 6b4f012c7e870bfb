#include "testing/artifact_checks.hpp"

namespace relm::testing {

void check_query_artifact(const core::pipeline::QueryArtifact& artifact,
                          const tokenizer::BpeTokenizer* tok,
                          analysis::InvariantReport& report,
                          const std::string& name) {
  analysis::check_component(*artifact.prefix, tok, report, name + ".prefix");
  analysis::check_component(*artifact.body, tok, report, name + ".body");
  const automata::Dfa& prefix = artifact.prefix->automaton.dfa;
  const automata::Dfa& body = artifact.body->automaton.dfa;
  if (prefix.num_symbols() != body.num_symbols()) {
    report.fail("artifact.alphabet",
                name + " prefix alphabet (" +
                    std::to_string(prefix.num_symbols()) +
                    ") does not match body alphabet (" +
                    std::to_string(body.num_symbols()) + ")");
  }
}

}  // namespace relm::testing
