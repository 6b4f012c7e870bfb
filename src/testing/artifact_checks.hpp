#pragma once

#include <string>

#include "analysis/invariants.hpp"
#include "core/pipeline/artifact.hpp"
#include "tokenizer/bpe.hpp"

namespace relm::testing {

// Whole-artifact audit for tests: analysis::check_component on both sides,
// and both automata over one alphabet ("artifact.alphabet"). Production
// audits components one at a time (`relm verify`).
void check_query_artifact(const core::pipeline::QueryArtifact& artifact,
                          const tokenizer::BpeTokenizer* tok,
                          analysis::InvariantReport& report,
                          const std::string& name = "artifact");

}  // namespace relm::testing
