#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled_query.hpp"
#include "testing/generators.hpp"
#include "testing/oracle.hpp"

namespace relm::testing {

// One differential trial: compile the case, enumerate ground truth with the
// oracle, run every executor under every cache configuration, and compare.
//
// Configurations exercised per trial (satellite: cache-config differential):
//   plain        — the model and a fresh compile, no caches anywhere
//   logit-cache  — the model behind CachingModel (sharded logit LRU)
//   compile-cache— compile through a local ArtifactCache warmed by two
//                  sibling queries that hold both components: no compile
//   artifact-io  — each component serialized and reloaded, then reassembled
//                  (reload_through_components), model behind CachingModel
// Executor output must be BYTE-identical across configurations (exact double
// equality — the caches replay stored vectors, so even the last bit must
// match), and the plain configuration must agree with the oracle.

// Fault injection for harness self-tests: corrupts the plain shortest-path
// result list before comparison, so "the fuzzer catches an intentionally
// broken executor" is itself testable (docs/TESTING.md, mutation check).
enum class Mutation {
  kNone,
  kDropResult,      // delete the last result (completeness check must fire)
  kPerturbLogProb,  // add 1e-6 to one log-prob (tolerance check must fire)
  kSwapOrder,       // swap the two most probable results (order check)
  kDuplicateResult, // emit one result twice (dedup check)
};

struct DifferentialOptions {
  double tolerance = 1e-9;
  OracleConfig oracle;
  Mutation mutate = Mutation::kNone;
  std::size_t num_samples = 24;  // overrides the case's sampler volume
};

struct TrialReport {
  enum class Status { kPass, kSkip, kFail };

  Status status = Status::kPass;
  // Coarse failure class, stable across shrinking steps: the shrinker only
  // accepts a smaller case when it fails the SAME way, so minimization can
  // not wander off to an unrelated (e.g. invalid-input) failure.
  std::string failure_kind;
  std::string detail;  // human-readable mismatch / skip reason

  std::size_t language_size = 0;   // |oracle.by_text|
  std::size_t oracle_nodes = 0;
  std::size_t max_width = 0;

  bool failed() const { return status == Status::kFail; }
};

TrialReport run_trial(const TrialCase& trial,
                      const DifferentialOptions& options = {});

// `compiled` rebound to a copy of its artifact with both token-mask tables
// cleared — what the token_masks pass leaves when an artifact exceeds its
// memory budget — so every traversal takes the per-edge probe path.
core::CompiledQuery without_masks(const core::CompiledQuery& compiled);

// `artifact` after the disk store's round trip: each component written with
// save_component, read back with load_component, and the two reassembled
// with assemble_artifact.
std::shared_ptr<const core::pipeline::QueryArtifact> reload_through_components(
    const core::pipeline::QueryArtifact& artifact);

}  // namespace relm::testing
