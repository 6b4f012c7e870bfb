#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "experiments/setup.hpp"
#include "harness.hpp"

namespace perfbench {

// Sizes every workload shares: the CLI defaults.
inline constexpr std::size_t kLogitCacheEntries = 1 << 16;

class Workload {
 public:
  virtual ~Workload() = default;

  // Runs one unit. `traced` puts the timing model under the logit cache
  // (the caller turns relm's tracer on around the call); `check` runs the
  // output checker over the unit's results after the clock has stopped.
  virtual UnitOutput run_unit(bool traced, bool check) = 0;

  // Extra cold-compile samples, for a workload whose units compile too
  // rarely for a stable median. Runs untraced, between units, so the
  // samples span the run as the units do.
  virtual void compile_probes(UnitOutput& /*out*/) {}
};

// Builds the named workload's inputs from the world and the seed. Returns
// null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const relm::experiments::World& world,
                                        std::uint64_t seed);

}  // namespace perfbench
