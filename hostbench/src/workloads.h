// The benchmark's three workloads: each is a harness::Scenario built from a
// seed, plus the facts the metrics need (where the measurement interval ends,
// which oracle options apply). See ../README.md for why each was chosen.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/oracle.h"
#include "harness/scenario.h"

namespace hostbench {

using caesar::Time;

/// Completion-timeline resolution. The longest completion-free interval and
/// the traced/untraced fidelity check read the timeline.
inline constexpr Time kTimelineBucket = 10;  // us

struct Workload {
  std::string name;
  /// Default seed, and a held-out seed to recheck a claim on a seed that was
  /// not used while the change was written.
  std::uint64_t seed = 1;
  std::uint64_t holdout_seed = 2;
  caesar::harness::ConsistencyOptions oracle;
  /// Builds the scenario. `quick` shrinks every simulated duration for the
  /// self-check mode; the workload's shape (topology, stack, faults) stays.
  caesar::harness::Scenario (*make)(std::uint64_t seed, bool quick) = nullptr;
};

const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
const Workload* find_workload(std::string_view name);

/// Start of the final quiesce tail: the measurement interval is
/// [warmup, this). A workload may pause its load earlier with another
/// quiesce phase; that pause lies inside the interval.
Time quiesce_at(const caesar::harness::Scenario& s);

}  // namespace hostbench
