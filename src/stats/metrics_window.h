// Windowed metrics aggregation: one MetricsWindow covers a half-open slice
// [begin, end) of a run and carries everything the reporting layer needs to
// describe that slice in isolation — latency distribution, completion and
// submission counts, network traffic deltas and the protocol-counter deltas
// (so a fast-path fraction can be read before/during/after a fault without
// hand-placed sample points).
//
// The scenario runner cuts one window per workload phase inside the
// measurement interval, or fixed-width windows when the scenario asks for
// them; every completion after warmup lands in exactly one window.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "stats/latency_stats.h"
#include "stats/protocol_stats.h"

namespace caesar::stats {

struct MetricsWindow : PhasePools {
  /// Stable identifier: "phase0", "phase1", ... for per-phase windows,
  /// "win0", "win1", ... for fixed-width windows, "run" for the whole
  /// measurement interval.
  std::string label;
  Time begin = 0;
  Time end = 0;
  /// Index of the workload phase active when the window opened (-1 when the
  /// scenario has no explicit phases).
  int phase = -1;

  /// Latencies of completions inside [begin, end), measured at completion.
  LatencyStats latency;
  /// Submissions inside the window (delta of the pool's counter).
  std::uint64_t submitted = 0;
  /// Network traffic inside the window (delta of the network's counters).
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Aggregate protocol-counter delta across all nodes. The PhasePools base
  /// holds the per-window slices of the protocol-internal latency pools
  /// (paper Fig 11): samples recorded inside [begin, end), summed over nodes.
  ProtocolCounters proto;

  std::uint64_t completed() const { return latency.count(); }

  double duration_s() const {
    return static_cast<double>(end - begin) / static_cast<double>(kSec);
  }

  /// Completions per second inside the window.
  double throughput_tps() const {
    const double s = duration_s();
    return s > 0 ? static_cast<double>(latency.count()) / s : 0.0;
  }
};

}  // namespace caesar::stats
