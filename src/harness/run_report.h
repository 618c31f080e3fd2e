// RunReport: the structured result of one scenario run. Besides the run-wide
// aggregates it carries
//
//   * metrics windows — one per workload phase inside the measurement
//     interval, or fixed-width slices when the scenario requests them — each
//     with its own latency distribution, throughput, message/byte deltas and
//     protocol-counter deltas, so per-phase fast/slow-path ratios (paper
//     Figs 10-12) fall out without hand-placed sample points;
//   * provenance — scenario name, protocol, topology, seed, build — so an
//     emitted document identifies the run that produced it;
//   * failure-detector activity (suspicions/retractions, including the ones
//     induced by long partitions).
//
// Reports render through the emitters in harness/report.h (ASCII tables,
// schema-stable JSON) and compare through harness::diff, which produces
// per-metric A/B ratios for protocol or configuration comparisons.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "rsm/delivery_log.h"
#include "rsm/kvstore.h"
#include "stats/latency_stats.h"
#include "stats/metrics_window.h"
#include "stats/protocol_stats.h"
#include "stats/time_series.h"

namespace caesar::harness {

/// The version string baked in at configure time (git describe --always
/// --dirty), or "unknown" outside a git checkout.
std::string_view build_version();

/// Identifies the run that produced a report.
struct Provenance {
  std::string scenario;
  std::string protocol;
  /// Site names of the topology, in node-id order.
  std::vector<std::string> sites;
  std::uint64_t seed = 0;
  Time duration = 0;
  Time warmup = 0;
  std::string build;
};

struct SiteMetrics {
  std::string name;
  stats::LatencyStats latency;  // per-completion, measured after warmup
};

/// Router-level counters of a sharded run (see shard::ShardRouter).
struct RouterStats {
  std::string partition;  // shard::to_string(Partition)
  std::uint64_t reroutes = 0;
};

/// Per-group rollup of a sharded run: each consensus group contributes its
/// own throughput/latency/message costs, protocol counters, metrics windows
/// and consistency verdict; RunReport's top-level fields carry the
/// aggregates summed over groups.
struct ShardMetrics {
  std::uint32_t group = 0;
  /// Commands the router sent into this group.
  std::uint64_t routed = 0;
  std::uint64_t completed = 0;
  double throughput_tps = 0.0;
  stats::LatencyStats latency;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  stats::ProtocolStats proto;
  std::vector<stats::MetricsWindow> windows;
  bool consistent = true;
  std::uint64_t fd_suspicions = 0;
  std::uint64_t fd_retractions = 0;

  /// Final replica state of this group (see RunReport::delivery_logs);
  /// consumed by the sharded consistency oracle, never serialized.
  std::vector<rsm::DeliveryLog> delivery_logs;
  std::vector<rsm::KvStore> stores;
  std::vector<bool> crashed_at_end;
};

/// Client-side flow-control counters of the run's open-loop phases; only
/// populated (and only serialized) when the scenario sets
/// workload.max_inflight — the classic report stays byte-identical.
struct FlowControlStats {
  bool enabled = false;
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;
  std::uint64_t shed = 0;
};

struct RunReport {
  std::vector<SiteMetrics> sites;
  stats::LatencyStats total_latency;
  /// Completions per second within the measurement window.
  double throughput_tps = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t submitted = 0;

  /// Aggregated and per-node protocol counters.
  stats::ProtocolStats proto;
  std::vector<stats::ProtocolStats> per_node;

  /// Completions per timeline bucket (Fig 12), from t=0 and warmup
  /// included.
  stats::TimeSeries timeline{500 * kMs};

  /// The weak common-order check: for every pair of replicas and every key,
  /// the commands both logs hold appear in the same relative order
  /// (rsm::consistent_key_orders, a merge-join over each log's key-sorted
  /// runs; it builds each log's per-key order, which the oracle then
  /// reuses). A replica whose log omits a command from the middle still
  /// passes; the per-key prefix oracle in harness/oracle.h
  /// (check_cluster_consistency) is the stronger verdict. fig8, fig9 and
  /// consensus_cli exit nonzero when it reads false.
  bool consistent = true;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  /// Who/what/when produced this report.
  Provenance provenance;

  /// Disjoint half-open windows covering [warmup, duration), in time order:
  /// per-phase by default, fixed-width when Scenario::metrics_window_us is
  /// set, a single "run" window otherwise.
  std::vector<stats::MetricsWindow> windows;

  /// Failure-detector upcalls issued during the run (crash suspicions plus
  /// partition-induced ones when the scenario enables FD/partition coupling).
  std::uint64_t fd_suspicions = 0;
  std::uint64_t fd_retractions = 0;

  /// Final replica state, which every run keeps: per-node delivery logs and
  /// stores, plus which nodes were still crashed when the run ended.
  /// Consumed by the consistency oracle (harness/oracle.h); never
  /// serialized by the emitters.
  std::vector<rsm::DeliveryLog> delivery_logs;
  std::vector<rsm::KvStore> stores;
  std::vector<bool> crashed_at_end;

  /// Sharded runs only: per-group rollups and router counters. Empty for a
  /// one-group run, whose JSON is the classic document. For a sharded run
  /// the flat delivery_logs/stores above stay empty — final state lives per
  /// group in `shards` and the sharded oracle consumes it.
  std::vector<ShardMetrics> shards;
  RouterStats router;

  /// Open-loop admission counters (see FlowControlStats).
  FlowControlStats flow_control;

  bool sharded() const { return !shards.empty(); }

  double slow_path_pct() const { return proto.slow_path_fraction() * 100.0; }

  /// Window lookup by label ("phase1", "win3", "run"); nullptr when absent.
  const stats::MetricsWindow* window(std::string_view label) const;
};

// ---------------------------------------------------------------------------
// A/B diffing
// ---------------------------------------------------------------------------

/// One compared metric: value under A, value under B, and B/A.
struct MetricRatio {
  std::string metric;
  double a = 0.0;
  double b = 0.0;

  bool ratio_defined() const { return a != 0.0; }
  /// B relative to A (1.0 = equal); only meaningful when ratio_defined().
  double ratio() const { return ratio_defined() ? b / a : 0.0; }
};

struct RunReportDiff {
  std::string label_a;
  std::string label_b;
  /// Run-wide metrics first, then matched windows ("window.<label>.<metric>").
  std::vector<MetricRatio> metrics;

  const MetricRatio* find(std::string_view metric) const;
};

/// Compares two reports metric by metric: latency percentiles, throughput,
/// message/byte costs, fast-path fraction, plus any metrics windows whose
/// labels match (e.g. the same phase under two protocols). Pass explicit
/// labels when the sides differ by something provenance cannot see (a config
/// ablation, a sweep point) — ideally the same labels the runs carry in the
/// surrounding JSON document, so consumers can join diffs to runs; the
/// default labels are protocol/scenario/seed.
RunReportDiff diff(const RunReport& a, const RunReport& b,
                   std::string label_a = "", std::string label_b = "");

}  // namespace caesar::harness
