// Cluster-consistency oracle.
//
// A run that merely *finishes* proves little: a rejoined replica that
// silently omitted the slots it missed still passes the weak
// common-relative-order check, because its log simply lacks the commands.
// This oracle holds finished runs to the real standard:
//
//   * per-key prefix consistency — for every key, live nodes' delivery
//     sequences must be prefixes of one another (no command missing from the
//     middle of anyone's history);
//   * store convergence (optional) — after a quiesce tail, every live
//     node's kv-store must hold byte-identical contents;
//   * sequence equality (optional) — total-order protocols, fully quiesced,
//     must agree on the entire delivery sequence, not just per key.
//
// Nodes still crashed when the run ended are excluded: a dead replica
// legitimately trails the cluster.
//
// The oracle lives in the library (not the test tree) so benches and the
// CLI can assert it too — a performance number from an inconsistent run is
// worse than no number. Sharded runs get per-group verdicts plus a routing
// invariant: the groups' keyspaces must be disjoint, so the per-group
// stores reassemble into one well-defined whole-run store.
#pragma once

#include <string>
#include <vector>

#include "harness/run_report.h"

namespace caesar::harness {

struct ConsistencyOptions {
  /// Require all live stores to hold identical (key -> value, version)
  /// contents. Valid after a quiesce tail drained in-flight commands;
  /// protocols without state transfer cannot meet it across crashes.
  bool require_converged_stores = true;
  /// Require identical full delivery sequences across live nodes
  /// (total-order protocols, fully quiesced). When off, only per-key prefix
  /// consistency is enforced.
  bool require_equal_sequences = false;
};

struct ConsistencyVerdict {
  bool ok = true;
  /// First violation found, human-readable (names the nodes and key).
  std::string detail;
  explicit operator bool() const { return ok; }
};

/// Core oracle over one replica set's final state: pairwise log checks
/// (prefix/suffix/trimmed semantics) and optional store convergence across
/// the nodes not listed as crashed. `crashed` may be empty (= all live).
ConsistencyVerdict check_replica_set_consistency(
    const std::vector<rsm::DeliveryLog>& logs,
    const std::vector<rsm::KvStore>& stores, const std::vector<bool>& crashed,
    ConsistencyOptions opt = {});

/// Runs the oracle over a finished run's final replica state, which every
/// run_scenario report carries; a report without it fails fast with an
/// explanation. A sharded report dispatches to check_sharded_consistency
/// automatically.
ConsistencyVerdict check_cluster_consistency(const RunReport& r,
                                             ConsistencyOptions opt = {});

/// Sharded oracle: every group's replica set must pass the core oracle, and
/// the groups' keyspaces must be disjoint (a key owned by two groups means
/// the router violated the partition — per-key ordering guarantees are void).
ConsistencyVerdict check_sharded_consistency(const RunReport& r,
                                             ConsistencyOptions opt = {});

/// Merges each group's (first live node's) store into the whole-run store a
/// single-group run would have produced. Fails (returns an empty store and
/// sets *error) when a key appears in more than one group. Requires a
/// sharded report with final state retained.
rsm::KvStore reassemble_sharded_store(const RunReport& r,
                                      std::string* error = nullptr);

}  // namespace caesar::harness
