// ShardedCluster: N independent protocol groups on one deterministic clock.
//
// Each group is a full rt::Cluster — its own Network, nodes, failure
// detector and (when enabled) durable storage under
// <data_dir>/group-<g>/node-<id>/ (<data_dir>/node-<id>/ for a single
// group) — so node ids are group-scoped and FD/partition state never leaks
// across groups. All groups share the same
// sim::Simulator, which keeps a sharded run a pure function of its seed
// exactly like a single-group run.
//
// Fault application takes a signed group index: a negative group targets
// every group at once (a whole-site fault, e.g. the machine hosting all of a
// site's group replicas dies), a non-negative one hits that group alone —
// the asymmetric schedules the shard scenarios need.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/cluster.h"

namespace caesar::shard {

class ShardedCluster {
 public:
  /// Observes every delivery, tagged with the delivering group.
  using GroupDeliverHook =
      std::function<void(std::uint32_t group, NodeId node, const rsm::Command&)>;
  /// Builds one group's protocol factory — each group wires its own stats
  /// sinks (per-group counters roll up separately in the report).
  using GroupFactory =
      std::function<rt::Cluster::ProtocolFactory(std::uint32_t group)>;
  using GroupRestartHook = std::function<void(
      std::uint32_t group, NodeId, const storage::RecoveredState&)>;
  using GroupSnapshotInstallHook = std::function<void(
      std::uint32_t group, NodeId, const rsm::KvStore&, std::uint64_t)>;
  /// Fires once per protocol-level delivery (a batch composite counts once),
  /// after the delivery hook — see rt::Cluster::set_instance_hook.
  using GroupInstanceHook = std::function<void(std::uint32_t group, NodeId)>;

  /// Every group gets the same topology and config; with durable storage
  /// enabled and more than one group, each group's data lives under its own
  /// group-<g> subdirectory.
  ShardedCluster(sim::Simulator& sim, const net::Topology& topo,
                 const rt::ClusterConfig& cfg, std::uint32_t groups,
                 const GroupFactory& factory, GroupDeliverHook on_deliver);

  std::uint32_t groups() const { return static_cast<std::uint32_t>(groups_.size()); }
  std::size_t sites() const { return groups_.front()->size(); }
  rt::Cluster& group(std::uint32_t g) { return *groups_[g]; }
  const rt::Cluster& group(std::uint32_t g) const { return *groups_[g]; }

  /// Calls Protocol::start on every node of every group.
  void start();

  // Group-targeted fault application; group < 0 applies to all groups.
  void crash(std::int32_t group, NodeId node);
  void recover(std::int32_t group, NodeId node);
  void restart(std::int32_t group, NodeId node);
  void set_link(std::int32_t group, NodeId a, NodeId b, bool up);

  /// True when `site`'s replica is crashed in every group: the site is fully
  /// dead and clients must reconnect elsewhere. A partially-crashed site
  /// (some groups down) is handled by the router's per-group failover.
  bool site_fully_crashed(NodeId site);

  void set_restart_hook(GroupRestartHook h);
  void set_snapshot_install_hook(GroupSnapshotInstallHook h);
  void set_instance_hook(GroupInstanceHook h);

  /// FD activity summed over all groups.
  std::uint64_t fd_suspicions() const;
  std::uint64_t fd_retractions() const;

 private:
  template <typename Fn>
  void for_targets(std::int32_t group, Fn&& fn);

  std::vector<std::unique_ptr<rt::Cluster>> groups_;
};

}  // namespace caesar::shard
