#include "shard/sharded_cluster.h"

namespace caesar::shard {

ShardedCluster::ShardedCluster(sim::Simulator& sim, const net::Topology& topo,
                               const rt::ClusterConfig& cfg,
                               std::uint32_t groups,
                               const GroupFactory& factory,
                               GroupDeliverHook on_deliver) {
  groups_.reserve(groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    rt::ClusterConfig gcfg = cfg;
    if (groups > 1 && gcfg.storage.enabled()) {
      gcfg.storage.data_dir += "/group-" + std::to_string(g);
    }
    groups_.push_back(std::make_unique<rt::Cluster>(
        sim, topo, gcfg, factory(g),
        [on_deliver, g](NodeId node, const rsm::Command& cmd) {
          on_deliver(g, node, cmd);
        }));
  }
}

void ShardedCluster::start() {
  for (auto& g : groups_) g->start();
}

template <typename Fn>
void ShardedCluster::for_targets(std::int32_t group, Fn&& fn) {
  if (group < 0) {
    for (auto& g : groups_) fn(*g);
  } else {
    fn(*groups_[static_cast<std::size_t>(group)]);
  }
}

void ShardedCluster::crash(std::int32_t group, NodeId node) {
  for_targets(group, [node](rt::Cluster& c) { c.crash(node); });
}

void ShardedCluster::recover(std::int32_t group, NodeId node) {
  for_targets(group, [node](rt::Cluster& c) { c.recover(node); });
}

void ShardedCluster::restart(std::int32_t group, NodeId node) {
  for_targets(group, [node](rt::Cluster& c) { c.restart(node); });
}

void ShardedCluster::set_link(std::int32_t group, NodeId a, NodeId b, bool up) {
  for_targets(group, [a, b, up](rt::Cluster& c) { c.set_link(a, b, up); });
}

bool ShardedCluster::site_fully_crashed(NodeId site) {
  for (auto& g : groups_) {
    if (!g->node(site).crashed()) return false;
  }
  return true;
}

void ShardedCluster::set_restart_hook(GroupRestartHook h) {
  for (std::uint32_t g = 0; g < groups(); ++g) {
    groups_[g]->set_restart_hook(
        [h, g](NodeId node, const storage::RecoveredState& st) {
          h(g, node, st);
        });
  }
}

void ShardedCluster::set_snapshot_install_hook(GroupSnapshotInstallHook h) {
  for (std::uint32_t g = 0; g < groups(); ++g) {
    groups_[g]->set_snapshot_install_hook(
        [h, g](NodeId node, const rsm::KvStore& store, std::uint64_t count) {
          h(g, node, store, count);
        });
  }
}

void ShardedCluster::set_instance_hook(GroupInstanceHook h) {
  for (std::uint32_t g = 0; g < groups(); ++g) {
    groups_[g]->set_instance_hook([h, g](NodeId node) { h(g, node); });
  }
}

std::uint64_t ShardedCluster::fd_suspicions() const {
  std::uint64_t total = 0;
  for (const auto& g : groups_) total += g->fd_suspicions();
  return total;
}

std::uint64_t ShardedCluster::fd_retractions() const {
  std::uint64_t total = 0;
  for (const auto& g : groups_) total += g->fd_retractions();
  return total;
}

}  // namespace caesar::shard
