// ShardRouter: the wl::Frontend that sits between the client pool and a
// ShardedCluster, routing every command to the consensus group that owns its
// first key (the ShardMap owner). The pool submits one-op commands and
// batches form after routing, inside a group's node, so no command the pool
// sends spans groups; atomic cross-shard commit is out of scope for this
// layer.
//
// Within the owning group the router prefers the client's own site replica;
// when that replica is crashed in just that group it fails over to the next
// live replica of the group (counted as a reroute) — a group-scoped crash is
// invisible to the pool, which only reconnects when a site is dead in every
// group. Requests in flight at a group replica when it crashes are reported
// to the pool through the loss hook so closed-loop clients resubmit.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "shard/shard_map.h"
#include "shard/sharded_cluster.h"
#include "workload/client_pool.h"

namespace caesar::shard {

class ShardRouter final : public wl::Frontend {
 public:
  using LossHook = std::function<void(ReqId)>;

  struct Stats {
    /// Commands routed into each group (index = group).
    std::vector<std::uint64_t> routed;
    /// Submissions diverted off the client's site replica because it was
    /// crashed in the owning group only.
    std::uint64_t reroutes = 0;
  };

  ShardRouter(ShardedCluster& cluster, ShardMap map)
      : cluster_(cluster),
        map_(std::move(map)),
        stats_{std::vector<std::uint64_t>(cluster.groups(), 0), 0} {}

  /// Called (by the scenario runner) when a request's routed replica
  /// delivers it — or when it crashed with the request still in flight.
  void set_loss_hook(LossHook h) { loss_hook_ = std::move(h); }

  // wl::Frontend
  std::size_t sites() const override { return cluster_.sites(); }
  bool crashed(NodeId site) const override {
    return cluster_.site_fully_crashed(site);
  }
  NodeId submit(NodeId site, rsm::Command cmd) override;

  /// Prunes the in-flight record once the routed replica delivered the
  /// command. Call from the deliver hook before handing off to the pool.
  void on_delivery(std::uint32_t group, NodeId node, const rsm::Command& cmd);

  /// Fires the loss hook for every request in flight at (group, node); call
  /// when that group replica crashes. Deterministic: requests are reported
  /// in ascending ReqId order regardless of hash-map iteration order.
  void on_group_node_crashed(std::uint32_t group, NodeId node);

  const Stats& stats() const { return stats_; }
  const ShardMap& map() const { return map_; }

 private:
  struct Route {
    std::uint32_t group = 0;
    NodeId node = kNoNode;
  };

  ShardedCluster& cluster_;
  ShardMap map_;
  Stats stats_;
  LossHook loss_hook_;
  std::unordered_map<ReqId, Route> inflight_;
};

}  // namespace caesar::shard
