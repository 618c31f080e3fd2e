#include "shard/shard_router.h"

#include <algorithm>

namespace caesar::shard {

NodeId ShardRouter::submit(NodeId site, rsm::Command cmd) {
  if (cmd.ops.empty()) return kNoNode;
  const std::uint32_t group = map_.shard_of(cmd.ops.front().key);
  rt::Cluster& grp = cluster_.group(group);

  NodeId target = site;
  if (grp.node(target).crashed()) {
    // The client's replica is down in this group only: fail over to the
    // group's next live replica (the pool never sees a partial-site crash).
    target = kNoNode;
    for (std::size_t step = 1; step < grp.size(); ++step) {
      const NodeId cand = static_cast<NodeId>((site + step) % grp.size());
      if (!grp.node(cand).crashed()) {
        target = cand;
        break;
      }
    }
    if (target == kNoNode) return kNoNode;  // whole group down; drop
    ++stats_.reroutes;
  }

  for (const rsm::Op& op : cmd.ops) {
    inflight_[op.req] = Route{group, target};
  }
  ++stats_.routed[group];
  grp.node(target).submit(std::move(cmd));
  return target;
}

void ShardRouter::on_delivery(std::uint32_t group, NodeId node,
                              const rsm::Command& cmd) {
  for (const rsm::Op& op : cmd.ops) {
    auto it = inflight_.find(op.req);
    if (it == inflight_.end()) continue;
    if (it->second.group == group && it->second.node == node) {
      inflight_.erase(it);
    }
  }
}

void ShardRouter::on_group_node_crashed(std::uint32_t group, NodeId node) {
  std::vector<ReqId> lost;
  for (const auto& [req, route] : inflight_) {
    if (route.group == group && route.node == node) lost.push_back(req);
  }
  // Hash-map iteration order must never drive event scheduling: report the
  // losses in a canonical order so runs stay seed-deterministic.
  std::sort(lost.begin(), lost.end());
  for (ReqId req : lost) {
    inflight_.erase(req);
    if (loss_hook_) loss_hook_(req);
  }
}

}  // namespace caesar::shard
