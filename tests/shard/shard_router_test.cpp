// ShardRouter tests: ownership routing by a command's first key,
// group-scoped failover (reroutes) vs whole-site crashes, and deterministic
// in-flight loss reporting.
#include "shard/shard_router.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "harness/scenario.h"
#include "net/topology.h"

namespace caesar::shard {
namespace {

/// Minimal sharded stack: N Mencius groups on a 3-site LAN, the router in
/// front, no client pool — tests drive submit() directly.
struct RouterRig {
  harness::Scenario s;
  sim::Simulator sim{7};
  std::vector<stats::ProtocolStats> per_node;
  std::vector<std::tuple<std::uint32_t, NodeId>> delivered;
  std::unique_ptr<ShardedCluster> cluster;
  std::unique_ptr<ShardRouter> router;
  std::vector<ReqId> lost;

  explicit RouterRig(ShardSpec spec, std::size_t sites = 3) {
    s.protocol = harness::ProtocolKind::kMencius;
    s.topology = net::Topology::lan(sites);
    per_node.resize(spec.count * sites);
    rt::ClusterConfig ccfg;
    ccfg.node = s.node;
    ccfg.fd_timeout_us = s.fd_timeout_us;
    cluster = std::make_unique<ShardedCluster>(
        sim, s.topology, ccfg, spec.count,
        [this, sites](std::uint32_t g) {
          return harness::detail::make_factory(s, per_node, g * sites);
        },
        [this](std::uint32_t g, NodeId node, const rsm::Command& cmd) {
          delivered.emplace_back(g, node);
          router->on_delivery(g, node, cmd);
        });
    router = std::make_unique<ShardRouter>(
        *cluster, ShardMap(spec, s.workload.key_dist.keyspace));
    router->set_loss_hook([this](ReqId req) { lost.push_back(req); });
    cluster->start();
  }

  rsm::Command cmd(std::vector<Key> keys, ReqId first_req) {
    rsm::Command c;
    for (Key k : keys) {
      rsm::Op op;
      op.key = k;
      op.req = first_req;
      op.value = first_req;
      c.ops.push_back(op);
    }
    return c;  // deliberately not finalize()d: the router must take the
               // first op as written, like the pool submits it
  }

  /// First key (searching upward from `from`) owned by `group`.
  Key key_in_group(std::uint32_t group, Key from = 0) {
    for (Key k = from;; ++k) {
      if (router->map().shard_of(k) == group) return k;
    }
  }
};

TEST(ShardRouterTest, RoutesSingleKeyCommandToOwnerGroup) {
  ShardSpec spec;
  spec.count = 2;
  RouterRig rig(spec);
  const Key k0 = rig.key_in_group(0);
  const Key k1 = rig.key_in_group(1);

  EXPECT_NE(rig.router->submit(0, rig.cmd({k0}, 1)), kNoNode);
  EXPECT_NE(rig.router->submit(1, rig.cmd({k1}, 2)), kNoNode);
  EXPECT_NE(rig.router->submit(2, rig.cmd({k1}, 3)), kNoNode);
  EXPECT_EQ(rig.router->stats().routed[0], 1u);
  EXPECT_EQ(rig.router->stats().routed[1], 2u);

  // The owning groups actually deliver the commands.
  rig.sim.run_until(2 * kSec);
  std::uint64_t g0 = 0, g1 = 0;
  for (const auto& [g, node] : rig.delivered) {
    (g == 0 ? g0 : g1) += 1;
  }
  EXPECT_GT(g0, 0u);
  EXPECT_GT(g1, 0u);
}

TEST(ShardRouterTest, CoLocatedMultiKeyCommandIsNotAPin) {
  ShardSpec spec;
  spec.count = 2;
  RouterRig rig(spec);
  const Key a = rig.key_in_group(1);
  const Key b = rig.key_in_group(1, a + 1);
  EXPECT_NE(rig.router->submit(0, rig.cmd({a, b}, 1)), kNoNode);
  EXPECT_EQ(rig.router->stats().routed[1], 1u);
}

TEST(ShardRouterTest, PinsSpanningCommandToFirstKeysGroup) {
  ShardSpec spec;
  spec.count = 2;
  RouterRig rig(spec);
  const Key a = rig.key_in_group(1);  // first key owns the command
  const Key b = rig.key_in_group(0);
  EXPECT_NE(rig.router->submit(0, rig.cmd({a, b}, 1)), kNoNode);
  EXPECT_EQ(rig.router->stats().routed[1], 1u);
  EXPECT_EQ(rig.router->stats().routed[0], 0u);
}

TEST(ShardRouterTest, ReroutesAroundGroupScopedCrash) {
  ShardSpec spec;
  spec.count = 2;
  RouterRig rig(spec);
  const Key k1 = rig.key_in_group(1);

  // Group 1's replica at site 0 dies; the site's group-0 replica lives on.
  rig.cluster->crash(1, 0);
  EXPECT_FALSE(rig.router->crashed(0));  // site not fully dead

  const NodeId target = rig.router->submit(0, rig.cmd({k1}, 1));
  EXPECT_NE(target, kNoNode);
  EXPECT_NE(target, 0u);  // diverted off the crashed replica
  EXPECT_EQ(rig.router->stats().reroutes, 1u);

  // Group 0 traffic from the same site is untouched.
  const Key k0 = rig.key_in_group(0);
  EXPECT_EQ(rig.router->submit(0, rig.cmd({k0}, 2)), 0u);
  EXPECT_EQ(rig.router->stats().reroutes, 1u);
}

TEST(ShardRouterTest, SiteIsFullyCrashedOnlyWhenDownInEveryGroup) {
  ShardSpec spec;
  spec.count = 2;
  RouterRig rig(spec);
  rig.cluster->crash(0, 0);
  EXPECT_FALSE(rig.router->crashed(0));
  rig.cluster->crash(1, 0);
  EXPECT_TRUE(rig.router->crashed(0));
}

TEST(ShardRouterTest, WholeGroupDownDropsTheSubmission) {
  ShardSpec spec;
  spec.count = 2;
  RouterRig rig(spec);
  const Key k1 = rig.key_in_group(1);
  for (NodeId i = 0; i < 3; ++i) rig.cluster->crash(1, i);
  EXPECT_EQ(rig.router->submit(0, rig.cmd({k1}, 1)), kNoNode);
  EXPECT_EQ(rig.router->stats().routed[1], 0u);
}

TEST(ShardRouterTest, ReportsInFlightLossesInAscendingReqIdOrder) {
  ShardSpec spec;
  spec.count = 2;
  RouterRig rig(spec);
  const Key k1 = rig.key_in_group(1);
  // Submit in shuffled ReqId order; none delivered yet (sim not run).
  for (ReqId req : {ReqId{9}, ReqId{3}, ReqId{7}, ReqId{1}}) {
    ASSERT_EQ(rig.router->submit(0, rig.cmd({k1}, req)), 0u);
  }
  rig.cluster->crash(1, 0);
  rig.router->on_group_node_crashed(1, 0);
  EXPECT_EQ(rig.lost, (std::vector<ReqId>{1, 3, 7, 9}));

  // The records are gone: a second crash notification reports nothing.
  rig.lost.clear();
  rig.router->on_group_node_crashed(1, 0);
  EXPECT_TRUE(rig.lost.empty());
}

TEST(ShardRouterTest, DeliveryPrunesInFlightRecords) {
  ShardSpec spec;
  spec.count = 2;
  RouterRig rig(spec);
  const Key k1 = rig.key_in_group(1);
  ASSERT_EQ(rig.router->submit(0, rig.cmd({k1}, 5)), 0u);
  rig.sim.run_until(2 * kSec);  // let group 1 deliver it

  // A later crash of the same replica reports no stale loss.
  rig.cluster->crash(1, 0);
  rig.router->on_group_node_crashed(1, 0);
  EXPECT_TRUE(rig.lost.empty());
}

}  // namespace
}  // namespace caesar::shard
