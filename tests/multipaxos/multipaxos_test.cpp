#include "multipaxos/multipaxos.h"

#include <gtest/gtest.h>

#include "rsm/delivery_log.h"
#include "runtime/cluster.h"

namespace caesar::mpaxos {
namespace {

struct Fixture {
  explicit Fixture(std::size_t n, NodeId leader,
                   net::Topology topo = net::Topology::lan(5))
      : sim(11), logs(n) {
    EXPECT_EQ(topo.size(), n);
    rt::ClusterConfig cfg;
    MultiPaxosConfig mp{leader};
    stats.resize(n);
    cluster = std::make_unique<rt::Cluster>(
        sim, topo, cfg,
        [&, mp](rt::Env& env, rt::Protocol::DeliverFn deliver) {
          return std::make_unique<MultiPaxos>(env, std::move(deliver), mp,
                                              &stats[env.id()]);
        },
        [this](NodeId node, const rsm::Command& cmd) {
          logs[node].record(cmd);
        });
  }

  void submit(NodeId at, Key k) {
    rsm::Command c;
    c.ops.push_back(rsm::Op{k, make_req_id(at, ++req), 0});
    cluster->node(at).submit(std::move(c));
  }

  sim::Simulator sim;
  std::vector<stats::ProtocolStats> stats;
  std::unique_ptr<rt::Cluster> cluster;
  std::vector<rsm::DeliveryLog> logs;
  std::uint64_t req = 0;
};

TEST(MultiPaxosTest, LeaderProposalReachesAllNodes) {
  Fixture f(5, 0, net::Topology::lan(5));
  f.submit(0, 42);
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) {
    ASSERT_EQ(f.logs[i].size(), 1u) << "node " << i;
  }
}

TEST(MultiPaxosTest, NonLeaderProposalIsForwarded) {
  Fixture f(5, 2, net::Topology::lan(5));
  f.submit(4, 42);
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) EXPECT_EQ(f.logs[i].size(), 1u);
}

TEST(MultiPaxosTest, TotalOrderAcrossAllNodes) {
  Fixture f(5, 1, net::Topology::lan(5));
  // All nodes propose concurrently — Multi-Paxos must produce one total
  // order, identical everywhere (even for non-conflicting commands).
  for (int round = 0; round < 20; ++round) {
    for (NodeId n = 0; n < 5; ++n) f.submit(n, static_cast<Key>(round));
  }
  f.sim.run();
  ASSERT_EQ(f.logs[0].size(), 100u);
  for (NodeId i = 1; i < 5; ++i) {
    EXPECT_EQ(f.logs[i].sequence(), f.logs[0].sequence()) << "node " << i;
  }
}

TEST(MultiPaxosTest, DeliveryInLogOrderWithNoGaps) {
  Fixture f(3, 0, net::Topology::lan(3));
  for (int i = 0; i < 50; ++i) f.submit(static_cast<NodeId>(i % 3), 1);
  f.sim.run();
  for (NodeId i = 0; i < 3; ++i) EXPECT_EQ(f.logs[i].size(), 50u);
  EXPECT_TRUE(rsm::prefix_consistent_key_orders(f.logs[0], f.logs[1]));
  EXPECT_TRUE(rsm::prefix_consistent_key_orders(f.logs[0], f.logs[2]));
}

TEST(MultiPaxosTest, GeoLatencyDependsOnLeaderPlacement) {
  // Leader in Ireland (3): a Virginia client pays VA->IR + IR quorum + IR->VA.
  // Leader in Mumbai (4): much worse, since Mumbai is far from every quorum.
  auto measure = [](NodeId leader) {
    Fixture f(5, leader, net::Topology::ec2_five_sites());
    f.submit(0, 1);  // client at Virginia
    Time done = -1;
    f.sim.run();
    // Completion: when Virginia (node 0) delivered the command.
    (void)done;
    return f.logs[0].size();
  };
  EXPECT_EQ(measure(3), 1u);
  EXPECT_EQ(measure(4), 1u);
}

TEST(MultiPaxosTest, CommitLatencyReflectsQuorumDistance) {
  // Directly time delivery at the origin for the two leader placements the
  // paper compares (Fig 7): Ireland (close to EU/US quorum) vs Mumbai (far).
  auto latency_with_leader = [](NodeId leader) {
    Fixture f(5, leader, net::Topology::ec2_five_sites());
    f.submit(0, 1);
    // Run until Virginia delivers.
    while (f.logs[0].size() == 0 && f.sim.step()) {
    }
    return f.sim.now();
  };
  const Time ir = latency_with_leader(3);
  const Time in = latency_with_leader(4);
  EXPECT_LT(ir, in);
  EXPECT_GT(in, 180 * kMs);  // Mumbai leader: VA->IN alone is 93ms one-way
}

TEST(MultiPaxosTest, LeaderCountsDecisions) {
  Fixture f(3, 0, net::Topology::lan(3));
  for (int i = 0; i < 10; ++i) f.submit(1, 5);
  f.sim.run();
  EXPECT_EQ(f.stats[0].fast_decisions, 10u);
  EXPECT_EQ(f.stats[1].fast_decisions, 0u);
}

}  // namespace
}  // namespace caesar::mpaxos
