// Mencius baseline tests: slot assignment, skipping, in-order delivery and
// the "performs as the slowest node" latency shape.
#include "mencius/mencius.h"

#include <gtest/gtest.h>

#include "rsm/delivery_log.h"
#include "runtime/cluster.h"

namespace caesar::mencius {
namespace {

struct Fixture {
  explicit Fixture(std::size_t n, net::Topology topo = net::Topology::lan(5),
                   std::uint64_t seed = 17)
      : sim(seed), stats(n), logs(n) {
    EXPECT_EQ(topo.size(), n);
    rt::ClusterConfig cfg;
    cluster = std::make_unique<rt::Cluster>(
        sim, topo, cfg,
        [&](rt::Env& env, rt::Protocol::DeliverFn deliver) {
          return std::make_unique<Mencius>(env, std::move(deliver),
                                           &stats[env.id()]);
        },
        [this](NodeId node, const rsm::Command& cmd) {
          logs[node].record(cmd);
        });
    cluster->start();
  }

  void submit(NodeId at, Key k) {
    rsm::Command c;
    c.ops.push_back(rsm::Op{k, make_req_id(at, ++req), req});
    cluster->node(at).submit(std::move(c));
  }

  Mencius& mencius(NodeId i) {
    return static_cast<Mencius&>(cluster->node(i).protocol());
  }

  void expect_total_order() {
    for (std::size_t i = 1; i < logs.size(); ++i) {
      EXPECT_EQ(logs[i].sequence(), logs[0].sequence()) << "node " << i;
    }
  }

  sim::Simulator sim;
  std::vector<stats::ProtocolStats> stats;
  std::unique_ptr<rt::Cluster> cluster;
  std::vector<rsm::DeliveryLog> logs;
  std::uint64_t req = 0;
};

TEST(MenciusTest, SingleCommandDeliversEverywhere) {
  Fixture f(5);
  f.submit(0, 42);
  f.sim.run_until(1 * kSec);
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 1u);
}

TEST(MenciusTest, SlotsArePreAssignedRoundRobin) {
  Fixture f(5);
  EXPECT_EQ(f.mencius(0).next_own_slot(), 0u);
  EXPECT_EQ(f.mencius(2).next_own_slot(), 2u);
  f.submit(2, 1);
  f.sim.run_until(1 * kSec);
  EXPECT_EQ(f.mencius(2).next_own_slot(), 7u);  // 2 -> 7 after one proposal
}

TEST(MenciusTest, IdleNodesSkipTheirSlots) {
  Fixture f(5);
  f.submit(3, 1);  // slot 3; slots 0,1,2 must be skipped by their owners
  f.sim.run_until(1 * kSec);
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 1u);
  // Owners of slots < 3 advanced their own slot counters past 3.
  EXPECT_GT(f.mencius(0).next_own_slot(), 3u);
  EXPECT_GT(f.mencius(1).next_own_slot(), 3u);
}

TEST(MenciusTest, ImposesATotalOrder) {
  // Mencius orders *everything* (it is not generalized): all nodes must see
  // the identical global sequence, conflicting or not.
  Fixture f(5);
  for (int round = 0; round < 10; ++round) {
    for (NodeId n = 0; n < 5; ++n) f.submit(n, 1000 + static_cast<Key>(round));
  }
  f.sim.run_until(5 * kSec);
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 50u);
  f.expect_total_order();
}

TEST(MenciusTest, ConflictObliviousLatency) {
  // Same submission pattern, disjoint vs identical keys: latency must be
  // (nearly) identical — Mencius does not track conflicts at all.
  auto run = [](bool conflicting) {
    Fixture f(5, net::Topology::ec2_five_sites());
    for (NodeId n = 0; n < 5; ++n) {
      f.submit(n, conflicting ? 1 : 100 + n);
    }
    f.sim.run_until(3 * kSec);
    std::size_t total = 0;
    for (auto& log : f.logs) total += log.size();
    return total;
  };
  EXPECT_EQ(run(false), 25u);
  EXPECT_EQ(run(true), 25u);
}

TEST(MenciusTest, DeliveryWaitsForFarthestNode) {
  // When Mumbai's slot interleaves before Virginia's, Virginia cannot
  // deliver its own later command until Mumbai's slot resolves — Mencius
  // "performs as the slowest node" (paper §II/§VI), even though a majority
  // is much closer to Virginia.
  Fixture f(5, net::Topology::ec2_five_sites());
  f.submit(0, 1);                                // VA, slot 0
  f.sim.at(1 * kMs, [&f] { f.submit(4, 2); });   // Mumbai, slot 4
  f.sim.at(2 * kMs, [&f] { f.submit(0, 3); });   // VA again, slot 5
  // Run until Virginia delivers all three (its slot 5 is gated on slot 4).
  while (f.logs[0].size() < 3 && f.sim.step()) {
  }
  ASSERT_EQ(f.logs[0].size(), 3u);
  // Mumbai commits slot 4 after its majority RTT (~122ms), and the commit
  // takes another ~93ms to reach Virginia.
  EXPECT_GT(f.sim.now(), 180 * kMs);
  EXPECT_LT(f.sim.now(), 500 * kMs);
}

TEST(MenciusTest, InterleavedProposalsKeepSlotOrder) {
  Fixture f(5);
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const NodeId at = static_cast<NodeId>(rng.uniform_int(5));
    f.sim.at(static_cast<Time>(rng.uniform_int(200)) * kMs,
             [&f, at, i] { f.submit(at, static_cast<Key>(i)); });
  }
  f.sim.run_until(5 * kSec);
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 40u);
  f.expect_total_order();
}

TEST(MenciusTest, RejoinReplaysOmittedSlotsViaStateTransfer) {
  // A node down across many committed slots must come back with the *same*
  // history as everyone else — before state transfer its log silently
  // omitted everything committed during the outage.
  Fixture f(5);
  for (int i = 0; i < 5; ++i) f.submit(0, static_cast<Key>(i));
  f.sim.run_until(300 * kMs);
  f.cluster->crash(1);
  // Traffic the crashed node never hears about.
  for (int i = 5; i < 25; ++i) {
    f.sim.at(400 * kMs + i * 50 * kMs,
             [&f, i] { f.submit(static_cast<NodeId>(i % 5 == 1 ? 0 : i % 5),
                                static_cast<Key>(i)); });
  }
  f.sim.at(2500 * kMs, [&f] { f.cluster->recover(1); });
  f.sim.run_until(6 * kSec);
  ASSERT_GT(f.logs[0].size(), 20u);
  // The rejoined node replayed the missed suffix: identical total order,
  // nothing omitted from the middle.
  EXPECT_EQ(f.logs[1].sequence(), f.logs[0].sequence());
  EXPECT_GT(f.stats[1].catchup_requests, 0u);
  EXPECT_GT(f.stats[1].catchup_commands, 0u);
}

TEST(MenciusTest, DeadNodeSlotsAreRevokedAndDeliveryContinues) {
  // Without revocation every live node wedges at the dead owner's first
  // unresolved slot forever.
  Fixture f(5);
  for (int i = 0; i < 5; ++i) f.submit(static_cast<NodeId>(i), 1);
  f.sim.run_until(300 * kMs);
  f.cluster->crash(4);
  const std::size_t at_crash = f.logs[0].size();
  for (int i = 0; i < 20; ++i) {
    f.sim.at(400 * kMs + i * 50 * kMs,
             [&f, i] { f.submit(static_cast<NodeId>(i % 4), 100 + i); });
  }
  f.sim.run_until(5 * kSec);
  // Delivery continued well past the crash on every live node...
  for (NodeId q = 0; q < 4; ++q) {
    EXPECT_GT(f.logs[q].size(), at_crash + 15) << "node " << q;
    EXPECT_EQ(f.logs[q].sequence(), f.logs[0].sequence()) << "node " << q;
  }
  // ...because the designated revoker resolved the dead node's slots.
  std::uint64_t revocations = 0;
  for (const auto& st : f.stats) revocations += st.revocations;
  EXPECT_GE(revocations, 1u);
  EXPECT_TRUE(f.mencius(0).is_revoked(4));
}

TEST(MenciusTest, HeartbeatsUnblockIdlePeriods) {
  // A command proposed after a long idle gap must still deliver (floors of
  // idle nodes advance via heartbeats).
  Fixture f(5);
  f.submit(0, 1);
  f.sim.run_until(2 * kSec);
  f.submit(4, 2);
  f.sim.run_until(4 * kSec);
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 2u);
}

}  // namespace
}  // namespace caesar::mencius
