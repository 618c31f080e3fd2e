// Integration and property tests for the CAESAR protocol itself.
//
// These run whole clusters on the simulated network and check the
// Generalized Consensus contract plus CAESAR-specific theorems:
//   Theorem 1: conflicting decided commands with T̄ < T have c̄ ∈ Pred(c);
//   Theorem 2: a command's decided timestamp is the same on every node;
// and the paper's performance claims in miniature (wait condition avoids
// slow paths, recovery preserves consistency).
#include "core/caesar.h"

#include <gtest/gtest.h>

#include <map>

#include "rsm/delivery_log.h"
#include "runtime/cluster.h"

namespace caesar::core {
namespace {

struct Fixture {
  explicit Fixture(std::size_t n, CaesarConfig ccfg = {},
                   net::Topology topo = net::Topology::lan(5),
                   std::uint64_t seed = 17, Time fd_timeout = 200 * kMs)
      : sim(seed), stats(n), logs(n) {
    EXPECT_EQ(topo.size(), n);
    rt::ClusterConfig cfg;
    cfg.fd_timeout_us = fd_timeout;
    cluster = std::make_unique<rt::Cluster>(
        sim, topo, cfg,
        [&, ccfg](rt::Env& env, rt::Protocol::DeliverFn deliver) {
          return std::make_unique<Caesar>(env, std::move(deliver), ccfg,
                                          &stats[env.id()]);
        },
        [this](NodeId node, const rsm::Command& cmd) {
          logs[node].record(cmd);
        });
    cluster->start();
  }

  CmdId submit(NodeId at, Key k) {
    rsm::Command c;
    c.ops.push_back(rsm::Op{k, make_req_id(at, ++req), req});
    cluster->node(at).submit(std::move(c));
    ++submitted;
    // The runtime mints ids sequentially per node; reconstruct for asserts.
    return kNoCmd;
  }

  Caesar& caesar(NodeId i) {
    return static_cast<Caesar&>(cluster->node(i).protocol());
  }

  /// Checks that, for every node pair and key, one node's delivery order is
  /// a prefix of the other's.
  void expect_consistent() {
    for (std::size_t i = 0; i < logs.size(); ++i) {
      for (std::size_t j = i + 1; j < logs.size(); ++j) {
        EXPECT_TRUE(rsm::prefix_consistent_key_orders(logs[i], logs[j]))
            << "nodes " << i << " and " << j << " diverge";
      }
    }
  }

  /// Theorem 1 + timestamp-order delivery: on every node, the per-key
  /// delivery sequence is ordered by decided timestamp, and each command's
  /// predecessor set contains every earlier conflicting command.
  void expect_caesar_invariants() {
    for (NodeId n = 0; n < logs.size(); ++n) {
      Caesar& ca = caesar(n);
      for (const auto& [key, seq] : logs[n].per_key()) {
        for (std::size_t a = 0; a + 1 < seq.size(); ++a) {
          for (std::size_t b = a + 1; b < seq.size(); ++b) {
            EXPECT_LT(ca.ts_of(seq[a]), ca.ts_of(seq[b]))
                << "node " << n << " key " << key
                << ": delivery order violates timestamp order";
            EXPECT_TRUE(ca.pred_of(seq[b]).contains(seq[a]))
                << "node " << n << " key " << key << ": Theorem 1 violated";
          }
        }
      }
    }
  }

  /// Theorem 2: every node that delivered a command agrees on its timestamp.
  void expect_timestamp_agreement() {
    std::map<CmdId, Timestamp> decided;
    for (NodeId n = 0; n < logs.size(); ++n) {
      for (CmdId id : logs[n].sequence()) {
        const Timestamp ts = caesar(n).ts_of(id);
        auto [it, inserted] = decided.emplace(id, ts);
        if (!inserted) {
          EXPECT_EQ(it->second, ts) << "node " << n << " disagrees on ts of "
                                    << cmd_id_str(id);
        }
      }
    }
  }

  std::uint64_t total_fast() const {
    std::uint64_t v = 0;
    for (const auto& s : stats) v += s.fast_decisions;
    return v;
  }
  std::uint64_t total_slow() const {
    std::uint64_t v = 0;
    for (const auto& s : stats) v += s.slow_decisions;
    return v;
  }

  sim::Simulator sim;
  std::vector<stats::ProtocolStats> stats;
  std::unique_ptr<rt::Cluster> cluster;
  std::vector<rsm::DeliveryLog> logs;
  std::uint64_t req = 0;
  std::uint64_t submitted = 0;
};

TEST(CaesarTest, QuorumSizesMatchPaper) {
  Fixture f(5);
  EXPECT_EQ(f.caesar(0).fast_quorum(), 4u);
  EXPECT_EQ(f.caesar(0).classic_quorum(), 3u);
}

TEST(CaesarTest, SingleCommandDeliversEverywhereFast) {
  Fixture f(5);
  f.submit(0, 42);
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) {
    ASSERT_EQ(f.logs[i].size(), 1u) << "node " << i;
  }
  EXPECT_EQ(f.total_fast(), 1u);
  EXPECT_EQ(f.total_slow(), 0u);
}

TEST(CaesarTest, CommandStatusReachesStableEverywhere) {
  Fixture f(5);
  f.submit(2, 7);
  f.sim.run();
  const CmdId id = f.logs[0].sequence().at(0);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(f.caesar(i).status_of(id), Status::kStable);
    EXPECT_TRUE(f.caesar(i).is_delivered(id));
  }
}

TEST(CaesarTest, NonConflictingCommandsAllFast) {
  Fixture f(5);
  for (NodeId n = 0; n < 5; ++n) {
    for (int i = 0; i < 10; ++i) f.submit(n, 1000 + n * 100 + i);
  }
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) EXPECT_EQ(f.logs[i].size(), 50u);
  EXPECT_EQ(f.total_fast(), 50u);
  EXPECT_EQ(f.total_slow(), 0u);
  f.expect_consistent();
}

TEST(CaesarTest, ConcurrentConflictingPairOrderedConsistently) {
  // The Fig 1(b) scenario: two distant nodes propose non-commutative
  // commands simultaneously.
  Fixture f(5, CaesarConfig{}, net::Topology::ec2_five_sites());
  f.submit(0, 5);
  f.submit(4, 5);
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 2u);
  f.expect_consistent();
  f.expect_caesar_invariants();
  f.expect_timestamp_agreement();
}

TEST(CaesarTest, HeavyConflictSingleKeyStaysConsistent) {
  Fixture f(5);
  for (int round = 0; round < 20; ++round) {
    for (NodeId n = 0; n < 5; ++n) f.submit(n, 1);  // total order on key 1
  }
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 100u);
  f.expect_consistent();
  f.expect_caesar_invariants();
  f.expect_timestamp_agreement();
}

TEST(CaesarTest, StaggeredConflictingSubmissions) {
  Fixture f(5, CaesarConfig{}, net::Topology::ec2_five_sites());
  // Conflicting commands spread over time from every site, interleaved with
  // independent ones.
  Rng rng(123);
  for (int i = 0; i < 60; ++i) {
    const NodeId at = static_cast<NodeId>(rng.uniform_int(5));
    const Key key = rng.bernoulli(0.4) ? rng.uniform_int(3) : 100 + i;
    f.sim.at(static_cast<Time>(rng.uniform_int(500)) * kMs,
             [&f, at, key] { f.submit(at, key); });
  }
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 60u);
  f.expect_consistent();
  f.expect_caesar_invariants();
  f.expect_timestamp_agreement();
}

TEST(CaesarTest, WaitConditionBeatsImmediateReject) {
  // Paper §IV-A claim: with the wait condition, conflicting-but-reconcilable
  // proposals stay on the fast path; without it they degrade to slow
  // decisions. Same workload, both configs.
  auto run = [](bool wait_enabled) {
    CaesarConfig cfg;
    cfg.wait_enabled = wait_enabled;
    Fixture f(5, cfg, net::Topology::ec2_five_sites(), 99);
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
      const NodeId at = static_cast<NodeId>(rng.uniform_int(5));
      const Key key = rng.uniform_int(4);  // highly conflicting
      f.sim.at(static_cast<Time>(rng.uniform_int(2000)) * kMs,
               [&f, at, key] { f.submit(at, key); });
    }
    f.sim.run();
    for (NodeId i = 0; i < 5; ++i) EXPECT_EQ(f.logs[i].size(), 100u);
    f.expect_consistent();
    return std::pair<std::uint64_t, std::uint64_t>(f.total_fast(),
                                                   f.total_slow());
  };
  const auto [fast_wait, slow_wait] = run(true);
  const auto [fast_nowait, slow_nowait] = run(false);
  EXPECT_EQ(fast_wait + slow_wait, 100u);
  EXPECT_EQ(fast_nowait + slow_nowait, 100u);
  EXPECT_LT(slow_wait, slow_nowait)
      << "wait condition should reduce slow decisions";
}

TEST(CaesarTest, WaiterIndexDrainsCompletely) {
  // The per-blocker waiter index must not leak: once every command is
  // decided and delivered, no proposal may still be parked anywhere —
  // every registered wakeup fired or was released as moot.
  Fixture f(5, CaesarConfig{}, net::Topology::ec2_five_sites(), 77);
  Rng rng(13);
  for (int i = 0; i < 120; ++i) {
    const NodeId at = static_cast<NodeId>(rng.uniform_int(5));
    const Key key = rng.uniform_int(3);  // heavy conflict: many waits
    f.sim.at(static_cast<Time>(rng.uniform_int(2000)) * kMs,
             [&f, at, key] { f.submit(at, key); });
  }
  f.sim.run();
  std::uint64_t waits = 0;
  for (auto& s : f.stats) waits += s.waits;
  EXPECT_GT(waits, 0u) << "workload was expected to park proposals";
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(f.caesar(i).parked_count(), 0u)
        << "node " << i << " leaked parked proposals";
    ASSERT_EQ(f.logs[i].size(), 120u);
  }
  f.expect_consistent();
  f.expect_caesar_invariants();
}

TEST(CaesarTest, WaitTimesAreRecorded) {
  Fixture f(5, CaesarConfig{}, net::Topology::ec2_five_sites());
  Rng rng(5);
  for (int i = 0; i < 80; ++i) {
    const NodeId at = static_cast<NodeId>(rng.uniform_int(5));
    f.sim.at(static_cast<Time>(rng.uniform_int(1000)) * kMs,
             [&f, at, &rng] { (void)0; });
  }
  // Direct conflicting burst (same key from all nodes at once) must park at
  // least one acceptor somewhere.
  for (NodeId n = 0; n < 5; ++n) f.submit(n, 9);
  f.sim.run();
  std::uint64_t waits = 0;
  for (auto& s : f.stats) waits += s.waits;
  EXPECT_GT(waits, 0u);
  f.expect_consistent();
}

TEST(CaesarTest, SlowPathCountsRetries) {
  // A NACK-forcing interleaving: many same-key commands from far-apart nodes
  // over a long window guarantees some rejections.
  Fixture f(5, CaesarConfig{}, net::Topology::ec2_five_sites(), 3);
  Rng rng(11);
  for (int i = 0; i < 150; ++i) {
    const NodeId at = static_cast<NodeId>(rng.uniform_int(5));
    f.sim.at(static_cast<Time>(rng.uniform_int(3000)) * kMs,
             [&f, at] { f.submit(at, 1); });
  }
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 150u);
  f.expect_consistent();
  f.expect_caesar_invariants();
  std::uint64_t retries = 0;
  for (auto& s : f.stats) retries += s.retries;
  EXPECT_EQ(f.total_fast() + f.total_slow(), 150u);
  // With 150 contended commands, at least some should have retried...
  EXPECT_GT(retries, 0u);
  // ...but the wait condition should keep the slow fraction well below 50%.
  EXPECT_LT(static_cast<double>(f.total_slow()), 0.5 * 150);
}

TEST(CaesarTest, LeaderCrashBeforeStableIsRecovered) {
  CaesarConfig cfg;
  cfg.recovery_stagger_us = 20 * kMs;
  Fixture f(5, cfg, net::Topology::lan(5), 21, /*fd_timeout=*/100 * kMs);
  f.submit(0, 77);
  // Node 0 broadcast the proposal but dies before it can send STABLE
  // (replies need ~200us round trip; crash at 150us).
  f.sim.at(150, [&f] { f.cluster->crash(0); });
  f.sim.run_until(5 * kSec);
  for (NodeId i = 1; i < 5; ++i) {
    EXPECT_EQ(f.logs[i].size(), 1u) << "survivor " << i << " lost the command";
  }
  f.expect_consistent();
  std::uint64_t recoveries = 0;
  for (auto& s : f.stats) recoveries += s.recoveries;
  EXPECT_GT(recoveries, 0u);
}

TEST(CaesarTest, LeaderCrashAfterPartialStable) {
  // Crash while STABLE messages are in flight: some nodes may have the
  // decision, others don't; recovery must finish it identically.
  CaesarConfig cfg;
  cfg.recovery_stagger_us = 20 * kMs;
  Fixture f(5, cfg, net::Topology::lan(5), 22, /*fd_timeout=*/100 * kMs);
  f.submit(0, 77);
  f.submit(0, 78);
  f.sim.at(320, [&f] { f.cluster->crash(0); });  // mid-protocol
  f.sim.run_until(5 * kSec);
  for (NodeId i = 1; i < 5; ++i) {
    EXPECT_EQ(f.logs[i].size(), 2u) << "survivor " << i;
  }
  f.expect_consistent();
  f.expect_timestamp_agreement();
}

TEST(CaesarTest, CrashSweepPreservesConsistency) {
  // Property sweep: crash the leader at many different instants; whatever
  // survivors deliver must be consistent and complete.
  for (Time crash_at : {50, 120, 200, 280, 360, 450, 600, 900}) {
    CaesarConfig cfg;
    cfg.recovery_stagger_us = 20 * kMs;
    Fixture f(5, cfg, net::Topology::lan(5),
              static_cast<std::uint64_t>(crash_at),
              /*fd_timeout=*/100 * kMs);
    for (int i = 0; i < 3; ++i) f.submit(0, static_cast<Key>(i % 2));
    f.submit(1, 0);  // a survivor-led conflicting command
    f.sim.at(crash_at, [&f] { f.cluster->crash(0); });
    f.sim.run_until(8 * kSec);
    // Survivors must agree among themselves...
    for (NodeId i = 1; i < 5; ++i) {
      for (NodeId j = static_cast<NodeId>(i + 1); j < 5; ++j) {
        EXPECT_TRUE(rsm::prefix_consistent_key_orders(f.logs[i], f.logs[j]))
            << "crash_at=" << crash_at << ": survivors " << i << "," << j;
      }
    }
    // ...and must all have delivered the survivor-led command plus every
    // recovered command (node 0's commands were broadcast before the crash
    // for crash_at >= 50us, so at least one survivor knows them).
    for (NodeId i = 2; i < 5; ++i) {
      EXPECT_EQ(f.logs[i].size(), f.logs[1].size())
          << "crash_at=" << crash_at << ": survivor " << i
          << " delivered a different command count";
    }
    EXPECT_GE(f.logs[1].size(), 1u) << "crash_at=" << crash_at;
  }
}

TEST(CaesarTest, AcceptorCrashStillReachesFastQuorum) {
  // With one acceptor down, exactly FQ=4 nodes remain: fast decisions are
  // still possible (all survivors must reply).
  Fixture f(5, CaesarConfig{}, net::Topology::lan(5), 31,
            /*fd_timeout=*/100 * kMs);
  f.cluster->crash(3);
  f.sim.run_until(300 * kMs);  // let suspicion settle
  f.submit(0, 5);
  f.submit(1, 6);
  f.sim.run_until(2 * kSec);
  for (NodeId i : {0u, 1u, 2u, 4u}) {
    EXPECT_EQ(f.logs[i].size(), 2u) << "node " << i;
  }
  EXPECT_EQ(f.total_fast(), 2u);
}

TEST(CaesarTest, TwoCrashesFallBackToSlowProposal) {
  // f=2 crashes: no fast quorum exists; commands must finish via the
  // timeout -> slow proposal -> stable path (paper §V-D).
  CaesarConfig cfg;
  cfg.fast_timeout_us = 30 * kMs;
  Fixture f(5, cfg, net::Topology::lan(5), 32, /*fd_timeout=*/50 * kMs);
  f.cluster->crash(3);
  f.cluster->crash(4);
  f.sim.run_until(200 * kMs);
  f.submit(0, 5);
  f.submit(1, 5);  // conflicting, to exercise pred bookkeeping too
  f.sim.run_until(3 * kSec);
  for (NodeId i : {0u, 1u, 2u}) {
    EXPECT_EQ(f.logs[i].size(), 2u) << "node " << i;
  }
  std::uint64_t slow_props = 0;
  for (auto& s : f.stats) slow_props += s.slow_proposals;
  EXPECT_GE(slow_props, 2u);
  EXPECT_EQ(f.total_fast(), 0u);
  EXPECT_EQ(f.total_slow(), 2u);
  f.expect_consistent();
}

TEST(CaesarTest, GossipGarbageCollectionPrunesHistory) {
  CaesarConfig cfg;
  cfg.gossip_interval_us = 50 * kMs;
  Fixture f(5, cfg);
  for (int i = 0; i < 40; ++i) f.submit(static_cast<NodeId>(i % 5), 1);
  f.sim.run_until(2 * kSec);
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 40u);
  // After everyone gossiped every delivery, histories must have been pruned.
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_LT(f.caesar(i).history_size(), 40u) << "node " << i;
  }
  f.expect_consistent();
}

TEST(CaesarTest, GcKeepsDeliveredSetForDeliverability) {
  CaesarConfig cfg;
  cfg.gossip_interval_us = 20 * kMs;
  Fixture f(5, cfg);
  f.submit(0, 3);
  f.sim.run_until(500 * kMs);
  const CmdId id = f.logs[0].sequence().at(0);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_TRUE(f.caesar(i).is_delivered(id));
  }
  // New conflicting commands must still order fine after pruning.
  f.submit(1, 3);
  f.sim.run_until(1 * kSec);
  for (NodeId i = 0; i < 5; ++i) EXPECT_EQ(f.logs[i].size(), 2u);
  f.expect_consistent();
}

TEST(CaesarTest, StableNamingAPrunedPredecessorDelivers) {
  // GC drops the record of a command delivered everywhere, but a late STABLE
  // may still name it as a predecessor. The pruned id must read as
  // delivered, or the late command would wait for it forever.
  CaesarConfig cfg;
  cfg.gossip_interval_us = 20 * kMs;
  Fixture f(5, cfg);
  f.submit(0, 3);
  f.sim.run_until(500 * kMs);
  const CmdId pruned = f.logs[0].sequence().at(0);
  ASSERT_TRUE(f.caesar(0).is_delivered(pruned));
  ASSERT_EQ(f.caesar(0).history_size(), 0u) << "not pruned yet";

  TimestampedCmdMsg late;
  late.cmd.id = make_cmd_id(1, 1000);
  late.cmd.origin = 1;
  late.cmd.ops.push_back(rsm::Op{3, make_req_id(1, 1000), 1000});
  late.ts = Timestamp{1'000'000, 1};
  late.pred = IdSet{pruned};
  rt::Node& sender = f.cluster->node(1);
  net::Encoder e = sender.encoder();
  late.encode(e);
  sender.send(0, kStable, std::move(e));
  f.sim.run_until(1 * kSec);
  EXPECT_TRUE(f.caesar(0).is_delivered(late.cmd.id));
  ASSERT_EQ(f.logs[0].size(), 2u);
  EXPECT_EQ(f.logs[0].sequence().back(), late.cmd.id);
}

TEST(CaesarTest, GossipLeavesNoCatchupHintsOnceQuiesced) {
  // A command's last delivered-id ack often arrives by gossip and prunes it
  // on the spot. A command delivered here is no evidence of a missed
  // decision, so with catch-up off (nothing drains hints) none may remain.
  CaesarConfig cfg;
  cfg.gossip_interval_us = 20 * kMs;
  Fixture f(5, cfg);
  for (int i = 0; i < 60; ++i) {
    f.submit(static_cast<NodeId>(i % 5), static_cast<Key>(i % 3));
  }
  f.sim.run_until(2 * kSec);
  for (NodeId i = 0; i < 5; ++i) {
    ASSERT_EQ(f.logs[i].size(), 60u);
    EXPECT_EQ(f.caesar(i).catchup_hint_count(), 0u) << "node " << i;
    EXPECT_EQ(f.caesar(i).history_size(), 0u) << "node " << i;
  }
  f.expect_consistent();
}

TEST(CaesarTest, RandomizedSeedSweepInvariants) {
  // Property test: across seeds and conflict levels, every run must satisfy
  // consistency, Theorem 1 and Theorem 2.
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    for (double conflict : {0.1, 0.5, 1.0}) {
      Fixture f(5, CaesarConfig{}, net::Topology::ec2_five_sites(), seed);
      Rng rng(seed * 100 + static_cast<std::uint64_t>(conflict * 10));
      const int total = 50;
      for (int i = 0; i < total; ++i) {
        const NodeId at = static_cast<NodeId>(rng.uniform_int(5));
        const Key key =
            rng.bernoulli(conflict) ? rng.uniform_int(5) : 1000 + i;
        f.sim.at(static_cast<Time>(rng.uniform_int(2000)) * kMs,
                 [&f, at, key] { f.submit(at, key); });
      }
      f.sim.run();
      for (NodeId i = 0; i < 5; ++i) {
        ASSERT_EQ(f.logs[i].size(), static_cast<std::size_t>(total))
            << "seed=" << seed << " conflict=" << conflict << " node=" << i;
      }
      f.expect_consistent();
      f.expect_caesar_invariants();
      f.expect_timestamp_agreement();
    }
  }
}

TEST(CaesarTest, ThreeNodeClusterWorks) {
  // N=3: FQ = ceil(9/4) = 3 (all nodes), CQ = 2.
  Fixture f(3, CaesarConfig{}, net::Topology::lan(3));
  EXPECT_EQ(f.caesar(0).fast_quorum(), 3u);
  for (int i = 0; i < 10; ++i) f.submit(static_cast<NodeId>(i % 3), 1);
  f.sim.run();
  for (NodeId i = 0; i < 3; ++i) ASSERT_EQ(f.logs[i].size(), 10u);
  f.expect_consistent();
  f.expect_caesar_invariants();
}

TEST(CaesarTest, SevenNodeClusterWorks) {
  Fixture f(7, CaesarConfig{}, net::Topology::lan(7));
  EXPECT_EQ(f.caesar(0).fast_quorum(), 6u);
  EXPECT_EQ(f.caesar(0).classic_quorum(), 4u);
  for (int i = 0; i < 21; ++i) f.submit(static_cast<NodeId>(i % 7), i % 3);
  f.sim.run();
  for (NodeId i = 0; i < 7; ++i) ASSERT_EQ(f.logs[i].size(), 21u);
  f.expect_consistent();
  f.expect_caesar_invariants();
}

TEST(CaesarTest, BatchedCompositeCommandsOrderConsistently) {
  // Composite (multi-key) commands conflict through any shared key.
  Fixture f(5);
  auto submit_multi = [&f](NodeId at, std::initializer_list<Key> keys) {
    rsm::Command c;
    for (Key k : keys) {
      c.ops.push_back(rsm::Op{k, make_req_id(at, ++f.req), 0});
    }
    f.cluster->node(at).submit(std::move(c));
    ++f.submitted;
  };
  submit_multi(0, {1, 2});
  submit_multi(1, {2, 3});
  submit_multi(2, {3, 4});
  submit_multi(3, {9});
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 4u);
  f.expect_consistent();
  f.expect_caesar_invariants();
}

}  // namespace
}  // namespace caesar::core
