// EPaxos baseline tests: the Generalized Consensus contract, fast/slow path
// accounting, SCC execution order and crash recovery.
#include "epaxos/epaxos.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "rsm/delivery_log.h"
#include "runtime/cluster.h"

namespace caesar::epaxos {
namespace {

struct Fixture {
  explicit Fixture(std::size_t n, EPaxosConfig ecfg = {},
                   net::Topology topo = net::Topology::lan(5),
                   std::uint64_t seed = 17, Time fd_timeout = 200 * kMs)
      : sim(seed), stats(n), logs(n) {
    EXPECT_EQ(topo.size(), n);
    rt::ClusterConfig cfg;
    cfg.fd_timeout_us = fd_timeout;
    cluster = std::make_unique<rt::Cluster>(
        sim, topo, cfg,
        [&, ecfg](rt::Env& env, rt::Protocol::DeliverFn deliver) {
          return std::make_unique<EPaxos>(env, std::move(deliver), ecfg,
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

  EPaxos& epaxos(NodeId i) {
    return static_cast<EPaxos&>(cluster->node(i).protocol());
  }

  void expect_consistent() {
    for (std::size_t i = 0; i < logs.size(); ++i) {
      for (std::size_t j = i + 1; j < logs.size(); ++j) {
        EXPECT_TRUE(rsm::prefix_consistent_key_orders(logs[i], logs[j]))
            << "nodes " << i << " and " << j << " diverge";
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
};

TEST(EPaxosTest, FastQuorumIsThreeOfFive) {
  Fixture f(5);
  EXPECT_EQ(f.epaxos(0).fast_quorum(), 3u);
}

TEST(EPaxosTest, SingleCommandCommitsFastAndExecutesEverywhere) {
  Fixture f(5);
  f.submit(0, 42);
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 1u);
  EXPECT_EQ(f.total_fast(), 1u);
  EXPECT_EQ(f.total_slow(), 0u);
}

TEST(EPaxosTest, NonConflictingCommandsAllFast) {
  Fixture f(5);
  for (NodeId n = 0; n < 5; ++n) {
    for (int i = 0; i < 10; ++i) f.submit(n, 1000 + n * 100 + i);
  }
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 50u);
  EXPECT_EQ(f.total_fast(), 50u);
  f.expect_consistent();
}

TEST(EPaxosTest, ConflictingConcurrentCommandsTakeSlowPath) {
  // Two far-apart replicas propose on the same key at the same time: the
  // interference attributes differ across the quorum, which (unlike CAESAR)
  // forces the Accept round.
  Fixture f(5, EPaxosConfig{}, net::Topology::ec2_five_sites());
  f.submit(0, 7);
  f.submit(4, 7);
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 2u);
  f.expect_consistent();
  EXPECT_GE(f.total_slow(), 1u);
}

TEST(EPaxosTest, HeavyConflictSingleKeyStaysConsistent) {
  Fixture f(5);
  for (int round = 0; round < 20; ++round) {
    for (NodeId n = 0; n < 5; ++n) f.submit(n, 1);
  }
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 100u);
  f.expect_consistent();
}

TEST(EPaxosTest, MutualDependenciesDeliverInSeqThenIdOrder) {
  // Two instances that list each other in their deps share a strongly
  // connected component, and EPaxos executes a component in (seq, instance
  // id) order: every node must deliver the lower of the pair first. Only
  // mutual pairs are checked: inside a larger component a one-way edge can
  // legitimately run against its direction.
  for (std::uint64_t seed : {17ull, 1ull, 2ull}) {
    Fixture f(5, EPaxosConfig{}, net::Topology::lan(5), seed);
    for (int round = 0; round < 20; ++round) {
      for (NodeId n = 0; n < 5; ++n) f.submit(n, 1);
    }
    f.sim.run();
    // Batching is off, so node n's k-th command is its instance (n, k), and
    // both carry the same id.
    std::vector<InstanceId> iids;
    for (NodeId n = 0; n < 5; ++n) {
      for (std::uint64_t slot = 1; slot <= 20; ++slot) {
        iids.push_back(make_iid(n, slot));
      }
    }
    std::vector<std::map<CmdId, std::size_t>> position(5);
    for (NodeId i = 0; i < 5; ++i) {
      const auto order = f.logs[i].key_sequence(1);
      for (std::size_t p = 0; p < order.size(); ++p) position[i][order[p]] = p;
      ASSERT_EQ(position[i].size(), 100u) << "seed " << seed << " node " << i;
    }
    // Committed attributes are the same on every node; read node 0's.
    const EPaxos& ep = f.epaxos(0);
    std::size_t mutual = 0;
    for (InstanceId a : iids) {
      const IdSet deps_a = ep.deps_of(a);
      for (InstanceId b : iids) {
        if (b <= a || !deps_a.contains(b) || !ep.deps_of(b).contains(a)) {
          continue;
        }
        ++mutual;
        const bool a_first =
            std::pair(ep.seq_of(a), a) < std::pair(ep.seq_of(b), b);
        const InstanceId first = a_first ? a : b;
        const InstanceId second = a_first ? b : a;
        for (NodeId i = 0; i < 5; ++i) {
          ASSERT_EQ(position[i].count(first), 1u);
          ASSERT_EQ(position[i].count(second), 1u);
          EXPECT_LT(position[i][first], position[i][second])
              << "seed " << seed << " node " << i << ": " << first
              << " (seq " << ep.seq_of(first) << ") vs " << second << " (seq "
              << ep.seq_of(second) << ")";
        }
      }
    }
    EXPECT_GE(mutual, 1u) << "seed " << seed << ": no mutual pair to check";
  }
}

TEST(EPaxosTest, SequentialConflictsStayFast) {
  // Conflicting but *sequential* commands (each proposed after the previous
  // committed) never disagree on deps, so they stay on the fast path.
  Fixture f(5);
  for (int i = 0; i < 10; ++i) {
    f.sim.at(static_cast<Time>(i) * 50 * kMs, [&f, i] {
      f.submit(static_cast<NodeId>(i % 5), 1);
    });
  }
  f.sim.run();
  for (NodeId i = 0; i < 5; ++i) ASSERT_EQ(f.logs[i].size(), 10u);
  EXPECT_EQ(f.total_fast(), 10u);
  f.expect_consistent();
}

TEST(EPaxosTest, ExecutionFollowsDependencyOrder) {
  // Sequential conflicting commands must execute in submission order on
  // every node (each depends on the previous).
  Fixture f(5);
  for (int i = 0; i < 5; ++i) {
    f.sim.at(static_cast<Time>(i) * 20 * kMs, [&f, i] {
      f.submit(static_cast<NodeId>(i), 3);
    });
  }
  f.sim.run();
  const auto key3 = [&f](NodeId i) {
    const auto ids = f.logs[i].key_sequence(3);
    return std::vector<CmdId>(ids.begin(), ids.end());
  };
  const std::vector<CmdId> seq0 = key3(0);
  ASSERT_EQ(seq0.size(), 5u);
  for (NodeId i = 1; i < 5; ++i) {
    EXPECT_EQ(key3(i), seq0);
  }
  // Submission order: origins 0,1,2,3,4.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(cmd_origin(seq0[i]), static_cast<NodeId>(i));
  }
}

TEST(EPaxosTest, RandomizedSeedSweepConsistency) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    for (double conflict : {0.1, 0.5, 1.0}) {
      Fixture f(5, EPaxosConfig{}, net::Topology::ec2_five_sites(), seed);
      Rng rng(seed * 31 + static_cast<std::uint64_t>(conflict * 10));
      const int total = 50;
      for (int i = 0; i < total; ++i) {
        const NodeId at = static_cast<NodeId>(rng.uniform_int(5));
        const Key key = rng.bernoulli(conflict) ? rng.uniform_int(5) : 1000 + i;
        f.sim.at(static_cast<Time>(rng.uniform_int(2000)) * kMs,
                 [&f, at, key] { f.submit(at, key); });
      }
      f.sim.run();
      for (NodeId i = 0; i < 5; ++i) {
        ASSERT_EQ(f.logs[i].size(), static_cast<std::size_t>(total))
            << "seed=" << seed << " conflict=" << conflict << " node=" << i;
      }
      f.expect_consistent();
    }
  }
}

TEST(EPaxosTest, LeaderCrashBeforeCommitIsRecovered) {
  EPaxosConfig cfg;
  cfg.recovery_stagger_us = 20 * kMs;
  Fixture f(5, cfg, net::Topology::lan(5), 21, /*fd_timeout=*/100 * kMs);
  f.submit(0, 77);
  f.sim.at(150, [&f] { f.cluster->crash(0); });  // after PreAccept broadcast
  f.sim.run_until(5 * kSec);
  for (NodeId i = 1; i < 5; ++i) {
    EXPECT_EQ(f.logs[i].size(), 1u) << "survivor " << i;
  }
  std::uint64_t recoveries = 0;
  for (auto& s : f.stats) recoveries += s.recoveries;
  EXPECT_GT(recoveries, 0u);
  f.expect_consistent();
}

TEST(EPaxosTest, CrashSweepPreservesSurvivorConsistency) {
  for (Time crash_at : {60, 150, 250, 400, 700}) {
    EPaxosConfig cfg;
    cfg.recovery_stagger_us = 20 * kMs;
    Fixture f(5, cfg, net::Topology::lan(5),
              static_cast<std::uint64_t>(crash_at), /*fd_timeout=*/100 * kMs);
    for (int i = 0; i < 3; ++i) f.submit(0, static_cast<Key>(i % 2));
    f.submit(1, 0);
    f.sim.at(crash_at, [&f] { f.cluster->crash(0); });
    f.sim.run_until(8 * kSec);
    for (NodeId i = 1; i < 5; ++i) {
      for (NodeId j = static_cast<NodeId>(i + 1); j < 5; ++j) {
        EXPECT_TRUE(rsm::prefix_consistent_key_orders(f.logs[i], f.logs[j]))
            << "crash_at=" << crash_at << " nodes " << i << "," << j;
      }
    }
    for (NodeId i = 2; i < 5; ++i) {
      EXPECT_EQ(f.logs[i].size(), f.logs[1].size()) << "crash_at=" << crash_at;
    }
    EXPECT_GE(f.logs[1].size(), 1u);
  }
}

TEST(EPaxosTest, CommitStateIsObservable) {
  Fixture f(5);
  f.submit(2, 9);
  f.sim.run();
  const InstanceId iid = make_iid(2, 1);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_TRUE(f.epaxos(i).is_committed(iid)) << "node " << i;
    EXPECT_TRUE(f.epaxos(i).is_executed(iid)) << "node " << i;
  }
}

TEST(EPaxosTest, DepsChainThroughConflicts) {
  // Key 0 as well: it is the first key of every shared key pool, and the
  // interference index keeps it outside its id table.
  for (Key key : {Key{5}, Key{0}}) {
    Fixture f(5);
    f.submit(0, key);
    f.sim.run();
    f.submit(1, key);
    f.sim.run();
    // The second instance must depend (possibly transitively) on the first.
    const InstanceId first = make_iid(0, 1);
    const InstanceId second = make_iid(1, 1);
    EXPECT_TRUE(f.epaxos(2).deps_of(second).contains(first)) << "key " << key;
    EXPECT_GT(f.epaxos(2).seq_of(second), f.epaxos(2).seq_of(first))
        << "key " << key;
  }
}

}  // namespace
}  // namespace caesar::epaxos
