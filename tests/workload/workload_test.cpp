#include <gtest/gtest.h>

#include "multipaxos/multipaxos.h"
#include "shard/shard_router.h"
#include "shard/sharded_cluster.h"
#include "workload/client_pool.h"
#include "workload/key_chooser.h"

namespace caesar::wl {
namespace {

TEST(KeyChooserTest, ZeroConflictNeverTouchesSharedPool) {
  Rng rng(1);
  KeyChooser chooser(KeyDistConfig{}, 0.0, 100, /*global_client_id=*/7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(chooser.next(rng), 1ull << 40);  // private range
  }
}

TEST(KeyChooserTest, FullConflictAlwaysSharedPool) {
  Rng rng(1);
  KeyChooser chooser(KeyDistConfig{}, 1.0, 100, 7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(chooser.next(rng), 100u);
  }
}

TEST(KeyChooserTest, ConflictFractionIsRespected) {
  Rng rng(99);
  KeyChooser chooser(KeyDistConfig{}, 0.3, 100, 7);
  int shared = 0;
  const int total = 20000;
  for (int i = 0; i < total; ++i) {
    if (chooser.next(rng) < 100) ++shared;
  }
  const double fraction = static_cast<double>(shared) / total;
  EXPECT_NEAR(fraction, 0.3, 0.02);
}

TEST(KeyChooserTest, DistinctClientsHaveDisjointPrivateKeys) {
  Rng rng(1);
  KeyChooser a(KeyDistConfig{}, 0.0, 100, 1);
  KeyChooser b(KeyDistConfig{}, 0.0, 100, 2);
  std::set<Key> ka, kb;
  for (int i = 0; i < 64; ++i) {
    ka.insert(a.next(rng));
    kb.insert(b.next(rng));
  }
  for (Key k : ka) EXPECT_EQ(kb.count(k), 0u);
}

/// A pool driving a 3-site Multi-Paxos cluster (leader 0) through the
/// frontend harness::run_scenario uses: a one-group shard::ShardedCluster
/// behind a shard::ShardRouter.
struct PoolFixture {
  explicit PoolFixture(WorkloadConfig wcfg, std::uint64_t seed = 5,
                       std::vector<PhaseSpec> phases = {})
      : sim(seed),
        cluster(sim, net::Topology::lan(3), rt::ClusterConfig{}, 1,
                [](std::uint32_t) -> rt::Cluster::ProtocolFactory {
                  return [](rt::Env& env, rt::Protocol::DeliverFn deliver) {
                    return std::make_unique<mpaxos::MultiPaxos>(
                        env, std::move(deliver), mpaxos::MultiPaxosConfig{0},
                        nullptr);
                  };
                },
                [this](std::uint32_t g, NodeId node, const rsm::Command& cmd) {
                  router.on_delivery(g, node, cmd);
                  if (pool) pool->on_delivery(node, cmd);
                }),
        router(cluster, shard::ShardMap(shard::ShardSpec{},
                                        wcfg.key_dist.keyspace)) {
    pool = std::make_unique<ClientPool>(sim, router, wcfg, sim.rng().fork(),
                                        std::move(phases));
    router.set_loss_hook([this](ReqId req) { pool->on_request_lost(req); });
    cluster.start();
  }

  /// A whole-site crash, told to the pool before the router, as
  /// run_scenario does.
  void crash(NodeId n) {
    cluster.crash(/*group=*/-1, n);  // every group
    pool->on_node_crashed(n);
    router.on_group_node_crashed(0, n);
  }
  void recover(NodeId n) {
    cluster.recover(/*group=*/-1, n);
    pool->on_node_recovered(n);
  }

  sim::Simulator sim;
  shard::ShardedCluster cluster;
  shard::ShardRouter router;
  std::unique_ptr<ClientPool> pool;
};

TEST(ClientPoolTest, ClosedLoopKeepsOneRequestInFlightPerClient) {
  WorkloadConfig wcfg;
  wcfg.clients_per_site = 2;  // 6 clients total
  PoolFixture f(wcfg);
  f.pool->start();
  f.sim.run_until(200 * kMs);
  // Every completion triggers the next submission: submitted is at most
  // completed + one in-flight per client.
  EXPECT_GT(f.pool->completed(), 0u);
  EXPECT_LE(f.pool->submitted(), f.pool->completed() + 6);
  EXPECT_GE(f.pool->submitted(), f.pool->completed());
}

TEST(ClientPoolTest, CompletionHookSeesMonotoneTimes) {
  WorkloadConfig wcfg;
  wcfg.clients_per_site = 1;
  PoolFixture f(wcfg);
  Time last_complete = -1;
  bool monotone_per_client = true;
  f.pool->set_completion_hook([&](const Completion& c) {
    EXPECT_LE(c.submit_time, c.complete_time);
    if (c.complete_time < last_complete) monotone_per_client = false;
    last_complete = c.complete_time;
  });
  f.pool->start();
  f.sim.run_until(100 * kMs);
  EXPECT_GT(f.pool->completed(), 0u);
}

TEST(ClientPoolTest, ThinkTimeSlowsClients) {
  WorkloadConfig fast_cfg;
  fast_cfg.clients_per_site = 2;
  WorkloadConfig slow_cfg = fast_cfg;
  slow_cfg.think_us = 20 * kMs;
  PoolFixture fast(fast_cfg), slow(slow_cfg);
  fast.pool->start();
  slow.pool->start();
  fast.sim.run_until(500 * kMs);
  slow.sim.run_until(500 * kMs);
  EXPECT_GT(fast.pool->completed(), 2 * slow.pool->completed());
}

TEST(ClientPoolTest, OpenLoopSubmitsIndependentlyOfCompletions) {
  WorkloadConfig wcfg;
  const double rate = 500.0;  // cmd/s across the 3-site LAN cluster
  PoolFixture f(wcfg, /*seed=*/5, {PhaseSpec::open_loop(0, rate)});
  f.pool->start();
  f.sim.run_until(2 * kSec);
  // Submissions track the Poisson arrival rate, not the completion rate.
  EXPECT_NEAR(static_cast<double>(f.pool->submitted()), 2.0 * rate,
              0.2 * rate);
  EXPECT_GT(f.pool->completed(), 0u);
  // Open-loop arrivals never wait for completions.
  EXPECT_EQ(f.pool->active_client_count(), 0u);
}

TEST(ClientPoolTest, PhaseSwitchClosedToOpenToClosed) {
  WorkloadConfig wcfg;
  PoolFixture f(wcfg, /*seed=*/5,
                {PhaseSpec::closed_loop(0, 2),
                 PhaseSpec::open_loop(300 * kMs, 400.0),
                 PhaseSpec::closed_loop(600 * kMs, 1)});
  f.pool->start();
  f.sim.run_until(250 * kMs);
  EXPECT_EQ(f.pool->active_client_count(), 6u);  // 2 clients x 3 sites
  const std::uint64_t closed_submitted = f.pool->submitted();
  EXPECT_LE(closed_submitted, f.pool->completed() + 6);

  f.sim.run_until(550 * kMs);
  EXPECT_EQ(f.pool->active_client_count(), 0u);
  EXPECT_GT(f.pool->submitted(), closed_submitted + 50);  // Poisson arrivals

  f.sim.run_until(2 * kSec);
  // Back to closed loop with 1 client/site: in-flight bounded again.
  EXPECT_EQ(f.pool->active_client_count(), 3u);
  EXPECT_GE(f.pool->completed() + 6, f.pool->submitted() - 3);
}

TEST(ClientPoolTest, WholeClusterDownParksClientsWithoutFaulting) {
  WorkloadConfig wcfg;
  wcfg.clients_per_site = 2;
  wcfg.reconnect_delay_us = 20 * kMs;
  PoolFixture f(wcfg);
  f.pool->start();
  f.sim.run_until(100 * kMs);
  for (NodeId n = 0; n < 3; ++n) f.crash(n);
  const std::uint64_t at_blackout = f.pool->completed();
  f.sim.run_until(500 * kMs);  // must not dereference a kNoNode home
  EXPECT_EQ(f.pool->completed(), at_blackout);

  // Recovery of a majority (leader included) ends the blackout: parked
  // clients reconnect and commands commit again.
  f.recover(0);
  f.recover(1);
  f.sim.run_until(1500 * kMs);
  EXPECT_GT(f.pool->completed(), at_blackout + 20);
}

TEST(ClientPoolTest, OpenLoopDivertsArrivalsFromCrashedSite) {
  WorkloadConfig wcfg;
  PoolFixture f(wcfg, /*seed=*/5, {PhaseSpec::open_loop(0, 300.0)});
  f.pool->start();
  f.sim.run_until(200 * kMs);
  f.crash(2);
  const std::uint64_t before = f.pool->completed();
  f.sim.run_until(1 * kSec);
  // Arrivals destined for the crashed site complete via live sites instead.
  EXPECT_GT(f.pool->completed(), before + 100);
}

TEST(ClientPoolTest, CrashedSiteClientsReconnectElsewhere) {
  WorkloadConfig wcfg;
  wcfg.clients_per_site = 2;
  wcfg.reconnect_delay_us = 50 * kMs;
  PoolFixture f(wcfg);
  f.pool->start();
  f.sim.run_until(100 * kMs);
  const std::uint64_t before = f.pool->completed();
  // Crash a non-leader site (leader is node 0).
  f.crash(2);
  f.sim.run_until(600 * kMs);
  // All six clients keep completing (the two from node 2 now via others).
  EXPECT_GT(f.pool->completed(), before + 50);
}

}  // namespace
}  // namespace caesar::wl
