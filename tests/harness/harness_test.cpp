// Harness-level integration tests: every protocol runs the paper's workload
// end-to-end, stays consistent, and shows the latency relationships the
// paper's evaluation is built on.
#include <gtest/gtest.h>

#include "harness/oracle.h"
#include "harness/scenario.h"

namespace caesar::harness {
namespace {

Scenario small_scenario(ProtocolKind kind, double conflict) {
  Scenario cfg;
  cfg.protocol = kind;
  cfg.workload.clients_per_site = 4;
  cfg.workload.conflict_fraction = conflict;
  cfg.duration = 5 * kSec;
  cfg.warmup = 1 * kSec;
  cfg.seed = 42;
  return cfg;
}

class AllProtocols : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AllProtocols, CompletesAndStaysConsistentNoConflicts) {
  RunReport r = run_scenario(small_scenario(GetParam(), 0.0));
  EXPECT_GT(r.completed, 100u) << to_string(GetParam());
  EXPECT_TRUE(r.consistent) << to_string(GetParam());
  EXPECT_GT(r.throughput_tps, 0.0);
  EXPECT_GT(r.total_latency.mean(), 0.0);
}

TEST_P(AllProtocols, CompletesAndStaysConsistentHighConflicts) {
  RunReport r = run_scenario(small_scenario(GetParam(), 0.5));
  EXPECT_GT(r.completed, 50u) << to_string(GetParam());
  EXPECT_TRUE(r.consistent) << to_string(GetParam());
}

TEST_P(AllProtocols, DeterministicInSeed) {
  RunReport a = run_scenario(small_scenario(GetParam(), 0.3));
  RunReport b = run_scenario(small_scenario(GetParam(), 0.3));
  EXPECT_EQ(a.completed, b.completed) << to_string(GetParam());
  EXPECT_DOUBLE_EQ(a.total_latency.mean(), b.total_latency.mean());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllProtocols,
    ::testing::Values(ProtocolKind::kCaesar, ProtocolKind::kEPaxos,
                      ProtocolKind::kM2Paxos, ProtocolKind::kMencius,
                      ProtocolKind::kMultiPaxos),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(to_string(info.param));
    });

// The cheapest known reproduction of M2Paxos deciding two commands at one
// key position (ROADMAP.md, the M2Paxos item): the high-conflict run above
// passes the common-order check behind RunReport::consistent, but the
// per-key prefix oracle finds nodes 0 and 1 disagreeing at key 70, position
// 0 (c(0.1) vs c(1.3)). Enable it with the ownership-acquisition fix.
TEST(HarnessTest, DISABLED_M2PaxosHighConflictsPassThePrefixOracle) {
  const RunReport r =
      run_scenario(small_scenario(ProtocolKind::kM2Paxos, 0.5));
  const ConsistencyVerdict v = check_cluster_consistency(r, {false, false});
  EXPECT_TRUE(v) << v.detail;
}

TEST(HarnessTest, SiteMetricsCoverAllFiveSites) {
  RunReport r = run_scenario(small_scenario(ProtocolKind::kCaesar, 0.0));
  ASSERT_EQ(r.sites.size(), 5u);
  EXPECT_EQ(r.sites[0].name, "Virginia");
  EXPECT_EQ(r.sites[4].name, "Mumbai");
  for (const auto& s : r.sites) {
    EXPECT_GT(s.latency.count(), 0u) << s.name;
  }
}

TEST(HarnessTest, CaesarLatencyIsQuorumBoundNotSlowestNode) {
  // Paper Fig 7: Mencius performs as the slowest node (~RTT to Mumbai);
  // CAESAR needs only its fast quorum.
  RunReport caesar =
      run_scenario(small_scenario(ProtocolKind::kCaesar, 0.0));
  RunReport mencius =
      run_scenario(small_scenario(ProtocolKind::kMencius, 0.0));
  // Virginia: CAESAR FQ reaches OH/IR/DE (max RTT 88ms), Mencius waits for
  // Mumbai-dependent slot resolution under load.
  EXPECT_LT(caesar.sites[0].latency.mean(), mencius.sites[0].latency.mean());
}

TEST(HarnessTest, MultiPaxosLeaderPlacementMatters) {
  // Paper Fig 7: Multi-Paxos with the leader in Mumbai is far slower than
  // with the leader in Ireland.
  Scenario ir = small_scenario(ProtocolKind::kMultiPaxos, 0.0);
  ir.multipaxos.leader = 3;  // Ireland
  Scenario in = small_scenario(ProtocolKind::kMultiPaxos, 0.0);
  in.multipaxos.leader = 4;  // Mumbai
  RunReport r_ir = run_scenario(ir);
  RunReport r_in = run_scenario(in);
  EXPECT_LT(r_ir.total_latency.mean(), r_in.total_latency.mean());
}

TEST(HarnessTest, CaesarTakesFewerSlowPathsThanEPaxos) {
  // Paper Fig 10: at 30% conflicts CAESAR's slow-path fraction is a small
  // fraction of EPaxos'.
  RunReport caesar =
      run_scenario(small_scenario(ProtocolKind::kCaesar, 0.3));
  RunReport epaxos =
      run_scenario(small_scenario(ProtocolKind::kEPaxos, 0.3));
  EXPECT_LT(caesar.slow_path_pct(), epaxos.slow_path_pct());
}

TEST(HarnessTest, CrashInjectionKeepsSurvivorsConsistent) {
  Scenario cfg = small_scenario(ProtocolKind::kCaesar, 0.1);
  cfg.faults.push_back(FaultEvent::Crash(2, 2 * kSec));
  cfg.fd_timeout_us = 300 * kMs;
  RunReport r = run_scenario(cfg);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.completed, 50u);
  // Throughput must resume after the crash: completions exist late in the run.
  const std::size_t buckets = r.timeline.bucket_count();
  ASSERT_GT(buckets, 0u);
  EXPECT_GT(r.timeline.value_at(buckets - 1), 0.0);
}

TEST(HarnessTest, BatchingIncreasesThroughputUnderLoad) {
  // Batching only pays off once nodes are CPU-saturated (paper Fig 9 bottom:
  // batched throughput is ~an order of magnitude higher at saturation).
  // Conflict-free workload: batch-vs-batch conflicts would otherwise mask
  // the CPU effect (a 50-op batch at 2% per-op conflict almost always
  // intersects the shared pool).
  Scenario plain = small_scenario(ProtocolKind::kCaesar, 0.0);
  plain.workload.clients_per_site = 600;
  plain.node.base_service_us = 20;
  plain.duration = 4 * kSec;
  plain.warmup = 1 * kSec;
  plain.caesar.gossip_interval_us = 100 * kMs;  // GC: keep indexes bounded
  Scenario batched = plain;
  batched.node.batching = true;
  batched.node.batch_delay_us = 3 * kMs;
  batched.node.batch_max_ops = 128;
  RunReport r_plain = run_scenario(plain);
  RunReport r_batch = run_scenario(batched);
  EXPECT_GT(r_batch.throughput_tps, r_plain.throughput_tps);
}

}  // namespace
}  // namespace caesar::harness
