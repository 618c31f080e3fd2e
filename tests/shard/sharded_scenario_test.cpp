// Sharded scenario tests: per-group rollups sum to the run totals,
// the JSON report carries the router/shards sections (and classic runs do
// not), same seed reproduces the same bytes, multiple groups outscale one,
// and asymmetric group-scoped faults leave the other groups running while
// every group still passes the consistency oracle.
#include <gtest/gtest.h>

#include <string>

#include "harness/oracle.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "harness/scenario_file.h"
#include "net/topology.h"

namespace caesar::harness {
namespace {

Scenario small_sharded(std::uint32_t shards, std::uint64_t seed = 5) {
  return ScenarioBuilder("sharded-small")
      .protocol(ProtocolKind::kMencius)
      .topology(net::Topology::lan(3))
      .clients_per_site(6)
      .uniform_keys(1ull << 10)
      .shards(shards)
      .duration(3 * kSec)
      .warmup(500 * kMs)
      .seed(seed)
      .build();
}

const stats::MetricsWindow* window_at(
    const std::vector<stats::MetricsWindow>& ws, Time t) {
  for (const auto& w : ws) {
    if (t >= w.begin && t < w.end) return &w;
  }
  return nullptr;
}

TEST(ShardedScenarioTest, RollupSumsMatchRunTotals) {
  RunReport r = run_scenario(small_sharded(2));
  ASSERT_TRUE(r.sharded());
  ASSERT_EQ(r.shards.size(), 2u);

  std::uint64_t routed = 0, completed = 0, messages = 0, bytes = 0;
  for (const ShardMetrics& sm : r.shards) {
    EXPECT_GT(sm.routed, 0u) << "group " << sm.group;
    EXPECT_GT(sm.completed, 0u) << "group " << sm.group;
    routed += sm.routed;
    completed += sm.completed;
    messages += sm.messages;
    bytes += sm.bytes;
  }
  EXPECT_EQ(routed, r.submitted);
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(messages, r.messages);
  EXPECT_EQ(bytes, r.bytes);
  EXPECT_EQ(r.router.partition, "hash");
  EXPECT_TRUE(r.consistent);
}

TEST(ShardedScenarioTest, RangeShardingSplitsTheWorkloadKeyspace) {
  // Range partitioning splits the workload's keyspace however the scenario
  // spells it: keys set before or after the shard count, or a file (which
  // starts from a registered 5-site LAN scenario for its topology).
  auto builder = [] {
    ScenarioBuilder b("sharded-range");
    b.protocol(ProtocolKind::kMencius)
        .topology(net::Topology::lan(3))
        .clients_per_site(6)
        .duration(1 * kSec)
        .warmup(200 * kMs)
        .seed(5);
    return b;
  };
  const Scenario spellings[] = {
      builder().uniform_keys(1024).shards(3, shard::Partition::kRange).build(),
      builder().shards(3, shard::Partition::kRange).uniform_keys(1024).build(),
      scenario_from_json(R"({"base": "sharded-saturation",
                             "clients_per_site": 6, "duration_s": 1,
                             "warmup_s": 0.2, "seed": 5,
                             "shards": {"count": 3, "partition": "range"},
                             "key_dist": {"keyspace": 1024}})",
                         "test.json"),
  };
  for (const Scenario& s : spellings) {
    const RunReport r = run_scenario(s);
    ASSERT_EQ(r.shards.size(), 3u);
    for (const ShardMetrics& sm : r.shards) {
      EXPECT_GT(sm.routed, 0u) << s.name << " group " << sm.group;
    }
  }
}

TEST(ShardedScenarioTest, OraclePassesAndStoreReassembles) {
  // Store convergence is only a fair check after a quiesce tail drained the
  // in-flight commands (see ConsistencyOptions::require_converged_stores).
  Scenario s = ScenarioBuilder("sharded-small-quiesced")
                   .protocol(ProtocolKind::kMencius)
                   .topology(net::Topology::lan(3))
                   .closed_loop(0, 6)
                   .quiesce(2 * kSec)
                   .uniform_keys(1ull << 10)
                   .shards(2)
                   .duration(3 * kSec)
                   .warmup(500 * kMs)
                   .seed(5)
                   .build();
  RunReport r = run_scenario(s);
  const ConsistencyVerdict v = check_sharded_consistency(r);
  EXPECT_TRUE(v) << v.detail;
  // check_cluster_consistency dispatches to the sharded oracle by itself.
  EXPECT_TRUE(check_cluster_consistency(r));

  std::string err;
  rsm::KvStore whole = reassemble_sharded_store(r, &err);
  EXPECT_TRUE(err.empty()) << err;
  std::size_t group_keys = 0;
  for (const ShardMetrics& sm : r.shards) {
    ASSERT_FALSE(sm.stores.empty());
    group_keys += sm.stores.front().key_count();
  }
  EXPECT_EQ(whole.key_count(), group_keys);
  EXPECT_GT(whole.key_count(), 0u);
}

TEST(ShardedScenarioTest, ClassicRunReportCarriesNoShardSections) {
  RunReport r = run_scenario(small_sharded(1));  // count 1 = classic path
  EXPECT_FALSE(r.sharded());
  const std::string json = to_json(r);
  EXPECT_EQ(json.find("\"router\""), std::string::npos);
  EXPECT_EQ(json.find("\"shards\""), std::string::npos);
}

TEST(ShardedScenarioTest, ShardedJsonCarriesRouterAndShardSections) {
  RunReport r = run_scenario(small_sharded(2));
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"router\":{"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":["), std::string::npos);
  EXPECT_NE(json.find("\"partition\":\"hash\""), std::string::npos);
  EXPECT_NE(json.find("\"group\":0"), std::string::npos);
  EXPECT_NE(json.find("\"group\":1"), std::string::npos);
}

TEST(ShardedScenarioTest, SameSeedReproducesIdenticalJson) {
  RunReport a = run_scenario(small_sharded(2, /*seed=*/21));
  RunReport b = run_scenario(small_sharded(2, /*seed=*/21));
  EXPECT_EQ(to_json(a), to_json(b));

  RunReport c = run_scenario(small_sharded(2, /*seed=*/22));
  EXPECT_NE(to_json(a), to_json(c));  // the seed actually matters
}

TEST(ShardedScenarioTest, FourGroupsOutscaleOneUnderSaturation) {
  auto saturated = [](std::uint32_t shards) {
    return ScenarioBuilder("sharded-scale")
        .protocol(ProtocolKind::kMencius)
        .topology(net::Topology::lan(3))
        .clients_per_site(60)
        .uniform_keys(1ull << 14)
        .shards(shards)
        .duration(2 * kSec)
        .warmup(500 * kMs)
        .seed(13)
        .build();
  };
  RunReport one = run_scenario(saturated(1));
  RunReport four = run_scenario(saturated(4));
  ASSERT_GT(one.throughput_tps, 0.0);
  EXPECT_GT(four.throughput_tps, 2.0 * one.throughput_tps)
      << "1 group: " << one.throughput_tps
      << " tps, 4 groups: " << four.throughput_tps << " tps";
}

TEST(ShardedScenarioTest, GroupScopedCrashLeavesOtherGroupRunning) {
  Scenario s = ScenarioBuilder("sharded-asym-crash")
                   .protocol(ProtocolKind::kMencius)
                   .topology(net::Topology::lan(3))
                   .clients_per_site(6)
                   .uniform_keys(1ull << 10)
                   .closed_loop(0, 6)
                   .quiesce(6 * kSec)
                   .shards(2)
                   .crash(1, 2 * kSec, /*group=*/1)
                   .recover(1, 4 * kSec, /*group=*/1)
                   .metrics_window(1 * kSec)
                   .duration(9 * kSec)
                   .warmup(500 * kMs)
                   .seed(31)
                   .build();
  RunReport r = run_scenario(s);
  ASSERT_TRUE(r.sharded());

  // Every group passes its oracle after the heal + quiesce tail, and the
  // reassembled keyspace is disjoint.
  const ConsistencyVerdict v = check_sharded_consistency(r);
  EXPECT_TRUE(v) << v.detail;
  EXPECT_TRUE(r.consistent);

  // Group 0 throughput during group 1's outage stays near its pre-fault
  // level: the fault is isolated.
  const stats::MetricsWindow* pre = window_at(r.shards[0].windows, 1 * kSec);
  const stats::MetricsWindow* mid = window_at(r.shards[0].windows, 3 * kSec);
  ASSERT_NE(pre, nullptr);
  ASSERT_NE(mid, nullptr);
  ASSERT_GT(pre->latency.count(), 0u);
  EXPECT_GT(static_cast<double>(mid->latency.count()),
            0.5 * static_cast<double>(pre->latency.count()));

  // The crash was group-scoped: the router diverted site 1's group-1 traffic
  // instead of declaring the site dead.
  EXPECT_GT(r.router.reroutes, 0u);
  EXPECT_GT(r.shards[1].fd_suspicions, 0u);
  EXPECT_EQ(r.shards[0].fd_suspicions, 0u);
}

TEST(ShardedScenarioTest, GroupScopedPartitionHealsConsistently) {
  Scenario s = ScenarioBuilder("sharded-asym-partition")
                   .protocol(ProtocolKind::kMencius)
                   .topology(net::Topology::lan(3))
                   .clients_per_site(6)
                   .uniform_keys(1ull << 10)
                   .closed_loop(0, 6)
                   .quiesce(6 * kSec)
                   .shards(2)
                   .partition(0, 1, 2 * kSec, /*group=*/0)
                   .heal(0, 1, 4 * kSec, /*group=*/0)
                   .metrics_window(1 * kSec)
                   .duration(9 * kSec)
                   .warmup(500 * kMs)
                   .seed(37)
                   .build();
  RunReport r = run_scenario(s);
  ASSERT_TRUE(r.sharded());
  const ConsistencyVerdict v = check_sharded_consistency(r);
  EXPECT_TRUE(v) << v.detail;
  EXPECT_TRUE(r.consistent);

  // The unpartitioned group keeps delivering during the outage window.
  const stats::MetricsWindow* mid = window_at(r.shards[1].windows, 3 * kSec);
  ASSERT_NE(mid, nullptr);
  EXPECT_GT(mid->latency.count(), 0u);
}

TEST(ShardedScenarioTest, ValidationRejectsFaultGroupOutOfRange) {
  EXPECT_THROW(ScenarioBuilder("bad")
                   .topology(net::Topology::lan(3))
                   .shards(2)
                   .crash(0, 1 * kSec, /*group=*/2)
                   .duration(3 * kSec)
                   .warmup(0)
                   .build(),
               std::invalid_argument);
  EXPECT_THROW(ScenarioBuilder("bad")
                   .topology(net::Topology::lan(3))
                   .shards(2)
                   .crash(0, 1 * kSec, /*group=*/-2)
                   .duration(3 * kSec)
                   .warmup(0)
                   .build(),
               std::invalid_argument);
  // An unsharded scenario has no group to scope a fault to: a group-0 crash
  // would take the site's only replica down behind the client pool's back.
  EXPECT_THROW(ScenarioBuilder("bad")
                   .topology(net::Topology::lan(3))
                   .crash(0, 1 * kSec, /*group=*/0)
                   .duration(3 * kSec)
                   .warmup(0)
                   .build(),
               std::invalid_argument);
}

TEST(ShardedScenarioTest, RegisteredShardedScenariosBuild) {
  EXPECT_TRUE(has_scenario("sharded-saturation"));
  EXPECT_TRUE(has_scenario("sharded-fault"));
  const Scenario sat = make_scenario("sharded-saturation");
  EXPECT_EQ(sat.shards.count, 4u);
  EXPECT_TRUE(sat.shards.sharded());
  const Scenario fault = make_scenario("sharded-fault");
  EXPECT_EQ(fault.faults.size(), 2u);
  EXPECT_EQ(fault.faults.front().group, 1);
}

}  // namespace
}  // namespace caesar::harness
