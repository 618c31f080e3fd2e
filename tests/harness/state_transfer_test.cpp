// Rejoin state transfer and dead-node revocation, proven end to end by the
// consistency oracle: the crash-long scenario shows a node that was down far
// longer than any in-flight window rejoining and converging (log and store)
// with the cluster, and the dead-node scenario shows the cluster delivering
// past a node that never returns instead of wedging behind it.
#include <gtest/gtest.h>

#include "harness/oracle.h"
#include "harness/scenario.h"

namespace caesar::harness {
namespace {

/// Total-order protocols after a quiesce tail must agree on everything.
constexpr ConsistencyOptions kStrict{/*require_converged_stores=*/true,
                                     /*require_equal_sequences=*/true};

Scenario crash_long_for(ProtocolKind kind) {
  Scenario s = make_scenario("crash-long");
  s.protocol = kind;
  return s;
}

TEST(CrashLongTest, MenciusRejoinConvergesViaStateTransfer) {
  RunReport r = run_scenario(crash_long_for(ProtocolKind::kMencius));
  EXPECT_TRUE(r.consistent);
  const auto verdict = check_cluster_consistency(r, kStrict);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  // The rejoin actually exercised the catch-up path: the node that was down
  // for 3 s re-requested the suffix and replayed missed commands.
  EXPECT_GE(r.proto.catchup_requests, 1u);
  EXPECT_GE(r.proto.catchup_chunks, 1u);
  EXPECT_GT(r.proto.catchup_commands, 100u);  // ~3s of 5-site traffic missed
  // No node was left out: everyone (including the rejoiner) delivered the
  // same command count, so no slot was silently omitted.
  ASSERT_EQ(r.delivery_logs.size(), 5u);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(r.delivery_logs[i].size(), r.delivery_logs[0].size())
        << "node " << i;
  }
}

TEST(CrashLongTest, MultiPaxosFollowerRejoinClosesLogGap) {
  RunReport r = run_scenario(crash_long_for(ProtocolKind::kMultiPaxos));
  EXPECT_TRUE(r.consistent);
  const auto verdict = check_cluster_consistency(r, kStrict);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_GE(r.proto.catchup_requests, 1u);
  EXPECT_GT(r.proto.catchup_commands, 100u);
}

TEST(CrashLongTest, ClockRsmRejoinConvergesViaStateTransfer) {
  RunReport r = run_scenario(crash_long_for(ProtocolKind::kClockRsm));
  EXPECT_TRUE(r.consistent);
  const auto verdict = check_cluster_consistency(r, kStrict);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_GE(r.proto.catchup_requests, 1u);
  EXPECT_GT(r.proto.catchup_commands, 100u);
}

/// Generalized-consensus variant of kStrict: stores must converge, but the
/// delivery sequences only have to agree per key (non-interfering commands
/// legitimately deliver in different orders on different nodes).
constexpr ConsistencyOptions kPerKey{/*require_converged_stores=*/true,
                                     /*require_equal_sequences=*/false};

Scenario instance_crash_long_for(ProtocolKind kind) {
  Scenario s = crash_long_for(kind);
  // Instance-space catch-up is off by default (unit tests drive the sim to
  // quiescence); fault scenarios opt in, with gossip GC running beside it
  // for CAESAR so catch-up and pruning interleave.
  s.caesar.gossip_interval_us = 200 * kMs;
  s.caesar.catchup_interval_us = 250 * kMs;
  s.epaxos.catchup_interval_us = 250 * kMs;
  return s;
}

TEST(CrashLongTest, CaesarRejoinConvergesViaInstanceCatchup) {
  RunReport r = run_scenario(instance_crash_long_for(ProtocolKind::kCaesar));
  EXPECT_TRUE(r.consistent);
  const auto verdict = check_cluster_consistency(r, kPerKey);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  // The rejoiner really pulled the missed decisions through catch-up: its
  // watchdog latched on rejoin, requested from a live peer, and replayed
  // stable instances it never saw.
  EXPECT_GE(r.proto.catchup_requests, 1u);
  EXPECT_GE(r.proto.catchup_chunks, 1u);
  EXPECT_GT(r.proto.catchup_commands, 100u);  // ~3s of 5-site traffic missed
}

TEST(CrashLongTest, EPaxosRejoinConvergesViaInstanceCatchup) {
  RunReport r = run_scenario(instance_crash_long_for(ProtocolKind::kEPaxos));
  EXPECT_TRUE(r.consistent);
  const auto verdict = check_cluster_consistency(r, kPerKey);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_GE(r.proto.catchup_requests, 1u);
  EXPECT_GE(r.proto.catchup_chunks, 1u);
  EXPECT_GT(r.proto.catchup_commands, 100u);
}

TEST(CrashLongTest, CatchupCountersSurviveWindowAccounting) {
  // The new counters are monotone and window-subtractable like the rest of
  // ProtocolCounters: the sum over windows equals the run-wide total.
  RunReport r = run_scenario(crash_long_for(ProtocolKind::kMencius));
  std::uint64_t windowed = 0;
  for (const auto& w : r.windows) windowed += w.proto.catchup_commands;
  // Windows cover [warmup, duration); catch-up runs at t=6s, inside them.
  EXPECT_EQ(windowed, r.proto.catchup_commands);
}

Scenario dead_node_for(ProtocolKind kind) {
  Scenario s = make_scenario("dead-node");
  s.protocol = kind;
  return s;
}

/// Progress probe well after the crash (3s) + detection (3.5s): completions
/// must keep coming once revocation unwedges delivery.
double completed_after_6s(const RunReport& r) {
  return r.timeline.sum_from(6 * kSec);
}

TEST(DeadNodeTest, MenciusDeliversPastANodeThatNeverReturns) {
  RunReport r = run_scenario(dead_node_for(ProtocolKind::kMencius));
  EXPECT_TRUE(r.consistent);
  ASSERT_EQ(r.crashed_at_end.size(), 5u);
  EXPECT_TRUE(r.crashed_at_end[4]);  // Mumbai stayed dead
  const auto verdict = check_cluster_consistency(r, kStrict);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  // Without revocation Mencius wedges on the dead node's first unresolved
  // slot; with it, delivery continues for the rest of the run.
  EXPECT_GE(r.proto.revocations, 1u);
  EXPECT_GT(r.completed, completed_after_6s(r));
  EXPECT_GT(completed_after_6s(r), 500.0);
}

TEST(DeadNodeTest, ClockRsmExcludesTheFrozenClock) {
  RunReport r = run_scenario(dead_node_for(ProtocolKind::kClockRsm));
  EXPECT_TRUE(r.consistent);
  const auto verdict = check_cluster_consistency(r, kStrict);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  // A frozen clock gates delivery forever unless revocation excludes it.
  EXPECT_GE(r.proto.revocations, 1u);
  EXPECT_GT(completed_after_6s(r), 500.0);
}

TEST(DeadNodeTest, MultiPaxosToleratesADeadFollowerWithoutRevocation) {
  // A dead follower never blocks a majority-quorum protocol; the scenario
  // must still pass the strict oracle on the surviving nodes.
  RunReport r = run_scenario(dead_node_for(ProtocolKind::kMultiPaxos));
  EXPECT_TRUE(r.consistent);
  const auto verdict = check_cluster_consistency(r, kStrict);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_GT(completed_after_6s(r), 500.0);
}

TEST(StateTransferTest, OracleCatchesAnOmittedCommand) {
  // Sanity-check the oracle itself: a node whose history omits one command
  // from the *middle* passes the weak common-relative-order check (the
  // command is simply absent) but must fail prefix consistency.
  auto cmd = [](std::uint64_t seq) {
    rsm::Command c;
    c.id = make_cmd_id(0, seq);
    c.ops.push_back(rsm::Op{/*key=*/7, /*req=*/seq, /*value=*/seq});
    return c;
  };
  RunReport r;
  r.delivery_logs.resize(2);
  r.stores.resize(2);
  r.crashed_at_end = {false, false};
  for (std::uint64_t i = 1; i <= 5; ++i) {
    r.delivery_logs[0].record(cmd(i));
    if (i != 3) r.delivery_logs[1].record(cmd(i));  // node 1 omits #3
  }
  EXPECT_TRUE(rsm::consistent_key_orders(r.delivery_logs[0],
                                         r.delivery_logs[1]));  // weak: blind
  ConsistencyOptions prefix_only{/*require_converged_stores=*/false,
                                 /*require_equal_sequences=*/false};
  const auto verdict = check_cluster_consistency(r, prefix_only);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.detail.find("key 7"), std::string::npos) << verdict.detail;
}

}  // namespace
}  // namespace caesar::harness
