// Committed repro of a Mencius divergence found by the fault-schedule fuzzer
// (fault_fuzz_test.cpp) at seed 277: a transient crash of node 4 overlapping
// two link partitions (3-2 and 2-0).
//
// Root cause (fixed by the bounded revoked ranges in
// runtime/recovery_driver.h): revocation verdicts used to be unbounded
// ("skip all of node 4's slots >= its frontier") and were cleared
// unilaterally at each node's failure-detector retraction. Rejoined node 4
// proposed a fresh slot; nodes 0/1 skipped it through their still-standing
// verdict before their retraction, while nodes 2/3 — whose verdicts had
// already cleared — acked it, letting node 4 commit a slot half the cluster
// had irreversibly skipped. The logs ended up order-consistent but not
// equal. Verdicts are now explicit [from, upto) ranges applied permanently
// by a quorum, so any later ack quorum intersects a node that refuses the
// revoked slot, and slots above the bound are never verdict-skipped.
#include <gtest/gtest.h>

#include "harness/oracle.h"
#include "harness/scenario.h"

namespace caesar::harness {
namespace {

TEST(MenciusFuzzRegression, TripleFaultSeed277) {
  // Schedule reproduced verbatim from the fuzzer's repro line:
  //   protocol=Mencius seed=277 schedule=[ crash(4,1574-1974ms)
  //   part(3-2,2027-2569ms) part(2-0,1602-1804ms) ]
  wl::WorkloadConfig w;
  w.clients_per_site = 4;
  w.conflict_fraction = 0.15;
  w.reconnect_delay_us = 400 * kMs;
  Scenario s = ScenarioBuilder("mencius-seed277")
                   .protocol(ProtocolKind::kMencius)
                   .topology(net::Topology::ec2_five_sites())
                   .workload(w)
                   .closed_loop(0, 4)
                   .quiesce(2800 * kMs)
                   .crash(4, 1574 * kMs)
                   .recover(4, 1974 * kMs)
                   .partition(3, 2, 2027 * kMs)
                   .heal(3, 2, 2569 * kMs)
                   .partition(2, 0, 1602 * kMs)
                   .heal(2, 0, 1804 * kMs)
                   .fd_timeout(300 * kMs)
                   .duration(5 * kSec)
                   .warmup(500 * kMs)
                   .seed(277)
                   .build();
  const RunReport r = run_scenario(s);

  EXPECT_TRUE(r.consistent);
  ConsistencyOptions opt;
  opt.require_converged_stores = true;
  opt.require_equal_sequences = true;
  const auto verdict = check_cluster_consistency(r, opt);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

}  // namespace
}  // namespace caesar::harness
