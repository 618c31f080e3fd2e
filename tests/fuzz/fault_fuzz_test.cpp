// Seeded fault-schedule fuzz: random crash/recover/partition/heal schedules
// over short runs, each asserting the consistency oracle and that delivery
// never wedges. Runs under the "fuzz" ctest label (see CMakeLists.txt) so CI
// can time-box it as its own job; failures append a one-line repro to
// fuzz_failures.txt, which the CI job uploads as an artifact.
//
// Every protocol runs the full schedule shape: transient crashes with
// rejoin, at most one permanent ("dead") crash, plus link partitions that
// always heal. The slot/stamp protocols (Mencius, Multi-Paxos, Clock-RSM)
// rejoin through log-suffix state transfer; CAESAR and EPaxos rejoin through
// instance-space catch-up, enabled here via their catchup_interval_us knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "fuzz/seed_count.h"
#include "harness/oracle.h"
#include "harness/scenario.h"

namespace caesar::harness {
namespace {

constexpr Time kRun = 5 * kSec;
constexpr Time kQuiesceAt = 2800 * kMs;  // drain tail before the oracle runs
constexpr Time kFaultFrom = 800 * kMs;
constexpr Time kFaultUntil = 2200 * kMs;
constexpr NodeId kSites = 5;

struct FuzzCase {
  Scenario scenario;
  std::string shape;  // human-readable schedule, for the repro line
};

Time rand_in(Rng& rng, Time lo, Time hi) {
  return lo + static_cast<Time>(
                  rng.uniform_int(static_cast<std::uint64_t>(hi - lo)));
}

FuzzCase make_case(ProtocolKind kind, std::uint64_t seed) {
  Rng rng(seed * 2654435761u + 17);
  ScenarioBuilder b("fuzz");
  std::ostringstream shape;
  wl::WorkloadConfig w;
  w.clients_per_site = 4;
  w.conflict_fraction = 0.15;
  // Fast client failover: a crashed site's clients resume elsewhere quickly,
  // so the no-wedge probe measures the *protocols*, not idle client capacity.
  w.reconnect_delay_us = 400 * kMs;
  // The timestamp/dependency protocols have no always-on periodic traffic,
  // so their rejoin watchdog must be armed explicitly (and CAESAR's gossip,
  // so GC pruning runs concurrently with catch-up).
  core::CaesarConfig cc;
  cc.gossip_interval_us = 200 * kMs;
  cc.catchup_interval_us = 250 * kMs;
  epaxos::EPaxosConfig ec;
  ec.catchup_interval_us = 250 * kMs;
  b.protocol(kind)
      .topology(net::Topology::ec2_five_sites())
      .workload(w)
      .caesar(cc)
      .epaxos(ec)
      .closed_loop(0, 4)
      .quiesce(kQuiesceAt)
      .fd_timeout(300 * kMs)
      .duration(kRun)
      .warmup(500 * kMs)
      .seed(seed);

  const bool crashes_allowed = true;
  bool used_permanent = false;
  std::vector<std::pair<Time, Time>> down;  // crash intervals, for overlap cap
  const std::uint64_t n_faults = 1 + rng.uniform_int(3);
  for (std::uint64_t f = 0; f < n_faults; ++f) {
    const bool want_crash = crashes_allowed && rng.uniform_int(2) == 0;
    if (want_crash) {
      const NodeId victim = static_cast<NodeId>(rng.uniform_int(kSites));
      const Time at = rand_in(rng, kFaultFrom, kFaultUntil);
      // Never take a second node down at the same time: the schedules must
      // keep a live majority and a live catch-up responder at all instants.
      const bool permanent =
          !used_permanent && victim != 3 &&  // node 3 is the MultiPaxos leader
          rng.uniform_int(3) == 0;
      // Transient crashes rejoin no later than 2.4s: the rejoin dance
      // (catch-up, FD retraction at +300ms, re-proposal of bounced
      // commands) needs a bounded slice of the drain tail before the
      // equal-sequences oracle runs at the 4s cutoff. Long outages have
      // their own dedicated scenario (crash-long).
      const Time up_at =
          permanent ? kRun + kSec
                    : std::min<Time>(at + rand_in(rng, 300 * kMs, 800 * kMs),
                                     2400 * kMs);
      bool overlaps = false;
      for (const auto& [lo, hi] : down) {
        if (at <= hi && up_at >= lo) overlaps = true;
      }
      if (overlaps) continue;
      down.emplace_back(at, up_at);
      b.crash(victim, at);
      if (permanent) {
        used_permanent = true;
        shape << " dead(" << victim << "@" << at / kMs << "ms)";
      } else {
        b.recover(victim, up_at);
        shape << " crash(" << victim << "," << at / kMs << "-"
              << up_at / kMs << "ms)";
      }
    } else {
      NodeId a = static_cast<NodeId>(rng.uniform_int(kSites));
      NodeId c = static_cast<NodeId>(rng.uniform_int(kSites));
      if (a == c) c = static_cast<NodeId>((c + 1) % kSites);
      const Time at = rand_in(rng, kFaultFrom, kFaultUntil);
      const Time heal = std::min<Time>(at + rand_in(rng, 200 * kMs, 600 * kMs),
                                       kQuiesceAt - 100 * kMs);
      b.partition(a, c, at);
      b.heal(a, c, heal);
      shape << " part(" << a << "-" << c << "," << at / kMs << "-"
            << heal / kMs << "ms)";
    }
  }
  return FuzzCase{b.build(), shape.str()};
}

void record_repro(ProtocolKind kind, std::uint64_t seed,
                  const std::string& shape, const std::string& why) {
  std::ofstream out("fuzz_failures.txt", std::ios::app);
  out << "FUZZ-REPRO protocol=" << to_string(kind) << " seed=" << seed
      << " schedule=[" << shape << " ] reason=" << why << "\n";
}

void run_fuzz(ProtocolKind kind, std::uint64_t seed) {
  const FuzzCase fc = make_case(kind, seed);
  SCOPED_TRACE("protocol=" + std::string(to_string(kind)) +
               " seed=" + std::to_string(seed) + " schedule=" + fc.shape);
  const RunReport r = run_scenario(fc.scenario);

  std::string why;
  if (!r.consistent) why = "key-order consistency violated";

  // The oracle: prefix-consistent logs everywhere; converged stores always
  // (the quiesce tail drained in-flight traffic); identical sequences for
  // the total-order protocols.
  // CAESAR delivers in timestamp order and EPaxos in dependency-graph order,
  // so non-interfering commands legitimately interleave differently across
  // nodes; for them the oracle checks per-key order and converged stores
  // instead of identical whole sequences.
  ConsistencyOptions opt;
  opt.require_converged_stores = true;
  opt.require_equal_sequences =
      kind != ProtocolKind::kCaesar && kind != ProtocolKind::kEPaxos;
  const auto verdict = check_cluster_consistency(r, opt);
  if (why.empty() && !verdict.ok) why = verdict.detail;

  // No wedged delivery: completions kept flowing (or resumed) after the 1s
  // mark despite the faults. A cluster that wedges behind a dead owner never
  // delivers again, while one that merely stalls until revocation/heal
  // still finishes the backlog. The bar is deliberately modest — Mencius
  // runs in its "performs as the slowest node" mode while rejoined idle
  // nodes lag the floors (the paper's §II criticism) — but a genuinely
  // wedged cluster delivers nothing at all and still trips it.
  const auto after_1s =
      static_cast<std::uint64_t>(r.timeline.sum_from(1 * kSec));
  if (why.empty() && after_1s < 15) {
    why = "delivery wedged: only " + std::to_string(after_1s) +
          " completions after 1s, " + std::to_string(r.completed) +
          " in the whole run";
  }

  if (!why.empty()) {
    record_repro(kind, seed, fc.shape, why);
    FAIL() << why;
  }
}

TEST(FaultScheduleFuzz, Mencius) {
  for (std::uint64_t seed = 1; seed <= fuzz_seed_count(14); ++seed) {
    run_fuzz(ProtocolKind::kMencius, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FaultScheduleFuzz, MultiPaxos) {
  for (std::uint64_t seed = 1; seed <= fuzz_seed_count(14); ++seed) {
    run_fuzz(ProtocolKind::kMultiPaxos, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FaultScheduleFuzz, ClockRsm) {
  for (std::uint64_t seed = 1; seed <= fuzz_seed_count(14); ++seed) {
    run_fuzz(ProtocolKind::kClockRsm, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FaultScheduleFuzz, Caesar) {
  for (std::uint64_t seed = 1; seed <= fuzz_seed_count(12); ++seed) {
    run_fuzz(ProtocolKind::kCaesar, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FaultScheduleFuzz, EPaxos) {
  for (std::uint64_t seed = 1; seed <= fuzz_seed_count(12); ++seed) {
    run_fuzz(ProtocolKind::kEPaxos, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace caesar::harness
