#include "workloads.h"

#include <algorithm>

namespace hostbench {

namespace h = caesar::harness;
using caesar::kMs;
using caesar::kSec;
using caesar::NodeId;

namespace {

/// Closed loop at 400 clients/site with 30% conflicts on the paper's EC2
/// five-site RTT matrix, then a quiesce tail long enough for the slowest
/// (Mumbai) round trips and CAESAR's waits to drain.
h::Scenario geo_c30(h::ProtocolKind protocol, const char* name,
                    std::uint64_t seed, bool quick) {
  const Time load = quick ? 1200 * kMs : 4 * kSec;
  caesar::core::CaesarConfig caesar;
  caesar.gossip_interval_us = 100 * kMs;  // delivered-id GC, as in fig9
  return h::ScenarioBuilder(name)
      .protocol(protocol)
      .topology(caesar::net::Topology::ec2_five_sites())
      .caesar(caesar)
      .conflicts(0.30)
      .closed_loop(0, 400)
      .quiesce(load)
      .warmup(quick ? 400 * kMs : 1500 * kMs)
      .duration(load + 1500 * kMs)
      .timeline_bucket(kTimelineBucket)
      .seed(seed)
      .build();
}

h::Scenario caesar_geo(std::uint64_t seed, bool quick) {
  return geo_c30(h::ProtocolKind::kCaesar, "caesar-geo-c30", seed, quick);
}

h::Scenario epaxos_geo(std::uint64_t seed, bool quick) {
  return geo_c30(h::ProtocolKind::kEPaxos, "epaxos-geo-c30", seed, quick);
}

/// Open-loop Poisson arrivals with flow control off, durable storage with
/// snapshots, and a whole-cluster power loss followed by a restart of every
/// node from its own disk. The load pauses around the power loss: arrivals
/// stop, the in-flight commands drain, the power goes out on an idle
/// cluster, and the load resumes 50 ms after every node is back. So no
/// command is lost; the commands that arrive while the restarted cluster
/// finds its feet make up the latency tail. The WAL syncs every append: under
/// group commit (SyncMode::kBatched) a power loss under load leaves the
/// replicas diverged on most seeds, which the oracle rejects.
h::Scenario mencius_lan_durable(std::uint64_t seed, bool quick) {
  const Time pause = quick ? 600 * kMs : 2 * kSec;
  const Time crash = pause + 100 * kMs;
  const Time restart = crash + (quick ? 200 * kMs : 500 * kMs);
  const Time resume = restart + 50 * kMs;
  const Time load = quick ? 2 * kSec : 8 * kSec;
  h::ScenarioBuilder b("mencius-lan-durable");
  // The `saturation` stack: batching (1 ms, 64 ops), an 8-instance pipeline
  // window and same-destination coalescing, on a 5-site LAN.
  b.topology(caesar::net::Topology::lan(5))
      .batching()
      .batch_delay(1 * kMs)
      .batch_max_ops(64)
      .pipeline_window(8)
      .coalescing()
      .protocol(h::ProtocolKind::kMencius)
      .uniform_keys(1ull << 16)
      .open_loop(0, 30000.0)
      .quiesce(pause)
      .open_loop(resume, 30000.0)
      .quiesce(load)
      .data_dir(".bench_build/hostbench-data/mencius-lan-durable")
      .sync_mode(caesar::storage::SyncMode::kAlways)
      .power_loss(crash)
      .fd_timeout(500 * kMs)
      .timeline_bucket(kTimelineBucket)
      .warmup(quick ? 200 * kMs : 1 * kSec)
      .duration(load + 1500 * kMs)
      .seed(seed);
  for (NodeId i = 0; i < 5; ++i) b.restart(i, restart);
  return b.build();
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    // Generalized consensus orders only conflicting commands, so CAESAR and
    // EPaxos are held to per-key order plus converged stores; Mencius is a
    // total order and must agree on the whole sequence.
    const h::ConsistencyOptions per_key{true, false};
    const h::ConsistencyOptions total{true, true};
    return std::vector<Workload>{
        {"caesar-geo-c30", 1, 101, per_key, caesar_geo},
        {"epaxos-geo-c30", 1, 101, per_key, epaxos_geo},
        {"mencius-lan-durable", 1, 101, total, mencius_lan_durable},
    };
  }();
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Time quiesce_at(const h::Scenario& s) {
  Time last = -1;
  for (const caesar::wl::PhaseSpec& p : s.phases) {
    if (p.mode == caesar::wl::PhaseSpec::Mode::kQuiesce) {
      last = std::max(last, p.at);
    }
  }
  return last < 0 ? s.duration : last;
}

}  // namespace hostbench
