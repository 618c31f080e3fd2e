#include "harness/scenario.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include "m2paxos/m2paxos.h"
#include "mencius/mencius.h"
#include "rsm/delivery_log.h"
#include "rsm/kvstore.h"
#include "shard/shard_router.h"
#include "shard/sharded_cluster.h"

namespace caesar::harness {

namespace {

/// ProtocolInfo::make for protocol class P, configured by Scenario member
/// `config` when P takes one.
template <typename P, auto... config>
std::unique_ptr<rt::Protocol> make_protocol([[maybe_unused]] const Scenario& s,
                                            rt::Env& env,
                                            rt::Protocol::DeliverFn deliver,
                                            stats::ProtocolStats* stats) {
  return std::make_unique<P>(env, std::move(deliver), s.*config..., stats);
}

constexpr ProtocolInfo kProtocolTable[] = {
    {ProtocolKind::kCaesar, "Caesar", "caesar", true,
     make_protocol<core::Caesar, &Scenario::caesar>},
    {ProtocolKind::kEPaxos, "EPaxos", "epaxos", true,
     make_protocol<epaxos::EPaxos, &Scenario::epaxos>},
    {ProtocolKind::kM2Paxos, "M2Paxos", "m2paxos", false,
     make_protocol<m2paxos::M2Paxos>},
    {ProtocolKind::kMencius, "Mencius", "mencius", true,
     make_protocol<mencius::Mencius>},
    {ProtocolKind::kMultiPaxos, "MultiPaxos", "multipaxos", true,
     make_protocol<mpaxos::MultiPaxos, &Scenario::multipaxos>},
    {ProtocolKind::kClockRsm, "ClockRSM", "clockrsm", true,
     make_protocol<clockrsm::ClockRsm, &Scenario::clockrsm>},
};

}  // namespace

std::span<const ProtocolInfo> protocol_table() { return kProtocolTable; }

const ProtocolInfo& protocol_info(ProtocolKind kind) {
  for (const ProtocolInfo& p : kProtocolTable) {
    if (p.kind == kind) return p;
  }
  throw std::invalid_argument("unknown protocol kind");
}

std::string_view to_string(ProtocolKind kind) {
  return protocol_info(kind).name;
}

// ---------------------------------------------------------------------------
// FaultEvent
// ---------------------------------------------------------------------------

FaultEvent FaultEvent::Crash(NodeId node, Time at, std::int32_t group) {
  return {.kind = Kind::kCrash, .at = at, .node = node, .group = group};
}

FaultEvent FaultEvent::Recover(NodeId node, Time at, std::int32_t group) {
  return {.kind = Kind::kRecover, .at = at, .node = node, .group = group};
}

FaultEvent FaultEvent::Partition(NodeId a, NodeId b, Time at,
                                 std::int32_t group) {
  return {.kind = Kind::kPartition, .at = at, .a = a, .b = b, .group = group};
}

FaultEvent FaultEvent::Heal(NodeId a, NodeId b, Time at, std::int32_t group) {
  return {.kind = Kind::kHeal, .at = at, .a = a, .b = b, .group = group};
}

FaultEvent FaultEvent::PowerLoss(Time at) {
  return {.kind = Kind::kPowerLoss, .at = at};
}

FaultEvent FaultEvent::Restart(NodeId node, Time at) {
  return {.kind = Kind::kRestart, .at = at, .node = node};
}

std::string to_string(const FaultEvent& e) {
  std::ostringstream os;
  switch (e.kind) {
    case FaultEvent::Kind::kCrash:
      os << "Crash{node=" << e.node;
      break;
    case FaultEvent::Kind::kRecover:
      os << "Recover{node=" << e.node;
      break;
    case FaultEvent::Kind::kPartition:
      os << "Partition{a=" << e.a << ", b=" << e.b;
      break;
    case FaultEvent::Kind::kHeal:
      os << "Heal{a=" << e.a << ", b=" << e.b;
      break;
    case FaultEvent::Kind::kPowerLoss:
      os << "PowerLoss{all";
      break;
    case FaultEvent::Kind::kRestart:
      os << "Restart{node=" << e.node;
      break;
  }
  if (e.group != FaultEvent::kAllGroups) os << ", group=" << e.group;
  os << ", at=" << e.at << "us}";
  return os.str();
}

// ---------------------------------------------------------------------------
// ScenarioBuilder
// ---------------------------------------------------------------------------

ScenarioBuilder& ScenarioBuilder::name(std::string v) {
  s_.name = std::move(v);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::protocol(ProtocolKind v) {
  s_.protocol = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::topology(net::Topology v) {
  s_.topology = std::move(v);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::duration(Time v) {
  s_.duration = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::warmup(Time v) {
  s_.warmup = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t v) {
  s_.seed = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::node(rt::NodeConfig v) {
  s_.node = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::fd_timeout(Time v) {
  s_.fd_timeout_us = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::fd_suspect_partitions(bool v) {
  s_.fd_suspect_partitions = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::batching(bool v) {
  s_.node.batching = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::batch_delay(Time v) {
  s_.node.batch_delay_us = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::batch_max_ops(std::size_t v) {
  s_.node.batch_max_ops = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::pipeline_window(std::size_t v) {
  s_.node.pipeline_window = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::coalescing(bool v) {
  s_.node.coalescing = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::max_inflight(std::uint32_t v) {
  s_.workload.max_inflight = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::overload_policy(wl::OverloadPolicy v) {
  s_.workload.overload_policy = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::overload_queue_cap(std::size_t v) {
  s_.workload.overload_queue_cap = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::workload(wl::WorkloadConfig v) {
  s_.workload = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::clients_per_site(std::uint32_t v) {
  s_.workload.clients_per_site = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::conflicts(double fraction) {
  s_.workload.conflict_fraction = fraction;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::uniform_keys(std::uint64_t keyspace) {
  s_.workload.key_dist.dist = wl::KeyDist::kUniform;
  s_.workload.key_dist.keyspace = keyspace;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::zipfian(double theta, std::uint64_t keyspace) {
  s_.workload.key_dist.dist = wl::KeyDist::kZipfian;
  s_.workload.key_dist.zipf_theta = theta;
  s_.workload.key_dist.keyspace = keyspace;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::shards(std::uint32_t count,
                                         shard::Partition partition) {
  s_.shards.count = count;
  s_.shards.partition = partition;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::closed_loop(Time at,
                                              std::uint32_t clients_per_site,
                                              Time think_us) {
  s_.phases.push_back(wl::PhaseSpec::closed_loop(at, clients_per_site, think_us));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::open_loop(Time at, double rate_tps) {
  s_.phases.push_back(wl::PhaseSpec::open_loop(at, rate_tps));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::ramp(Time at, double from_tps,
                                       double to_tps) {
  s_.phases.push_back(wl::PhaseSpec::ramp(at, from_tps, to_tps));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::quiesce(Time at) {
  s_.phases.push_back(wl::PhaseSpec::quiesce(at));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::crash(NodeId node, Time at,
                                        std::int32_t group) {
  s_.faults.push_back(FaultEvent::Crash(node, at, group));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::recover(NodeId node, Time at,
                                          std::int32_t group) {
  s_.faults.push_back(FaultEvent::Recover(node, at, group));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::partition(NodeId a, NodeId b, Time at,
                                            std::int32_t group) {
  s_.faults.push_back(FaultEvent::Partition(a, b, at, group));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::heal(NodeId a, NodeId b, Time at,
                                       std::int32_t group) {
  s_.faults.push_back(FaultEvent::Heal(a, b, at, group));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::power_loss(Time at) {
  s_.faults.push_back(FaultEvent::PowerLoss(at));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::restart(NodeId node, Time at) {
  s_.faults.push_back(FaultEvent::Restart(node, at));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::data_dir(std::string v) {
  s_.storage.data_dir = std::move(v);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::sync_mode(storage::SyncMode v) {
  s_.storage.sync_mode = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::caesar(core::CaesarConfig v) {
  s_.caesar = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::epaxos(epaxos::EPaxosConfig v) {
  s_.epaxos = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::multipaxos_leader(NodeId leader) {
  s_.multipaxos.leader = leader;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::timeline_bucket(Time v) {
  s_.timeline_bucket = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::metrics_window(Time width) {
  s_.metrics_window_us = width;
  return *this;
}

Scenario ScenarioBuilder::build() const {
  Scenario s = s_;
  std::stable_sort(s.faults.begin(), s.faults.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
  std::stable_sort(s.phases.begin(), s.phases.end(),
                   [](const wl::PhaseSpec& x, const wl::PhaseSpec& y) {
                     return x.at < y.at;
                   });
  validate_scenario(s);
  return s;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void fail(const Scenario& s, const std::string& what) {
  throw std::invalid_argument("scenario '" + s.name + "': " + what);
}

void check_node_in_range(const Scenario& s, NodeId node, const char* what) {
  if (node >= s.topology.size()) {
    std::ostringstream os;
    os << what << "=" << node << " out of range for topology of "
       << s.topology.size() << " sites";
    fail(s, os.str());
  }
}

}  // namespace

void validate_scenario(const Scenario& s) {
  const std::size_t n = s.topology.size();
  if (n == 0) fail(s, "topology has no sites");
  if (s.duration <= 0) fail(s, "duration must be positive");
  if (s.warmup < 0 || s.warmup >= s.duration) {
    fail(s, "warmup must lie in [0, duration)");
  }
  if (s.timeline_bucket <= 0) fail(s, "timeline_bucket must be positive");
  if (s.fd_timeout_us < 0) fail(s, "fd_timeout_us must be non-negative");
  if (s.workload.conflict_fraction < 0.0 ||
      s.workload.conflict_fraction > 1.0) {
    fail(s, "workload.conflict_fraction must lie in [0, 1]");
  }

  // Key distribution.
  const wl::KeyDistConfig& kd = s.workload.key_dist;
  if (kd.dist != wl::KeyDist::kPaperConflict && kd.keyspace < 2) {
    fail(s, "workload.key_dist.keyspace must be at least 2");
  }
  if (kd.dist == wl::KeyDist::kZipfian &&
      (kd.zipf_theta <= 0.0 || kd.zipf_theta >= 1.0)) {
    fail(s, "workload.key_dist.zipf_theta must lie in (0, 1)");
  }

  // Sharding.
  if (s.shards.count == 0) {
    fail(s, "shards.count must be at least 1");
  }

  // Protocol knobs that index into the topology.
  if (s.protocol == ProtocolKind::kMultiPaxos) {
    check_node_in_range(s, s.multipaxos.leader, "multipaxos.leader");
    if (mpaxos::kResyncGraceUs <= s.fd_timeout_us) {
      fail(s,
           "fd_timeout_us must stay below Multi-Paxos's resync grace (" +
               std::to_string(mpaxos::kResyncGraceUs) +
               " us), or a rejoined follower sweeps its log gap before the "
               "leader's fd-retraction replay arrives");
    }
  }
  if (s.protocol == ProtocolKind::kMencius &&
      mencius::kResyncGraceUs <= s.fd_timeout_us) {
    fail(s,
         "fd_timeout_us must stay below Mencius's resync grace (" +
             std::to_string(mencius::kResyncGraceUs) +
             " us), or a rejoined node sweeps still-pending accept entries "
             "before its peers' fd-retraction re-ACCEPTs arrive");
  }
  if (protocol_info(s.protocol).bitmask_sites && n > 64) {
    fail(s, std::string(to_string(s.protocol)) +
                " supports at most 64 sites (its quorum and suspect sets are "
                "64-bit node bitmasks)");
  }
  if (s.protocol == ProtocolKind::kCaesar &&
      s.caesar.fast_quorum_override > n) {
    std::ostringstream os;
    os << "caesar.fast_quorum_override=" << s.caesar.fast_quorum_override
       << " exceeds the topology's " << n << " sites";
    fail(s, os.str());
  }

  if (s.storage.sync_mode != storage::SyncMode::kBatched &&
      !s.storage.enabled()) {
    fail(s, "storage.sync_mode=" + storage::to_string(s.storage.sync_mode) +
                " needs storage.data_dir; without it nothing is written");
  }

  for (const FaultEvent& e : s.faults) {
    if (e.at < 0 || e.at > s.duration) {
      fail(s, to_string(e) + " is outside the run's [0, duration] window");
    }
    if (e.group != FaultEvent::kAllGroups && !s.shards.sharded()) {
      fail(s, to_string(e) +
                  " is group-scoped, but the scenario is unsharded; "
                  "group-scoped faults need shards.count > 1");
    }
    if (e.group != FaultEvent::kAllGroups &&
        (e.group < 0 ||
         e.group >= static_cast<std::int32_t>(s.shards.count))) {
      std::ostringstream os;
      os << to_string(e) << " targets group " << e.group
         << " but the scenario has " << s.shards.count
         << " shard groups; valid groups are -1 (all) .. "
         << (s.shards.count - 1);
      fail(s, os.str());
    }
    switch (e.kind) {
      case FaultEvent::Kind::kCrash:
      case FaultEvent::Kind::kRecover:
        check_node_in_range(s, e.node, "fault.node");
        break;
      case FaultEvent::Kind::kPartition:
      case FaultEvent::Kind::kHeal:
        check_node_in_range(s, e.a, "fault.a");
        check_node_in_range(s, e.b, "fault.b");
        if (e.a == e.b) fail(s, to_string(e) + " partitions a node from itself");
        break;
      case FaultEvent::Kind::kPowerLoss:
        if (!s.storage.enabled()) {
          fail(s, to_string(e) +
                      " requires durable storage (set Scenario::storage."
                      "data_dir), or there is nothing to restart from");
        }
        break;
      case FaultEvent::Kind::kRestart:
        check_node_in_range(s, e.node, "fault.node");
        if (!s.storage.enabled()) {
          fail(s, to_string(e) +
                      " requires durable storage (set Scenario::storage."
                      "data_dir), or there is nothing to restart from");
        }
        break;
    }
  }

  // Phases execute in time order regardless of their order in the vector
  // (a Scenario may be built by hand, not via the sorting builder), so the
  // checks must be order-independent.
  std::vector<Time> phase_starts;
  phase_starts.reserve(s.phases.size());
  for (const wl::PhaseSpec& p : s.phases) {
    if (p.at < 0 || p.at >= s.duration) {
      fail(s, "phase start time outside [0, duration)");
    }
    phase_starts.push_back(p.at);
    if (p.mode == wl::PhaseSpec::Mode::kQuiesce) {
      // No parameters to validate; a quiesce phase just stops submissions.
    } else if (p.mode == wl::PhaseSpec::Mode::kClosedLoop) {
      if (p.clients_per_site == 0) {
        fail(s, "closed-loop phase with zero clients per site");
      }
      if (p.think_us < 0) fail(s, "closed-loop phase with negative think time");
    } else {
      if (p.arrival_rate_tps <= 0.0) {
        fail(s, "open-loop phase requires a positive arrival rate");
      }
      if (p.mode == wl::PhaseSpec::Mode::kOpenLoopRamp &&
          p.ramp_to_tps <= 0.0) {
        fail(s, "ramp phase requires a positive target rate");
      }
    }
  }
  std::sort(phase_starts.begin(), phase_starts.end());
  if (std::adjacent_find(phase_starts.begin(), phase_starts.end()) !=
      phase_starts.end()) {
    fail(s, "two phases start at the same instant");
  }
  if (!phase_starts.empty() && phase_starts.front() != 0) {
    fail(s, "the first workload phase must start at t=0");
  }
  if (s.phases.empty() && s.workload.clients_per_site == 0) {
    fail(s, "workload.clients_per_site must be positive");
  }

  if (s.metrics_window_us < 0) {
    fail(s, "metrics_window_us must be non-negative (0 = per-phase windows)");
  }

  // Saturation-machinery knobs.
  if (s.node.batch_max_ops == 0) {
    fail(s, "node.batch_max_ops must be at least 1");
  }
  if (s.node.batch_delay_us < 0) {
    fail(s, "node.batch_delay_us must be non-negative");
  }
  if (s.node.pipeline_window == 0) {
    fail(s, "node.pipeline_window must be at least 1 (1 = stop-and-wait)");
  }
  if (s.workload.max_inflight == 0 && s.workload.overload_queue_cap == 0) {
    // Harmless combination, nothing to check: flow control is off.
  } else if (s.workload.max_inflight > 0 &&
             s.workload.overload_policy == wl::OverloadPolicy::kQueue &&
             s.workload.overload_queue_cap == 0) {
    fail(s,
         "workload.overload_queue_cap must be positive under the kQueue "
         "policy (use kShed to drop over-limit arrivals outright)");
  }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

namespace detail {

rt::Cluster::ProtocolFactory make_factory(
    const Scenario& s, std::vector<stats::ProtocolStats>& stats,
    std::size_t offset) {
  return [&s, &stats, offset, make = protocol_info(s.protocol).make](
             rt::Env& env, rt::Protocol::DeliverFn deliver) {
    return make(s, env, std::move(deliver), &stats[offset + env.id()]);
  };
}

stats::ProtocolStats aggregate(const std::vector<stats::ProtocolStats>& per_node,
                               std::size_t offset, std::size_t count) {
  stats::ProtocolStats total;
  const std::size_t end =
      count == SIZE_MAX ? per_node.size()
                        : std::min(per_node.size(), offset + count);
  for (std::size_t i = offset; i < end; ++i) {
    total += per_node[i];
    total.merge(per_node[i]);
  }
  return total;
}

void record_unbundled(rsm::DeliveryLog& log, const rsm::Command& cmd) {
  if (rsm::is_batch_command(cmd)) {
    for (std::size_t k = 0; k < cmd.ops.size(); ++k) {
      log.record(rsm::batch_member(cmd, k));
    }
  } else {
    log.record(cmd);
  }
}

}  // namespace detail

namespace {

using detail::aggregate;
using detail::make_factory;
using detail::record_unbundled;

/// The plain counters of per_node[offset, offset + count), without copying
/// latency pools.
stats::ProtocolCounters aggregate_counters(
    const std::vector<stats::ProtocolStats>& per_node, std::size_t offset,
    std::size_t count) {
  stats::ProtocolCounters total;
  for (std::size_t i = offset; i < offset + count; ++i) total += per_node[i];
  return total;
}

/// Lays out the report's metrics windows: disjoint half-open slices covering
/// [warmup, duration). Fixed-width when the scenario asks for it, otherwise
/// one window per workload phase active inside the measurement interval
/// (phases that end before warmup fold into the first window), or a single
/// "run" window for unphased scenarios.
std::vector<stats::MetricsWindow> plan_windows(const Scenario& s) {
  std::vector<Time> bounds;
  bounds.push_back(s.warmup);
  if (s.metrics_window_us > 0) {
    for (Time t = s.warmup + s.metrics_window_us; t < s.duration;
         t += s.metrics_window_us) {
      bounds.push_back(t);
    }
  } else {
    for (const wl::PhaseSpec& p : s.phases) {
      if (p.at > s.warmup && p.at < s.duration) bounds.push_back(p.at);
    }
  }
  bounds.push_back(s.duration);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::vector<stats::MetricsWindow> windows;
  windows.reserve(bounds.size() - 1);
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    stats::MetricsWindow w;
    w.begin = bounds[i];
    w.end = bounds[i + 1];
    // Active phase: the latest phase starting at or before the window opens
    // (phases may be unsorted in a hand-built scenario).
    int phase = -1;
    for (std::size_t p = 0; p < s.phases.size(); ++p) {
      if (s.phases[p].at <= w.begin &&
          (phase < 0 || s.phases[p].at > s.phases[phase].at)) {
        phase = static_cast<int>(p);
      }
    }
    w.phase = phase;
    if (s.metrics_window_us > 0) {
      w.label = "win" + std::to_string(i);
    } else if (phase >= 0) {
      w.label = "phase" + std::to_string(phase);
    } else {
      w.label = "run";
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

/// Harness-side mirror of one group's replicas: what each delivered, for the
/// consistency oracle. marks[node][i] is the mirror-log length after the
/// node's (i+1)-th protocol-level delivery: durable delivered counts are in
/// protocol-level instances while the mirror logs hold unbundled batch
/// members, so a restart translates its durable prefix through these marks.
struct GroupMirror {
  std::vector<rsm::DeliveryLog> logs;
  std::vector<rsm::KvStore> kvs;
  std::vector<std::vector<std::size_t>> marks;
};

/// Monotone counters of the run, or of one group, at one instant; adjacent
/// snapshots subtract into a window's deltas.
struct Counts {
  stats::ProtocolCounters proto;
  /// Whole run: the pool's submissions. One group: commands routed into it.
  std::uint64_t submitted = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

struct BoundarySnap {
  Counts run;
  std::vector<Counts> groups;
  /// Per-node latency-pool sample counts (group-major, like
  /// RunReport::per_node); adjacent snapshots delimit the samples each
  /// window range-merges into its phase breakdown.
  std::vector<stats::PhasePools::SampleCounts> pools;
};

/// Fills window `w` with what happened between two boundary snapshots: the
/// deltas of counters `c0` -> `c1` (the run's, or one group's), and the
/// phase-latency samples that per_node[lo, hi) recorded meanwhile.
void fill_window(stats::MetricsWindow& w, const Counts& c0, const Counts& c1,
                 const BoundarySnap& from, const BoundarySnap& to,
                 const std::vector<stats::ProtocolStats>& per_node,
                 std::size_t lo, std::size_t hi) {
  w.submitted = c1.submitted - c0.submitted;
  w.messages = c1.messages - c0.messages;
  w.bytes = c1.bytes - c0.bytes;
  w.proto = c1.proto - c0.proto;
  for (std::size_t node = lo; node < hi; ++node) {
    w.merge_range(per_node[node], from.pools[node], to.pools[node]);
  }
}

/// Window assignment is by completion instant: windows are half-open
/// [begin, end) slices in time order and completions arrive in time order,
/// so one advancing cursor suffices; completions at exactly t=duration clamp
/// into the last window.
void record_in_window(std::vector<stats::MetricsWindow>& windows,
                      std::size_t& cursor, Time at, Time latency) {
  while (cursor + 1 < windows.size() && at >= windows[cursor].end) ++cursor;
  windows[cursor].latency.record(latency);
}

/// True when no two replicas disagree on any key's delivery order.
bool logs_agree(const std::vector<rsm::DeliveryLog>& logs) {
  for (std::size_t i = 0; i < logs.size(); ++i) {
    for (std::size_t j = i + 1; j < logs.size(); ++j) {
      if (!rsm::consistent_key_orders(logs[i], logs[j])) return false;
    }
  }
  return true;
}

}  // namespace

RunReport run_scenario(const Scenario& s) {
  validate_scenario(s);

  const std::size_t n = s.topology.size();
  const std::uint32_t groups = s.shards.count;
  sim::Simulator sim(s.seed);

  RunReport result;
  // Per-node protocol stats, group-major: group g's node i lands at g*n + i.
  result.per_node.resize(groups * n);
  result.timeline = stats::TimeSeries(s.timeline_bucket);
  result.sites.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.sites.push_back(SiteMetrics{s.topology.site_names[i], {}});
  }
  result.provenance.scenario = s.name;
  result.provenance.protocol = std::string(to_string(s.protocol));
  result.provenance.sites = s.topology.site_names;
  result.provenance.seed = s.seed;
  result.provenance.duration = s.duration;
  result.provenance.warmup = s.warmup;
  result.provenance.build = std::string(build_version());
  result.windows = plan_windows(s);
  // Per-group rollups exist only for a sharded run; a one-group run's
  // report is the classic document.
  if (s.shards.sharded()) {
    result.router.partition = std::string(to_string(s.shards.partition));
    result.shards.resize(groups);
    for (std::uint32_t g = 0; g < groups; ++g) {
      result.shards[g].group = g;
      result.shards[g].windows = result.windows;  // same slicing per group
    }
  }

  std::vector<GroupMirror> mirrors(
      groups, GroupMirror{std::vector<rsm::DeliveryLog>(n),
                          std::vector<rsm::KvStore>(n),
                          std::vector<std::vector<std::size_t>>(n)});

  rt::ClusterConfig ccfg;
  ccfg.node = s.node;
  ccfg.fd_timeout_us = s.fd_timeout_us;
  ccfg.suspect_partitions = s.fd_suspect_partitions;
  ccfg.storage = s.storage;
  if (s.storage.enabled()) {
    // A stale data dir would replay a previous run's WAL into this one;
    // wiping keeps every run reproducible from (scenario, seed) alone.
    std::filesystem::remove_all(s.storage.data_dir);
    std::filesystem::create_directories(s.storage.data_dir);
  }

  shard::ShardRouter* router_ptr = nullptr;
  wl::ClientPool* pool_ptr = nullptr;
  // The delivering group, set before the pool upcall so the completion hook
  // (which fires only inside it) can attribute the completion.
  std::uint32_t completing_group = 0;

  shard::ShardedCluster cluster(
      sim, s.topology, ccfg, groups,
      [&s, &result, n](std::uint32_t g) {
        return make_factory(s, result.per_node, g * n);
      },
      [&](std::uint32_t g, NodeId node, const rsm::Command& cmd) {
        GroupMirror& m = mirrors[g];
        m.logs[node].record(cmd);
        m.kvs[node].apply(cmd);
        if (router_ptr != nullptr) router_ptr->on_delivery(g, node, cmd);
        if (pool_ptr != nullptr) {
          completing_group = g;
          pool_ptr->on_delivery(node, cmd);
        }
      });
  cluster.set_instance_hook([&](std::uint32_t g, NodeId node) {
    mirrors[g].marks[node].push_back(mirrors[g].logs[node].size());
  });

  shard::ShardRouter router(
      cluster, shard::ShardMap(s.shards, s.workload.key_dist.keyspace));
  router_ptr = &router;
  wl::ClientPool pool(sim, router, s.workload, sim.rng().fork(), s.phases,
                      s.duration);
  pool_ptr = &pool;
  router.set_loss_hook([&pool](ReqId req) { pool.on_request_lost(req); });

  // Keep the harness-side mirrors honest across durability events. A restart
  // rolls a node's observable history back to its durable prefix (or, when
  // its WAL was compacted, to the retained suffix — the mirror log turns
  // trimmed and the oracle switches to suffix semantics); a catch-up
  // snapshot install replaces the store wholesale mid-run.
  cluster.set_restart_hook([&](std::uint32_t g, NodeId node,
                               const caesar::storage::RecoveredState& st) {
    GroupMirror& m = mirrors[g];
    if (st.trimmed) {
      m.logs[node].reset_trimmed();
      // Re-base the marks: durable counts below the retained suffix are
      // unreachable from here on (a later restart can never roll back past
      // this snapshot), so their marks are placeholders.
      m.marks[node].assign(st.delivered_count - st.log.entries().size(), 0);
      for (const auto& [index, cmd] : st.log.entries()) {
        record_unbundled(m.logs[node], cmd);
        m.marks[node].push_back(m.logs[node].size());
      }
    } else {
      const std::size_t d = st.delivered_count;
      if (d < m.marks[node].size()) m.marks[node].resize(d);
      m.logs[node].truncate(d == 0 ? 0 : m.marks[node][d - 1]);
    }
    m.kvs[node] = st.store;
  });
  cluster.set_snapshot_install_hook(
      [&](std::uint32_t g, NodeId node, const rsm::KvStore& store,
          std::uint64_t delivered) {
        GroupMirror& m = mirrors[g];
        m.logs[node].reset_trimmed();
        m.marks[node].assign(delivered, 0);
        m.kvs[node] = store;
      });

  std::size_t widx = 0;
  std::vector<std::size_t> group_widx(result.shards.size(), 0);
  pool.set_completion_hook([&](const wl::Completion& c) {
    result.timeline.record(c.complete_time);
    ShardMetrics* sm =
        result.sharded() ? &result.shards[completing_group] : nullptr;
    if (sm != nullptr) ++sm->completed;
    if (c.complete_time < s.warmup) return;
    const Time latency = c.complete_time - c.submit_time;
    result.total_latency.record(latency);
    result.sites[c.site].latency.record(latency);
    record_in_window(result.windows, widx, c.complete_time, latency);
    if (sm != nullptr) {
      sm->latency.record(latency);
      record_in_window(sm->windows, group_widx[completing_group],
                       c.complete_time, latency);
    }
  });

  cluster.start();
  pool.start();

  // A whole-site crash: the pool reassigns the site's own clients first (in
  // client order), so the router's loss reports cover only the requests it
  // had diverted to this site from others. A group-scoped crash is invisible
  // to the pool; the router alone fails its requests over.
  auto site_crashed = [&pool, &router, groups](NodeId node) {
    pool.on_node_crashed(node);
    for (std::uint32_t g = 0; g < groups; ++g) {
      router.on_group_node_crashed(g, node);
    }
  };

  // Fault schedule: each event fires at its instant, in timeline order.
  for (const FaultEvent& e : s.faults) {
    sim.at(e.at, [&cluster, &router, &pool, &site_crashed, e, groups, n] {
      const bool whole_site = e.group == FaultEvent::kAllGroups;
      switch (e.kind) {
        case FaultEvent::Kind::kCrash:
          cluster.crash(e.group, e.node);
          if (whole_site) {
            site_crashed(e.node);
          } else {
            router.on_group_node_crashed(static_cast<std::uint32_t>(e.group),
                                         e.node);
          }
          break;
        case FaultEvent::Kind::kRecover:
          cluster.recover(e.group, e.node);
          if (whole_site) pool.on_node_recovered(e.node);
          break;
        case FaultEvent::Kind::kPartition:
          cluster.set_link(e.group, e.a, e.b, false);
          break;
        case FaultEvent::Kind::kHeal:
          cluster.set_link(e.group, e.a, e.b, true);
          break;
        case FaultEvent::Kind::kPowerLoss:
          // Only replicas still up go down: rt::Cluster::crash is not
          // idempotent (it re-arms the failure detector).
          for (NodeId i = 0; i < n; ++i) {
            if (cluster.site_fully_crashed(i)) continue;
            for (std::uint32_t g = 0; g < groups; ++g) {
              rt::Cluster& group = cluster.group(g);
              if (!group.node(i).crashed()) group.crash(i);
            }
            site_crashed(i);
          }
          break;
        case FaultEvent::Kind::kRestart:
          cluster.restart(e.group, e.node);
          if (whole_site) pool.on_node_recovered(e.node);
          break;
      }
    });
  }

  // Window-boundary snapshots of the monotone counters, run-wide and per
  // group. Interior boundaries fire as events — scheduled before the run
  // starts, so at a shared instant they execute ahead of activity scheduled
  // later, matching the half-open window rule — and the final boundary is
  // read after the run.
  std::vector<BoundarySnap> snaps(result.windows.size() + 1);
  auto capture = [&result, &pool, &cluster, &router, groups, n](
                     BoundarySnap& snap) {
    snap.run = Counts{};
    snap.run.submitted = pool.submitted();
    snap.groups.resize(groups);
    for (std::uint32_t g = 0; g < groups; ++g) {
      const net::Network& net = cluster.group(g).network();
      Counts& c = snap.groups[g];
      c.proto = aggregate_counters(result.per_node, g * n, n);
      c.submitted = router.stats().routed[g];
      c.messages = net.messages_delivered();
      c.bytes = net.bytes_sent();
      snap.run.proto += c.proto;
      snap.run.messages += c.messages;
      snap.run.bytes += c.bytes;
    }
    snap.pools.resize(result.per_node.size());
    for (std::size_t i = 0; i < result.per_node.size(); ++i) {
      snap.pools[i] = result.per_node[i].sample_counts();
    }
  };
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    sim.at(result.windows[i].begin, [&capture, &snaps, i] { capture(snaps[i]); });
  }

  sim.run_until(s.duration);
  capture(snaps.back());

  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    const BoundarySnap& from = snaps[i];
    const BoundarySnap& to = snaps[i + 1];
    fill_window(result.windows[i], from.run, to.run, from, to, result.per_node,
                0, result.per_node.size());
    for (std::uint32_t g = 0; g < result.shards.size(); ++g) {
      fill_window(result.shards[g].windows[i], from.groups[g], to.groups[g],
                  from, to, result.per_node, g * n, g * n + n);
    }
  }

  result.completed = pool.completed();
  result.submitted = pool.submitted();
  const double window_s =
      static_cast<double>(s.duration - s.warmup) / static_cast<double>(kSec);
  auto tput = [window_s](const stats::LatencyStats& l) {
    return window_s > 0 ? static_cast<double>(l.count()) / window_s : 0.0;
  };
  result.throughput_tps = tput(result.total_latency);
  result.proto = aggregate(result.per_node);
  result.messages = snaps.back().run.messages;
  result.bytes = snaps.back().run.bytes;
  result.fd_suspicions = cluster.fd_suspicions();
  result.fd_retractions = cluster.fd_retractions();
  result.flow_control.enabled = pool.flow_control_enabled();
  result.flow_control.admitted = pool.flow_admitted();
  result.flow_control.deferred = pool.flow_deferred();
  result.flow_control.shed = pool.flow_shed();

  for (std::uint32_t g = 0; g < groups; ++g) {
    GroupMirror& m = mirrors[g];
    const bool agree = logs_agree(m.logs);
    result.consistent = result.consistent && agree;
    // The final replica state goes to the caller: the oracle needs the logs
    // and stores themselves, plus which nodes were still down when the run
    // ended (a crashed-forever node legitimately trails the cluster).
    auto hand_over = [&](auto& dst) {
      dst.delivery_logs = std::move(m.logs);
      dst.stores = std::move(m.kvs);
      dst.crashed_at_end.resize(n);
      for (NodeId i = 0; i < n; ++i) {
        dst.crashed_at_end[i] = cluster.group(g).node(i).crashed();
      }
    };
    if (!result.sharded()) {
      hand_over(result);  // a one-group run keeps it at the top level
      continue;
    }
    ShardMetrics& sm = result.shards[g];
    const net::Network& net = cluster.group(g).network();
    sm.routed = router.stats().routed[g];
    sm.throughput_tps = tput(sm.latency);
    sm.messages = net.messages_delivered();
    sm.bytes = net.bytes_sent();
    sm.proto = aggregate(result.per_node, g * n, n);
    sm.fd_suspicions = cluster.group(g).fd_suspicions();
    sm.fd_retractions = cluster.group(g).fd_retractions();
    sm.consistent = agree;
    hand_over(sm);
  }
  if (result.sharded()) result.router.reroutes = router.stats().reroutes;
  return result;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

std::map<std::string, ScenarioInfo, std::less<>>& registry() {
  static std::map<std::string, ScenarioInfo, std::less<>> reg;
  return reg;
}

void register_builtins();

/// Lazily installs the built-ins exactly once. The flag is flipped before
/// registering so the register_scenario calls inside register_builtins do
/// not recurse back here.
void ensure_builtins() {
  static bool done = false;
  if (done) return;
  done = true;
  register_builtins();
}

/// The rejoin scenarios' shared prefix: Mencius under 6 closed-loop clients
/// per site at 10% conflicts, a 500 ms failure detector, and a quiesce tail
/// from t=10s that lets the consistency oracle prove convergence.
ScenarioBuilder rejoin_base(std::string name, std::uint64_t seed) {
  wl::WorkloadConfig w;
  w.clients_per_site = 6;
  w.conflict_fraction = 0.10;
  w.reconnect_delay_us = 1 * kSec;
  ScenarioBuilder b(std::move(name));
  b.protocol(ProtocolKind::kMencius)
      .workload(w)
      .closed_loop(0, 6)
      .quiesce(10 * kSec)
      .fd_timeout(500 * kMs)
      .duration(12 * kSec)
      .warmup(1 * kSec)
      .seed(seed);
  return b;
}

void register_builtins() {
  register_scenario(ScenarioInfo{
      "quickstart",
      "CAESAR on the paper's five-site EC2 topology: 10 closed-loop clients "
      "per site, 10% conflicts, 10s run",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 200 * kMs;
        return ScenarioBuilder("quickstart")
            .protocol(ProtocolKind::kCaesar)
            .clients_per_site(10)
            .conflicts(0.10)
            .caesar(caesar)
            .duration(10 * kSec)
            .warmup(2 * kSec)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "fig12-failover",
      "Paper Fig 12: 500 closed-loop clients/site, Frankfurt crashes at "
      "t=20s, its clients reconnect; throughput timeline shows dip+recovery",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 100 * kMs;
        rt::NodeConfig node;
        node.base_service_us = 12;
        wl::WorkloadConfig w;
        w.clients_per_site = 500;
        w.conflict_fraction = 0.02;
        w.reconnect_delay_us = 2 * kSec;
        return ScenarioBuilder("fig12-failover")
            .protocol(ProtocolKind::kCaesar)
            .workload(w)
            .node(node)
            .caesar(caesar)
            .crash(2, 20 * kSec)  // Frankfurt, as in the paper
            .fd_timeout(1 * kSec)
            .duration(40 * kSec)
            .warmup(0)
            .seed(12)
            .timeline_bucket(1 * kSec)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "partition-heal",
      "Virginia loses its links to Frankfurt and Ireland between t=4s and "
      "t=8s (fast quorum unreachable from Virginia), then the links heal; "
      "the fast path dips while the links are cut and recovers after",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 200 * kMs;
        return ScenarioBuilder("partition-heal")
            .protocol(ProtocolKind::kCaesar)
            .clients_per_site(8)
            .conflicts(0.10)
            .caesar(caesar)
            .partition(0, 2, 4 * kSec)
            .partition(0, 3, 4 * kSec)
            .heal(0, 2, 8 * kSec)
            .heal(0, 3, 8 * kSec)
            .duration(14 * kSec)
            .warmup(1 * kSec)
            .seed(7)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "crash-recover",
      "Frankfurt crashes at t=4s and rejoins (state intact) at t=8s; "
      "exercises Recover events and the failure detector's retraction path",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 200 * kMs;
        wl::WorkloadConfig w;
        w.clients_per_site = 8;
        w.conflict_fraction = 0.05;
        w.reconnect_delay_us = 1 * kSec;
        return ScenarioBuilder("crash-recover")
            .protocol(ProtocolKind::kCaesar)
            .workload(w)
            .caesar(caesar)
            .crash(2, 4 * kSec)
            .recover(2, 8 * kSec)
            .fd_timeout(500 * kMs)
            .duration(14 * kSec)
            .warmup(1 * kSec)
            .seed(9)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "crash-long",
      "Rejoin state transfer: Frankfurt is down from t=3s to t=6s — far "
      "longer than any in-flight window — then rejoins and catches up on "
      "the committed suffix it missed from a live peer; a quiesce tail "
      "lets the consistency oracle prove its log and store converged "
      "(default protocol Mencius, where a missed slot was previously "
      "silently skipped)",
      [] {
        return rejoin_base("crash-long", 23)
            .crash(2, 3 * kSec)
            .recover(2, 6 * kSec)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "dead-node",
      "Dead-node revocation: Mumbai crashes at t=3s and never returns; the "
      "cluster keeps delivering past its slots (Mencius revokes them by "
      "quorum agreement, Clock-RSM excludes its frozen clock) instead of "
      "wedging behind an owner that will never answer; quiesce tail for "
      "the consistency oracle",
      [] { return rejoin_base("dead-node", 29).crash(4, 3 * kSec).build(); }});

  register_scenario(ScenarioInfo{
      "power-loss",
      "Whole-cluster power loss at t=4s: every node crashes at once and "
      "restarts from its WAL one second later — unflushed group-commit "
      "batches are gone, so the replicas resume from (possibly different) "
      "durable prefixes, reconcile via catch-up and converge; quiesce tail "
      "for the consistency oracle",
      [] {
        ScenarioBuilder b = rejoin_base("power-loss", 31);
        b.power_loss(4 * kSec).data_dir("caesar-data/power-loss");
        for (NodeId i = 0; i < 5; ++i) b.restart(i, 5 * kSec);
        return b.build();
      }});

  register_scenario(ScenarioInfo{
      "restart-disk",
      "Restart-from-disk: Frankfurt is down from t=3s to t=6s, then comes "
      "back from its own snapshot + WAL instead of empty — replay rebuilds "
      "the durable prefix locally, the PR-5 catch-up path fetches only the "
      "suffix it missed; quiesce tail for the consistency oracle",
      [] {
        return rejoin_base("restart-disk", 37)
            .crash(2, 3 * kSec)
            .restart(2, 6 * kSec)
            .data_dir("caesar-data/restart-disk")
            .build();
      }});

  register_scenario(ScenarioInfo{
      "rate-sweep",
      "Open-loop Poisson load stepping 500 -> 2000 -> 4000 cmd/s mid-run; "
      "demonstrates workload-phase switching and rate tracking",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 100 * kMs;
        return ScenarioBuilder("rate-sweep")
            .protocol(ProtocolKind::kCaesar)
            .conflicts(0.02)
            .caesar(caesar)
            .open_loop(0, 500.0)
            .open_loop(4 * kSec, 2000.0)
            .open_loop(8 * kSec, 4000.0)
            .duration(12 * kSec)
            .warmup(1 * kSec)
            .seed(11)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "rate-ramp",
      "Open-loop arrivals ramping linearly 500 -> 4000 cmd/s across the run "
      "(ScenarioBuilder::ramp); 2s metrics windows expose the climb",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 100 * kMs;
        return ScenarioBuilder("rate-ramp")
            .protocol(ProtocolKind::kCaesar)
            .conflicts(0.02)
            .caesar(caesar)
            .ramp(0, 500.0, 4000.0)
            .metrics_window(2 * kSec)
            .duration(12 * kSec)
            .warmup(0)
            .seed(17)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "saturation",
      "Fig 9 saturation machinery: 5-site LAN, 100 closed-loop clients/site "
      "driving the full stack — proposal batching, an 8-instance pipeline "
      "window, send coalescing — then an open-loop overload tail far past "
      "the saturation point, flow-controlled (shed) so throughput holds "
      "instead of collapsing; 1s metrics windows expose the plateau",
      [] {
        return ScenarioBuilder("saturation")
            .protocol(ProtocolKind::kMencius)
            .topology(net::Topology::lan(5))
            .uniform_keys(1ull << 16)
            .batching()
            .batch_delay(1000)
            .batch_max_ops(64)
            .pipeline_window(8)
            .coalescing()
            .max_inflight(128)
            .overload_policy(wl::OverloadPolicy::kShed)
            .closed_loop(0, 100)
            .open_loop(5 * kSec, 600000.0)
            .metrics_window(1 * kSec)
            .duration(9 * kSec)
            .warmup(1 * kSec)
            .seed(29)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "sharded-saturation",
      "Multi-group scaling: 4 hash-partitioned consensus groups on a 5-site "
      "LAN, 100 closed-loop clients/site drawing uniform keys — each group "
      "orders only its own keyspace slice, so aggregate throughput scales "
      "with the group count while a single CPU-saturated group cannot",
      [] {
        return ScenarioBuilder("sharded-saturation")
            .protocol(ProtocolKind::kMencius)
            .topology(net::Topology::lan(5))
            .clients_per_site(100)
            .uniform_keys(1ull << 16)
            .shards(4)
            .duration(4 * kSec)
            .warmup(1 * kSec)
            .seed(41)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "sharded-fault",
      "Asymmetric fault isolation: 4 groups, group 1's Frankfurt replica "
      "crashes at t=4s and recovers at t=8s while the other groups' replicas "
      "at the same site keep running; only group 1's throughput dips, the "
      "router fails its traffic over, and a quiesce tail lets every group's "
      "consistency oracle prove convergence",
      [] {
        wl::WorkloadConfig w;
        w.clients_per_site = 40;
        w.reconnect_delay_us = 500 * kMs;
        w.key_dist.dist = wl::KeyDist::kUniform;
        w.key_dist.keyspace = 1ull << 16;
        return ScenarioBuilder("sharded-fault")
            .protocol(ProtocolKind::kMencius)
            .topology(net::Topology::lan(5))
            .workload(w)
            .closed_loop(0, 40)
            .quiesce(10 * kSec)
            .shards(4)
            .crash(2, 4 * kSec, /*group=*/1)
            .recover(2, 8 * kSec, /*group=*/1)
            .fd_timeout(500 * kMs)
            .metrics_window(2 * kSec)
            .duration(12 * kSec)
            .warmup(1 * kSec)
            .seed(43)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "partition-suspect",
      "FD/partition coupling: the Ohio<->Frankfurt link is cut from t=3s to "
      "t=9s, far past the 500ms FD timeout, so each side suspects the other "
      "(recovery of in-flight commands runs against a live owner) and the "
      "suspicion retracts after the heal",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 200 * kMs;
        return ScenarioBuilder("partition-suspect")
            .protocol(ProtocolKind::kCaesar)
            .clients_per_site(6)
            .conflicts(0.10)
            .caesar(caesar)
            .partition(1, 2, 3 * kSec)
            .heal(1, 2, 9 * kSec)
            .fd_timeout(500 * kMs)
            .fd_suspect_partitions()
            .duration(12 * kSec)
            .warmup(1 * kSec)
            .seed(19)
            .build();
      }});
}

}  // namespace

void register_scenario(ScenarioInfo info) {
  ensure_builtins();
  auto& reg = registry();
  std::string key = info.name;
  reg[std::move(key)] = std::move(info);
}

bool has_scenario(std::string_view name) {
  ensure_builtins();
  const auto& reg = registry();
  return reg.find(name) != reg.end();
}

Scenario make_scenario(std::string_view name) {
  ensure_builtins();
  const auto& reg = registry();
  auto it = reg.find(name);
  if (it == reg.end()) {
    std::ostringstream os;
    os << "unknown scenario '" << name << "'; available:";
    for (const auto& [key, info] : reg) os << " " << key;
    throw std::invalid_argument(os.str());
  }
  return it->second.make();
}

std::vector<ScenarioInfo> list_scenarios() {
  ensure_builtins();
  std::vector<ScenarioInfo> out;
  for (const auto& [key, info] : registry()) out.push_back(info);
  return out;
}

}  // namespace caesar::harness
