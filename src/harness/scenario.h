// Scenario API: what one simulated run does, as data.
//
// A Scenario is (1) a protocol + topology + node/runtime knobs, (2) an
// ordered *fault schedule* — crashes, recoveries, link partitions and heals
// executed by the cluster at precise simulated instants — and (3) a list of
// *workload phases* (closed-loop, open-loop Poisson, think-time variants)
// the client pool switches through mid-run. Scenarios are built fluently:
//
//   Scenario s = ScenarioBuilder("partition-heal")
//                    .protocol(ProtocolKind::kCaesar)
//                    .clients_per_site(10)
//                    .conflicts(0.1)
//                    .partition(0, 2, 4 * kSec)
//                    .heal(0, 2, 8 * kSec)
//                    .duration(12 * kSec)
//                    .build();
//   RunReport r = run_scenario(s);
//
// Well-known scenarios (the paper's figures and extensions) live in a global
// registry so benches, examples and the CLI can select them by name.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "core/caesar.h"
#include "epaxos/epaxos.h"
#include "harness/run_report.h"
#include "multipaxos/multipaxos.h"
#include "net/topology.h"
#include "runtime/cluster.h"
#include "shard/shard_map.h"
#include "stats/protocol_stats.h"
#include "workload/client_pool.h"

namespace caesar::harness {

enum class ProtocolKind {
  kCaesar,
  kEPaxos,
  kM2Paxos,
  kMencius,
  kMultiPaxos,
  kClockRsm,  // extension: related-work baseline (paper §II)
};

struct Scenario;

/// What the harness knows of one protocol; protocol_table() has one row per
/// ProtocolKind.
struct ProtocolInfo {
  ProtocolKind kind;
  /// In reports and provenance ("Caesar").
  std::string_view name;
  /// In scenario files and `--set protocol=` ("caesar").
  std::string_view key;
  /// Counts quorum acks or suspected peers in 64-bit node bitmasks, so runs
  /// on at most 64 sites.
  bool bitmask_sites;
  /// Builds one node's instance, from the scenario's config member for this
  /// protocol if it has one, its counters landing in `stats`.
  std::unique_ptr<rt::Protocol> (*make)(const Scenario& s, rt::Env& env,
                                        rt::Protocol::DeliverFn deliver,
                                        stats::ProtocolStats* stats);
};

/// Every protocol's row, in ProtocolKind order.
std::span<const ProtocolInfo> protocol_table();
/// The row of `kind`; throws std::invalid_argument for a value outside the
/// enum.
const ProtocolInfo& protocol_info(ProtocolKind kind);

/// The report name, protocol_info(kind).name.
std::string_view to_string(ProtocolKind kind);

/// One entry of a scenario's fault timeline.
struct FaultEvent {
  /// kPowerLoss crashes every live node at once (whatever their WALs had
  /// not flushed is gone); kRestart brings a crashed node back from its
  /// durable state via Cluster::restart (snapshot + WAL replay, then
  /// catch-up from live peers). Both require the scenario to set a storage
  /// data dir.
  enum class Kind { kCrash, kRecover, kPartition, kHeal, kPowerLoss, kRestart };

  Kind kind = Kind::kCrash;
  Time at = 0;
  /// Crash/Recover/Restart target.
  NodeId node = kNoNode;
  /// Partition/Heal link endpoints.
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  /// Sharded runs: which consensus group the fault hits. kAllGroups (the
  /// default, and the only value validate_scenario accepts when
  /// shards.count == 1) applies the fault to every group at once — the whole
  /// machine at that site fails; a specific group models an asymmetric fault
  /// that leaves the site's other group replicas running.
  static constexpr std::int32_t kAllGroups = -1;
  std::int32_t group = kAllGroups;

  static FaultEvent Crash(NodeId node, Time at, std::int32_t group = kAllGroups);
  static FaultEvent Recover(NodeId node, Time at,
                            std::int32_t group = kAllGroups);
  static FaultEvent Partition(NodeId a, NodeId b, Time at,
                              std::int32_t group = kAllGroups);
  static FaultEvent Heal(NodeId a, NodeId b, Time at,
                         std::int32_t group = kAllGroups);
  static FaultEvent PowerLoss(Time at);
  static FaultEvent Restart(NodeId node, Time at);
};

std::string to_string(const FaultEvent& e);

struct Scenario {
  std::string name = "unnamed";
  ProtocolKind protocol = ProtocolKind::kCaesar;
  net::Topology topology = net::Topology::ec2_five_sites();
  /// Base workload knobs (conflict model, reconnect delay) shared by all
  /// phases; clients_per_site/think_us seed the default phase when `phases`
  /// is empty.
  wl::WorkloadConfig workload;
  /// Workload phases in time order; empty = one closed-loop phase at t=0
  /// built from `workload`.
  std::vector<wl::PhaseSpec> phases;
  /// Keyspace sharding across independent consensus groups. Every run routes
  /// through shard::ShardRouter; count == 1 (the default) is the classic
  /// one-group run, and count > 1 adds per-group rollups to the report.
  /// Range partitioning splits workload.key_dist.keyspace.
  shard::ShardSpec shards;
  /// Fault timeline; executed in time order during the run.
  std::vector<FaultEvent> faults;
  rt::NodeConfig node;
  /// Durable storage (WAL + snapshots). Off unless data_dir is set; the
  /// runner wipes and recreates the directory at the start of each run so
  /// results stay reproducible. Required by kPowerLoss/kRestart faults.
  storage::StorageConfig storage;
  Time fd_timeout_us = 500 * kMs;
  /// FD/partition coupling: a peer whose link stays cut past fd_timeout_us
  /// is suspected by the node on the far side, and the suspicion retracts
  /// (after another detector delay) once the link heals.
  bool fd_suspect_partitions = false;

  /// Total simulated run length and measurement warmup cutoff.
  Time duration = 12 * kSec;
  Time warmup = 3 * kSec;
  std::uint64_t seed = 1;

  // Protocol-specific knobs (M2Paxos and Mencius have none).
  core::CaesarConfig caesar;
  epaxos::EPaxosConfig epaxos;
  clockrsm::ClockRsmConfig clockrsm;
  mpaxos::MultiPaxosConfig multipaxos{/*leader=*/3};  // Ireland by default

  Time timeline_bucket = 500 * kMs;
  /// Fixed metrics-window width (0 = one window per workload phase instead).
  /// When set, the runner slices [warmup, duration) into windows of this
  /// width, each with its own latency pool and counter deltas, so e.g. a
  /// fast-path fraction can be read before, during and after a fault.
  Time metrics_window_us = 0;
};

/// Fluent scenario construction. All setters return *this; build() validates
/// and returns the finished scenario (it does not consume the builder, so
/// variants can be forked from a common prefix).
class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;
  explicit ScenarioBuilder(std::string name) { s_.name = std::move(name); }
  /// Starts from an existing scenario (e.g. a registry entry) to derive a
  /// variant.
  explicit ScenarioBuilder(Scenario base) : s_(std::move(base)) {}

  ScenarioBuilder& name(std::string v);
  ScenarioBuilder& protocol(ProtocolKind v);
  ScenarioBuilder& topology(net::Topology v);
  ScenarioBuilder& duration(Time v);
  ScenarioBuilder& warmup(Time v);
  ScenarioBuilder& seed(std::uint64_t v);
  ScenarioBuilder& node(rt::NodeConfig v);
  ScenarioBuilder& fd_timeout(Time v);
  ScenarioBuilder& fd_suspect_partitions(bool v = true);

  // Saturation machinery: proposal batching, instance pipelining and send
  // coalescing (rt::NodeConfig knobs), plus open-loop flow control
  // (wl::WorkloadConfig knobs). All default off/1 — disabled runs are
  // byte-identical per seed to a tree without these features.
  ScenarioBuilder& batching(bool v = true);
  ScenarioBuilder& batch_delay(Time v);
  ScenarioBuilder& batch_max_ops(std::size_t v);
  ScenarioBuilder& pipeline_window(std::size_t v);
  ScenarioBuilder& coalescing(bool v = true);
  ScenarioBuilder& max_inflight(std::uint32_t v);
  ScenarioBuilder& overload_policy(wl::OverloadPolicy v);
  ScenarioBuilder& overload_queue_cap(std::size_t v);

  // Workload.
  ScenarioBuilder& workload(wl::WorkloadConfig v);
  ScenarioBuilder& clients_per_site(std::uint32_t v);
  ScenarioBuilder& conflicts(double fraction);
  /// Key distribution over a global keyspace (uniform/Zipfian); the
  /// default stays the paper's conflict model.
  ScenarioBuilder& uniform_keys(std::uint64_t keyspace);
  ScenarioBuilder& zipfian(double theta, std::uint64_t keyspace);

  // Sharding.
  /// Partitions the keyspace across `count` independent consensus groups.
  /// kRange splits workload.key_dist.keyspace, set before or after this
  /// call.
  ScenarioBuilder& shards(std::uint32_t count,
                          shard::Partition partition = shard::Partition::kHash);
  /// Appends a closed-loop phase starting at `at`.
  ScenarioBuilder& closed_loop(Time at, std::uint32_t clients_per_site,
                               Time think_us = 0);
  /// Appends an open-loop phase: Poisson arrivals at `rate_tps` commands/s
  /// (total across sites) starting at `at`.
  ScenarioBuilder& open_loop(Time at, double rate_tps);
  /// Appends an open-loop phase whose arrival rate ramps linearly from
  /// `from_tps` to `to_tps` between `at` and the next phase start (or the
  /// end of the run).
  ScenarioBuilder& ramp(Time at, double from_tps, double to_tps);
  /// Appends a quiesce phase: submissions stop at `at`, in-flight commands
  /// drain and the replicas converge — the tail fault scenarios need before
  /// the consistency oracle compares stores.
  ScenarioBuilder& quiesce(Time at);

  // Fault schedule. A `group` (sharded scenarios only) scopes the fault to
  // one consensus group's replica while the site's other groups keep
  // running; the default hits every group (see FaultEvent::group).
  ScenarioBuilder& crash(NodeId node, Time at,
                         std::int32_t group = FaultEvent::kAllGroups);
  ScenarioBuilder& recover(NodeId node, Time at,
                           std::int32_t group = FaultEvent::kAllGroups);
  ScenarioBuilder& partition(NodeId a, NodeId b, Time at,
                             std::int32_t group = FaultEvent::kAllGroups);
  ScenarioBuilder& heal(NodeId a, NodeId b, Time at,
                        std::int32_t group = FaultEvent::kAllGroups);
  /// Full-cluster power loss: every live node crashes at `at`.
  ScenarioBuilder& power_loss(Time at);
  /// Restart-from-disk of a crashed node (requires data_dir()).
  ScenarioBuilder& restart(NodeId node, Time at);

  // Durable storage.
  ScenarioBuilder& data_dir(std::string v);
  ScenarioBuilder& sync_mode(storage::SyncMode v);

  // Protocol knobs.
  ScenarioBuilder& caesar(core::CaesarConfig v);
  ScenarioBuilder& epaxos(epaxos::EPaxosConfig v);
  ScenarioBuilder& multipaxos_leader(NodeId leader);

  ScenarioBuilder& timeline_bucket(Time v);
  ScenarioBuilder& metrics_window(Time width);

  /// Validates (throws std::invalid_argument on inconsistency) and returns
  /// the scenario with faults and phases sorted by time.
  Scenario build() const;

 private:
  Scenario s_;
};

/// Checks a scenario against its own topology: protocol knobs that index
/// sites (Multi-Paxos leader, CAESAR fast-quorum override), fault-event
/// targets, phase ordering and rates, warmup vs duration, timeline bucket
/// and failure-detector timeout (which must stay below Mencius's and
/// Multi-Paxos's resync grace). Throws
/// std::invalid_argument with a precise message on the first violation.
void validate_scenario(const Scenario& s);

/// Runs one scenario to completion. Deterministic in s.seed. Validates
/// first (see validate_scenario). The report carries per-window metrics
/// (per-phase, or fixed-width via Scenario::metrics_window_us), run
/// provenance and every replica's final state besides the run-wide
/// aggregates. Every run drives
/// s.shards.count consensus groups behind a shard::ShardRouter; a classic
/// scenario is a one-group run, and only a sharded one (count > 1) adds the
/// per-group rollups (RunReport::shards, RunReport::router).
RunReport run_scenario(const Scenario& s);

/// run_scenario's building blocks, exposed for programs that assemble the
/// same run by hand (the host-cost benchmark). Not a stable API.
namespace detail {

/// Protocol factory for one consensus group; each node's counters land in
/// stats[offset + node] (run_scenario packs per-node stats group-major into
/// one flat vector).
rt::Cluster::ProtocolFactory make_factory(const Scenario& s,
                                          std::vector<stats::ProtocolStats>& stats,
                                          std::size_t offset = 0);

/// Sums protocol stats over per_node[offset, offset+count); count ==
/// SIZE_MAX sums to the end.
stats::ProtocolStats aggregate(const std::vector<stats::ProtocolStats>& per_node,
                               std::size_t offset = 0,
                               std::size_t count = SIZE_MAX);

/// Mirrors one protocol-level delivery into a harness log: a batch composite
/// records as its individual member commands (the same unbundling the
/// cluster's delivery hook applies), everything else records as-is.
void record_unbundled(rsm::DeliveryLog& log, const rsm::Command& cmd);

}  // namespace detail

// ---------------------------------------------------------------------------
// Named scenario registry
// ---------------------------------------------------------------------------

struct ScenarioInfo {
  std::string name;
  std::string description;
  std::function<Scenario()> make;
};

/// Registers (or replaces) a named scenario.
void register_scenario(ScenarioInfo info);

bool has_scenario(std::string_view name);

/// Instantiates a registered scenario. Throws std::invalid_argument naming
/// the available scenarios when `name` is unknown.
Scenario make_scenario(std::string_view name);

/// All registered scenarios (built-ins included), sorted by name.
std::vector<ScenarioInfo> list_scenarios();

}  // namespace caesar::harness
