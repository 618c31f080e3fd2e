// Client pools driving the cluster, mirroring the paper's measurement
// methodology (§VI) and extending it with scenario-composable phases:
//
//   * closed loop (the paper's default): clients co-located with each site
//     submit a command, wait until their local replica delivers it, then —
//     after an optional think time — immediately submit the next one;
//   * open loop: Poisson arrivals at a configured total rate, spread evenly
//     across sites, independent of completions (models external traffic that
//     does not back off when the system slows down).
//
// A pool runs an ordered list of phases and switches mode/parameters mid-run
// at each phase boundary, which is how scenarios express load ramps.
//
// The pool also implements the Fig 12 failover behaviour: when a node
// crashes, its clients time out and reconnect to the next live site,
// resubmitting their in-flight request under a fresh request id. Open-loop
// arrivals destined for a crashed site divert to the next live one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/cluster.h"
#include "workload/key_chooser.h"

namespace caesar::wl {

/// What the pool does with an open-loop arrival over the in-flight limit:
/// park it in a bounded queue and admit it when a slot frees (overflow still
/// sheds), or drop it outright.
enum class OverloadPolicy { kShed, kQueue };

struct WorkloadConfig {
  std::uint32_t clients_per_site = 10;
  double conflict_fraction = 0.0;
  std::uint64_t shared_pool_size = 100;
  /// Key distribution: the paper's conflict model by default; uniform or
  /// Zipfian over a global keyspace for shard/skew experiments.
  KeyDistConfig key_dist;
  /// Optional per-request think time (0 = saturating closed loop).
  Time think_us = 0;
  /// How long a crashed site's clients wait before reconnecting elsewhere.
  Time reconnect_delay_us = 2 * kSec;
  /// Open-loop flow control: at most this many open-loop requests in flight
  /// per site before new arrivals are deferred or shed (0 = unlimited, the
  /// classic back-off-free open loop). Closed-loop clients self-limit and
  /// are never gated.
  std::uint32_t max_inflight = 0;
  OverloadPolicy overload_policy = OverloadPolicy::kQueue;
  /// Bound on the per-site deferred-arrival queue (kQueue only); arrivals
  /// beyond it are shed.
  std::size_t overload_queue_cap = 1024;
};

/// What the client pool submits into. harness::run_scenario submits through
/// shard::ShardRouter, which routes each command to its owning consensus
/// group (a classic run has one).
class Frontend {
 public:
  virtual ~Frontend() = default;
  /// Number of client attachment points (sites).
  virtual std::size_t sites() const = 0;
  /// True when no replica at `site` can take submissions any more (for a
  /// sharded frontend: crashed in every group) — clients reconnect elsewhere.
  virtual bool crashed(NodeId site) const = 0;
  /// Submits `cmd`, a one-op command (batches form after routing, inside
  /// the node), on behalf of a client attached to `site`. Returns the node
  /// the command actually went to — usually `site`, but a routing frontend
  /// may divert around a group-scoped crash — or kNoNode when the command
  /// was dropped (target dead). Completion is observed as a delivery at the
  /// returned node.
  virtual NodeId submit(NodeId site, rsm::Command cmd) = 0;
};

/// One segment of a phased workload. Phases are applied in order of `at`;
/// the first phase usually starts at 0.
struct PhaseSpec {
  /// kOpenLoopRamp is an open-loop phase whose rate moves linearly from
  /// arrival_rate_tps at the phase start to ramp_to_tps at the next phase
  /// start (or the pool's horizon for the last phase), then holds.
  /// kQuiesce stops all submissions: in-flight commands drain and the
  /// replicas converge, which is what the consistency oracle needs at the
  /// end of a fault scenario.
  enum class Mode { kClosedLoop, kOpenLoop, kOpenLoopRamp, kQuiesce };

  Time at = 0;
  Mode mode = Mode::kClosedLoop;
  /// Closed loop: active clients per site and per-request think time.
  std::uint32_t clients_per_site = 10;
  Time think_us = 0;
  /// Open loop: total Poisson arrival rate (commands/second) summed over
  /// all sites. For a ramp this is the rate at the start of the phase.
  double arrival_rate_tps = 0.0;
  /// Ramp only: the rate reached at the end of the ramp.
  double ramp_to_tps = 0.0;

  static PhaseSpec closed_loop(Time at, std::uint32_t clients_per_site,
                               Time think_us = 0) {
    PhaseSpec p;
    p.at = at;
    p.mode = Mode::kClosedLoop;
    p.clients_per_site = clients_per_site;
    p.think_us = think_us;
    return p;
  }

  static PhaseSpec open_loop(Time at, double arrival_rate_tps) {
    PhaseSpec p;
    p.at = at;
    p.mode = Mode::kOpenLoop;
    p.arrival_rate_tps = arrival_rate_tps;
    return p;
  }

  static PhaseSpec ramp(Time at, double from_tps, double to_tps) {
    PhaseSpec p = open_loop(at, from_tps);
    p.mode = Mode::kOpenLoopRamp;
    p.ramp_to_tps = to_tps;
    return p;
  }

  static PhaseSpec quiesce(Time at) {
    PhaseSpec p;
    p.at = at;
    p.mode = Mode::kQuiesce;
    p.clients_per_site = 0;
    return p;
  }
};

/// One completed request, reported to the completion hook.
struct Completion {
  ReqId req = 0;
  NodeId site = kNoNode;  // site the request was submitted to
  Time submit_time = 0;
  Time complete_time = 0;
};

class ClientPool {
 public:
  using CompletionHook = std::function<void(const Completion&)>;

  /// Submits through `front` (a shard router), which must outlive the pool.
  /// With an empty `phases` the pool runs a single closed-loop phase built
  /// from `cfg` (clients_per_site/think_us), i.e. the paper's methodology.
  /// `horizon` is the intended run length; it closes out a ramp in the last
  /// phase (0 = unknown: a trailing ramp holds its starting rate).
  ClientPool(sim::Simulator& sim, Frontend& front, WorkloadConfig cfg, Rng rng,
             std::vector<PhaseSpec> phases = {}, Time horizon = 0);

  void set_completion_hook(CompletionHook hook) { hook_ = std::move(hook); }

  /// Enters the first phase and schedules the later phase switches.
  void start();

  /// Must be called from the cluster's delivery hook for every delivery.
  /// `node` is the delivering replica: a request completes when its routed
  /// node (the one Frontend::submit returned) delivers it.
  void on_delivery(NodeId node, const rsm::Command& cmd);

  /// A routing frontend reports that an in-flight request died with its
  /// target (e.g. a group-scoped crash the pool cannot see). The owning
  /// closed-loop client resubmits after the reconnect delay; an open-loop
  /// request is simply dropped.
  void on_request_lost(ReqId req);

  /// Reassigns the crashed node's clients to live nodes after the reconnect
  /// delay; their in-flight requests are resubmitted with fresh ids.
  void on_node_crashed(NodeId node);

  /// Revives clients left parked on a crashed home (possible only if the
  /// whole cluster was down at their reconnect attempt): they reconnect to
  /// the recovered node after the reconnect delay.
  void on_node_recovered(NodeId node);

  std::uint64_t completed() const { return completed_; }
  std::uint64_t submitted() const { return submitted_; }
  /// Closed-loop clients currently allowed to submit (varies by phase).
  std::size_t active_client_count() const;

  /// Flow-control introspection (all zero when cfg.max_inflight == 0).
  bool flow_control_enabled() const { return cfg_.max_inflight > 0; }
  std::uint64_t flow_admitted() const { return fc_admitted_; }
  std::uint64_t flow_deferred() const { return fc_deferred_; }
  std::uint64_t flow_shed() const { return fc_shed_; }

 private:
  static constexpr std::uint32_t kOpenLoopClient = 0xFFFF'FFFFu;

  struct Client {
    NodeId home = kNoNode;  // current connection
    KeyChooser chooser;
    ReqId pending = 0;
  };

  struct Inflight {
    std::uint32_t client = kOpenLoopClient;
    NodeId site = kNoNode;
    Time submit_time = 0;
    /// Open-loop only: the arrival site whose flow-control slot this request
    /// occupies (kNoNode when flow control is off or the entry is
    /// closed-loop).
    NodeId arrival = kNoNode;
  };

  bool client_active(std::uint32_t client_idx) const;
  NodeId live_site_for(NodeId preferred) const;
  void enter_phase(const PhaseSpec& phase);
  /// Instantaneous open-loop arrival rate (linear interpolation on ramps).
  double current_rate() const;
  void submit_next(std::uint32_t client_idx);
  void schedule_arrival(NodeId site, std::uint64_t gen);
  void open_submit(NodeId site);
  /// Builds and submits one open-loop command for `site`, past admission.
  void admit_open_submit(NodeId site);
  /// Frees `site`'s flow-control slot and drains its deferred arrivals.
  void release_open_slot(NodeId site);

  sim::Simulator& sim_;
  Frontend& front_;
  WorkloadConfig cfg_;
  Rng rng_;
  /// Shared Zipf state (kZipfian only): one table for all choosers.
  std::shared_ptr<const ZipfTable> zipf_;
  CompletionHook hook_;
  std::vector<PhaseSpec> phases_;
  std::vector<Client> clients_;
  std::vector<KeyChooser> open_choosers_;  // one per site
  /// In-flight request -> submitter.
  std::unordered_map<ReqId, Inflight> pending_;

  PhaseSpec::Mode mode_ = PhaseSpec::Mode::kClosedLoop;
  std::uint32_t max_clients_per_site_ = 0;
  std::uint32_t active_per_site_ = 0;
  Time think_us_ = 0;
  double arrival_rate_tps_ = 0.0;
  /// Ramp state for the current open-loop phase (ramp_to_tps_ = 0: no ramp).
  double ramp_to_tps_ = 0.0;
  Time ramp_begin_ = 0;
  Time ramp_end_ = 0;
  Time horizon_ = 0;
  /// Bumped on every phase switch; invalidates stale open-loop arrival
  /// chains and deferred closed-loop submissions.
  std::uint64_t gen_ = 0;

  std::uint64_t req_counter_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t submitted_ = 0;

  /// Flow-control state (used only when cfg_.max_inflight > 0): open-loop
  /// requests in flight and arrivals parked, per arrival site.
  std::vector<std::uint32_t> open_inflight_;
  std::vector<std::size_t> deferred_;
  std::uint64_t fc_admitted_ = 0;
  std::uint64_t fc_deferred_ = 0;
  std::uint64_t fc_shed_ = 0;
};

}  // namespace caesar::wl
