#include "traced_run.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <unordered_map>

namespace hostbench {

namespace h = caesar::harness;
namespace rt = caesar::rt;
namespace rsm = caesar::rsm;
namespace wl = caesar::wl;
namespace net = caesar::net;
using caesar::NodeId;
using caesar::ReqId;
using caesar::Time;

namespace {

using Clock = std::chrono::steady_clock;

/// Shared by every wrapper of one run.
struct Probe {
  Tracer* tr = nullptr;
  Observations* obs = nullptr;
  caesar::sim::Simulator* sim = nullptr;
  rt::Cluster* cluster = nullptr;  // set once the cluster is built
  std::uint64_t messages = 0;

  /// Samples the event-queue depth and the receiving node's CPU queue on
  /// every 16th protocol message — deterministic, and schedules no events.
  void sample(NodeId node) {
    if ((++messages & 15) != 0 || cluster == nullptr) return;
    obs->pending_samples.push_back(
        static_cast<std::uint32_t>(sim->pending_events()));
    obs->queue_samples.push_back(
        static_cast<std::uint32_t>(cluster->node(node).queue_depth()));
  }
};

/// Forwards every Env service to the node runtime, timing the send path and
/// wrapping timer callbacks so they run inside a protocol span.
class ForwardingEnv final : public rt::Env {
 public:
  ForwardingEnv(rt::Env& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  NodeId id() const override { return inner_.id(); }
  std::size_t cluster_size() const override { return inner_.cluster_size(); }
  Time now() const override { return inner_.now(); }
  net::Encoder encoder() override {
    Span sp(probe_.tr, SpanName::kRuntimeEncoder);
    return inner_.encoder();
  }
  void send(NodeId to, std::uint16_t type, net::Encoder body) override {
    Span sp(probe_.tr, SpanName::kRuntimeSend);
    ++probe_.obs->frames;
    inner_.send(to, type, std::move(body));
  }
  void broadcast(std::uint16_t type, net::Encoder body,
                 bool include_self) override {
    Span sp(probe_.tr, SpanName::kRuntimeBroadcast);
    probe_.obs->frames += cluster_size() - (include_self ? 0 : 1);
    inner_.broadcast(type, std::move(body), include_self);
  }
  caesar::sim::EventId set_timer(Time delay,
                                 std::function<void()> fn) override {
    ++probe_.obs->timers;
    return inner_.set_timer(delay, [tr = probe_.tr, fn = std::move(fn)] {
      Span sp(tr, SpanName::kProtoTimer);
      fn();
    });
  }
  void cancel_timer(caesar::sim::EventId id) override { inner_.cancel_timer(id); }
  caesar::Rng& rng() override { return inner_.rng(); }
  void charge_cpu(Time extra) override { inner_.charge_cpu(extra); }
  caesar::CmdId fresh_cmd_id() override { return inner_.fresh_cmd_id(); }
  caesar::CmdId fresh_batch_id() override { return inner_.fresh_batch_id(); }
  caesar::storage::Durability* durability() override {
    return inner_.durability();
  }
  void notify_snapshot_install(const rsm::KvStore& store,
                               std::uint64_t delivered_count) override {
    inner_.notify_snapshot_install(store, delivered_count);
  }

 private:
  rt::Env& inner_;
  Probe& probe_;
};

/// Forwards every Protocol entry point to the real protocol inside a span.
class ForwardingProtocol final : public rt::Protocol {
 public:
  ForwardingProtocol(std::unique_ptr<ForwardingEnv> env,
                     std::unique_ptr<rt::Protocol> inner, Probe& probe)
      : rt::Protocol(*env, {}),
        env_(std::move(env)),
        inner_(std::move(inner)),
        probe_(probe) {}

  void start() override {
    Span sp(probe_.tr, SpanName::kProtoControl);
    inner_->start();
  }
  void propose(rsm::Command cmd) override {
    Span sp(probe_.tr, SpanName::kProtoPropose, cmd.id);
    inner_->propose(std::move(cmd));
  }
  void propose_batch(std::vector<rsm::Command> cmds) override {
    ++probe_.obs->batch_calls;
    probe_.obs->batch_members += cmds.size();
    Span sp(probe_.tr, SpanName::kProtoProposeBatch);
    inner_->propose_batch(std::move(cmds));
  }
  void on_message(NodeId from, std::uint16_t type, net::Decoder& d) override {
    probe_.sample(env_->id());
    Span sp(probe_.tr, SpanName::kProtoMessage);
    inner_->on_message(from, type, d);
  }
  void on_node_suspected(NodeId peer) override {
    Span sp(probe_.tr, SpanName::kProtoControl);
    inner_->on_node_suspected(peer);
  }
  void on_node_recovered(NodeId peer) override {
    Span sp(probe_.tr, SpanName::kProtoControl);
    inner_->on_node_recovered(peer);
  }
  void on_recover() override {
    Span sp(probe_.tr, SpanName::kProtoControl);
    inner_->on_recover();
  }
  void on_catchup_request(NodeId from, net::Decoder& d) override {
    Span sp(probe_.tr, SpanName::kProtoControl);
    inner_->on_catchup_request(from, d);
  }
  void on_catchup_reply(NodeId from, net::Decoder& d) override {
    Span sp(probe_.tr, SpanName::kProtoControl);
    inner_->on_catchup_reply(from, d);
  }
  void on_catchup_snapshot(NodeId from, net::Decoder& d) override {
    Span sp(probe_.tr, SpanName::kProtoControl);
    inner_->on_catchup_snapshot(from, d);
  }
  void on_restore(caesar::storage::RecoveredState& st) override {
    Span sp(probe_.tr, SpanName::kProtoControl);
    inner_->on_restore(st);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  // Declared before inner_: the protocol holds a reference to the env.
  std::unique_ptr<ForwardingEnv> env_;
  std::unique_ptr<rt::Protocol> inner_;
  Probe& probe_;
};

/// The classic single-cluster frontend (wl::ClusterFrontend) plus request
/// bookkeeping for failure accounting and generator lateness.
class TracedFrontend final : public wl::Frontend {
 public:
  TracedFrontend(rt::Cluster& cluster, Probe& probe)
      : cluster_(cluster), probe_(probe) {}

  std::size_t sites() const override { return cluster_.size(); }
  bool crashed(NodeId site) const override {
    return cluster_.node(site).crashed();
  }
  NodeId submit(NodeId site, rsm::Command cmd) override {
    Span sp(probe_.tr, SpanName::kWorkloadSubmit);
    if (cluster_.node(site).crashed()) {
      ++probe_.obs->refused_at_crashed_site;
      return caesar::kNoNode;
    }
    inflight_[cmd.ops.front().req] = Pending{site, probe_.sim->now()};
    Span rt_span(probe_.tr, SpanName::kRuntimeSubmit);
    cluster_.node(site).submit(std::move(cmd));
    return site;
  }

  void on_complete(const wl::Completion& c) {
    auto it = inflight_.find(c.req);
    if (it == inflight_.end()) return;
    const Time late = c.submit_time - it->second.due;
    probe_.obs->max_lateness_us =
        std::max(probe_.obs->max_lateness_us, late < 0 ? -late : late);
    inflight_.erase(it);
  }
  /// The pool forgets every request routed to a crashed node.
  void on_crash(NodeId node) {
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (it->second.site == node) {
        ++probe_.obs->lost_in_crash;
        it = inflight_.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::size_t in_flight() const { return inflight_.size(); }

 private:
  struct Pending {
    NodeId site;
    Time due;
  };
  rt::Cluster& cluster_;
  Probe& probe_;
  std::unordered_map<ReqId, Pending> inflight_;
};

/// Everything one run owns, torn down inside its own span.
struct World {
  explicit World(std::uint64_t seed, std::size_t n)
      : sim(seed), logs(n), kvs(n), marks(n), delivered(n, 0) {}
  caesar::sim::Simulator sim;
  std::vector<rsm::DeliveryLog> logs;
  std::vector<rsm::KvStore> kvs;
  /// marks[node][i]: mirror-log length after the node's (i+1)-th
  /// protocol-level delivery (see run_scenario).
  std::vector<std::vector<std::size_t>> marks;
  /// Protocol-level deliveries per node, rolled back on restart.
  std::vector<std::uint64_t> delivered;
  std::unique_ptr<rt::Cluster> cluster;
  std::unique_ptr<TracedFrontend> front;
  std::unique_ptr<wl::ClientPool> pool;
};

/// Rejoin tracking: a restarted node has rejoined once its delivered count
/// reaches the cluster maximum.
struct Rejoin {
  std::vector<Time> restarted_at;  // -1 = not waiting
  Time longest = -1;

  void check(const World& w, Time now) {
    std::uint64_t top = 0;
    for (std::size_t i = 0; i < w.delivered.size(); ++i) {
      if (!w.cluster->node(static_cast<NodeId>(i)).crashed()) {
        top = std::max(top, w.delivered[i]);
      }
    }
    for (std::size_t i = 0; i < restarted_at.size(); ++i) {
      if (restarted_at[i] < 0 || w.delivered[i] < top) continue;
      longest = std::max(longest, now - restarted_at[i]);
      restarted_at[i] = -1;
    }
  }
  bool waiting() const {
    return std::any_of(restarted_at.begin(), restarted_at.end(),
                       [](Time t) { return t >= 0; });
  }
};

}  // namespace

h::RunReport run_assembled(const h::Scenario& s, Tracer* tr, Observations& obs,
                           bool setup_only) {
  const auto t0 = Clock::now();
  std::optional<Span> phase;
  phase.emplace(tr, SpanName::kHarnessSetup);

  h::validate_scenario(s);
  const std::size_t n = s.topology.size();
  auto world = std::make_unique<World>(s.seed, n);
  World& w = *world;
  Probe probe{tr, &obs, &w.sim};
  obs.trimmed_at.assign(n, -1);
  Rejoin rejoin{std::vector<Time>(n, -1)};

  h::RunReport result;
  result.per_node.resize(n);
  result.timeline = caesar::stats::TimeSeries(s.timeline_bucket);

  rt::ClusterConfig ccfg;
  ccfg.node = s.node;
  ccfg.fd_timeout_us = s.fd_timeout_us;
  ccfg.suspect_partitions = s.fd_suspect_partitions;
  ccfg.storage = s.storage;
  if (s.storage.enabled()) {
    std::filesystem::remove_all(s.storage.data_dir);
    std::filesystem::create_directories(s.storage.data_dir);
  }

  rt::Cluster::ProtocolFactory inner =
      h::detail::make_factory(s, result.per_node);
  rt::Cluster::ProtocolFactory factory =
      [&inner, &probe](rt::Env& env, rt::Protocol::DeliverFn deliver)
      -> std::unique_ptr<rt::Protocol> {
    auto fenv = std::make_unique<ForwardingEnv>(env, probe);
    auto proto = inner(*fenv, std::move(deliver));
    return std::make_unique<ForwardingProtocol>(std::move(fenv),
                                                std::move(proto), probe);
  };

  std::uint64_t delivering = 0;  // command id of the delivery in progress
  w.cluster = std::make_unique<rt::Cluster>(
      w.sim, s.topology, ccfg, factory,
      [&w, tr, &delivering](NodeId node, const rsm::Command& cmd) {
        {
          Span sp(tr, SpanName::kRsmLog, cmd.id);
          w.logs[node].record(cmd);
        }
        {
          Span sp(tr, SpanName::kRsmApply, cmd.id);
          w.kvs[node].apply(cmd);
        }
        if (w.pool != nullptr) {
          Span sp(tr, SpanName::kWorkloadDelivery, cmd.id);
          delivering = cmd.id;
          w.pool->on_delivery(node, cmd);
        }
      });
  rt::Cluster& cluster = *w.cluster;
  probe.cluster = &cluster;
  cluster.set_instance_hook([&w, &rejoin](NodeId node) {
    w.marks[node].push_back(w.logs[node].size());
    ++w.delivered[node];
    if (rejoin.waiting()) rejoin.check(w, w.sim.now());
  });

  w.front = std::make_unique<TracedFrontend>(cluster, probe);
  w.pool = std::make_unique<wl::ClientPool>(w.sim, *w.front, s.workload,
                                            w.sim.rng().fork(), s.phases,
                                            s.duration);
  wl::ClientPool& pool = *w.pool;

  // Mirror upkeep across durability events, exactly as run_scenario does.
  cluster.set_restart_hook(
      [&w, &obs, tr](NodeId node, const caesar::storage::RecoveredState& st) {
        Span sp(tr, SpanName::kHarnessMirror);
        if (st.trimmed) {
          w.logs[node].reset_trimmed();
          obs.trimmed_at[node] = w.sim.now();
          w.marks[node].assign(st.delivered_count - st.log.entries().size(), 0);
          for (const auto& [index, cmd] : st.log.entries()) {
            h::detail::record_unbundled(w.logs[node], cmd);
            w.marks[node].push_back(w.logs[node].size());
          }
        } else {
          const std::size_t d = st.delivered_count;
          if (d < w.marks[node].size()) w.marks[node].resize(d);
          w.logs[node].truncate(d == 0 ? 0 : w.marks[node][d - 1]);
        }
        w.kvs[node] = st.store;
        w.delivered[node] = st.delivered_count;
      });
  cluster.set_snapshot_install_hook(
      [&w, &obs, tr](NodeId node, const rsm::KvStore& store,
                     std::uint64_t delivered) {
        Span sp(tr, SpanName::kHarnessMirror);
        w.logs[node].reset_trimmed();
        obs.trimmed_at[node] = w.sim.now();
        w.marks[node].assign(delivered, 0);
        w.kvs[node] = store;
        w.delivered[node] = delivered;
      });
  pool.set_completion_hook([&](const wl::Completion& c) {
    result.timeline.record(c.complete_time);
    w.front->on_complete(c);
    obs.acked.emplace_back(delivering, c.complete_time);
    if (c.complete_time < s.warmup) return;
    result.total_latency.record(c.complete_time - c.submit_time);
  });

  cluster.start();
  pool.start();

  for (const h::FaultEvent& e : s.faults) {
    w.sim.at(e.at, [&w, &rejoin, tr, e] {
      rt::Cluster& c = *w.cluster;
      switch (e.kind) {
        case h::FaultEvent::Kind::kCrash:
          c.crash(e.node);
          w.front->on_crash(e.node);
          w.pool->on_node_crashed(e.node);
          break;
        case h::FaultEvent::Kind::kRecover:
          c.recover(e.node);
          w.pool->on_node_recovered(e.node);
          break;
        case h::FaultEvent::Kind::kPartition:
          c.set_link(e.a, e.b, false);
          break;
        case h::FaultEvent::Kind::kHeal:
          c.set_link(e.a, e.b, true);
          break;
        case h::FaultEvent::Kind::kPowerLoss:
          for (NodeId i = 0; i < c.size(); ++i) {
            if (c.node(i).crashed()) continue;
            c.crash(i);
            w.front->on_crash(i);
            w.pool->on_node_crashed(i);
          }
          break;
        case h::FaultEvent::Kind::kRestart: {
          {
            Span sp(tr, SpanName::kStorageRestart);
            c.restart(e.node);
          }
          rejoin.restarted_at[e.node] = w.sim.now();
          w.pool->on_node_recovered(e.node);
          break;
        }
      }
    });
  }
  phase.reset();
  obs.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (setup_only) return result;

  phase.emplace(tr, SpanName::kSimRunUntil);
  w.sim.run_until(s.duration);
  phase.emplace(tr, SpanName::kHarnessCollect);

  result.completed = pool.completed();
  result.submitted = pool.submitted();
  result.proto = h::detail::aggregate(result.per_node);
  result.messages = cluster.network().messages_delivered();
  result.bytes = cluster.network().bytes_sent();
  result.fd_suspicions = cluster.fd_suspicions();
  result.fd_retractions = cluster.fd_retractions();
  result.flow_control.enabled = pool.flow_control_enabled();
  result.flow_control.admitted = pool.flow_admitted();
  result.flow_control.deferred = pool.flow_deferred();
  result.flow_control.shed = pool.flow_shed();
  result.crashed_at_end.resize(n);
  Time busiest = 0;
  for (NodeId i = 0; i < n; ++i) {
    result.crashed_at_end[i] = cluster.node(i).crashed();
    busiest = std::max(busiest, cluster.node(i).cpu_busy_time());
  }
  result.delivery_logs = std::move(w.logs);
  result.stores = std::move(w.kvs);

  obs.events = w.sim.executed_events();
  obs.net_messages = cluster.network().messages_delivered() +
                     cluster.network().messages_dropped() +
                     cluster.network().messages_held();
  obs.cpu_util_max =
      static_cast<double>(busiest) / static_cast<double>(s.duration);
  obs.in_flight_at_end = w.front->in_flight();
  obs.rejoin_incomplete = rejoin.waiting();
  if (rejoin.longest >= 0) {
    obs.rejoin_ms = static_cast<double>(rejoin.longest) / 1000.0;
  }

  phase.emplace(tr, SpanName::kHarnessTeardown);
  world.reset();
  phase.reset();
  return result;
}

}  // namespace hostbench
