#include "workload/client_pool.h"

#include <algorithm>
#include <cmath>

namespace caesar::wl {

namespace {
/// Global client-id base for per-site open-loop key choosers, far above any
/// closed-loop client id so private key ranges stay disjoint.
constexpr std::uint64_t kOpenChooserBase = 1ull << 20;
}  // namespace

ClientPool::ClientPool(sim::Simulator& sim, Frontend& front, WorkloadConfig cfg,
                       Rng rng, std::vector<PhaseSpec> phases, Time horizon)
    : sim_(sim),
      front_(front),
      cfg_(cfg),
      rng_(std::move(rng)),
      phases_(std::move(phases)),
      horizon_(horizon) {
  if (phases_.empty()) {
    phases_.push_back(
        PhaseSpec::closed_loop(0, cfg_.clients_per_site, cfg_.think_us));
  }
  max_clients_per_site_ = 0;
  for (const PhaseSpec& p : phases_) {
    if (p.mode == PhaseSpec::Mode::kClosedLoop) {
      max_clients_per_site_ = std::max(max_clients_per_site_, p.clients_per_site);
    }
  }

  if (cfg_.key_dist.dist == KeyDist::kZipfian) {
    zipf_ = std::make_shared<const ZipfTable>(cfg_.key_dist.keyspace,
                                              cfg_.key_dist.zipf_theta);
  }
  const std::size_t sites = front_.sites();
  clients_.reserve(sites * max_clients_per_site_);
  std::uint64_t global_id = 0;
  for (NodeId site = 0; site < sites; ++site) {
    for (std::uint32_t i = 0; i < max_clients_per_site_; ++i) {
      clients_.push_back(Client{
          site,
          KeyChooser(cfg_.key_dist, cfg_.conflict_fraction,
                     cfg_.shared_pool_size, global_id, zipf_),
          0});
      ++global_id;
    }
  }
  open_choosers_.reserve(sites);
  for (NodeId site = 0; site < sites; ++site) {
    open_choosers_.push_back(KeyChooser(cfg_.key_dist, cfg_.conflict_fraction,
                                        cfg_.shared_pool_size,
                                        kOpenChooserBase + site, zipf_));
  }
  open_inflight_.assign(sites, 0);
  deferred_.assign(sites, 0);
}

std::size_t ClientPool::active_client_count() const {
  return mode_ == PhaseSpec::Mode::kClosedLoop
             ? front_.sites() * active_per_site_
             : 0;
}

bool ClientPool::client_active(std::uint32_t client_idx) const {
  return mode_ == PhaseSpec::Mode::kClosedLoop && max_clients_per_site_ > 0 &&
         client_idx % max_clients_per_site_ < active_per_site_;
}

NodeId ClientPool::live_site_for(NodeId preferred) const {
  if (!front_.crashed(preferred)) return preferred;
  for (std::size_t step = 1; step < front_.sites(); ++step) {
    const NodeId cand =
        static_cast<NodeId>((preferred + step) % front_.sites());
    if (!front_.crashed(cand)) return cand;
  }
  return kNoNode;
}

void ClientPool::start() {
  for (const PhaseSpec& p : phases_) {
    if (p.at <= sim_.now()) {
      enter_phase(p);
    } else {
      sim_.at(p.at, [this, p] { enter_phase(p); });
    }
  }
}

void ClientPool::enter_phase(const PhaseSpec& phase) {
  ++gen_;
  mode_ = phase.mode;
  // Deferred arrivals belong to the superseded phase's load; drop them (the
  // in-flight accounting stays — those requests are still out there).
  std::fill(deferred_.begin(), deferred_.end(), 0);
  if (phase.mode == PhaseSpec::Mode::kQuiesce) {
    // No new submissions; the generation bump already killed the open-loop
    // arrival chains, and client_active() turning false stops closed-loop
    // clients from resubmitting when their in-flight request completes.
    active_per_site_ = 0;
    arrival_rate_tps_ = 0.0;
    ramp_to_tps_ = 0.0;
    return;
  }
  if (phase.mode == PhaseSpec::Mode::kClosedLoop) {
    active_per_site_ = std::min(phase.clients_per_site, max_clients_per_site_);
    think_us_ = phase.think_us;
    arrival_rate_tps_ = 0.0;
    // Kick every active, idle client. Clients still waiting on an in-flight
    // request resume their loop when it completes.
    for (std::uint32_t i = 0; i < clients_.size(); ++i) {
      if (!client_active(i) || clients_[i].pending != 0) continue;
      // Small stagger so all clients do not fire in the same microsecond.
      const std::uint64_t gen = gen_;
      sim_.after(static_cast<Time>(rng_.uniform_int(1000)), [this, i, gen] {
        if (gen == gen_) submit_next(i);
      });
    }
  } else {
    active_per_site_ = 0;
    arrival_rate_tps_ = phase.arrival_rate_tps;
    ramp_to_tps_ =
        phase.mode == PhaseSpec::Mode::kOpenLoopRamp ? phase.ramp_to_tps : 0.0;
    if (ramp_to_tps_ > 0.0) {
      // The ramp spans from this phase's start to the next phase's start (or
      // the run horizon for the last phase; without a horizon the rate holds
      // at its starting value).
      ramp_begin_ = phase.at;
      Time end = horizon_;
      for (const PhaseSpec& p : phases_) {
        if (p.at > phase.at && (end <= phase.at || p.at < end)) end = p.at;
      }
      if (end <= ramp_begin_) ramp_to_tps_ = 0.0;
      ramp_end_ = end;
    } else {
      ramp_begin_ = ramp_end_ = 0;
    }
    for (NodeId site = 0; site < front_.sites(); ++site) {
      schedule_arrival(site, gen_);
    }
  }
}

double ClientPool::current_rate() const {
  if (ramp_to_tps_ <= 0.0) return arrival_rate_tps_;
  const Time t = std::clamp(sim_.now(), ramp_begin_, ramp_end_);
  const double f = static_cast<double>(t - ramp_begin_) /
                   static_cast<double>(ramp_end_ - ramp_begin_);
  return arrival_rate_tps_ + f * (ramp_to_tps_ - arrival_rate_tps_);
}

void ClientPool::submit_next(std::uint32_t client_idx) {
  Client& c = clients_[client_idx];
  if (!client_active(client_idx) || c.pending != 0) return;
  if (front_.crashed(c.home)) return;  // on_node_crashed will reassign us

  rsm::Command cmd;
  rsm::Op op;
  op.key = c.chooser.next(rng_);
  op.req = make_req_id(c.home, ++req_counter_);
  op.value = req_counter_;
  cmd.ops.push_back(op);

  const ReqId req = op.req;
  const NodeId routed = front_.submit(c.home, std::move(cmd));
  if (routed == kNoNode) {
    // Dropped (a just-crashed target) or rejected (cross-shard policy): back
    // off, then try again with a fresh key.
    const std::uint64_t gen = gen_;
    sim_.after(cfg_.reconnect_delay_us, [this, client_idx, gen] {
      if (gen == gen_) submit_next(client_idx);
    });
    return;
  }
  c.pending = req;
  pending_[req] = Inflight{client_idx, routed, sim_.now()};
  ++submitted_;
}

void ClientPool::schedule_arrival(NodeId site, std::uint64_t gen) {
  // Instantaneous rate: exact for constant-rate phases; for linear ramps the
  // next gap is drawn from the rate at schedule time, which tracks the ramp
  // closely as long as the rate moves little within one inter-arrival gap.
  const double rate = current_rate();
  if (rate <= 0.0) return;
  const double mean_us = static_cast<double>(front_.sites()) *
                         static_cast<double>(kSec) / rate;
  const Time delay =
      std::max<Time>(1, static_cast<Time>(std::llround(rng_.exponential(mean_us))));
  sim_.after(delay, [this, site, gen] {
    if (gen != gen_) return;  // a later phase superseded this chain
    open_submit(site);
    schedule_arrival(site, gen);
  });
}

void ClientPool::open_submit(NodeId site) {
  if (cfg_.max_inflight > 0 && open_inflight_[site] >= cfg_.max_inflight) {
    // Admission control: over the in-flight limit, the arrival waits in the
    // bounded deferred queue or is shed — the system never sees it, which
    // is what keeps the overload curve from collapsing under queue growth.
    if (cfg_.overload_policy == OverloadPolicy::kQueue &&
        deferred_[site] < cfg_.overload_queue_cap) {
      ++deferred_[site];
      ++fc_deferred_;
    } else {
      ++fc_shed_;
    }
    return;
  }
  admit_open_submit(site);
}

void ClientPool::admit_open_submit(NodeId site) {
  const NodeId target = live_site_for(site);
  if (target == kNoNode) return;  // whole cluster down; drop the arrival

  rsm::Command cmd;
  rsm::Op op;
  op.key = open_choosers_[site].next(rng_);
  op.req = make_req_id(target, ++req_counter_);
  op.value = req_counter_;
  cmd.ops.push_back(op);

  const ReqId req = op.req;
  const NodeId routed = front_.submit(target, std::move(cmd));
  if (routed == kNoNode) return;  // open loop never retries; the arrival is lost
  Inflight inflight{kOpenLoopClient, routed, sim_.now(), kNoNode};
  if (cfg_.max_inflight > 0) {
    inflight.arrival = site;
    ++open_inflight_[site];
    ++fc_admitted_;
  }
  pending_[req] = inflight;
  ++submitted_;
}

void ClientPool::release_open_slot(NodeId site) {
  if (cfg_.max_inflight == 0 || site == kNoNode) return;
  if (open_inflight_[site] > 0) --open_inflight_[site];
  while (deferred_[site] > 0 && open_inflight_[site] < cfg_.max_inflight) {
    --deferred_[site];
    admit_open_submit(site);  // re-increments the slot on success
  }
}

void ClientPool::on_delivery(NodeId node, const rsm::Command& cmd) {
  for (const rsm::Op& op : cmd.ops) {
    auto it = pending_.find(op.req);
    if (it == pending_.end()) continue;  // resubmitted elsewhere meanwhile
    // A request completes when the node it was routed to delivers it (for
    // the classic frontend that is the origin site; a router may have
    // diverted it around a group-scoped crash).
    if (it->second.site != node) continue;
    const Inflight inflight = it->second;
    pending_.erase(it);
    ++completed_;
    if (hook_) {
      hook_(Completion{op.req, inflight.site, inflight.submit_time, sim_.now()});
    }
    if (inflight.client == kOpenLoopClient) {
      release_open_slot(inflight.arrival);
      continue;
    }

    Client& c = clients_[inflight.client];
    if (c.pending == op.req) c.pending = 0;
    const std::uint32_t idx = inflight.client;
    if (!client_active(idx)) continue;  // mode or phase changed mid-flight
    if (think_us_ > 0) {
      const std::uint64_t gen = gen_;
      sim_.after(think_us_, [this, idx, gen] {
        if (gen == gen_) submit_next(idx);
      });
    } else {
      submit_next(idx);
    }
  }
}

void ClientPool::on_request_lost(ReqId req) {
  auto it = pending_.find(req);
  if (it == pending_.end()) return;
  const Inflight inflight = it->second;
  pending_.erase(it);
  if (inflight.client == kOpenLoopClient) {
    release_open_slot(inflight.arrival);  // open loop never retries
    return;
  }
  Client& c = clients_[inflight.client];
  if (c.pending == req) c.pending = 0;
  const std::uint32_t idx = inflight.client;
  const std::uint64_t gen = gen_;
  sim_.after(cfg_.reconnect_delay_us, [this, idx, gen] {
    if (gen == gen_) submit_next(idx);
  });
}

void ClientPool::on_node_crashed(NodeId node) {
  // Clients of the crashed site reconnect to the next live site after a
  // timeout (paper Fig 12: "clients from that node timeout and reconnect to
  // other nodes"). Open-loop arrival chains divert at submit time instead.
  for (std::uint32_t i = 0; i < clients_.size(); ++i) {
    Client& c = clients_[i];
    if (c.home != node) continue;
    if (c.pending != 0) {
      pending_.erase(c.pending);
      c.pending = 0;
    }
    const NodeId target = live_site_for(
        static_cast<NodeId>((node + 1) % front_.sites()));
    if (target == kNoNode) continue;  // whole cluster down; see on_node_recovered
    c.home = target;
    sim_.after(cfg_.reconnect_delay_us, [this, i] { submit_next(i); });
  }
  // Open-loop requests routed to the crashed site died with its queue; drop
  // their in-flight records so the map does not grow without bound across
  // repeated faults (open loop never retries — the arrival was lost).
  std::vector<NodeId> freed_slots;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.client == kOpenLoopClient && it->second.site == node) {
      if (it->second.arrival != kNoNode) {
        freed_slots.push_back(it->second.arrival);
      }
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  // Release after the sweep: draining a deferred arrival inserts into
  // pending_, which would invalidate the iterator above.
  for (NodeId site : freed_slots) release_open_slot(site);
}

void ClientPool::on_node_recovered(NodeId node) {
  for (std::uint32_t i = 0; i < clients_.size(); ++i) {
    Client& c = clients_[i];
    if (!front_.crashed(c.home)) continue;  // running normally
    c.home = node;
    sim_.after(cfg_.reconnect_delay_us, [this, i] { submit_next(i); });
  }
}

}  // namespace caesar::wl
