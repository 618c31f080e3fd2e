#include "m2paxos/m2paxos.h"

#include <cassert>

#include "common/logging.h"

namespace caesar::m2paxos {

namespace {

/// Backoff before retrying a lost ownership-acquisition race.
constexpr Time kAcquireBackoffUs = 20 * kMs;
/// Origin-side watchdog: re-route own commands not delivered locally within
/// this time (covers rare cold-start orphans; re-deciding is idempotent
/// because delivery dedupes on command id).
constexpr Time kRetryTimeoutUs = 2 * kSec;

}  // namespace

M2Paxos::M2Paxos(rt::Env& env, DeliverFn deliver, stats::ProtocolStats* stats)
    : rt::Protocol(env, std::move(deliver)),
      stats_(stats),
      n_(env.cluster_size()),
      cq_(classic_quorum_size(env.cluster_size())) {}

NodeId M2Paxos::owner_of(Key k) const {
  auto it = keys_.find(k);
  return it == keys_.end() ? kNoNode : it->second.owner;
}

// ---------------------------------------------------------------------------
// Routing: local decide / forward / acquire
// ---------------------------------------------------------------------------

void M2Paxos::start() {
  env_.set_timer(kRetryTimeoutUs / 2, [this] { watchdog_sweep(); });
}

void M2Paxos::watchdog_sweep() {
  std::vector<rsm::Command> stuck;
  for (auto& [id, pending] : my_pending_) {
    if (env_.now() - pending.since >= kRetryTimeoutUs) {
      pending.since = env_.now();
      stuck.push_back(pending.cmd);
    }
  }
  for (auto& cmd : stuck) route(std::move(cmd), 0);
  env_.set_timer(kRetryTimeoutUs / 2, [this] { watchdog_sweep(); });
}

void M2Paxos::propose(rsm::Command cmd) {
  my_pending_.emplace(cmd.id, PendingOwn{cmd, env_.now()});
  route(std::move(cmd), 0);
}

void M2Paxos::propose_batch(std::vector<rsm::Command> cmds) {
  // Batch per destination owner, mirroring per-destination network batching:
  // commands owned by the same node merge into one composite.
  std::unordered_map<std::uint64_t, std::vector<rsm::Command>> groups;
  for (auto& cmd : cmds) {
    NodeId owner = owner_of(cmd.ops.front().key);
    for (const rsm::Op& op : cmd.ops) {
      if (owner_of(op.key) != owner) {
        owner = kNoNode;  // mixed: route individually
        break;
      }
    }
    groups[owner].push_back(std::move(cmd));
  }
  for (auto& [owner, group] : groups) {
    if (owner == kNoNode) {
      for (auto& cmd : group) route(std::move(cmd), 0);
    } else if (group.size() == 1) {
      route(std::move(group.front()), 0);
    } else {
      route(make_composite(group), 0);
    }
  }
}

void M2Paxos::route(rsm::Command cmd, std::uint8_t hops) {
  // Park behind any in-flight acquisition touching our keys: the optimistic
  // owner==self marker is not usable until the position counters sync.
  for (const rsm::Op& op : cmd.ops) {
    auto pending = acquiring_keys_.find(op.key);
    if (pending != acquiring_keys_.end()) {
      auto acq = acquiring_.find(pending->second);
      if (acq != acquiring_.end()) {
        acq->second.queued.push_back(std::move(cmd));
        return;
      }
    }
  }
  NodeId owner = owner_of(cmd.ops.front().key);
  bool uniform = true;
  for (const rsm::Op& op : cmd.ops) {
    if (owner_of(op.key) != owner) {
      uniform = false;
      break;
    }
  }
  if (uniform && owner == env_.id()) {
    bool synced = true;
    for (const rsm::Op& op : cmd.ops) synced = synced && keys_[op.key].synced;
    if (synced) {
      accept_phase(std::move(cmd));
    } else {
      // We look like the owner (e.g. our failed acquisition carried the
      // highest epoch) but never synced the position counters: re-acquire.
      start_acquisition(std::move(cmd));
    }
    return;
  }
  if (uniform && owner != kNoNode) {
    if (hops >= kMaxForwardHops) {
      // Ownership views disagree (two nodes each believing the other owns
      // the key after a split acquisition race). The epoch teaching carried
      // by the forwards converges the views within a bounce or two; rather
      // than stealing ownership mid-stream (which opens takeover races on
      // positions), drop here — the origin's watchdog re-routes the command
      // once the views have settled.
      return;
    }
    // The paper's forwarding mechanism: pass the command to the owner, which
    // becomes responsible for ordering it (§II, §VI). The forward teaches the
    // receiver our epoch knowledge so stale ownership views converge instead
    // of bouncing the command around.
    ++forwarded_;
    net::Encoder e = env_.encoder();
    cmd.encode(e);
    e.put_u8(hops + 1);
    e.put_varint(cmd.ops.size());
    for (const rsm::Op& op : cmd.ops) {
      e.put_u64(op.key);
      e.put_varint(keys_[op.key].promised_epoch);
    }
    env_.send(owner, kForward, std::move(e));
    return;
  }
  start_acquisition(std::move(cmd));
}

void M2Paxos::handle_forward(net::Decoder& d) {
  rsm::Command cmd = rsm::Command::decode(d);
  const std::uint8_t hops = d.get_u8();
  const std::size_t n_keys = static_cast<std::size_t>(d.get_varint());
  for (std::size_t i = 0; i < n_keys; ++i) {
    const Key key = d.get_u64();
    const std::uint64_t epoch = d.get_varint();
    KeyState& ks = keys_[key];
    if (epoch > ks.promised_epoch) {
      ks.promised_epoch = epoch;
      ks.owner = ballot_node(epoch);
      if (ks.owner != env_.id()) ks.synced = false;
    }
  }
  // Re-route: we may own it (common), or ownership may have moved/expired.
  route(std::move(cmd), hops);
}

// ---------------------------------------------------------------------------
// Ownership acquisition (epoch-ordered, majority grant)
// ---------------------------------------------------------------------------

void M2Paxos::start_acquisition(rsm::Command cmd) {
  ++acquisitions_;
  const std::uint64_t token =
      (static_cast<std::uint64_t>(env_.id()) << 48) | ++acquire_token_;
  Acquisition& acq = acquiring_[token];
  acq.cmd = std::move(cmd);
  for (const rsm::Op& op : acq.cmd.ops) {
    if (!acq.epochs.empty() && acq.epochs.back().first == op.key) continue;
    acquiring_keys_[op.key] = token;
    KeyState& ks = keys_[op.key];
    // Epochs are ⟨round, node⟩ so concurrent claimers can never tie.
    const std::uint64_t epoch =
        make_ballot(ballot_round(ks.promised_epoch) + 1, env_.id());
    // Self-grant.
    ks.promised_epoch = epoch;
    ks.owner = env_.id();
    acq.epochs.emplace_back(op.key, epoch);
    acq.max_last_instance[op.key] = ks.last_instance;
    // Self-report our own accepted-undecided values for adoption.
    auto lit = accepted_log_.find(op.key);
    if (lit != accepted_log_.end()) {
      for (const auto& [inst, entry] : lit->second) {
        auto [ait, inserted] = acq.adoptions.try_emplace(entry.cmd.id, entry);
        if (!inserted && entry.epoch > ait->second.epoch) ait->second = entry;
        auto& last = acq.max_last_instance[op.key];
        if (inst > last) last = inst;
      }
    }
  }
  net::Encoder e = env_.encoder();
  e.put_u64(token);
  e.put_varint(acq.epochs.size());
  for (auto& [key, epoch] : acq.epochs) {
    e.put_u64(key);
    e.put_varint(epoch);
  }
  env_.broadcast(kAcquire, std::move(e), /*include_self=*/false);
}

void M2Paxos::handle_acquire(NodeId from, net::Decoder& d) {
  const std::uint64_t token = d.get_u64();
  const std::size_t count = static_cast<std::size_t>(d.get_varint());
  std::vector<std::pair<Key, std::uint64_t>> req;
  req.reserve(count);
  bool ok = true;
  for (std::size_t i = 0; i < count; ++i) {
    const Key key = d.get_u64();
    const std::uint64_t epoch = d.get_varint();
    req.emplace_back(key, epoch);
    if (keys_[key].promised_epoch >= epoch) ok = false;
  }
  net::Encoder e = env_.encoder();
  e.put_u64(token);
  e.put_bool(ok);
  e.put_varint(req.size());
  if (ok) {
    for (auto& [key, epoch] : req) {
      KeyState& ks = keys_[key];
      ks.promised_epoch = epoch;
      ks.owner = from;  // provisional: routes future commands to the claimer
      ks.synced = false;
      e.put_u64(key);
      e.put_varint(ks.last_instance);
      // Report accepted-but-undecided values so the claimer adopts them
      // instead of clobbering possibly-chosen positions.
      const auto lit = accepted_log_.find(key);
      const std::size_t n_acc = lit == accepted_log_.end() ? 0 : lit->second.size();
      e.put_varint(n_acc);
      if (lit != accepted_log_.end()) {
        for (const auto& [inst, entry] : lit->second) {
          e.put_varint(entry.epoch);
          entry.cmd.encode(e);
          e.put_varint(entry.pos.size());
          for (auto& [k2, i2] : entry.pos) {
            e.put_u64(k2);
            e.put_varint(i2);
          }
        }
      }
    }
  } else {
    // Teach the losing claimer who currently holds each key, so it can
    // forward instead of retrying blindly.
    for (auto& [key, epoch] : req) {
      (void)epoch;
      const KeyState& ks = keys_[key];
      e.put_u64(key);
      e.put_u32(ks.owner);
      e.put_varint(ks.promised_epoch);
    }
  }
  env_.send(from, kAcquireReply, std::move(e));
}

void M2Paxos::handle_acquire_reply(NodeId from, net::Decoder& d) {
  (void)from;
  const std::uint64_t token = d.get_u64();
  const bool ok = d.get_bool();
  auto it = acquiring_.find(token);
  if (it == acquiring_.end()) return;
  Acquisition& acq = it->second;
  if (acq.resolved) return;
  const std::size_t count = static_cast<std::size_t>(d.get_varint());
  if (ok) {
    for (std::size_t i = 0; i < count; ++i) {
      const Key key = d.get_u64();
      const std::uint64_t last = d.get_varint();
      auto& cur = acq.max_last_instance[key];
      if (last > cur) cur = last;
      const std::size_t n_acc = static_cast<std::size_t>(d.get_varint());
      for (std::size_t a = 0; a < n_acc; ++a) {
        AcceptedEntry entry;
        entry.epoch = d.get_varint();
        entry.cmd = rsm::Command::decode(d);
        const std::size_t np = static_cast<std::size_t>(d.get_varint());
        entry.pos.reserve(np);
        for (std::size_t p = 0; p < np; ++p) {
          const Key k2 = d.get_u64();
          const std::uint64_t i2 = d.get_varint();
          entry.pos.emplace_back(k2, i2);
          if (k2 == key && i2 > cur) cur = i2;
        }
        const CmdId cid = entry.cmd.id;
        auto ait = acq.adoptions.find(cid);
        if (ait == acq.adoptions.end()) {
          acq.adoptions.emplace(cid, std::move(entry));
        } else if (entry.epoch > ait->second.epoch) {
          ait->second = std::move(entry);
        }
      }
    }
    ++acq.grants;
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      const Key key = d.get_u64();
      const NodeId owner = d.get_u32();
      const std::uint64_t epoch = d.get_varint();
      KeyState& ks = keys_[key];
      if (epoch >= ks.promised_epoch) {
        ks.promised_epoch = epoch;
        ks.owner = owner;
        if (owner != env_.id()) ks.synced = false;
      }
    }
    ++acq.denials;
  }
  if (acq.grants >= cq_) {
    acq.resolved = true;
    // We own every key now; position counters resume after the highest
    // instance any grantor had seen (including adopted in-flight values).
    for (auto& [key, last] : acq.max_last_instance) {
      auto& next = next_instance_[key];
      if (last >= next) next = last;
      KeyState& ks = keys_[key];
      ks.owner = env_.id();
      ks.synced = true;
    }
    rsm::Command cmd = std::move(acq.cmd);
    std::vector<AcceptedEntry> adoptions;
    adoptions.reserve(acq.adoptions.size());
    for (auto& [cid, entry] : acq.adoptions) {
      (void)cid;
      adoptions.push_back(std::move(entry));
    }
    std::vector<rsm::Command> queued = std::move(acq.queued);
    for (auto& [key, epoch] : acq.epochs) {
      (void)epoch;
      auto ki = acquiring_keys_.find(key);
      if (ki != acquiring_keys_.end() && ki->second == token) {
        acquiring_keys_.erase(ki);
      }
    }
    acquiring_.erase(it);
    // Paxos value adoption: re-propose every possibly-chosen value at its
    // original position under our (higher) epochs before our own command.
    for (AcceptedEntry& entry : adoptions) {
      if (entry.cmd.id == cmd.id) continue;  // ours; proposed below
      if (accepts_.count(entry.cmd.id) != 0) continue;
      if (delivered_ids_.count(entry.cmd.id) != 0) continue;
      accept_phase_at(std::move(entry.cmd), std::move(entry.pos),
                      /*local=*/false);
    }
    accept_phase(std::move(cmd));
    for (auto& q : queued) route(std::move(q), 0);
    return;
  }
  if (acq.denials > n_ - cq_) {
    // Can no longer reach a majority: back off and re-route (the winner's
    // ownership will have propagated by then).
    acq.resolved = true;
    rsm::Command cmd = std::move(acq.cmd);
    std::vector<rsm::Command> queued = std::move(acq.queued);
    for (auto& [key, epoch] : acq.epochs) {
      (void)epoch;
      auto ki = acquiring_keys_.find(key);
      if (ki != acquiring_keys_.end() && ki->second == token) {
        acquiring_keys_.erase(ki);
      }
    }
    acquiring_.erase(it);
    const Time backoff =
        kAcquireBackoffUs + static_cast<Time>(env_.rng().uniform_int(
                                static_cast<std::uint64_t>(kAcquireBackoffUs)));
    env_.set_timer(backoff, [this, cmd = std::move(cmd),
                             queued = std::move(queued)]() mutable {
      route(std::move(cmd), 0);
      for (auto& q : queued) route(std::move(q), 0);
    });
  }
}

// ---------------------------------------------------------------------------
// Accept phase (owner-local decision, two delays)
// ---------------------------------------------------------------------------

void M2Paxos::accept_phase(rsm::Command cmd) {
  std::vector<std::pair<Key, std::uint64_t>> pos;
  for (const rsm::Op& op : cmd.ops) {
    // One position per distinct key (ops are key-sorted; batches may carry
    // several ops on the same key — they share the position).
    if (!pos.empty() && pos.back().first == op.key) continue;
    pos.emplace_back(op.key, ++next_instance_[op.key]);
  }
  const bool local = cmd.origin == env_.id();
  accept_phase_at(std::move(cmd), std::move(pos), local);
}

void M2Paxos::accept_phase_at(rsm::Command cmd,
                              std::vector<std::pair<Key, std::uint64_t>> pos,
                              bool local) {
  AcceptRound& round = accepts_[cmd.id];
  round.cmd = cmd;
  round.pos = std::move(pos);
  round.was_local = local;
  round.start = env_.now();
  round.epoch = 0;
  for (auto& [key, inst] : round.pos) {
    (void)inst;
    round.epoch = std::max(round.epoch, keys_[key].promised_epoch);
  }
  net::Encoder e = env_.encoder();
  cmd.encode(e);
  e.put_varint(round.pos.size());
  for (auto& [key, inst] : round.pos) {
    e.put_u64(key);
    e.put_varint(keys_[key].promised_epoch);
    e.put_varint(inst);
    auto& next = next_instance_[key];
    if (inst > next) next = inst;
    // Self-accept: record in the acceptor log so a later acquisition by
    // another node adopts this value.
    AcceptedEntry entry{keys_[key].promised_epoch, round.cmd, round.pos};
    accepted_log_[key][inst] = std::move(entry);
  }
  env_.broadcast(kAccept, std::move(e), /*include_self=*/false);
}

void M2Paxos::handle_accept(NodeId from, net::Decoder& d) {
  rsm::Command cmd = rsm::Command::decode(d);
  const std::size_t count = static_cast<std::size_t>(d.get_varint());
  std::vector<std::pair<Key, std::uint64_t>> pos;
  std::vector<std::uint64_t> epochs;
  pos.reserve(count);
  bool ok = true;
  for (std::size_t i = 0; i < count; ++i) {
    const Key key = d.get_u64();
    const std::uint64_t epoch = d.get_varint();
    const std::uint64_t inst = d.get_varint();
    pos.emplace_back(key, inst);
    epochs.push_back(epoch);
    if (epoch < keys_[key].promised_epoch) ok = false;
  }
  if (ok) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto [key, inst] = pos[i];
      KeyState& ks = keys_[key];
      if (epochs[i] > ks.promised_epoch) {
        ks.promised_epoch = epochs[i];
        ks.owner = ballot_node(epochs[i]);
        if (ks.owner != env_.id()) ks.synced = false;
      }
      // NOTE: last_instance advances only on *decides*. Counting accepted
      // positions here would let a failed round (stale owner outpaced by a
      // new epoch) burn a position forever and freeze the key's execution
      // watermark; accepted-but-undecided values instead travel to the next
      // owner through the acceptor log below and are re-proposed at their
      // original positions.
      auto& slot = accepted_log_[key][inst];
      if (epochs[i] >= slot.epoch) {
        slot = AcceptedEntry{epochs[i], cmd, pos};
      }
    }
  }
  net::Encoder e = env_.encoder();
  e.put_u64(cmd.id);
  e.put_bool(ok);
  env_.send(from, kAcceptReply, std::move(e));
}

void M2Paxos::handle_accept_reply(NodeId from, net::Decoder& d) {
  (void)from;
  const CmdId id = d.get_u64();
  const bool ok = d.get_bool();
  auto it = accepts_.find(id);
  if (it == accepts_.end() || it->second.decided) return;
  AcceptRound& round = it->second;
  if (!ok) {
    // We proposed with a stale epoch (another node owns the keys now). Once
    // a majority is unreachable, abandon the round and re-route: the nok
    // teaching from acquire replies or fresh acquisition will find the owner.
    if (++round.nacks > n_ - cq_) {
      rsm::Command cmd = std::move(round.cmd);
      accepts_.erase(it);
      const Time backoff =
          kAcquireBackoffUs + static_cast<Time>(env_.rng().uniform_int(
                                  static_cast<std::uint64_t>(kAcquireBackoffUs)));
      env_.set_timer(backoff, [this, cmd = std::move(cmd)]() mutable {
        route(std::move(cmd), 0);
      });
    }
    return;
  }
  if (++round.acks < cq_) return;
  round.decided = true;
  if (stats_ != nullptr) {
    if (round.was_local) {
      ++stats_->fast_decisions;
    } else {
      ++stats_->slow_decisions;  // paid a forward/acquisition hop
    }
    stats_->propose_phase.record(env_.now() - round.start);
  }
  net::Encoder e = env_.encoder();
  round.cmd.encode(e);
  e.put_varint(round.pos.size());
  for (auto& [key, inst] : round.pos) {
    e.put_u64(key);
    e.put_varint(inst);
    KeyState& ks = keys_[key];
    if (inst > ks.last_instance) ks.last_instance = inst;
    auto lit = accepted_log_.find(key);
    if (lit != accepted_log_.end()) lit->second.erase(inst);
    // Sanity: if this decide landed below the key's execution watermark, a
    // competing owner got positions past ours — our counter is stale. Force
    // a re-sync before deciding anything else on this key; the orphaned
    // command is re-decided at a fresh position by its origin's watchdog.
    auto wm = exec_watermark_.find(key);
    if (wm != exec_watermark_.end() && wm->second > inst) {
      ks.synced = false;
      auto& next = next_instance_[key];
      if (wm->second > next) next = wm->second;
    }
  }
  e.put_varint(round.epoch);
  env_.broadcast(kDecide, std::move(e), /*include_self=*/false);
  auto entry = std::make_shared<PendingExec>();
  entry->cmd = std::move(round.cmd);
  entry->pos = std::move(round.pos);
  entry->epoch = round.epoch;
  accepts_.erase(it);
  schedule_exec(std::move(entry));
}

void M2Paxos::handle_decide(net::Decoder& d) {
  auto entry = std::make_shared<PendingExec>();
  entry->cmd = rsm::Command::decode(d);
  const std::size_t count = static_cast<std::size_t>(d.get_varint());
  entry->pos.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Key key = d.get_u64();
    const std::uint64_t inst = d.get_varint();
    entry->pos.emplace_back(key, inst);
    KeyState& ks = keys_[key];
    if (inst > ks.last_instance) ks.last_instance = inst;
    auto lit = accepted_log_.find(key);
    if (lit != accepted_log_.end()) lit->second.erase(inst);
  }
  entry->epoch = d.get_varint();
  schedule_exec(std::move(entry));
}

// ---------------------------------------------------------------------------
// Execution: per-key position order
// ---------------------------------------------------------------------------

void M2Paxos::schedule_exec(std::shared_ptr<PendingExec> entry) {
  for (auto& [key, inst] : entry->pos) {
    auto [slot, inserted] = exec_index_[key].emplace(inst, entry);
    if (!inserted && entry->epoch > slot->second->epoch) {
      // Two rounds decided different commands at this position (a takeover
      // race). The higher epoch wins deterministically on every node; the
      // loser's origin re-decides it at a fresh position via its watchdog.
      slot->second = entry;
    }
  }
  for (auto& [key, inst] : entry->pos) try_exec(key);
}

void M2Paxos::try_exec(Key key) {
  while (true) {
    auto& wm = exec_watermark_[key];
    if (wm == 0) wm = 1;
    auto ki = exec_index_.find(key);
    if (ki == exec_index_.end()) return;
    auto it = ki->second.find(wm);
    if (it == ki->second.end()) return;
    const std::shared_ptr<PendingExec>& entry = it->second;
    // Every key of the command must be at its position.
    for (auto& [k2, i2] : entry->pos) {
      auto& wm2 = exec_watermark_[k2];
      if (wm2 == 0) wm2 = 1;
      if (wm2 != i2) return;  // will be retried from k2's try_exec
    }
    std::shared_ptr<PendingExec> e = entry;
    if (!e->done) {
      e->done = true;
      // A command can be decided at two positions when an adoption races its
      // origin's retry; deliver it exactly once.
      if (delivered_ids_.insert(e->cmd.id).second) deliver_(e->cmd);
      my_pending_.erase(e->cmd.id);
    }
    for (auto& [k2, i2] : e->pos) {
      exec_watermark_[k2] = i2 + 1;
      exec_index_[k2].erase(i2);
    }
    // Cascade on sibling keys whose watermark advanced.
    for (auto& [k2, i2] : e->pos) {
      if (k2 != key) try_exec(k2);
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void M2Paxos::on_message(NodeId from, std::uint16_t type, net::Decoder& d) {
  switch (static_cast<MsgType>(type)) {
    case kForward:
      handle_forward(d);
      break;
    case kAcquire:
      handle_acquire(from, d);
      break;
    case kAcquireReply:
      handle_acquire_reply(from, d);
      break;
    case kAccept:
      handle_accept(from, d);
      break;
    case kAcceptReply:
      handle_accept_reply(from, d);
      break;
    case kDecide:
      handle_decide(d);
      break;
    default:
      log::warn("m2paxos: unknown message type ", type);
  }
}

}  // namespace caesar::m2paxos
