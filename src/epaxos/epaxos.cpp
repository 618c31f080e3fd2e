#include "epaxos/epaxos.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "rsm/log_snapshot.h"

namespace caesar::epaxos {

namespace {
constexpr Time kEntriesPerUs = 16;
/// Models the paper's graph-walk cost in simulated time: linearizing the
/// dependency graph (Tarjan's SCC search with its stack bookkeeping) is
/// charged ~0.5us per dependency visited, whatever the host code's data
/// layout. This is the delivery cost the paper blames for EPaxos'
/// degradation under load (§VI-A, Figs 8/9).
constexpr Time kGraphNodesPerUs = 2;
/// A recovery that has not committed its instance within this time starts
/// over with a higher ballot.
constexpr Time kRecoveryRetryUs = 2 * kSec;

void encode_instance_msg(net::Encoder& e, InstanceId iid, Ballot ballot,
                         const rsm::Command& cmd, std::uint64_t seq,
                         const IdSet& deps) {
  e.put_u64(iid);
  e.put_u64(ballot);
  cmd.encode(e);
  e.put_varint(seq);
  e.put_id_set(deps);
}

struct InstanceMsg {
  InstanceId iid;
  Ballot ballot;
  rsm::Command cmd;
  std::uint64_t seq;
  IdSet deps;
};

InstanceMsg decode_instance_msg(net::Decoder& d) {
  InstanceMsg m;
  m.iid = d.get_u64();
  m.ballot = d.get_u64();
  m.cmd = rsm::Command::decode(d);
  m.seq = d.get_varint();
  m.deps = d.get_id_set();
  return m;
}
}  // namespace

EPaxos::EPaxos(rt::Env& env, DeliverFn deliver, EPaxosConfig cfg,
               stats::ProtocolStats* stats)
    : rt::Protocol(env, std::move(deliver)),
      cfg_(cfg),
      stats_(stats),
      n_(env.cluster_size()),
      fq_(epaxos_fast_quorum_size(env.cluster_size())),
      cq_(classic_quorum_size(env.cluster_size())),
      rec_(env.id(), env.cluster_size(),
           classic_quorum_size(env.cluster_size())) {}

void EPaxos::start() {
  if (cfg_.catchup_interval_us > 0) {
    env_.set_timer(cfg_.catchup_interval_us, [this] { catchup_tick(); });
  }
}

void EPaxos::on_recover() {
  start();
  rec_.reset_suspicions();
  // In-flight coordinators and recoveries lost their outstanding messages in
  // the outage. Re-drive each instance through the ballot-protected explicit
  // prepare: peers may have advanced (or no-op'd) it meanwhile, and prepare
  // converges on whatever the cluster decided. Timer ids are stale after a
  // crash and must not be cancelled.
  std::vector<InstanceId> redrive;
  for (const auto& [iid, rc] : recovery_) redrive.push_back(iid);
  recovery_.clear();
  for (const auto& [iid, c] : coord_) redrive.push_back(iid);
  coord_.clear();
  std::sort(redrive.begin(), redrive.end());
  redrive.erase(std::unique(redrive.begin(), redrive.end()), redrive.end());
  for (InstanceId iid : redrive) start_recovery(iid);
  rec_.set_catchup_needed(true);
  request_catchup();
}

bool EPaxos::is_executed(InstanceId iid) const {
  const Instance* inst = instances_.find(iid);
  return inst != nullptr && inst->status == IStatus::kExecuted;
}

bool EPaxos::is_committed(InstanceId iid) const {
  const Instance* inst = instances_.find(iid);
  return inst != nullptr && decided(*inst);
}

std::uint64_t EPaxos::seq_of(InstanceId iid) const {
  const Instance* inst = instances_.find(iid);
  return inst == nullptr ? 0 : inst->seq;
}

IdSet EPaxos::deps_of(InstanceId iid) const {
  const Instance* inst = instances_.find(iid);
  return inst == nullptr ? IdSet{} : inst->deps;
}

// ---------------------------------------------------------------------------
// Attributes
// ---------------------------------------------------------------------------

std::pair<std::uint64_t, IdSet> EPaxos::attributes_for(const rsm::Command& cmd,
                                                       InstanceId self) {
  std::uint64_t seq = 1;
  std::vector<std::uint64_t> deps;
  Time scanned = 0;
  for (const rsm::Op& op : cmd.ops) {
    const KeyInfo* info = find_key(op.key);
    if (info == nullptr) continue;
    seq = std::max(seq, info->max_seq + 1);
    for (InstanceId iid : info->latest) {
      if (iid == 0) continue;  // no instance of this leader yet
      ++scanned;
      if (iid != self) deps.push_back(iid);
    }
  }
  env_.charge_cpu(scanned / kEntriesPerUs);
  return {seq, IdSet::from_vector(std::move(deps))};
}

void EPaxos::note_instance(InstanceId iid, const rsm::Command& cmd,
                           std::uint64_t seq) {
  const NodeId leader = iid_leader(iid);
  for (const rsm::Op& op : cmd.ops) {
    KeyInfo& info = key_info(op.key);
    InstanceId& latest = info.latest.at(leader);
    if (latest == 0 || iid_slot(iid) > iid_slot(latest)) latest = iid;
    if (seq > info.max_seq) info.max_seq = seq;
  }
}

const EPaxos::KeyInfo* EPaxos::find_key(Key key) const {
  if (key == 0) return key0_.latest.empty() ? nullptr : &key0_;
  return keys_.find(key);
}

EPaxos::KeyInfo& EPaxos::key_info(Key key) {
  KeyInfo& info = key == 0 ? key0_ : keys_[key];
  if (info.latest.empty()) info.latest.assign(n_, 0);
  return info;
}

// ---------------------------------------------------------------------------
// Leader: propose / PreAccept
// ---------------------------------------------------------------------------

void EPaxos::propose(rsm::Command cmd) {
  const InstanceId iid = make_iid(env_.id(), ++next_slot_);
  auto [seq, deps] = attributes_for(cmd, iid);

  Instance& inst = instances_[iid];
  inst.cmd = std::move(cmd);
  inst.seq = seq;
  inst.deps = deps;
  inst.status = IStatus::kPreAccepted;
  inst.ballot = 0;
  note_instance(iid, inst.cmd, seq);

  Coordinator& c = open_coordinator(iid, inst, 0);
  c.seq = seq;
  c.max_seq = seq;
  c.union_deps = deps;
  c.deps = std::move(deps);

  net::Encoder e = env_.encoder();
  encode_instance_msg(e, iid, 0, inst.cmd, seq, c.deps);
  env_.broadcast(kPreAccept, std::move(e), /*include_self=*/false);
}

EPaxos::Coordinator& EPaxos::open_coordinator(InstanceId iid, Instance& inst,
                                              Ballot ballot) {
  Coordinator& c = coord_[iid];
  c = Coordinator{};
  c.inst = &inst;
  c.ballot = ballot;
  c.start = env_.now();
  return c;
}

void EPaxos::handle_pre_accept(NodeId from, net::Decoder& d) {
  InstanceMsg m = decode_instance_msg(d);
  Instance& inst = instances_[m.iid];
  if (inst.ballot > m.ballot || decided(inst)) return;

  auto [local_seq, local_deps] = attributes_for(m.cmd, m.iid);
  const std::uint64_t seq = std::max(m.seq, local_seq);
  // The union differs from the leader's deps iff it adds a local one.
  const bool changed = (seq != m.seq) || !m.deps.is_superset_of(local_deps);

  inst.cmd = std::move(m.cmd);
  inst.seq = seq;
  inst.deps = std::move(m.deps);
  inst.deps.merge(local_deps);
  inst.status = IStatus::kPreAccepted;
  inst.ballot = m.ballot;
  note_instance(m.iid, inst.cmd, seq);

  net::Encoder e = env_.encoder();
  e.put_u64(m.iid);
  e.put_u64(m.ballot);
  e.put_varint(seq);
  e.put_id_set(inst.deps);
  e.put_bool(changed);
  env_.send(from, kPreAcceptReply, std::move(e));
}

void EPaxos::handle_pre_accept_reply(NodeId from, net::Decoder& d) {
  (void)from;
  const InstanceId iid = d.get_u64();
  const Ballot ballot = d.get_u64();
  const std::uint64_t seq = d.get_varint();
  IdSet deps = d.get_id_set();
  const bool changed = d.get_bool();

  Coordinator* c = coord_.find(iid);
  if (c == nullptr || c->ballot != ballot || c->phase != Phase::kPreAccept) {
    return;
  }
  ++c->replies;
  if (changed) ++c->changed;
  c->max_seq = std::max(c->max_seq, seq);
  c->union_deps.merge(deps);
  env_.charge_cpu(static_cast<Time>(deps.size()) / kEntriesPerUs);

  // EPaxos fast-path rule: leader + (fq-1) other replies, all with the
  // leader's attributes untouched. Any disagreement -> Paxos-Accept round.
  if (c->replies == fq_ - 1) {
    if (c->changed == 0) {
      commit(iid, *c, /*fast=*/true);
    } else {
      start_accept_phase(iid, *c, c->max_seq, c->union_deps);
    }
  }
}

// ---------------------------------------------------------------------------
// Accept phase (slow path)
// ---------------------------------------------------------------------------

void EPaxos::start_accept_phase(InstanceId iid, Coordinator& c,
                                std::uint64_t seq, IdSet deps) {
  Instance& inst = *c.inst;
  // The decision may have raced in (a commit broadcast or catch-up reply
  // landing between quorum formation and this call): regressing a committed —
  // worse, executed — instance to kAccepted would let the eventual re-commit
  // deliver it a second time. The decision is in; stand down.
  if (decided(inst)) {
    coord_.erase(iid);
    return;
  }
  c.phase = Phase::kAccept;
  c.seq = seq;
  c.deps = deps;
  c.accept_acks = 1;  // self

  inst.seq = seq;
  inst.deps = std::move(deps);
  inst.status = IStatus::kAccepted;
  inst.ballot = c.ballot;
  note_instance(iid, inst.cmd, seq);

  net::Encoder e = env_.encoder();
  encode_instance_msg(e, iid, c.ballot, inst.cmd, seq, inst.deps);
  env_.broadcast(kAccept, std::move(e), /*include_self=*/false);
}

void EPaxos::handle_accept(NodeId from, net::Decoder& d) {
  InstanceMsg m = decode_instance_msg(d);
  Instance& inst = instances_[m.iid];
  if (inst.ballot > m.ballot || decided(inst)) return;
  inst.cmd = std::move(m.cmd);
  inst.seq = m.seq;
  inst.deps = std::move(m.deps);
  inst.status = IStatus::kAccepted;
  inst.ballot = m.ballot;
  note_instance(m.iid, inst.cmd, m.seq);

  net::Encoder e = env_.encoder();
  e.put_u64(m.iid);
  e.put_u64(m.ballot);
  env_.send(from, kAcceptReply, std::move(e));
}

void EPaxos::handle_accept_reply(NodeId from, net::Decoder& d) {
  (void)from;
  const InstanceId iid = d.get_u64();
  const Ballot ballot = d.get_u64();
  Coordinator* c = coord_.find(iid);
  if (c == nullptr || c->ballot != ballot || c->phase != Phase::kAccept) return;
  ++c->accept_acks;
  if (c->accept_acks == cq_) commit(iid, *c, /*fast=*/false);
}

// ---------------------------------------------------------------------------
// Commit + execution
// ---------------------------------------------------------------------------

void EPaxos::commit(InstanceId iid, Coordinator& c, bool fast) {
  if (stats_ != nullptr) {
    if (fast) {
      ++stats_->fast_decisions;
    } else {
      ++stats_->slow_decisions;
    }
    stats_->propose_phase.record(env_.now() - c.start);
  }
  Instance& inst = *c.inst;
  net::Encoder e = env_.encoder();
  encode_instance_msg(e, iid, c.ballot, inst.cmd, c.seq, c.deps);
  env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
  apply_commit(iid, inst, inst.cmd, c.seq, std::move(c.deps));
  coord_.erase(iid);
}

void EPaxos::handle_commit(net::Decoder& d) {
  InstanceMsg m = decode_instance_msg(d);
  apply_commit(m.iid, instances_[m.iid], std::move(m.cmd), m.seq,
               std::move(m.deps));
}

void EPaxos::apply_commit(InstanceId iid, Instance& inst, rsm::Command cmd,
                          std::uint64_t seq, IdSet deps) {
  if (decided(inst)) return;
  inst.cmd = std::move(cmd);
  inst.seq = seq;
  inst.deps = std::move(deps);
  inst.status = IStatus::kCommitted;
  inst.unknown = false;
  note_instance(iid, inst.cmd, seq);

  try_execute(iid, inst);
  // Wake the roots whose execution was blocked on this commit, in the order
  // they blocked. Each link goes back to the free list before its root runs,
  // so the root may block again at once without growing the pool.
  std::uint32_t link = inst.wait_head;
  inst.wait_head = inst.wait_tail = kNoLink;
  while (link != kNoLink) {
    const WaitLink w = wait_links_[link];
    wait_links_[link].next = free_link_;
    free_link_ = link;
    link = w.next;
    if (Instance* root = instances_.find(w.root)) try_execute(w.root, *root);
  }
}

void EPaxos::add_waiter(Instance& dep, InstanceId root) {
  std::uint32_t link = free_link_;
  if (link != kNoLink) {
    free_link_ = wait_links_[link].next;
    wait_links_[link] = WaitLink{root, kNoLink};
  } else {
    link = static_cast<std::uint32_t>(wait_links_.size());
    wait_links_.push_back(WaitLink{root, kNoLink});
  }
  if (dep.wait_tail == kNoLink) {
    dep.wait_head = link;
  } else {
    wait_links_[dep.wait_tail].next = link;
  }
  dep.wait_tail = link;
}

void EPaxos::execute_instance(Instance& inst) {
  inst.status = IStatus::kExecuted;
  ++executed_count_;
  if (!inst.cmd.ops.empty()) deliver_(inst.cmd);
}

void EPaxos::try_execute(InstanceId root, Instance& root_inst) {
  if (root_inst.status != IStatus::kCommitted) return;
  // Iterative Tarjan over committed-but-unexecuted instances reachable from
  // `root`. Components pop in dependency order (a component is emitted only
  // after everything it reaches), so executing them in emission order
  // respects the dependency graph; ties inside a component break by (seq,
  // instance id) — exactly EPaxos' execution algorithm. Index, lowlink and
  // on-stack marks live in the instance records under this walk's number,
  // so a record stamped by an earlier walk reads as not yet visited.
  const std::uint64_t walk = ++walks_;
  std::uint32_t next_index = 1;
  Time visited = 0;
  frames_.clear();
  stack_.clear();
  components_.clear();
  component_ends_.clear();

  auto push_node = [&](InstanceId v, Instance& inst) {
    inst.walk = walk;
    inst.index = inst.lowlink = next_index++;
    inst.on_stack = true;
    stack_.push_back(WalkNode{v, &inst});
    frames_.push_back(WalkFrame{&inst, 0});
  };
  push_node(root, root_inst);

  while (!frames_.empty()) {
    WalkFrame& f = frames_.back();
    Instance& inst = *f.inst;
    bool descended = false;
    while (f.dep_idx < inst.deps.size()) {
      const InstanceId dep = inst.deps.raw()[f.dep_idx];
      ++f.dep_idx;
      ++visited;
      Instance* di = instances_.find(dep);
      if (di == nullptr || di->status < IStatus::kCommitted) {
        // Not committed yet: cannot linearize; park and retry on commit.
        if (di == nullptr) {
          di = &instances_[dep];
          di->unknown = true;
        }
        add_waiter(*di, root);
        env_.charge_cpu(visited / kGraphNodesPerUs);
        return;
      }
      if (di->status == IStatus::kExecuted) continue;
      if (di->walk != walk) {
        push_node(dep, *di);  // invalidates f
        descended = true;
        break;
      }
      if (di->on_stack) inst.lowlink = std::min(inst.lowlink, di->index);
    }
    if (descended) continue;
    // Node finished: pop component if root of SCC.
    frames_.pop_back();
    if (!frames_.empty()) {
      Instance& parent = *frames_.back().inst;
      parent.lowlink = std::min(parent.lowlink, inst.lowlink);
    }
    if (inst.lowlink == inst.index) {
      WalkNode w;
      do {
        w = stack_.back();
        stack_.pop_back();
        w.inst->on_stack = false;
        components_.push_back(w);
      } while (w.inst != &inst);
      component_ends_.push_back(components_.size());
    }
  }

  env_.charge_cpu(visited / kGraphNodesPerUs);
  std::size_t begin = 0;
  for (std::size_t end : component_ends_) {
    std::sort(components_.begin() + static_cast<std::ptrdiff_t>(begin),
              components_.begin() + static_cast<std::ptrdiff_t>(end),
              [](const WalkNode& a, const WalkNode& b) {
                const std::uint64_t sa = a.inst->seq, sb = b.inst->seq;
                return sa != sb ? sa < sb : a.iid < b.iid;
              });
    for (; begin < end; ++begin) {
      Instance& inst = *components_[begin].inst;
      if (inst.status == IStatus::kCommitted) execute_instance(inst);
    }
  }
  if (stats_ != nullptr) {
    stats_->deliver_phase.record(visited);  // graph work proxy
  }
}

// ---------------------------------------------------------------------------
// Recovery (simplified explicit prepare)
// ---------------------------------------------------------------------------

void EPaxos::on_node_suspected(NodeId peer) {
  rec_.note_suspected(peer);
  // The peer's instances stuck short of a decision, plus the ones only known
  // as dependencies (listed twice when both: one draw each).
  std::vector<InstanceId> to_recover;
  for (const auto& [iid, inst] : instances_) {
    if (iid_leader(iid) != peer) continue;
    if (inst.status == IStatus::kPreAccepted ||
        inst.status == IStatus::kAccepted) {
      to_recover.push_back(iid);
    }
    if (inst.unknown) to_recover.push_back(iid);
  }
  // One stagger draw per instance, in id order: the table's iteration order
  // must not decide which instance gets which draw.
  std::sort(to_recover.begin(), to_recover.end());
  for (InstanceId iid : to_recover) {
    const Time stagger = static_cast<Time>(env_.rng().uniform_int(
        static_cast<std::uint64_t>(cfg_.recovery_stagger_us) + 1));
    env_.set_timer(stagger, [this, iid] { start_recovery(iid); });
  }
}

void EPaxos::start_recovery(InstanceId iid) {
  const Instance* inst = instances_.find(iid);
  if (inst != nullptr && decided(*inst)) return;
  if (recovery_.find(iid) != nullptr) return;
  if (stats_ != nullptr) ++stats_->recoveries;
  const Ballot current = inst == nullptr ? 0 : inst->ballot;
  const Ballot nb = make_ballot(ballot_round(current) + 1, env_.id());
  RecoveryCoordinator& rc = recovery_[iid];
  rc.ballot = nb;
  net::Encoder e = env_.encoder();
  e.put_u64(iid);
  e.put_u64(nb);
  env_.broadcast(kPrepare, std::move(e), /*include_self=*/true);
  rc.retry_timer = env_.set_timer(kRecoveryRetryUs, [this, iid] {
    recovery_.erase(iid);
    start_recovery(iid);
  });
}

void EPaxos::handle_prepare(NodeId from, net::Decoder& d) {
  const InstanceId iid = d.get_u64();
  const Ballot ballot = d.get_u64();
  Instance& inst = instances_[iid];
  // Stale prepare: stay silent; the recoverer's retry timer handles it.
  if (ballot <= inst.ballot && inst.status != IStatus::kNone) return;
  inst.ballot = ballot;
  // Stand down as coordinator if we were competing at a lower ballot.
  const Coordinator* c = coord_.find(iid);
  if (c != nullptr && c->ballot < ballot) coord_.erase(iid);

  net::Encoder e = env_.encoder();
  e.put_u64(iid);
  e.put_u64(ballot);
  e.put_u8(static_cast<std::uint8_t>(inst.status));
  inst.cmd.encode(e);
  e.put_varint(inst.seq);
  e.put_id_set(inst.deps);
  env_.send(from, kPrepareReply, std::move(e));
}

void EPaxos::handle_prepare_reply(NodeId from, net::Decoder& d) {
  const InstanceId iid = d.get_u64();
  const Ballot ballot = d.get_u64();
  PrepareReply reply;
  reply.status = static_cast<IStatus>(d.get_u8());
  reply.cmd = rsm::Command::decode(d);
  reply.seq = d.get_varint();
  reply.deps = d.get_id_set();

  RecoveryCoordinator* rc = recovery_.find(iid);
  if (rc == nullptr || rc->ballot != ballot) return;
  const std::uint64_t bit = std::uint64_t{1} << from;
  if ((rc->responded & bit) != 0) return;
  rc->responded |= bit;
  rc->replies.push_back(std::move(reply));
  if (static_cast<std::size_t>(std::popcount(rc->responded)) == cq_) {
    finish_recovery(iid);
  }
}

void EPaxos::finish_recovery(InstanceId iid) {
  RecoveryCoordinator rc = std::move(*recovery_.find(iid));
  recovery_.erase(iid);
  if (rc.retry_timer != sim::kNoEvent) env_.cancel_timer(rc.retry_timer);

  // Prepare replies are snapshots from when the prepare went out; the real
  // commit may have raced them in (delivered — even executed — here while
  // the last reply was in flight). Re-announce the decided value instead of
  // regressing the instance through another accept round or a no-op fill.
  Instance& inst = instances_[iid];
  if (decided(inst)) {
    net::Encoder e = env_.encoder();
    encode_instance_msg(e, iid, rc.ballot, inst.cmd, inst.seq, inst.deps);
    env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
    return;
  }

  const PrepareReply* committed = nullptr;
  const PrepareReply* accepted = nullptr;
  std::vector<const PrepareReply*> preaccepted;
  for (const PrepareReply& reply : rc.replies) {
    switch (reply.status) {
      case IStatus::kCommitted:
      case IStatus::kExecuted:
        committed = &reply;
        break;
      case IStatus::kAccepted:
        accepted = &reply;
        break;
      case IStatus::kPreAccepted:
        preaccepted.push_back(&reply);
        break;
      default:
        break;
    }
  }

  if (committed != nullptr) {
    // Someone saw the commit: just re-broadcast it.
    coord_.erase(iid);
    net::Encoder e = env_.encoder();
    encode_instance_msg(e, iid, rc.ballot, committed->cmd, committed->seq,
                        committed->deps);
    env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
    apply_commit(iid, inst, committed->cmd, committed->seq, committed->deps);
    return;
  }
  if (accepted != nullptr) {
    inst.cmd = accepted->cmd;
    start_accept_phase(iid, open_coordinator(iid, inst, rc.ballot),
                       accepted->seq, accepted->deps);
    return;
  }
  if (!preaccepted.empty()) {
    // If >= floor(CQ/2)+1 identical pre-accepts exist, the fast path may
    // have fired with those attributes: adopt them via Accept. The shortcut
    // is meaningless when this node leads the instance — only the leader
    // can take the fast path, and it is recovering precisely because it
    // never committed — so a self-led recovery always re-runs PreAccept.
    const PrepareReply* chosen = nullptr;
    if (iid_leader(iid) != env_.id()) {
      const std::size_t threshold = cq_ / 2 + 1;
      for (const PrepareReply* a : preaccepted) {
        std::size_t same = 0;
        for (const PrepareReply* b : preaccepted) {
          if (a->seq == b->seq && a->deps == b->deps) ++same;
        }
        if (same >= threshold) {
          chosen = a;
          break;
        }
      }
    }
    if (chosen != nullptr) {
      inst.cmd = chosen->cmd;
      start_accept_phase(iid, open_coordinator(iid, inst, rc.ballot),
                         chosen->seq, chosen->deps);
      return;
    }
    // No fast-path evidence. The surviving pre-accepts are snapshots from
    // before the outage: commands proposed meanwhile never made it into
    // their attributes, and pushing the stale union through Accept (which
    // stores attributes verbatim) would commit an interfering command with
    // no ordering edge to its rivals. Instead re-run the PreAccept round at
    // the recovery ballot, seeded with the union plus locally recomputed
    // interference — acceptors fold in whatever they learned since, and any
    // disagreement routes through the normal slow path (the simplified
    // stand-in for the paper's TryPreAccept, see DESIGN.md).
    const rsm::Command& cmd = preaccepted.front()->cmd;
    auto [seq, deps] = attributes_for(cmd, iid);
    for (const PrepareReply* a : preaccepted) {
      seq = std::max(seq, a->seq);
      deps.merge(a->deps);
    }
    inst.cmd = cmd;
    inst.seq = seq;
    inst.deps = deps;
    inst.status = IStatus::kPreAccepted;
    inst.ballot = rc.ballot;
    note_instance(iid, cmd, seq);
    Coordinator& c = open_coordinator(iid, inst, rc.ballot);
    c.seq = seq;
    c.deps = deps;
    c.max_seq = seq;
    c.union_deps = deps;
    net::Encoder e = env_.encoder();
    encode_instance_msg(e, iid, rc.ballot, cmd, seq, deps);
    env_.broadcast(kPreAccept, std::move(e), /*include_self=*/false);
    return;
  }
  // Nobody knows the instance: commit a no-op to fill the slot.
  coord_.erase(iid);
  rsm::Command noop;
  noop.id = iid;
  noop.origin = iid_leader(iid);
  net::Encoder e = env_.encoder();
  encode_instance_msg(e, iid, rc.ballot, noop, 0, IdSet{});
  env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
  apply_commit(iid, inst, std::move(noop), 0, IdSet{});
}

void EPaxos::on_node_recovered(NodeId peer) {
  // Clears the suspicion; the rejoiner pulls what it missed via its own
  // catch-up, so nothing to push from this side.
  rec_.note_recovered(peer);
}

// ---------------------------------------------------------------------------
// Instance catch-up (rejoin state transfer)
// ---------------------------------------------------------------------------
// Leader columns are dense — slots come from a per-leader counter starting at
// 1 — and instances are never pruned, so one committed-prefix frontier per
// leader captures everything this node can be missing: the responder streams
// every committed instance at/above each frontier. Re-shipping instances the
// requester already has above its first hole is harmless (apply_commit is
// idempotent) and the hole fills on the first successful round, so frontiers
// stay tight in steady state.

std::vector<std::uint64_t> EPaxos::committed_frontiers(bool* any_hole) const {
  std::vector<std::vector<std::uint64_t>> committed(n_);
  for (const auto& [iid, inst] : instances_) {
    if (!decided(inst)) continue;
    const NodeId leader = iid_leader(iid);
    if (leader < n_) committed[leader].push_back(iid_slot(iid));
  }
  std::vector<std::uint64_t> frontier(n_, 1);
  for (std::size_t l = 0; l < n_; ++l) {
    std::sort(committed[l].begin(), committed[l].end());
    std::uint64_t f = 1;
    for (std::uint64_t s : committed[l]) {
      if (s != f) break;
      ++f;
    }
    frontier[l] = f;
    if (any_hole != nullptr && !committed[l].empty() &&
        committed[l].back() >= f) {
      *any_hole = true;
    }
  }
  return frontier;
}

void EPaxos::catchup_tick() {
  env_.set_timer(cfg_.catchup_interval_us, [this] { catchup_tick(); });
  // Backlog evidence: a column hole (a committed slot above an uncommitted
  // one — that commit was dropped while a link was down and nothing local
  // may reference it), execution blocked on an unresolved dependency, or
  // any instance stuck short of execution. Together with a stalled
  // execution frontier that means this node is missing decisions it cannot
  // reach through normal traffic.
  bool backlog = false;
  committed_frontiers(&backlog);
  if (!backlog) {
    for (const auto& [iid, inst] : instances_) {
      if ((inst.status != IStatus::kNone &&
           inst.status != IStatus::kExecuted) ||
          inst.wait_head != kNoLink || inst.unknown) {
        backlog = true;
        break;
      }
    }
  }
  if (rec_.watchdog_tick(executed_count_, backlog)) request_catchup();
}

void EPaxos::request_catchup() {
  // Per-leader committed-prefix frontier: smallest slot not committed here.
  const std::vector<std::uint64_t> frontier = committed_frontiers(nullptr);
  rec_.request_catchup([&](NodeId peer) {
    if (stats_ != nullptr) ++stats_->catchup_requests;
    net::Encoder e = env_.encoder();
    e.put_varint(rec_.catchup_round());
    e.put_varint(n_);
    for (std::uint64_t f : frontier) e.put_varint(f);
    env_.send(peer, rt::kCatchupRequestType, std::move(e));
  });
}

void EPaxos::on_catchup_request(NodeId from, net::Decoder& d) {
  const std::uint64_t round = d.get_varint();
  const std::uint64_t nl = d.get_varint();
  std::vector<std::uint64_t> frontier(nl, 0);
  for (std::uint64_t i = 0; i < nl; ++i) frontier[i] = d.get_varint();
  std::vector<std::pair<InstanceId, const Instance*>> ship;
  for (const auto& [iid, inst] : instances_) {
    if (!decided(inst)) continue;
    const NodeId leader = iid_leader(iid);
    if (leader < frontier.size() && iid_slot(iid) >= frontier[leader]) {
      ship.emplace_back(iid, &inst);
    }
  }
  std::sort(ship.begin(), ship.end());  // deterministic frame contents
  // Chunked frames: varint count, count x instance, u8 done. An empty result
  // still sends one done frame so the requester's catchup_needed latch
  // clears.
  std::size_t pos = 0;
  do {
    const std::size_t count =
        std::min(ship.size() - pos, rsm::kCatchupChunkEntries);
    net::Encoder e = env_.encoder();
    e.put_varint(round);
    e.put_varint(count);
    for (std::size_t k = 0; k < count; ++k) {
      const auto& [iid, inst] = ship[pos + k];
      encode_instance_msg(e, iid, inst->ballot, inst->cmd, inst->seq,
                          inst->deps);
    }
    pos += count;
    e.put_u8(pos == ship.size() ? 1 : 0);
    env_.send(from, rt::kCatchupReplyType, std::move(e));
    if (stats_ != nullptr) ++stats_->catchup_chunks;
  } while (pos < ship.size());
}

void EPaxos::on_catchup_reply(NodeId /*from*/, net::Decoder& d) {
  const std::uint64_t round = d.get_varint();
  const std::uint64_t count = d.get_varint();
  for (std::uint64_t i = 0; i < count; ++i) {
    InstanceMsg m = decode_instance_msg(d);
    Instance& inst = instances_[m.iid];
    if (!decided(inst)) {
      rec_.note_catchup_news();
      if (stats_ != nullptr) ++stats_->catchup_commands;
    }
    // A coordinator of ours still in flight for this instance is obsolete —
    // the decision is in; it must not push a dead ballot any further.
    coord_.erase(m.iid);
    apply_commit(m.iid, inst, std::move(m.cmd), m.seq, std::move(m.deps));
  }
  if (d.get_u8() != 0 && round == rec_.catchup_round()) {
    // Clears the latch only if the round in flight taught us nothing new;
    // otherwise the next tick asks the next peer on the rotor, until a full
    // round comes back news-free (see RecoveryDriver::finish_catchup_round).
    rec_.finish_catchup_round();
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void EPaxos::on_message(NodeId from, std::uint16_t type, net::Decoder& d) {
  switch (static_cast<MsgType>(type)) {
    case kPreAccept:
      handle_pre_accept(from, d);
      break;
    case kPreAcceptReply:
      handle_pre_accept_reply(from, d);
      break;
    case kAccept:
      handle_accept(from, d);
      break;
    case kAcceptReply:
      handle_accept_reply(from, d);
      break;
    case kCommit:
      handle_commit(d);
      break;
    case kPrepare:
      handle_prepare(from, d);
      break;
    case kPrepareReply:
      handle_prepare_reply(from, d);
      break;
    default:
      log::warn("epaxos: unknown message type ", type);
  }
}

}  // namespace caesar::epaxos
