#include "mencius/mencius.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "storage/durability.h"

namespace caesar::mencius {

namespace {

/// Idle floor-announcement period.
constexpr Time kHeartbeatUs = 25 * kMs;
/// Progress-watchdog period: checks for a stalled delivery frontier
/// (triggering catch-up from a live peer), retries stale revocation rounds
/// and re-proposes commands bounced off revoked slots.
constexpr Time kCatchupIntervalUs = 250 * kMs;

}  // namespace

Mencius::Mencius(rt::Env& env, DeliverFn deliver, stats::ProtocolStats* stats)
    : rt::Protocol(env, std::move(deliver)),
      stats_(stats),
      n_(env.cluster_size()),
      cq_(classic_quorum_size(env.cluster_size())),
      next_own_slot_(env.id()),
      floor_(env.cluster_size(), 0),
      floor_fence_(env.cluster_size(), 0),
      rec_(env.id(), env.cluster_size(),
           classic_quorum_size(env.cluster_size())) {
  for (NodeId q = 0; q < n_; ++q) floor_[q] = q;  // initial own slot of q
  dur_ = env.durability();
  if (dur_ != nullptr) {
    dur_->set_stats(stats_);
    // A durable snapshot covers the delivered prefix below its frontier:
    // the in-memory log can drop it (catch-up requesters behind the new
    // base get snapshot-then-suffix instead of replayed entries).
    dur_->set_snapshot_hook(
        [this](std::uint64_t frontier) { log_.compact_through(frontier); });
  }
}

void Mencius::start() {
  env_.set_timer(kHeartbeatUs, [this] { heartbeat(); });
  env_.set_timer(kCatchupIntervalUs, [this] { catchup_tick(); });
}

void Mencius::on_recover() {
  // Restart the heartbeat and watchdog chains (in-memory timers died with
  // the crash).
  start();
  // Drop every *transient* conclusion our failure detector reached before
  // the crash: the peers we suspected may have rejoined and been retracted
  // cluster-wide while we were down — those upcalls never reached us, and
  // acting on the stale suspicions would wedge revocation rounds against
  // live peers. The detector re-reports genuinely dead peers within one
  // timeout (Cluster::recover). Revoked slot RANGES are kept: they are
  // quorum-backed verdicts about past slots, valid forever regardless of
  // what the failure detector believes now (in-memory state survives a
  // crash here; a restart-from-disk re-learns them from peers' advisory
  // re-announces on the first catch-up).
  rec_.reset_suspicions();
  rec_.clear_rounds();
  // State transfer: slots committed by peers during the outage never reached
  // this node (their COMMITs were dropped with its queue), so fetch the
  // missed committed suffix from a live peer and replay it through normal
  // delivery. Until the final reply chunk arrives the watchdog keeps
  // retrying against rotating peers, so a crashed responder cannot strand
  // the rejoin.
  rec_.set_catchup_needed(true);
  request_catchup();
  // Arm the floor-rule fences: every peer's floor knowledge predating this
  // instant may refer to ACCEPTs that died in the outage, so floor skips
  // are suspended per owner until its first post-rejoin floor arrives and
  // then allowed only above it (see floor_fence_).
  for (NodeId q = 0; q < n_; ++q) {
    if (q == env_.id()) continue;
    fence_pending_mask_ |= 1ull << q;
  }
  // Stale acceptor state: a slot we accepted before crashing blocks
  // try_deliver ahead of the floor rule, waiting for a COMMIT that may have
  // been broadcast during our outage and lost. Owners re-confirm genuinely
  // pending slots (on_node_recovered re-ACCEPT) and replay recent COMMITs;
  // after a grace period covering both, sweep whatever was not re-confirmed
  // so one evicted COMMIT cannot wedge delivery forever. Clearing
  // immediately instead would let owner floors skip live pending slots in
  // the window before their re-ACCEPTs arrive. (Catch-up usually resolves
  // the same entries much earlier; the sweep is the backstop.)
  const Time rejoined_at = env_.now();
  env_.set_timer(kResyncGraceUs, [this, rejoined_at] {
    bool swept = false;
    for (auto it = accepted_slots_.begin(); it != accepted_slots_.end();) {
      if (it->second.seen < rejoined_at) {
        it = accepted_slots_.erase(it);
        swept = true;
      } else {
        ++it;
      }
    }
    if (swept) try_deliver();
  });
  // Re-propose every slot that was in flight when we crashed (the ACCEPTED
  // replies sent during the outage were lost, and peers block delivery on
  // an accepted-but-uncommitted slot forever; slots are single-proposer, so
  // re-broadcasting the same value is safe and acks are recounted from
  // scratch) and re-announce recent commits (a COMMIT broadcast just before
  // the crash was dropped at every peer). Peers that already resolved a
  // slot — revocation during the outage — answer kSlotRevoked or re-send
  // its COMMIT instead of acking.
  for (auto& [slot, p] : pending_) p.ack_mask = 1ull << env_.id();
  send_floor_sync(kAllPeers, resend_history(kAllPeers));
}

void Mencius::send_floor_sync(NodeId peer, std::uint64_t covered_from) {
  // Sent immediately after a resend_history barrage on the same links: FIFO
  // guarantees the receiver has by now seen every used slot of ours in
  // [covered_from, floor), so it may lower its fence to covered_from and
  // resume plain floor skipping there (kFloorSync handler). A bare kFloor
  // cannot carry that meaning — the receiver could not tell it from a
  // heartbeat racing the barrage. covered_from is nonzero only when the
  // recent-commit ring has evicted entries (a >8192-commit history hole
  // that only catch-up can fill).
  net::Encoder e = env_.encoder();
  e.put_varint(next_own_slot_);
  e.put_varint(covered_from);
  if (peer == kAllPeers) {
    env_.broadcast(kFloorSync, std::move(e), /*include_self=*/false);
  } else {
    env_.send(peer, kFloorSync, std::move(e));
  }
}

std::uint64_t Mencius::resend_history(NodeId peer) {
  // Recovery barrage: re-offer still-pending slots (their ACCEPTED replies
  // died with a crash on one side or the other) and re-announce the recent
  // commit window (COMMITs in flight at a crash were dropped at every
  // receiver). Two soundness rules, both consequences of the receiver's
  // link from us having a *hole* where the dropped traffic used to be:
  //   * ascending slot order — pending_ iterates hashed and the ring can
  //     commit out of slot order, but per-link FIFO only re-establishes the
  //     floor invariant if no message overtakes a lower slot's resend;
  //   * original-send floors (slot + n), not the current counter — a
  //     current floor would let the receiver floor-skip a slot whose resend
  //     is still a few messages behind in this very barrage.
  std::map<std::uint64_t, std::pair<const rsm::Command*, bool>> msgs;
  for (const auto& [slot, cmd] : recent_commits_) {
    msgs[slot] = {&cmd, /*commit=*/true};
  }
  for (const auto& [slot, p] : pending_) {
    msgs[slot] = {&p.cmd, /*commit=*/false};
  }
  for (const auto& [slot, m] : msgs) {
    net::Encoder e = env_.encoder();
    e.put_varint(slot);
    m.first->encode(e);
    e.put_varint(slot + n_);
    const std::uint16_t type = m.second ? kCommit : kAccept;
    if (peer == kAllPeers) {
      env_.broadcast(type, std::move(e), /*include_self=*/false);
    } else {
      env_.send(peer, type, std::move(e));
    }
  }
  // Sound coverage bound for the follow-up floor-sync: with an unevicted
  // ring the barrage reaches back to our first commit ever; once eviction
  // has happened, only slots from the oldest surviving entry on are proven.
  if (recent_commits_.size() < kRecentCommits) return 0;
  return msgs.empty() ? 0 : msgs.begin()->first;
}

void Mencius::on_node_suspected(NodeId peer) {
  rec_.note_suspected(peer);
  // Revocation makes the cluster deliver *around* a node that never
  // returns; driven by one designated node so concurrent revokers cannot
  // reach different commit-vs-skip decisions for the same slot.
  maybe_start_revocations();
}

void Mencius::on_node_recovered(NodeId peer) {
  // Clears the suspicion and voids any round still collecting against the
  // peer: it is provably back with its state intact, so its own floors and
  // re-proposals resolve its *future* slots again. Revoked ranges already
  // decided against it stand — they are quorum-backed, and the acceptors
  // that applied them permanently refuse acks inside the range, so clearing
  // our copy here would only let this node diverge from them. The rejoined
  // peer learns the range end from the first kSlotRevoked bounce and
  // re-proposes above it.
  rec_.note_recovered(peer);
  // The suspicion window was a hole in our link from this peer: we dropped
  // its re-announces and ignored its floors while an eventual revocation
  // round was in flight. Its floors therefore become trustworthy again only
  // from its next message onward — re-arm the fence exactly like a rejoin,
  // so old unresolved slots of this peer wait for a commit, the decision,
  // or catch-up instead of being floor-skipped.
  fence_pending_mask_ |= 1ull << peer;
  // A rejoined peer missed our ACCEPTs (including any recovery re-announce
  // from before it was back): offer the still-uncommitted slots again, and
  // replay the recent commit window so slots it accepted just before its
  // crash resolve instead of omitting.
  send_floor_sync(peer, resend_history(peer));
  // Symmetrically, WE ignored everything the peer re-announced while the
  // suspicion stood (floors and re-ACCEPTs alike), so ask it to repeat its
  // barrage now that we are listening: that patches our hole and its
  // closing kFloorSync lifts the fence we just re-armed — without it, the
  // peer's abandoned slots could only be resolved one catch-up at a time.
  env_.send(peer, kResyncRequest, env_.encoder());
}

void Mencius::heartbeat() {
  net::Encoder e = env_.encoder();
  e.put_varint(next_own_slot_);
  env_.broadcast(kFloor, std::move(e), /*include_self=*/false);
  env_.set_timer(kHeartbeatUs, [this] { heartbeat(); });
}

void Mencius::propose(rsm::Command cmd) {
  const std::uint64_t slot = next_own_slot_;
  if (dur_ != nullptr) {
    // Slot-reuse fence: before the first broadcast at or above the durable
    // bound, persist (force-flushed) a promise never to originate below
    // slot + lease. After a crash the restart resumes above the bound, so
    // no slot can be offered twice with different values.
    if (slot >= durable_bound_) {
      durable_bound_ = slot + kBoundLease * n_;
      dur_->record_bound(durable_bound_);
    }
    dur_->record_accept(slot, cmd);
  }
  next_own_slot_ += n_;
  floor_[env_.id()] = next_own_slot_;

  net::Encoder e = env_.encoder();
  e.put_varint(slot);
  cmd.encode(e);
  e.put_varint(next_own_slot_);
  pending_.emplace(slot, Pending{std::move(cmd), 1ull << env_.id(), env_.now()});
  env_.broadcast(kAccept, std::move(e), /*include_self=*/false);
  try_deliver();  // a 1-node cluster would commit immediately
  if (n_ == 1) {
    Pending& p = pending_.at(slot);
    committed_.emplace(slot, std::move(p.cmd));
    pending_.erase(slot);
    try_deliver();
  }
}

void Mencius::skip_own_slots_below(std::uint64_t slot) {
  // Mencius skip rule: seeing slot s in use, give up own unused slots < s so
  // delivery is not blocked on us.
  while (next_own_slot_ < slot) next_own_slot_ += n_;
  floor_[env_.id()] = next_own_slot_;
}

void Mencius::note_floor(NodeId node, std::uint64_t floor) {
  // Floors from a sender this node still suspects are rejoin re-announces
  // racing an in-flight revocation round: acting on them could floor-skip
  // slots the round is about to commit. Ignore until the FD retraction —
  // the suspicion clears within one detector delay of a real recovery.
  if (rec_.is_suspected(node)) return;
  if ((fence_pending_mask_ >> node) & 1) {
    // First word from this owner since we rejoined: everything it proposes
    // from here on reaches us live, so its floor rule is sound again at and
    // above this value.
    floor_fence_[node] = floor;
    fence_pending_mask_ &= ~(1ull << node);
  }
  if (floor > floor_[node]) floor_[node] = floor;
}

void Mencius::handle_accept(NodeId from, net::Decoder& d) {
  const std::uint64_t slot = d.get_varint();
  rsm::Command cmd = rsm::Command::decode(d);
  note_floor(from, d.get_varint());

  // An ACCEPT from a sender this node still suspects is a rejoin re-announce
  // racing an in-flight revocation round: acking now could commit a slot the
  // decision (computed from pre-rejoin reports) is about to skip, splitting
  // the cluster. Hold off — the decision resolves the slot, or the FD
  // retraction clears the suspicion and the proposer's periodic re-drive
  // (see catchup_tick) offers it again.
  if (rec_.is_suspected(from)) return;

  // A slot this node has already resolved — delivered, proven skipped by
  // catch-up, or inside a revoked range decided against the sender — must
  // not be re-acked: acks could let a stale rejoining proposer commit a slot
  // part of the cluster has moved past. The range test is PERMANENT (it does
  // not care whether the sender is suspected right now): at least a classic
  // quorum applied the decision, so refusing forever is exactly what keeps
  // any later ack quorum intersecting it. Re-send the commit when the slot
  // resolved with a value, else bounce the proposer past the whole range.
  const bool resolved = slot < next_deliver_ || slot < skip_below_ ||
                        rec_.in_revoked_range(from, slot);
  if (resolved) {
    const rsm::Command* chosen = log_.find(slot);
    auto cit = committed_.find(slot);
    if (chosen == nullptr && cit != committed_.end()) chosen = &cit->second;
    if (chosen != nullptr) {
      net::Encoder e = env_.encoder();
      e.put_varint(slot);
      chosen->encode(e);
      e.put_varint(next_own_slot_);
      env_.send(from, kCommit, std::move(e));
    } else {
      net::Encoder e = env_.encoder();
      e.put_varint(slot);
      e.put_varint(std::max(next_deliver_, rec_.revoked_through(from, slot)));
      env_.send(from, kSlotRevoked, std::move(e));
    }
    return;
  }

  if (dur_ != nullptr) dur_->record_accept(slot, cmd);
  accepted_slots_[slot] = Accepted{env_.now(), std::move(cmd)};
  skip_own_slots_below(slot);

  net::Encoder e = env_.encoder();
  e.put_varint(slot);
  e.put_varint(next_own_slot_);
  env_.send(from, kAccepted, std::move(e));
  try_deliver();
}

void Mencius::handle_accepted(NodeId from, net::Decoder& d) {
  const std::uint64_t slot = d.get_varint();
  note_floor(from, d.get_varint());
  auto it = pending_.find(slot);
  if (it != pending_.end()) {
    Pending& p = it->second;
    p.ack_mask |= 1ull << from;
    if (static_cast<std::size_t>(std::popcount(p.ack_mask)) >= cq_) {
      if (stats_ != nullptr) {
        ++stats_->fast_decisions;
        stats_->propose_phase.record(env_.now() - p.start);
      }
      net::Encoder e = env_.encoder();
      e.put_varint(slot);
      p.cmd.encode(e);
      e.put_varint(next_own_slot_);  // only the sender's own floor: see floor_
      env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
      recent_commits_.emplace_back(slot, p.cmd);
      if (recent_commits_.size() > kRecentCommits) recent_commits_.pop_front();
      committed_.emplace(slot, std::move(p.cmd));
      pending_.erase(it);
    }
  }
  try_deliver();
}

void Mencius::handle_commit(NodeId from, net::Decoder& d) {
  const std::uint64_t slot = d.get_varint();
  rsm::Command cmd = rsm::Command::decode(d);
  note_floor(from, d.get_varint());
  skip_own_slots_below(slot);
  accepted_slots_.erase(slot);
  // A commit for one of our own slots can arrive from a peer (revocation
  // dissemination, or a re-sent COMMIT answering a stale re-ACCEPT): stop
  // re-proposing it.
  pending_.erase(slot);
  // Duplicate COMMITs happen after a proposer recovery re-announce; an
  // already-delivered slot must not re-enter the committed map.
  if (slot >= next_deliver_) committed_.emplace(slot, std::move(cmd));
  try_deliver();
}

void Mencius::deliver_slot(std::uint64_t slot, rsm::Command cmd) {
  pending_.erase(slot);
  accepted_slots_.erase(slot);
  if (dur_ != nullptr) dur_->record_deliver(slot, slot + 1, cmd);
  log_.append(slot, cmd);
  deliver_(std::move(cmd));
}

void Mencius::try_deliver() {
  while (true) {
    auto it = committed_.find(next_deliver_);
    if (it != committed_.end()) {
      deliver_slot(next_deliver_, std::move(it->second));
      committed_.erase(it);
      ++next_deliver_;
      continue;
    }
    // A catch-up reply proved every slot below skip_below_ was resolved at
    // the responder; with no commit on file here, this one was skipped. An
    // own slot still pending locally was resolved *against* us while we
    // were away — park its command for re-proposal at a fresh slot.
    if (next_deliver_ < skip_below_) {
      accepted_slots_.erase(next_deliver_);
      auto p = pending_.find(next_deliver_);
      if (p != pending_.end()) {
        parked_.push_back(std::move(p->second.cmd));
        pending_.erase(p);
      }
      ++next_deliver_;
      continue;
    }
    // Not committed here: the slot owner may have skipped it...
    const NodeId owner = owner_of(next_deliver_);
    if (owner == env_.id()) {
      if (next_deliver_ < next_own_slot_ && pending_.count(next_deliver_) == 0) {
        ++next_deliver_;  // our own skipped slot
        continue;
      }
      break;  // our own slot still in flight
    }
    if (accepted_slots_.count(next_deliver_) != 0) {
      break;  // value proposed; wait for its COMMIT
    }
    // The floor inference is only sound for ACCEPTs we could have seen:
    // across an outage they were dropped, so a post-rejoin floor may only
    // skip slots the owner proposed after our link resumed (>= its fence).
    // Older unresolved slots wait for catch-up (skip_below_) or a commit.
    const bool fence_open = ((fence_pending_mask_ >> owner) & 1) == 0 &&
                            next_deliver_ >= floor_fence_[owner];
    if (floor_[owner] > next_deliver_ && fence_open) {
      ++next_deliver_;  // owner skipped it (FIFO makes this sound, see floor_)
      continue;
    }
    if (rec_.in_revoked_range(owner, next_deliver_)) {
      // A revocation verdict resolved this slot: any surviving value was
      // committed by the decision (handled above), the rest are skipped.
      // Permanent and unconditional — the acceptors that applied the
      // decision refuse acks inside the range forever, so no value can be
      // chosen for this slot later even if the owner rejoined.
      ++next_deliver_;
      continue;
    }
    break;  // must hear more from `owner` — the "slowest node" bottleneck
  }
  // Skip-only advances (floors, revocation verdicts, catch-up watermarks)
  // move the frontier without a delivery record; one frontier record at the
  // end covers the whole run of them.
  if (dur_ != nullptr && next_deliver_ > dur_->frontier()) {
    dur_->record_frontier(next_deliver_);
  }
  // Delivery may have consumed a standing verdict's runway: a bounded range
  // only covers finitely many of the dead owner's slots, so the revoker must
  // open the follow-up round *before* the frontier hits the range end or
  // throughput stalls until the next watchdog tick. No-op unless this node
  // is the revoker and a suspected owner's runway has dropped below half a
  // round's grant (see maybe_start_revocations).
  if (rec_.suspected_mask() != 0) maybe_start_revocations();
}

// ---------------------------------------------------------------------------
// Rejoin catch-up
// ---------------------------------------------------------------------------

void Mencius::request_catchup() {
  rec_.request_catchup([this](NodeId peer) {
    if (stats_ != nullptr) ++stats_->catchup_requests;
    send_catchup_request(peer, next_deliver_, log_.rolling_hash());
  });
}

void Mencius::on_catchup_request(NodeId from, net::Decoder& d) {
  const std::uint64_t frontier = d.get_varint();
  const std::uint64_t their_hash = d.get_u64();
  rt::RecoveryDriver::serve_log_catchup(
      *this, log_, dur_, from, frontier, their_hash, next_deliver_,
      [this, frontier](
          std::vector<std::pair<std::uint64_t, rsm::Command>>& entries) {
        // Commands committed here but not yet delivered ride along: their
        // COMMIT broadcasts predate the requester's return and were lost.
        for (const auto& [slot, cmd] : committed_) {
          if (slot >= frontier) entries.emplace_back(slot, cmd);
        }
      },
      stats_, "mencius");
  // Re-announce standing revoked ranges so the requester resumes *live*
  // delivery past dead owners instead of trailing one catch-up per watchdog
  // tick. Resends are ADVISORY (authoritative=false): they grant the skip
  // ranges but never erase accepted state — only the original quorum-backed
  // decision may do that, and its commits are covered here by the chunks
  // (delivered ones) and committed_ extras (undelivered ones) that FIFO
  // places ahead of this message.
  for (NodeId dead = 0; dead < n_; ++dead) {
    for (const rt::RecoveryDriver::Range& r : rec_.revoked_ranges(dead)) {
      net::Encoder e = env_.encoder();
      e.put_u32(dead);
      e.put_varint(r.from);
      e.put_varint(r.upto);
      e.put_bool(false);  // advisory
      e.put_varint(0);    // no commits: everything below rode in the chunks
      env_.send(from, kRevokeDecision, std::move(e));
    }
  }
}

void Mencius::on_catchup_reply(NodeId from, net::Decoder& d) {
  (void)from;
  rsm::LogSnapshot chunk = rsm::LogSnapshot::decode(d);
  if (chunk.from == next_deliver_ && chunk.prefix_hash != 0 &&
      chunk.prefix_hash != log_.rolling_hash()) {
    log::error("mencius: catch-up prefix hash mismatch at slot ",
               next_deliver_, " — replicas have diverged");
  }
  for (auto& [slot, cmd] : chunk.entries) {
    if (slot < next_deliver_) continue;  // already delivered here
    if (committed_.emplace(slot, std::move(cmd)).second &&
        stats_ != nullptr) {
      ++stats_->catchup_commands;
    }
  }
  if (chunk.through > skip_below_) skip_below_ = chunk.through;
  if (chunk.done) {
    rec_.set_catchup_needed(false);
    // Our own slot counter is stale by the length of the outage; proposing
    // below the resolved bound would only bounce off kSlotRevoked replies.
    skip_own_slots_below(skip_below_);
  }
  try_deliver();
}

void Mencius::on_catchup_snapshot(NodeId from, net::Decoder& d) {
  rt::Protocol::CatchupSnapshot s = decode_catchup_snapshot(d);
  if (!s.valid) {
    log::error("mencius: catch-up snapshot from node ", from,
               " failed its digest check — dropping");
    return;
  }
  if (s.frontier <= next_deliver_) return;  // raced a chunked catch-up
  if (dur_ != nullptr) {
    dur_->install_snapshot(s.store, s.frontier, s.prefix_hash,
                           s.delivered_count);
  }
  // The delivered prefix below the snapshot frontier is now represented
  // only by its hash: rebase the log and jump the delivery cursor. Local
  // leftovers below the frontier are resolved by definition — committed and
  // accepted entries were delivered or skipped at the responder.
  log_.set_base(s.frontier, s.prefix_hash);
  next_deliver_ = s.frontier;
  if (s.frontier > skip_below_) skip_below_ = s.frontier;
  committed_.erase(committed_.begin(), committed_.lower_bound(next_deliver_));
  for (auto it = accepted_slots_.begin(); it != accepted_slots_.end();) {
    if (it->first < next_deliver_) {
      it = accepted_slots_.erase(it);
    } else {
      ++it;
    }
  }
  // Own pending proposals below the frontier are NOT parked for re-proposal:
  // unlike a kSlotRevoked bounce (which proves the slot was resolved against
  // us), the snapshot compacted the per-slot history away — a quorum may
  // have committed our slot and folded the command into the store, and
  // re-proposing it would deliver it twice cluster-wide. Dropping is safe
  // either way: a delivered command already took effect, an undelivered one
  // died with the crash like any other in-flight request.
  for (auto it = pending_.begin(); it != pending_.end();) {
    it = it->first < next_deliver_ ? pending_.erase(it) : std::next(it);
  }
  skip_own_slots_below(next_deliver_);
  env_.notify_snapshot_install(s.store, s.delivered_count);
  // Everything newer than the snapshot still has to come the normal way.
  rec_.set_catchup_needed(true);
  request_catchup();
  try_deliver();
}

void Mencius::on_restore(storage::RecoveredState& st) {
  // Called on a freshly constructed instance, before the node rejoins: no
  // deliver_ upcalls here — everything in st was delivered by the previous
  // incarnation and the harness reconciles its mirrors separately.
  log_ = std::move(st.log);
  next_deliver_ = st.frontier;
  skip_below_ = st.frontier;
  durable_bound_ = st.bound;
  std::uint64_t max_seen = std::max(st.bound, st.frontier);
  for (auto& [slot, cmd] : st.accepts) {
    max_seen = std::max(max_seen, slot + 1);
    if (owner_of(slot) == env_.id()) {
      // Our own in-flight proposal: resume coordinating it. on_recover's
      // barrage re-offers it and acks are recounted from scratch.
      pending_.emplace(slot,
                       Pending{std::move(cmd), 1ull << env_.id(), env_.now()});
    } else {
      // seen=0 ages the entry past the resync grace sweep: if the owner is
      // alive it re-confirms (overwriting seen), and if the slot was
      // resolved during the outage catch-up clears it.
      accepted_slots_[slot] = Accepted{0, std::move(cmd)};
    }
  }
  // Resume proposing strictly above everything this incarnation may have
  // touched before the crash.
  while (next_own_slot_ < max_seen) next_own_slot_ += n_;
  floor_[env_.id()] = next_own_slot_;
}

void Mencius::catchup_tick() {
  env_.set_timer(kCatchupIntervalUs, [this] { catchup_tick(); });
  maybe_start_revocations();
  // Retry revocation rounds whose responders changed or whose traffic was
  // lost: the driver recomputes who must answer (a responder may have
  // crashed since), re-checks the decide gate, and re-queries survivors.
  rec_.tick_rounds(
      env_.now(), kCatchupIntervalUs,
      [this](NodeId dead) { maybe_decide_revocation(dead); },
      [this](NodeId dead, const rt::RecoveryDriver::Round& round) {
        net::Encoder e = env_.encoder();
        e.put_u32(dead);
        e.put_varint(round.anchor);
        env_.broadcast(kRevokeQuery, std::move(e), /*include_self=*/false);
      });
  drain_parked();
  // Re-drive pending slots that have gone a full watchdog period without
  // committing: their ACCEPTs may have been dropped by a crash on either
  // side, or held at bay by acceptors that still suspected us after a
  // rejoin. Ascending order with original-send floors, like any resend.
  std::map<std::uint64_t, const rsm::Command*> stale;
  for (auto& [slot, p] : pending_) {
    if (env_.now() - p.start >= kCatchupIntervalUs) {
      stale.emplace(slot, &p.cmd);
      p.start = env_.now();  // rate-limit per slot
    }
  }
  for (const auto& [slot, cmd] : stale) {
    net::Encoder e = env_.encoder();
    e.put_varint(slot);
    cmd->encode(e);
    e.put_varint(slot + n_);
    env_.broadcast(kAccept, std::move(e), /*include_self=*/false);
  }
  // Frontier stall: the cluster may have resolved slots we cannot see
  // (missed COMMITs, a revocation decision we were down for). Evidence of
  // being behind — commits or accepts queued above the frontier — gates the
  // request so an idle cluster stays quiet.
  if (rec_.watchdog_tick(next_deliver_,
                         !committed_.empty() || !accepted_slots_.empty())) {
    request_catchup();
  }
}

void Mencius::drain_parked() {
  if (parked_.empty()) return;
  // Re-propose above every floor we know of: a counter that trails the
  // cluster frontier would just bounce off kSlotRevoked again next round,
  // leapfrogging one slot per watchdog period. Own unused slots below the
  // floors are dead anyway.
  for (NodeId q = 0; q < n_; ++q) skip_own_slots_below(floor_[q]);
  std::vector<rsm::Command> batch = std::move(parked_);
  parked_.clear();
  for (auto& cmd : batch) propose(std::move(cmd));
}

// ---------------------------------------------------------------------------
// Dead-node slot revocation
// ---------------------------------------------------------------------------

NodeId Mencius::designated_revoker() const { return rec_.designated_revoker(); }

void Mencius::maybe_start_revocations() {
  if (designated_revoker() != env_.id()) return;
  // A revoker that is itself catching up would anchor the round at a stale
  // frontier and drag the whole delivered history into the reports; let the
  // watchdog start the round once state transfer finishes.
  if (rec_.catchup_needed()) return;
  for (NodeId dead = 0; dead < n_; ++dead) {
    if (!rec_.is_suspected(dead)) continue;
    if (rec_.round_open(dead)) continue;
    // Verdicts are bounded: one round resolves a finite slot range, so a
    // still-dead owner needs a fresh round whenever the delivery frontier's
    // remaining runway inside the standing coverage shrinks below half a
    // round's grant (and immediately when no verdict covers the frontier).
    const std::uint64_t covered = rec_.revoked_through(dead, next_deliver_);
    if (covered - next_deliver_ >= kRevokeSlotsPerRound * n_ / 2) continue;
    start_revocation(dead);
  }
}

void Mencius::collect_revoke_info(
    NodeId dead, std::uint64_t from,
    std::map<std::uint64_t, rsm::Command>& out) const {
  // Everything this node knows was *chosen or might be chosen* for the dead
  // node's slots >= from: delivered, committed-undelivered, and accepted
  // values. Accepted values are safe to treat as chosen because each slot
  // has a single proposer and therefore a single possible value — deciding
  // it merely finishes what the dead node started.
  for (const auto& [slot, cmd] : log_.entries()) {
    if (slot >= from && owner_of(slot) == dead) out.emplace(slot, cmd);
  }
  for (const auto& [slot, cmd] : committed_) {
    if (slot >= from && owner_of(slot) == dead) out.emplace(slot, cmd);
  }
  for (const auto& [slot, acc] : accepted_slots_) {
    if (slot >= from && owner_of(slot) == dead) out.emplace(slot, acc.cmd);
  }
}

void Mencius::start_revocation(NodeId dead) {
  // Anchor past any standing coverage: slots below it are already resolved
  // by an earlier verdict (or delivered), so re-deciding them would only
  // bloat the reports.
  const std::uint64_t from = rec_.revoked_through(dead, next_deliver_);
  rt::RecoveryDriver::Round& round = rec_.open_round(dead, from, env_.now());
  collect_revoke_info(dead, from, round.values);
  net::Encoder e = env_.encoder();
  e.put_u32(dead);
  e.put_varint(from);
  env_.broadcast(kRevokeQuery, std::move(e), /*include_self=*/false);
  maybe_decide_revocation(dead);
}

void Mencius::handle_revoke_query(NodeId from, net::Decoder& d) {
  const NodeId dead = d.get_u32();
  const std::uint64_t qfrom = d.get_varint();
  std::map<std::uint64_t, rsm::Command> known;
  collect_revoke_info(dead, qfrom, known);
  net::Encoder e = env_.encoder();
  e.put_u32(dead);
  e.put_varint(qfrom);
  e.put_varint(known.size());
  for (const auto& [slot, cmd] : known) {
    e.put_varint(slot);
    cmd.encode(e);
  }
  env_.send(from, kRevokeInfo, std::move(e));
}

void Mencius::handle_revoke_info(NodeId from, net::Decoder& d) {
  const NodeId dead = d.get_u32();
  const std::uint64_t qfrom = d.get_varint();
  const std::uint64_t count = d.get_varint();
  // Decode fully even when the round is gone: the decoder owns the buffer.
  std::map<std::uint64_t, rsm::Command> reported;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t slot = d.get_varint();
    reported.emplace(slot, rsm::Command::decode(d));
  }
  if (rec_.record_report(dead, qfrom, from, std::move(reported)) == nullptr) {
    return;  // no open round, or a stale reply for a previous anchor
  }
  maybe_decide_revocation(dead);
}

void Mencius::maybe_decide_revocation(NodeId dead) {
  // Decide gate (driver): every peer believed alive answered — a node that
  // already applied an earlier (possibly partial) decision carries the
  // precedent — and at least a classic quorum overall, so a minority
  // partition cannot revoke.
  if (!rec_.round_complete(dead)) return;
  rt::RecoveryDriver::Round round = rec_.close_round(dead);

  // Bound the verdict: resolve [anchor, upto) where upto reaches past
  // everything the dead owner could have proposed before it went silent —
  // every slot some reporter saw, and its own announced floor — plus
  // kRevokeSlotsPerRound own-slots of runway so the cluster delivers freely
  // for a while before the revoker must open a fresh round. Slots >= upto
  // are NOT resolved by this verdict: if the owner rejoins it proposes
  // there unharmed, and if it stays dead the next round covers them.
  std::uint64_t upto = std::max(round.anchor, floor_[dead]);
  if (!round.values.empty()) {
    upto = std::max(upto, round.values.rbegin()->first + 1);
  }
  upto += kRevokeSlotsPerRound * n_;

  net::Encoder e = env_.encoder();
  e.put_u32(dead);
  e.put_varint(round.anchor);
  e.put_varint(upto);
  e.put_bool(true);  // authoritative: quorum-backed, may clear accepted state
  e.put_varint(round.values.size());
  for (const auto& [slot, cmd] : round.values) {
    e.put_varint(slot);
    cmd.encode(e);
  }
  env_.broadcast(kRevokeDecision, std::move(e), /*include_self=*/false);
  if (stats_ != nullptr) ++stats_->revocations;
  apply_revoke_decision(dead, round.anchor, upto, std::move(round.values),
                        /*authoritative=*/true);
}

void Mencius::handle_revoke_decision(net::Decoder& d) {
  const NodeId dead = d.get_u32();
  const std::uint64_t from = d.get_varint();
  const std::uint64_t upto = d.get_varint();
  const bool authoritative = d.get_bool();
  const std::uint64_t count = d.get_varint();
  std::map<std::uint64_t, rsm::Command> commits;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t slot = d.get_varint();
    commits.emplace(slot, rsm::Command::decode(d));
  }
  apply_revoke_decision(dead, from, upto, std::move(commits), authoritative);
}

void Mencius::apply_revoke_decision(
    NodeId dead, std::uint64_t from, std::uint64_t upto,
    std::map<std::uint64_t, rsm::Command> commits, bool authoritative) {
  for (auto& [slot, cmd] : commits) {
    pending_.erase(slot);
    if (slot >= next_deliver_) committed_.emplace(slot, std::move(cmd));
  }
  // Accepted values in range the decision did not commit were seen by no
  // quorum member and can never be chosen now (>= cq nodes apply this
  // decision and permanently refuse re-ACCEPTs inside the range, so the
  // dead proposer cannot assemble a quorum behind the cluster's back): drop
  // them so they stop blocking delivery. Only the original quorum-backed
  // decision has that authority — an advisory resend relays the verdict
  // range but may predate commits the original left to the normal
  // commit/catch-up path, and erasing on its word could drop such a value.
  if (authoritative) {
    for (auto ait = accepted_slots_.begin(); ait != accepted_slots_.end();) {
      if (ait->first >= from && ait->first < upto &&
          owner_of(ait->first) == dead &&
          committed_.count(ait->first) == 0 && ait->first >= next_deliver_) {
        ait = accepted_slots_.erase(ait);
      } else {
        ++ait;
      }
    }
  }
  // Record the range as a PERMANENT fact, no suspicion gate: both the
  // original decision and an advisory resend relay a quorum-backed verdict,
  // and a node whose detector retracted early must still honor it — the
  // seed-277 divergence was exactly a rejoined owner assembling an ack
  // quorum from nodes that had dropped the verdict while others' frontiers
  // had already skipped through it. The bound keeps permanence harmless for
  // the live owner: only finitely many slots bounce, all below upto.
  rec_.note_revoked_range(dead, from, upto);
  if (dead == env_.id()) {
    // The cluster revoked OUR slots while we were away. Every own slot in
    // range was resolved commit-or-skip cluster-wide; commands still pending
    // on slots the decision did not commit were skipped everywhere, so
    // re-proposing them at fresh slots cannot double-deliver. Advisory
    // resends cannot make that call (their commit list is empty by design),
    // so they only fence the proposal counter; pending slots then resolve
    // individually via kCommit re-sends or kSlotRevoked bounces.
    if (authoritative) {
      for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->first >= from && it->first < upto &&
            committed_.count(it->first) == 0) {
          parked_.push_back(std::move(it->second.cmd));
          it = pending_.erase(it);
        } else {
          ++it;
        }
      }
    }
    skip_own_slots_below(upto);
  }
  try_deliver();
}

void Mencius::handle_resync_request(NodeId from) {
  send_floor_sync(from, resend_history(from));
}

void Mencius::handle_floor_sync(NodeId from, net::Decoder& d) {
  const std::uint64_t floor = d.get_varint();
  const std::uint64_t covered_from = d.get_varint();
  if (rec_.is_suspected(from)) return;  // racing a revocation round
  // The sender just finished re-offering every used slot of its history in
  // [covered_from, floor) on this link (FIFO), so the hole in our view of
  // it is patched from covered_from on: lower the fence to that bound.
  // (covered_from is 0 unless its ring evicted; older slots stay fenced
  // and resolve through catch-up.)
  fence_pending_mask_ &= ~(1ull << from);
  floor_fence_[from] = covered_from;
  note_floor(from, floor);
  try_deliver();
}

void Mencius::handle_slot_revoked(net::Decoder& d) {
  const std::uint64_t slot = d.get_varint();
  const std::uint64_t frontier = d.get_varint();
  // One of our slots was resolved as skipped while we were away. Give up the
  // stale slot range and park the command; the watchdog re-proposes it at a
  // fresh slot once peers accept us again (immediately after the FD
  // retraction, so parking throttles the bounce loop in the meantime).
  skip_own_slots_below(frontier);
  auto it = pending_.find(slot);
  if (it != pending_.end()) {
    parked_.push_back(std::move(it->second.cmd));
    pending_.erase(it);
  }
  try_deliver();  // the abandoned slot may have been the local block
}

void Mencius::on_message(NodeId from, std::uint16_t type, net::Decoder& d) {
  switch (static_cast<MsgType>(type)) {
    case kAccept:
      handle_accept(from, d);
      break;
    case kAccepted:
      handle_accepted(from, d);
      break;
    case kCommit:
      handle_commit(from, d);
      break;
    case kFloor: {
      const std::uint64_t floor = d.get_varint();
      note_floor(from, floor);
      // A peer floor far ahead of our own counter means we missed the slot
      // frontier moving (we just rejoined after an outage, our counter
      // frozen meanwhile): give up the stale unused slots so delivery is
      // not blocked on us cluster-wide, and fetch the history we missed.
      // The slack keeps mutual heartbeats from ratcheting idle nodes'
      // counters upward indefinitely.
      if (floor > next_own_slot_ + 2 * n_) {
        skip_own_slots_below(floor);
        if (!rec_.catchup_needed()) {
          rec_.set_catchup_needed(true);
          request_catchup();
        }
      }
      try_deliver();
      break;
    }
    case kRevokeQuery:
      handle_revoke_query(from, d);
      break;
    case kRevokeInfo:
      handle_revoke_info(from, d);
      break;
    case kRevokeDecision:
      handle_revoke_decision(d);
      break;
    case kSlotRevoked:
      handle_slot_revoked(d);
      break;
    case kResyncRequest:
      handle_resync_request(from);
      break;
    case kFloorSync:
      handle_floor_sync(from, d);
      break;
    default:
      log::warn("mencius: unknown message type ", type);
  }
}

}  // namespace caesar::mencius
