#include "clockrsm/clock_rsm.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "storage/durability.h"

namespace caesar::clockrsm {

namespace {

/// Period of idle clock announcements.
constexpr Time kClockBroadcastUs = 10 * kMs;
/// Progress-watchdog period: a stalled delivery frontier with undelivered
/// backlog triggers catch-up; stale revocation rounds are retried.
constexpr Time kCatchupIntervalUs = 250 * kMs;

}  // namespace

ClockRsm::ClockRsm(rt::Env& env, DeliverFn deliver, ClockRsmConfig cfg,
                   stats::ProtocolStats* stats)
    : rt::Protocol(env, std::move(deliver)),
      cfg_(cfg),
      stats_(stats),
      n_(env.cluster_size()),
      cq_(classic_quorum_size(env.cluster_size())),
      clocks_(env.cluster_size(), 0),
      excluded_(env.cluster_size(), false),
      rec_(env.id(), env.cluster_size(),
           classic_quorum_size(env.cluster_size())),
      rejoin_clock_fence_(env.cluster_size(), 0),
      resync_target_(env.cluster_size(), 0),
      resync_buffer_(env.cluster_size(), 0) {
  // Fixed per-node skew in [-max_skew, +max_skew].
  const Time span = 2 * cfg_.max_skew_us + 1;
  skew_ = static_cast<Time>(env_.rng().uniform_int(
              static_cast<std::uint64_t>(span))) -
          cfg_.max_skew_us;
  dur_ = env.durability();
  if (dur_ != nullptr) {
    dur_->set_stats(stats_);
    dur_->set_snapshot_hook([this](std::uint64_t frontier) {
      delivered_.compact_through(frontier);
    });
  }
}

Time ClockRsm::physical_now() const {
  const Time t = env_.now() + skew_;
  return t > 0 ? t : 0;
}

void ClockRsm::start() {
  env_.set_timer(kClockBroadcastUs, [this] { clock_tick(); });
  env_.set_timer(kCatchupIntervalUs, [this] { catchup_tick(); });
}

void ClockRsm::on_recover() {
  // Restart the clock and watchdog chains, then transfer the state the
  // outage cost us: the delivered suffix comes back from a live peer, and
  // the catch-up apply path re-drives our pre-crash proposals (re-proposed
  // at fresh stamps when the cluster has provably moved past them).
  start();
  // Pre-crash failure-detector verdicts are stale (a peer we excluded may
  // have returned and been retracted while we were down): reset them. The
  // detector re-reports dead peers within one timeout, and standing
  // exclusions come back with the first catch-up reply.
  rec_.reset_suspicions();
  rec_.clear_rounds();
  pending_exclusions_.clear();
  resync_mask_ = 0;
  for (NodeId q = 0; q < n_; ++q) excluded_[q] = false;
  rec_.set_catchup_needed(true);
  request_catchup();
  // Arm the rejoin fences: every peer's current clock may cover commands
  // whose propose/commit traffic died with the outage; catch-up must reach
  // at least the first clock heard from each live peer before normal
  // delivery resumes (see rejoin_clock_fence_).
  for (NodeId q = 0; q < n_; ++q) {
    if (q != env_.id()) clock_fence_pending_ |= 1ull << q;
  }
  // Re-announce every undelivered proposal of ours at its original stamp,
  // in stamp order: the acks/commits sent around the crash died in flight,
  // and a peer that never saw an entry would otherwise sail past its stamp
  // on our fresh clock announcements (which FIFO places *after* this
  // barrage, making them safe again). Peers whose frontier has passed a
  // stamp answer with its commit or a kProposeDead verdict instead of
  // re-acking (see handle_propose).
  for (const auto& [stamp, entry] : log_) {
    if (stamp.node != env_.id()) continue;
    net::Encoder e = env_.encoder();
    e.put_i64(stamp.t);
    entry.cmd.encode(e);
    env_.broadcast(kPropose, std::move(e), /*include_self=*/false);
    if (entry.committed) {
      net::Encoder c = env_.encoder();
      c.put_i64(stamp.t);
      c.put_u32(stamp.node);
      env_.broadcast(kCommit, std::move(c), /*include_self=*/false);
    }
  }
}

void ClockRsm::clock_tick() {
  const Time now = physical_now();
  if (now > clocks_[env_.id()]) clocks_[env_.id()] = now;
  net::Encoder e = env_.encoder();
  e.put_i64(clocks_[env_.id()]);
  env_.broadcast(kClock, std::move(e), /*include_self=*/false);
  try_deliver();
  env_.set_timer(kClockBroadcastUs, [this] { clock_tick(); });
}

void ClockRsm::propose(rsm::Command cmd) {
  // Stamp with the physical clock, kept locally monotone under skew.
  Time t = physical_now();
  if (t <= last_stamp_) t = last_stamp_ + 1;
  last_stamp_ = t;
  if (t > clocks_[env_.id()]) clocks_[env_.id()] = t;

  const Stamp stamp{t, env_.id()};
  if (dur_ != nullptr) dur_->record_accept(pack(stamp), cmd);
  net::Encoder e = env_.encoder();
  e.put_i64(t);
  cmd.encode(e);
  log_.emplace(stamp,
               Entry{std::move(cmd), 1ull << env_.id(), false, env_.now()});
  env_.broadcast(kPropose, std::move(e), /*include_self=*/false);
  try_deliver();
}

void ClockRsm::handle_propose(NodeId from, net::Decoder& d) {
  const Time t = d.get_i64();
  rsm::Command cmd = rsm::Command::decode(d);
  // A proposal from a sender this node still suspects is a rejoin
  // re-announce racing the revocation machinery: peers that excluded the
  // sender's clock may already have sailed past this stamp, so accepting it
  // here would split the cluster. Hold off — after the retraction the
  // proposer's periodic re-drive (see catchup_tick) offers it again, and
  // every peer answers consistently (accept, commit, or dead verdict).
  if (rec_.is_suspected(from)) return;
  // A proposer's stamp doubles as a clock announcement: it will never stamp
  // below t again (FIFO links make this sound).
  note_clock(from, t);
  const Stamp stamp{t, from};
  const std::uint64_t packed = pack(stamp);
  if (packed < frontier_) {
    // Our frontier already passed this stamp (possible only for a recovery
    // re-announce): tell the proposer how it resolved — with its commit if
    // it was chosen, or a dead verdict if the cluster moved past it — so it
    // can finish or re-stamp instead of waiting for acks forever.
    net::Encoder e = env_.encoder();
    e.put_i64(t);
    e.put_u32(from);
    env_.send(from,
              delivered_.find(packed) != nullptr ? kCommit : kProposeDead,
              std::move(e));
    return;
  }
  if (dur_ != nullptr) dur_->record_accept(packed, cmd);
  log_.emplace(stamp, Entry{std::move(cmd), 0, false, 0});
  // Ack duplicates too: the original ack may have died in the proposer's
  // crash, and the ack bitmask makes re-acks idempotent on its side.
  net::Encoder e = env_.encoder();
  e.put_i64(t);
  e.put_u32(from);
  env_.send(from, kAck, std::move(e));
  try_deliver();
}

void ClockRsm::handle_ack(NodeId from, net::Decoder& d) {
  const Time t = d.get_i64();
  const NodeId node = d.get_u32();
  auto it = log_.find(Stamp{t, node});
  if (it == log_.end()) return;  // already delivered
  Entry& entry = it->second;
  if (entry.committed) return;
  entry.ack_mask |= 1ull << from;
  if (static_cast<std::size_t>(std::popcount(entry.ack_mask)) < cq_) return;
  // Durably replicated: tell everyone (the leader relays commit knowledge,
  // FIFO after its original propose).
  entry.committed = true;
  if (stats_ != nullptr && entry.proposed_at != 0) {
    ++stats_->fast_decisions;  // replicated; Clock-RSM has one decision mode
    stats_->propose_phase.record(env_.now() - entry.proposed_at);
  }
  net::Encoder e = env_.encoder();
  e.put_i64(t);
  e.put_u32(node);
  env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
  try_deliver();
}

void ClockRsm::handle_commit(net::Decoder& d) {
  const Time t = d.get_i64();
  const NodeId node = d.get_u32();
  auto it = log_.find(Stamp{t, node});
  if (it == log_.end()) return;  // already delivered
  if (!it->second.committed && node == env_.id()) {
    // Our own entry, committed via a peer's point-to-point reply (a
    // recovery re-announce answered by someone who had delivered it):
    // relay the commit so every other holder unblocks too.
    it->second.committed = true;
    net::Encoder e = env_.encoder();
    e.put_i64(t);
    e.put_u32(node);
    env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
  }
  it->second.committed = true;
  try_deliver();
}

void ClockRsm::handle_propose_dead(net::Decoder& d) {
  const Time t = d.get_i64();
  const NodeId node = d.get_u32();
  if (node != env_.id()) return;
  auto it = log_.find(Stamp{t, node});
  if (it == log_.end() || it->second.committed) return;
  // The cluster resolved past our stamp without the command (it was revoked
  // while we were away): re-propose the same command at a fresh stamp. It
  // was delivered nowhere — any node able to pass a stamp either holds the
  // entry or learned its fate from the revocation decision — so this cannot
  // double-deliver.
  rsm::Command cmd = std::move(it->second.cmd);
  log_.erase(it);
  propose(std::move(cmd));
}

void ClockRsm::note_clock(NodeId node, Time value) {
  // A clock heard from a peer this node still suspects is a rejoin
  // re-announce: advancing on it would let delivery leap over the peer's
  // pre-crash proposals that died in flight. Freeze until the retraction,
  // which re-fences the clock and patches the hole via catch-up.
  if (rec_.is_suspected(node)) return;
  if ((clock_fence_pending_ >> node) & 1) {
    // First word from this peer since we rejoined: everything it stamps
    // from here on reaches us live.
    rejoin_clock_fence_[node] = value;
    clock_fence_pending_ &= ~(1ull << node);
  }
  if ((resync_mask_ >> node) & 1) {
    if (resync_target_[node] == 0) resync_target_[node] = value;
    resync_buffer_[node] = std::max(resync_buffer_[node], value);
    return;  // the delivery gate keeps the frozen pre-crash view for now
  }
  if (value > clocks_[node]) clocks_[node] = value;
}

void ClockRsm::maybe_complete_resyncs() {
  for (NodeId q = 0; q < n_; ++q) {
    if (((resync_mask_ >> q) & 1) == 0 || resync_target_[q] == 0) continue;
    if (frontier_ >=
        ((static_cast<std::uint64_t>(resync_target_[q]) + 1) << 8)) {
      clocks_[q] = std::max(clocks_[q], resync_buffer_[q]);
      resync_mask_ &= ~(1ull << q);
    }
  }
}

void ClockRsm::deliver_entry(const Stamp& stamp, Entry entry) {
  const std::uint64_t packed = pack(stamp);
  if (dur_ != nullptr) dur_->record_deliver(packed, packed + 1, entry.cmd);
  delivered_.append(packed, entry.cmd);
  frontier_ = packed + 1;
  deliver_(std::move(entry.cmd));
}

void ClockRsm::try_deliver() {
  // Deliver stable commands in stamp order once no node can still produce a
  // smaller stamp: min over all known clocks must exceed the stamp. Clocks
  // of revoked nodes are excluded — frozen forever, they would wedge the
  // gate — which is safe because their undelivered commands were resolved
  // cluster-wide by the revocation decision first.
  // While a catch-up is outstanding the gap below the peers' clocks is
  // *missed history*, not silence: delivering from log_ would leap over
  // commands the reply is about to replay. The replay path (deliver_entry)
  // does not come through here, so it is never blocked.
  if (rec_.catchup_needed()) return;
  Time min_clock = clocks_[env_.id()];
  for (NodeId q = 0; q < n_; ++q) {
    if (!excluded_[q]) min_clock = std::min(min_clock, clocks_[q]);
  }
  while (!log_.empty()) {
    auto it = log_.begin();
    if (it->first.t >= min_clock) break;  // someone may still undercut
    if (!it->second.committed) break;     // not durably replicated yet
    const Stamp stamp = it->first;
    Entry entry = std::move(it->second);
    log_.erase(it);
    deliver_entry(stamp, std::move(entry));
  }
}

// ---------------------------------------------------------------------------
// Rejoin catch-up
// ---------------------------------------------------------------------------

void ClockRsm::request_catchup() {
  rec_.request_catchup([this](NodeId peer) {
    if (stats_ != nullptr) ++stats_->catchup_requests;
    send_catchup_request(peer, frontier_, delivered_.rolling_hash());
  });
}

void ClockRsm::on_catchup_request(NodeId from, net::Decoder& d) {
  const std::uint64_t req_frontier = d.get_varint();
  const std::uint64_t their_hash = d.get_u64();
  rt::RecoveryDriver::serve_log_catchup(
      *this, delivered_, dur_, from, req_frontier, their_hash, frontier_,
      [this, req_frontier](
          std::vector<std::pair<std::uint64_t, rsm::Command>>& extras) {
        // Committed-but-undelivered entries ride along: their kCommit
        // broadcasts predate the requester's return and were lost.
        for (const auto& [stamp, entry] : log_) {
          if (entry.committed && pack(stamp) >= req_frontier) {
            extras.emplace_back(pack(stamp), entry.cmd);
          }
        }
      },
      stats_, "clockrsm");
  // Standing exclusions are re-announced so the requester resumes live
  // delivery past dead clocks (entry-less: the commands a decision carried
  // are covered by the chunks above).
  for (NodeId dead = 0; dead < n_; ++dead) {
    if (!excluded_[dead]) continue;
    net::Encoder e = env_.encoder();
    e.put_u32(dead);
    e.put_varint(frontier_);
    e.put_varint(0);
    env_.send(from, kRevokeDecision, std::move(e));
  }
}

void ClockRsm::on_catchup_reply(NodeId from, net::Decoder& d) {
  (void)from;
  rsm::LogSnapshot chunk = rsm::LogSnapshot::decode(d);
  if (chunk.from == frontier_ && chunk.prefix_hash != 0 &&
      chunk.prefix_hash != delivered_.rolling_hash()) {
    log::error("clockrsm: catch-up prefix hash mismatch — replicas have "
               "diverged");
  }
  for (auto& [packed, cmd] : chunk.entries) {
    if (packed < frontier_) continue;  // already delivered here
    const Stamp stamp = unpack(packed);
    if (packed < chunk.through) {
      // Delivered at the responder: globally stable, replay in order now.
      log_.erase(stamp);
      deliver_entry(stamp, Entry{std::move(cmd), 0, true, 0});
      if (stats_ != nullptr) ++stats_->catchup_commands;
    } else {
      // Committed but undelivered at the responder: learn it and let the
      // normal gate deliver it.
      auto [it, inserted] = log_.emplace(stamp, Entry{std::move(cmd), 0, true, 0});
      if (!inserted) it->second.committed = true;
    }
  }
  // Entries below the responder's frontier that it never delivered are dead:
  // the responder moved past their stamps, so they can never be chosen.
  // Ours get re-proposed at fresh stamps; others are dropped.
  std::vector<rsm::Command> reraise;
  while (!log_.empty() && pack(log_.begin()->first) < chunk.through) {
    auto it = log_.begin();
    if (it->first.node == env_.id()) {
      reraise.push_back(std::move(it->second.cmd));
    }
    log_.erase(it);
  }
  maybe_complete_resyncs();
  if (chunk.done) {
    // Catch-up is only complete once the replayed frontier clears the
    // rejoin fences: stamps below a peer's rejoin-time clock may still be
    // missing here even though the responder had not delivered them yet
    // when it replied. Until then the watchdog keeps re-requesting and
    // try_deliver stays suppressed.
    std::uint64_t fence = 0;
    bool pending = false;
    for (NodeId q = 0; q < n_; ++q) {
      if (q == env_.id() || excluded_[q] || rec_.is_suspected(q)) {
        continue;  // dead peers' commands are the revocation round's job
      }
      if ((clock_fence_pending_ >> q) & 1) {
        pending = true;
      } else {
        // +1 before packing: stamps at exactly the fenced clock value pack
        // to (t << 8) | node, which is above t << 8.
        fence = std::max(
            fence,
            (static_cast<std::uint64_t>(rejoin_clock_fence_[q]) + 1) << 8);
      }
    }
    if (!pending && frontier_ >= fence) rec_.set_catchup_needed(false);
  }
  maybe_activate_exclusions();
  for (auto& cmd : reraise) propose(std::move(cmd));
  try_deliver();
}

void ClockRsm::on_catchup_snapshot(NodeId from, net::Decoder& d) {
  rt::Protocol::CatchupSnapshot s = decode_catchup_snapshot(d);
  if (!s.valid) {
    log::error("clockrsm: catch-up snapshot from node ", from,
               " failed its digest check — dropping");
    return;
  }
  if (s.frontier <= frontier_) return;  // raced a chunked catch-up
  if (dur_ != nullptr) {
    dur_->install_snapshot(s.store, s.frontier, s.prefix_hash,
                           s.delivered_count);
  }
  delivered_.set_base(s.frontier, s.prefix_hash);
  frontier_ = s.frontier;
  // Drop ALL entries stamped below the installed frontier, own ones
  // included. The chunked reply path re-stamps own entries because the
  // replayed suffix proves they were never delivered; the snapshot carries
  // no per-stamp history — our command may already be folded into the
  // store, and re-stamping it would deliver it a second time cluster-wide.
  while (!log_.empty() && pack(log_.begin()->first) < frontier_) {
    log_.erase(log_.begin());
  }
  env_.notify_snapshot_install(s.store, s.delivered_count);
  maybe_complete_resyncs();
  maybe_activate_exclusions();
  // Everything newer than the snapshot still arrives the normal way.
  rec_.set_catchup_needed(true);
  request_catchup();
  try_deliver();
}

void ClockRsm::on_restore(storage::RecoveredState& st) {
  // Fresh instance, pre-rejoin: rebuild silently (no deliver_ upcalls).
  delivered_ = std::move(st.log);
  frontier_ = st.frontier;
  // Monotonicity across the restart: never stamp at or below anything the
  // previous incarnation durably delivered or offered — the skew draw above
  // is fresh, so the physical clock alone does not guarantee it.
  if (frontier_ > 0) {
    last_stamp_ = static_cast<Time>((frontier_ - 1) >> 8);
  }
  for (auto& [packed, cmd] : st.accepts) {
    const Stamp stamp = unpack(packed);
    if (stamp.node == env_.id()) {
      last_stamp_ = std::max(last_stamp_, stamp.t);
      // Our own in-flight proposal: on_recover's barrage re-announces it at
      // its original stamp, and acks are recounted from scratch.
      log_.emplace(stamp,
                   Entry{std::move(cmd), 1ull << env_.id(), false, env_.now()});
    } else {
      // An entry we acked before the crash: keep holding it uncommitted;
      // catch-up replays it if the cluster delivered it, or the owner's
      // re-drive / a revocation verdict resolves it.
      log_.emplace(stamp, Entry{std::move(cmd), 0, false, 0});
    }
  }
  if (last_stamp_ > clocks_[env_.id()]) clocks_[env_.id()] = last_stamp_;
}

void ClockRsm::catchup_tick() {
  env_.set_timer(kCatchupIntervalUs, [this] { catchup_tick(); });
  maybe_start_revocations();
  rec_.tick_rounds(
      env_.now(), kCatchupIntervalUs,
      [this](NodeId dead) { maybe_decide_revocation(dead); },
      [this](NodeId dead, const rt::RecoveryDriver::Round& round) {
        net::Encoder e = env_.encoder();
        e.put_u32(dead);
        e.put_varint(round.anchor);
        env_.broadcast(kRevokeQuery, std::move(e), /*include_self=*/false);
      });
  // Re-drive own uncommitted proposals that have gone a full period without
  // committing: their kPropose may have been dropped by a crash on either
  // side or held at bay by acceptors that still suspected us. Peers whose
  // frontier has passed a stamp answer kCommit/kProposeDead, so a stale
  // entry resolves instead of hanging forever. Ascending stamp order (map).
  for (auto& [stamp, entry] : log_) {
    if (stamp.node != env_.id() || entry.committed) continue;
    if (entry.proposed_at == 0 ||
        env_.now() - entry.proposed_at < kCatchupIntervalUs) {
      continue;
    }
    entry.proposed_at = env_.now();  // rate-limit per entry
    net::Encoder e = env_.encoder();
    e.put_i64(stamp.t);
    entry.cmd.encode(e);
    env_.broadcast(kPropose, std::move(e), /*include_self=*/false);
  }
  // Pending resyncs retry against the retracted peer itself: the one node
  // guaranteed to move past its own pre-crash history.
  for (NodeId q = 0; q < n_; ++q) {
    if (((resync_mask_ >> q) & 1) == 0) continue;
    if (rec_.is_suspected(q)) continue;  // crashed again; FD owns it
    if (stats_ != nullptr) ++stats_->catchup_requests;
    send_catchup_request(q, frontier_, delivered_.rolling_hash());
  }
  if (rec_.watchdog_tick(frontier_, !log_.empty()) ||
      !pending_exclusions_.empty()) {
    rec_.set_catchup_needed(true);
    request_catchup();
  }
}

// ---------------------------------------------------------------------------
// Dead-node revocation
// ---------------------------------------------------------------------------

NodeId ClockRsm::designated_revoker() const { return rec_.designated_revoker(); }

void ClockRsm::maybe_start_revocations() {
  if (designated_revoker() != env_.id()) return;
  if (rec_.catchup_needed()) return;  // anchor rounds at a caught-up frontier
  for (NodeId dead = 0; dead < n_; ++dead) {
    if (!rec_.is_suspected(dead)) continue;
    if (excluded_[dead] || pending_exclusions_.count(dead) != 0) continue;
    if (rec_.round_open(dead)) continue;
    start_revocation(dead);
  }
}

void ClockRsm::collect_revoke_info(
    NodeId dead, std::map<std::uint64_t, rsm::Command>& out) const {
  // Everything this node still holds undelivered from the dead proposer.
  // Any entry a live node holds is safe to commit cluster-wide: stamps are
  // single-proposer, so only one value was ever proposable per stamp, and
  // nobody has delivered past an entry it holds.
  for (const auto& [stamp, entry] : log_) {
    if (stamp.node == dead) out.emplace(pack(stamp), entry.cmd);
  }
}

void ClockRsm::start_revocation(NodeId dead) {
  rt::RecoveryDriver::Round& round = rec_.open_round(dead, frontier_, env_.now());
  collect_revoke_info(dead, round.values);
  net::Encoder e = env_.encoder();
  e.put_u32(dead);
  e.put_varint(round.anchor);
  env_.broadcast(kRevokeQuery, std::move(e), /*include_self=*/false);
  maybe_decide_revocation(dead);
}

void ClockRsm::handle_revoke_query(NodeId from, net::Decoder& d) {
  const NodeId dead = d.get_u32();
  const std::uint64_t anchor = d.get_varint();
  std::map<std::uint64_t, rsm::Command> known;
  collect_revoke_info(dead, known);
  net::Encoder e = env_.encoder();
  e.put_u32(dead);
  e.put_varint(anchor);
  e.put_varint(known.size());
  for (const auto& [packed, cmd] : known) {
    e.put_varint(packed);
    cmd.encode(e);
  }
  env_.send(from, kRevokeInfo, std::move(e));
}

void ClockRsm::handle_revoke_info(NodeId from, net::Decoder& d) {
  const NodeId dead = d.get_u32();
  const std::uint64_t anchor = d.get_varint();
  const std::uint64_t count = d.get_varint();
  std::map<std::uint64_t, rsm::Command> reported;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t packed = d.get_varint();
    reported.emplace(packed, rsm::Command::decode(d));
  }
  // The anchor rejects replies that answered an *earlier* round for the
  // same target (possible when a partition delays them across the target's
  // recover/re-crash): counting one would let the round decide without the
  // responder's current entries.
  if (rec_.record_report(dead, anchor, from, std::move(reported)) == nullptr) {
    return;
  }
  maybe_decide_revocation(dead);
}

void ClockRsm::maybe_decide_revocation(NodeId dead) {
  // Every peer believed alive must answer, and a classic quorum overall, so
  // a minority partition cannot exclude a clock behind the majority's back.
  if (!rec_.round_complete(dead)) return;
  rt::RecoveryDriver::Round round = rec_.close_round(dead);

  net::Encoder e = env_.encoder();
  e.put_u32(dead);
  e.put_varint(frontier_);  // receivers behind this must catch up first
  e.put_varint(round.values.size());
  for (const auto& [packed, cmd] : round.values) {
    e.put_varint(packed);
    cmd.encode(e);
  }
  env_.broadcast(kRevokeDecision, std::move(e), /*include_self=*/false);
  if (stats_ != nullptr) ++stats_->revocations;
  apply_revoke_decision(dead, frontier_, std::move(round.values));
}

void ClockRsm::handle_revoke_decision(net::Decoder& d) {
  const NodeId dead = d.get_u32();
  const std::uint64_t ref = d.get_varint();
  const std::uint64_t count = d.get_varint();
  std::map<std::uint64_t, rsm::Command> entries;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t packed = d.get_varint();
    entries.emplace(packed, rsm::Command::decode(d));
  }
  apply_revoke_decision(dead, ref, std::move(entries));
}

void ClockRsm::apply_revoke_decision(
    NodeId dead, std::uint64_t ref_frontier,
    std::map<std::uint64_t, rsm::Command> entries) {
  // The union of what the live cluster holds from the dead proposer is
  // committed everywhere: a single value was ever proposable per stamp, so
  // finishing the replication the proposer started cannot conflict with any
  // past or future resolution.
  for (auto& [packed, cmd] : entries) {
    if (packed < frontier_) continue;  // already delivered here
    const Stamp stamp = unpack(packed);
    auto [it, inserted] = log_.emplace(stamp, Entry{std::move(cmd), 0, true, 0});
    if (!inserted) it->second.committed = true;
  }
  // Only honor the exclusion while this node's own detector agrees the
  // target is gone (a raced retraction means it is alive and its clock
  // advances normally), and only once our frontier has reached the
  // revoker's: activating earlier could race us past commands the revoker
  // had delivered but we have never seen.
  if (rec_.is_suspected(dead)) {
    if (frontier_ >= ref_frontier) {
      excluded_[dead] = true;
    } else {
      auto [it, inserted] = pending_exclusions_.emplace(dead, ref_frontier);
      if (!inserted && ref_frontier < it->second) it->second = ref_frontier;
      rec_.set_catchup_needed(true);
      request_catchup();
    }
  }
  try_deliver();
}

void ClockRsm::maybe_activate_exclusions() {
  for (auto it = pending_exclusions_.begin();
       it != pending_exclusions_.end();) {
    if (frontier_ >= it->second && rec_.is_suspected(it->first)) {
      excluded_[it->first] = true;
      it = pending_exclusions_.erase(it);
    } else if (!rec_.is_suspected(it->first)) {
      it = pending_exclusions_.erase(it);  // target returned meanwhile
    } else {
      ++it;
    }
  }
}

void ClockRsm::on_node_suspected(NodeId peer) {
  rec_.note_suspected(peer);
  resync_mask_ &= ~(1ull << peer);  // crashed again; revocation takes over
  maybe_start_revocations();
}

void ClockRsm::on_node_recovered(NodeId peer) {
  rec_.note_recovered(peer);  // clears the suspicion and voids its round
  excluded_[peer] = false;
  pending_exclusions_.erase(peer);
  // The suspicion window was a hole in our link from this peer: commands it
  // delivered just before crashing may be unknown here, and unfreezing its
  // clock now would let delivery leap over them. Keep the clock frozen
  // (announcements buffer in resync_buffer_) and catch up — preferably from
  // the peer itself, the one node guaranteed to be past its own history —
  // until the replayed frontier clears its first post-retraction clock.
  resync_mask_ |= 1ull << peer;
  resync_target_[peer] = 0;
  resync_buffer_[peer] = 0;
  if (stats_ != nullptr) ++stats_->catchup_requests;
  send_catchup_request(peer, frontier_, delivered_.rolling_hash());
  // The rejoined peer missed proposals and commits sent while it was down;
  // its delivered suffix comes back through catch-up, but our own entries
  // still in flight must be re-offered or it wedges below them. Only OWN
  // entries can be re-sent: the kPropose wire format attributes the stamp
  // to the sender, so forwarding a third node's entry would plant it under
  // the wrong owner at the peer. Other owners re-offer their entries
  // themselves (their own retraction upcall / periodic re-drive), and dead
  // owners' entries are the revocation round's job.
  for (const auto& [stamp, entry] : log_) {
    if (stamp.node != env_.id()) continue;
    net::Encoder p = env_.encoder();
    p.put_i64(stamp.t);
    entry.cmd.encode(p);
    env_.send(peer, kPropose, std::move(p));
    if (entry.committed) {
      net::Encoder c = env_.encoder();
      c.put_i64(stamp.t);
      c.put_u32(stamp.node);
      env_.send(peer, kCommit, std::move(c));
    }
  }
}

void ClockRsm::on_message(NodeId from, std::uint16_t type, net::Decoder& d) {
  switch (static_cast<MsgType>(type)) {
    case kPropose:
      handle_propose(from, d);
      break;
    case kAck:
      handle_ack(from, d);
      break;
    case kCommit:
      handle_commit(d);
      break;
    case kClock:
      note_clock(from, d.get_i64());
      try_deliver();
      break;
    case kRevokeQuery:
      handle_revoke_query(from, d);
      break;
    case kRevokeInfo:
      handle_revoke_info(from, d);
      break;
    case kRevokeDecision:
      handle_revoke_decision(d);
      break;
    case kProposeDead:
      handle_propose_dead(d);
      break;
    default:
      log::warn("clockrsm: unknown message type ", type);
  }
}

}  // namespace caesar::clockrsm
