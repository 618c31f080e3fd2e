#include "multipaxos/multipaxos.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "storage/durability.h"

namespace caesar::mpaxos {

namespace {

/// Progress-watchdog period: a stalled delivery watermark with commits
/// queued above it triggers catch-up from a live peer.
constexpr Time kCatchupIntervalUs = 250 * kMs;

}  // namespace

MultiPaxos::MultiPaxos(rt::Env& env, DeliverFn deliver, MultiPaxosConfig cfg,
                       stats::ProtocolStats* stats)
    : rt::Protocol(env, std::move(deliver)),
      cfg_(cfg),
      stats_(stats),
      rec_(env.id(), env.cluster_size(),
           classic_quorum_size(env.cluster_size())) {
  dur_ = env.durability();
  if (dur_ != nullptr) {
    dur_->set_stats(stats_);
    dur_->set_snapshot_hook(
        [this](std::uint64_t frontier) { log_.compact_through(frontier); });
  }
}

void MultiPaxos::start() {
  env_.set_timer(kCatchupIntervalUs, [this] { catchup_tick(); });
}

void MultiPaxos::propose(rsm::Command cmd) {
  if (is_leader()) {
    lead(std::move(cmd));
    return;
  }
  net::Encoder e = env_.encoder();
  cmd.encode(e);
  forwarded_.emplace(cmd.id, std::move(cmd));
  env_.send(cfg_.leader, kForward, std::move(e));
}

void MultiPaxos::lead(rsm::Command cmd) {
  led_ids_.insert(cmd.id);
  const std::uint64_t index = next_index_++;
  if (dur_ != nullptr) {
    // Index-reuse fence: a restarted leader must resume ordering strictly
    // above anything it may have offered before the crash (same value or
    // not). Force-flushed, amortized over kBoundLease proposals.
    if (index >= durable_bound_) {
      durable_bound_ = index + kBoundLease;
      dur_->record_bound(durable_bound_);
    }
    dur_->record_accept(index, cmd);
  }
  net::Encoder e = env_.encoder();
  e.put_u64(index);
  cmd.encode(e);
  pending_.emplace(index, Pending{std::move(cmd), 1ull << env_.id()});
  env_.broadcast(kAccept, std::move(e), /*include_self=*/false);
}

void MultiPaxos::on_message(NodeId from, std::uint16_t type, net::Decoder& d) {
  switch (type) {
    case kForward: {
      rsm::Command cmd = rsm::Command::decode(d);
      // led_ids_ dedups follower re-forwards after a leader recovery: the
      // original may already be pending or recently committed here.
      if (is_leader() && led_ids_.count(cmd.id) == 0) lead(std::move(cmd));
      return;
    }
    case kAccept:
      handle_accept(from, d);
      return;
    case kAccepted:
      handle_accepted(from, d);
      return;
    case kCommit:
      handle_commit(d);
      return;
    default:
      return;
  }
}

void MultiPaxos::handle_accept(NodeId from, net::Decoder& d) {
  const std::uint64_t index = d.get_u64();
  rsm::Command cmd = rsm::Command::decode(d);
  (void)cmd;  // the COMMIT re-carries the command; acceptors just ack here
  net::Encoder e = env_.encoder();
  e.put_u64(index);
  env_.send(from, kAccepted, std::move(e));
}

void MultiPaxos::handle_accepted(NodeId from, net::Decoder& d) {
  if (!is_leader()) return;
  const std::uint64_t index = d.get_u64();
  auto it = pending_.find(index);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  p.ack_mask |= 1ull << from;
  if (static_cast<std::size_t>(std::popcount(p.ack_mask)) <
      classic_quorum_size(env_.cluster_size())) {
    return;
  }
  if (stats_ != nullptr) ++stats_->fast_decisions;
  net::Encoder e = env_.encoder();
  e.put_u64(index);
  p.cmd.encode(e);
  env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
  recent_commits_.emplace_back(index, p.cmd);
  if (recent_commits_.size() > kRecentCommits) {
    led_ids_.erase(recent_commits_.front().second.id);
    recent_commits_.pop_front();
  }
  committed_.emplace(index, std::move(p.cmd));
  pending_.erase(it);
  try_deliver();
}

void MultiPaxos::handle_commit(net::Decoder& d) {
  const std::uint64_t index = d.get_u64();
  rsm::Command cmd = rsm::Command::decode(d);
  // Duplicate COMMITs arrive after a leader recovery re-announce; an
  // already-delivered index must not re-enter the log.
  if (index >= deliver_next_) committed_.emplace(index, std::move(cmd));
  try_deliver();
}

void MultiPaxos::rebroadcast_pending() {
  for (auto& [index, p] : pending_) {
    net::Encoder e = env_.encoder();
    e.put_u64(index);
    p.cmd.encode(e);
    env_.broadcast(kAccept, std::move(e), /*include_self=*/false);
  }
}

void MultiPaxos::on_recover() {
  start();  // the watchdog timer died with the crash
  // Stale FD view; the detector re-reports within one timeout.
  rec_.reset_suspicions();
  if (!is_leader()) {
    // State transfer: fetch the committed indices this replica missed from a
    // live peer and replay them in order — the log resumes with *no* gap.
    // The grace-period watermark jump stays as a backstop for the case
    // where every catch-up attempt failed (it should never fire now that
    // the watchdog retries against rotating peers).
    resync_ = true;
    rec_.set_catchup_needed(true);
    request_catchup();
    env_.set_timer(kResyncGraceUs, [this] {
      if (!resync_) return;
      resync_ = false;
      auto first = committed_.lower_bound(deliver_next_);
      if (first != committed_.end() && first->first > deliver_next_) {
        log::warn("multipaxos: node ", env_.id(),
                  " jumping delivery watermark ", deliver_next_, " -> ",
                  first->first, " (state transfer did not complete in time)");
        deliver_next_ = first->first;
      }
      try_deliver();
    });
    return;
  }
  // Leader: ACCEPTED and COMMIT traffic in flight at the crash was dropped,
  // so uncommitted log entries would gap the log forever and recently
  // committed ones may be unknown to every learner. Re-drive both; entries
  // are single-proposer (one stable leader), so re-broadcasting is safe
  // and the ack bitmask keeps duplicate replies from double-counting. The
  // leader's own delivery frontier also lags by the outage: entries the
  // cluster learned only through the ring were delivered nowhere, but any
  // delivered state a follower holds comes back through catch-up.
  rec_.set_catchup_needed(true);
  request_catchup();
  for (auto& [index, p] : pending_) {
    p.ack_mask = 1ull << env_.id();
  }
  rebroadcast_pending();
  replay_recent_commits(kAllPeers);
}

void MultiPaxos::replay_recent_commits(NodeId peer) {
  for (const auto& [index, cmd] : recent_commits_) {
    net::Encoder e = env_.encoder();
    e.put_u64(index);
    cmd.encode(e);
    if (peer == kAllPeers) {
      env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
    } else {
      env_.send(peer, kCommit, std::move(e));
    }
  }
}

void MultiPaxos::on_node_suspected(NodeId peer) {
  rec_.note_suspected(peer);
}

void MultiPaxos::on_node_recovered(NodeId peer) {
  rec_.note_recovered(peer);
  if (!is_leader()) {
    // The recovered leader's queue dropped our forwards sent while it was
    // down: re-forward everything still outstanding (led_ids_ dedups the
    // ones it did manage to lead before crashing).
    if (peer == cfg_.leader) {
      for (const auto& [id, cmd] : forwarded_) {
        net::Encoder e = env_.encoder();
        cmd.encode(e);
        env_.send(cfg_.leader, kForward, std::move(e));
      }
    }
    return;
  }
  // A rejoined acceptor missed ACCEPTs sent while it was down (including
  // recovery re-broadcasts from before it was back): offer the still
  // uncommitted entries again so quorums can form. Its delivered log is
  // restored by the catch-up it requested on rejoin; replaying the recent
  // commit window here just shortens the window the reply must cover.
  rebroadcast_pending();
  replay_recent_commits(peer);
}

// ---------------------------------------------------------------------------
// Rejoin catch-up
// ---------------------------------------------------------------------------

void MultiPaxos::request_catchup() {
  rec_.request_catchup([this](NodeId peer) {
    if (stats_ != nullptr) ++stats_->catchup_requests;
    send_catchup_request(peer, deliver_next_, log_.rolling_hash());
  });
}

void MultiPaxos::on_catchup_request(NodeId from, net::Decoder& d) {
  const std::uint64_t frontier = d.get_varint();
  const std::uint64_t their_hash = d.get_u64();
  rt::RecoveryDriver::serve_log_catchup(
      *this, log_, dur_, from, frontier, their_hash, deliver_next_,
      [this, frontier](
          std::vector<std::pair<std::uint64_t, rsm::Command>>& entries) {
        // Committed-but-undelivered indices ride along on the final chunk.
        for (const auto& [index, cmd] : committed_) {
          if (index >= frontier) entries.emplace_back(index, cmd);
        }
      },
      stats_, "multipaxos");
}

void MultiPaxos::on_catchup_reply(NodeId from, net::Decoder& d) {
  (void)from;
  rsm::LogSnapshot chunk = rsm::LogSnapshot::decode(d);
  if (chunk.from == deliver_next_ && chunk.prefix_hash != 0 &&
      chunk.prefix_hash != log_.rolling_hash()) {
    log::error("multipaxos: catch-up prefix hash mismatch at index ",
               deliver_next_, " — replicas have diverged");
  }
  for (auto& [index, cmd] : chunk.entries) {
    if (index < deliver_next_) continue;
    if (committed_.emplace(index, std::move(cmd)).second &&
        stats_ != nullptr) {
      ++stats_->catchup_commands;
    }
  }
  if (chunk.done) {
    rec_.set_catchup_needed(false);
    resync_ = false;  // the gap is resolved; the backstop need not jump
  }
  try_deliver();
}

void MultiPaxos::on_catchup_snapshot(NodeId from, net::Decoder& d) {
  rt::Protocol::CatchupSnapshot s = decode_catchup_snapshot(d);
  if (!s.valid) {
    log::error("multipaxos: catch-up snapshot from node ", from,
               " failed its digest check — dropping");
    return;
  }
  if (s.frontier <= deliver_next_) return;  // raced a chunked catch-up
  if (dur_ != nullptr) {
    dur_->install_snapshot(s.store, s.frontier, s.prefix_hash,
                           s.delivered_count);
  }
  log_.set_base(s.frontier, s.prefix_hash);
  deliver_next_ = s.frontier;
  committed_.erase(committed_.begin(), committed_.lower_bound(deliver_next_));
  env_.notify_snapshot_install(s.store, s.delivered_count);
  resync_ = false;  // no gap left below the installed frontier
  rec_.set_catchup_needed(true);
  request_catchup();
  try_deliver();
}

void MultiPaxos::on_restore(storage::RecoveredState& st) {
  // Fresh instance, pre-rejoin: rebuild silently (no deliver_ upcalls).
  log_ = std::move(st.log);
  deliver_next_ = st.frontier;
  durable_bound_ = st.bound;
  if (is_leader()) {
    std::uint64_t max_seen = std::max(st.bound, st.frontier);
    for (auto& [index, cmd] : st.accepts) {
      max_seen = std::max(max_seen, index + 1);
      led_ids_.insert(cmd.id);
      pending_.emplace(index, Pending{std::move(cmd), 1ull << env_.id()});
    }
    // Re-forward dedup for recently delivered commands: the retained log
    // suffix stands in for the lost recent-commit ring. (A follower
    // re-forward older than the compacted prefix would duplicate; the
    // restart scenarios exercise follower restarts, matching the repo's
    // no-leader-election scope.)
    for (const auto& [index, cmd] : log_.entries()) led_ids_.insert(cmd.id);
    next_index_ = max_seen;
  }
}

void MultiPaxos::catchup_tick() {
  env_.set_timer(kCatchupIntervalUs, [this] { catchup_tick(); });
  // Commits queued above a stalled watermark mean this replica missed the
  // indices in between (their COMMITs were dropped while it was down or
  // partitioned): fetch them instead of waiting for the grace backstop.
  if (rec_.watchdog_tick(deliver_next_, !committed_.empty())) {
    request_catchup();
  }
}

void MultiPaxos::try_deliver() {
  auto it = committed_.find(deliver_next_);
  while (it != committed_.end()) {
    forwarded_.erase(it->second.id);  // our forward completed its round trip
    if (dur_ != nullptr) {
      dur_->record_deliver(deliver_next_, deliver_next_ + 1, it->second);
    }
    log_.append(deliver_next_, it->second);
    deliver_(it->second);
    committed_.erase(it);
    ++deliver_next_;
    it = committed_.find(deliver_next_);
  }
  // Covers the grace-backstop watermark jump (the only non-delivery
  // frontier advance this protocol has).
  if (dur_ != nullptr && deliver_next_ > dur_->frontier()) {
    dur_->record_frontier(deliver_next_);
  }
}

}  // namespace caesar::mpaxos
