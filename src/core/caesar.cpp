#include "core/caesar.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "common/logging.h"
#include "rsm/log_snapshot.h"

namespace caesar::core {

namespace {
/// CPU accounting: one microsecond of service per this many index entries or
/// predecessor-set elements touched (calibrated, see DESIGN.md).
constexpr Time kEntriesPerUs = 16;

/// Order-independent accumulator over a set of command ids (iteration order of
/// the command table is unspecified, so the fold must commute). Used by catch-up
/// to compare per-origin stable sets without shipping them.
std::uint64_t mix_id(std::uint64_t h, CmdId id) {
  std::uint64_t x = static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ull;
  x ^= x >> 29;
  return h ^ x;
}
}  // namespace

Caesar::Caesar(rt::Env& env, DeliverFn deliver, CaesarConfig cfg,
               stats::ProtocolStats* stats)
    : rt::Protocol(env, std::move(deliver)),
      cfg_(cfg),
      stats_(stats),
      n_(env.cluster_size()),
      fq_(cfg.fast_quorum_override != 0 ? cfg.fast_quorum_override
                                        : fast_quorum_size(env.cluster_size())),
      cq_(classic_quorum_size(env.cluster_size())),
      clock_(env.id()),
      rec_(env.id(), env.cluster_size(),
           classic_quorum_size(env.cluster_size())) {
  if (n_ > 64) {
    throw std::invalid_argument("CAESAR tracks replies in 64-bit masks: "
                                "at most 64 sites");
  }
}

void Caesar::start() {
  if (cfg_.gossip_interval_us > 0) {
    env_.set_timer(cfg_.gossip_interval_us, [this] { gossip_tick(); });
  }
  if (cfg_.catchup_interval_us > 0) {
    env_.set_timer(cfg_.catchup_interval_us, [this] { catchup_tick(); });
  }
}

void Caesar::on_recover() {
  // Restart the timer chains (they died with the crash), then reconstruct
  // what the outage cost us on both sides of the protocol.
  start();
  // Pre-crash failure-detector verdicts are stale; the detector re-reports
  // genuinely dead peers within one timeout.
  rec_.reset_suspicions();
  // Commands we were coordinating or recovering lost their quorum replies
  // and phase timers with the crash. Re-drive each through ballot-protected
  // recovery: it reconstructs the command's fate from a classic quorum,
  // including decisions peers completed while we were down. Timer ids are
  // stale post-crash, so they are cleared rather than cancelled.
  std::vector<CmdId> redrive;
  for (const auto& [id, rc] : recovery_) redrive.push_back(id);
  recovery_.clear();
  for (auto [id, c] : coord_) {
    if (c.phase == Phase::kDone) continue;
    c.timeout = sim::kNoEvent;
    redrive.push_back(id);
  }
  std::sort(redrive.begin(), redrive.end());
  redrive.erase(std::unique(redrive.begin(), redrive.end()), redrive.end());
  for (CmdId id : redrive) start_recovery(id);
  // Stable/deliver traffic that flowed while we were down is gone for good —
  // nobody re-broadcasts a STABLE. Pull the missed instances from a live
  // peer and replay them through normal delivery.
  rec_.set_catchup_needed(true);
  request_catchup();
}

Status Caesar::status_of(CmdId id) const {
  const CmdInfo* info = cmds_.find(id);
  return info == nullptr ? Status::kNone : info->status;
}

IdSet Caesar::pred_of(CmdId id) const {
  const CmdInfo* info = cmds_.find(id);
  return info == nullptr ? IdSet{} : info->pred;
}

Timestamp Caesar::ts_of(CmdId id) const {
  const CmdInfo* info = cmds_.find(id);
  return info == nullptr ? Timestamp{} : info->ts;
}

bool Caesar::is_delivered(CmdId id) const {
  const CmdInfo* info = cmds_.find(id);
  return info != nullptr ? info->delivered : pruned_.contains(id);
}

std::size_t Caesar::history_size() const {
  std::size_t n = 0;
  for (const auto& [id, info] : cmds_) n += info.in_history ? 1 : 0;
  return n;
}

std::size_t Caesar::catchup_hint_count() const {
  std::size_t n = 0;
  for (const auto& [id, info] : cmds_) n += info.catchup_hint ? 1 : 0;
  return n;
}

// --------------------------------------------------------------------------
// History / index maintenance
// --------------------------------------------------------------------------

Caesar::CmdInfo& Caesar::record(CmdId id) {
  auto [info, inserted] = cmds_.try_emplace(id);
  if (inserted && pruned_.contains(id)) info->delivered = true;
  return *info;
}

Caesar::CmdInfo* Caesar::join_ballot(CmdId id, Ballot ballot) {
  CmdInfo* info = cmds_.find(id);
  if (info != nullptr && info->joined > ballot) return nullptr;
  if (info == nullptr) info = &record(id);
  info->joined = ballot;
  return info;
}

Caesar::CmdInfo& Caesar::upsert(CmdInfo& info, const rsm::Command& cmd) {
  // Every message about a command carries the same payload, so the first
  // copy is the one to keep.
  if (!info.in_history) {
    info.cmd = cmd;
    info.in_history = true;
  }
  return info;
}

void Caesar::index_erase(const rsm::Command& cmd, const Timestamp& ts) {
  for (const rsm::Op& op : cmd.ops) {
    key_index_.erase(op.key, ts);
  }
}

void Caesar::update_entry(CmdInfo& info, const Timestamp& ts, IdSet pred,
                          Status status, Ballot ballot, bool forced) {
  // The index maps (key, ts) to the command, so a new status at the same
  // timestamp (pending -> stable on every fast decision) leaves it alone.
  const bool reindex = info.status == Status::kNone || info.ts != ts;
  if (reindex && info.status != Status::kNone) index_erase(info.cmd, info.ts);
  info.ts = ts;
  info.pred = std::move(pred);
  info.status = status;
  info.ballot = ballot;
  info.forced = forced;
  if (!reindex) return;
  for (const rsm::Op& op : info.cmd.ops) {
    key_index_.put(op.key, ts, info.cmd.id);
  }
}

// --------------------------------------------------------------------------
// Acceptor-side predicates (paper Fig 3)
// --------------------------------------------------------------------------

IdSet Caesar::compute_predecessors(const rsm::Command& cmd, const Timestamp& ts,
                                   const std::optional<IdSet>& whitelist) {
  std::vector<std::uint64_t> out;
  Time scanned = 0;
  for (const rsm::Op& op : cmd.ops) {
    const KeyIndex::EntryList* list = key_index_.find(op.key);
    if (list == nullptr) continue;
    const auto below = KeyIndex::lower_bound(*list, ts);
    for (auto it = list->begin(); it != below; ++it) {
      ++scanned;
      const CmdId other = it->id;
      if (other == cmd.id) continue;
      if (!whitelist.has_value()) {
        out.push_back(other);
        continue;
      }
      // Whitelist semantics: only whitelisted commands may enter the
      // predecessor set from the fast-pending limbo; everything else must
      // already be slow-pending/accepted/stable (paper Fig 3 lines 1-3).
      if (whitelist->contains(other)) {
        out.push_back(other);
        continue;
      }
      const Status st = status_of(other);
      if (st == Status::kSlowPending || st == Status::kAccepted ||
          st == Status::kStable) {
        out.push_back(other);
      }
    }
  }
  if (whitelist.has_value()) {
    // Forced predecessors are included even if unknown locally.
    for (std::uint64_t w : *whitelist) {
      if (w != cmd.id) out.push_back(w);
    }
  }
  env_.charge_cpu(scanned / kEntriesPerUs);
  return IdSet::from_vector(std::move(out));
}

IdSet Caesar::cmds_with_lower_ts(const rsm::Command& cmd, const Timestamp& ts) {
  return compute_predecessors(cmd, ts, std::nullopt);
}

Caesar::ConflictScan Caesar::scan_conflicts(const rsm::Command& cmd,
                                            const Timestamp& ts,
                                            std::vector<CmdId>* blockers) {
  ConflictScan result;
  Time scanned = 0;
  for (const rsm::Op& op : cmd.ops) {
    const KeyIndex::EntryList* list = key_index_.find(op.key);
    if (list == nullptr) continue;
    for (auto it = KeyIndex::upper_bound(*list, ts); it != list->end(); ++it) {
      ++scanned;
      const CmdId other = it->id;
      if (other == cmd.id) continue;
      const CmdInfo* rival = cmds_.find(other);
      if (rival == nullptr) continue;
      if (rival->pred.contains(cmd.id)) continue;  // we precede it; no issue
      if (rival->status == Status::kAccepted ||
          rival->status == Status::kStable) {
        result.reject = true;
      } else {
        result.blocked = true;  // still in flight: WAIT (paper §IV-A)
        if (blockers != nullptr) blockers->push_back(other);
      }
      // When collecting blockers, the full set is needed for registration;
      // otherwise both answers are known once both flags are set.
      if (blockers == nullptr && result.reject && result.blocked) break;
    }
  }
  env_.charge_cpu(scanned / kEntriesPerUs);
  return result;
}

// --------------------------------------------------------------------------
// Leader: proposal phases (paper Fig 4, left column)
// --------------------------------------------------------------------------

void Caesar::propose(rsm::Command cmd) {
  fast_proposal_phase(std::move(cmd), /*ballot=*/0, clock_.next(),
                      std::nullopt);
}

void Caesar::fast_proposal_phase(rsm::Command cmd, Ballot ballot, Timestamp ts,
                                 std::optional<IdSet> whitelist) {
  const CmdId id = cmd.id;
  auto [slot, inserted] = coord_.try_emplace(id);
  Coordinator& c = *slot;
  if (!inserted && c.timeout != sim::kNoEvent) env_.cancel_timer(c.timeout);
  c = Coordinator{};
  c.cmd = cmd;
  c.ballot = ballot;
  c.ts = ts;
  c.max_ts = ts;
  c.phase = Phase::kFastProposal;
  c.propose_start = env_.now();

  FastProposeMsg m;
  m.cmd = std::move(cmd);
  m.ballot = ballot;
  m.ts = ts;
  m.has_whitelist = whitelist.has_value();
  if (whitelist.has_value()) m.whitelist = *whitelist;
  net::Encoder e = env_.encoder();
  m.encode(e);
  env_.broadcast(kFastPropose, std::move(e), /*include_self=*/true);

  c.timeout = env_.set_timer(cfg_.fast_timeout_us,
                             [this, id] { on_fast_timeout(id); });
}

void Caesar::on_fast_timeout(CmdId id) {
  Coordinator* found = coord_.find(id);
  if (found == nullptr || found->phase != Phase::kFastProposal) return;
  Coordinator& c = *found;
  c.timeout_fired = true;
  c.timeout = sim::kNoEvent;
  if (static_cast<std::size_t>(std::popcount(c.responded)) >= cq_) {
    evaluate_fast_replies(c);
  } else {
    // Not even a classic quorum yet: keep waiting (≤ f crashes guarantee CQ
    // eventually responds).
    c.timeout = env_.set_timer(cfg_.fast_timeout_us,
                               [this, id] { on_fast_timeout(id); });
    c.timeout_fired = false;
  }
}

void Caesar::evaluate_fast_replies(Coordinator& c) {
  if (c.phase != Phase::kFastProposal) return;
  const auto replies = static_cast<std::size_t>(std::popcount(c.responded));
  if (replies >= fq_) {
    if (c.nacks == 0) {
      // Fast decision: a fast quorum confirmed the timestamp — predecessor
      // sets may differ, their union is what ships (paper §IV).
      c.fast = true;
      if (c.timeout != sim::kNoEvent) env_.cancel_timer(c.timeout);
      stable_phase(c);
    } else {
      if (c.timeout != sim::kNoEvent) env_.cancel_timer(c.timeout);
      retry_phase(c);
    }
  } else if (c.timeout_fired && replies >= cq_) {
    if (c.nacks > 0) {
      retry_phase(c);
    } else {
      slow_proposal_phase(c);
    }
  }
}

void Caesar::slow_proposal_phase(Coordinator& c) {
  if (stats_ != nullptr) ++stats_->slow_proposals;
  if (!c.propose_recorded && stats_ != nullptr) {
    stats_->propose_phase.record(env_.now() - c.propose_start);
    c.propose_recorded = true;
  }
  c.phase = Phase::kSlowProposal;
  c.responded = 0;
  c.oks = 0;
  c.nacks = 0;
  if (c.timeout != sim::kNoEvent) {
    env_.cancel_timer(c.timeout);
    c.timeout = sim::kNoEvent;
  }
  TimestampedCmdMsg m;
  m.cmd = c.cmd;
  m.ballot = c.ballot;
  m.ts = c.ts;
  m.pred = c.pred;
  net::Encoder e = env_.encoder();
  m.encode(e);
  env_.broadcast(kSlowPropose, std::move(e), /*include_self=*/true);
}

void Caesar::retry_phase(Coordinator& c) {
  if (stats_ != nullptr) ++stats_->retries;
  if (!c.propose_recorded && stats_ != nullptr) {
    stats_->propose_phase.record(env_.now() - c.propose_start);
    c.propose_recorded = true;
  }
  c.phase = Phase::kRetry;
  c.retry_start = env_.now();
  c.ts = c.max_ts;  // greatest timestamp suggested by any replier
  c.responded = 0;
  c.oks = 0;
  c.nacks = 0;
  if (c.timeout != sim::kNoEvent) {
    env_.cancel_timer(c.timeout);
    c.timeout = sim::kNoEvent;
  }
  TimestampedCmdMsg m;
  m.cmd = c.cmd;
  m.ballot = c.ballot;
  m.ts = c.ts;
  m.pred = c.pred;
  net::Encoder e = env_.encoder();
  m.encode(e);
  env_.broadcast(kRetry, std::move(e), /*include_self=*/true);
}

void Caesar::stable_phase(Coordinator& c) {
  if (stats_ != nullptr) {
    if (!c.propose_recorded) {
      stats_->propose_phase.record(env_.now() - c.propose_start);
      c.propose_recorded = true;
    }
    if (c.retry_start != 0) {
      stats_->retry_phase.record(env_.now() - c.retry_start);
    }
    if (c.fast) {
      ++stats_->fast_decisions;
    } else {
      ++stats_->slow_decisions;
    }
  }
  c.phase = Phase::kDone;
  c.stable_sent = env_.now();
  TimestampedCmdMsg m;
  m.cmd = c.cmd;
  m.ballot = c.ballot;
  m.ts = c.ts;
  m.pred = c.pred;
  net::Encoder e = env_.encoder();
  m.encode(e);
  env_.broadcast(kStable, std::move(e), /*include_self=*/true);
}

// --------------------------------------------------------------------------
// Acceptor: proposal handling with the wait condition
// --------------------------------------------------------------------------

void Caesar::handle_fast_propose(NodeId from, net::Decoder& d) {
  FastProposeMsg m = FastProposeMsg::decode(d);
  clock_.observe(m.ts);
  const CmdId id = m.cmd.id;
  // Phase-1 messages are processed only in exactly their ballot (TLA
  // BallotPre): for ballot 0 every node starts joined; recovery ballots are
  // joined via the RECOVERY message, which FIFO-precedes this proposal.
  CmdInfo* found = cmds_.find(id);
  if ((found == nullptr ? 0 : found->joined) != m.ballot) return;
  CmdInfo& info = upsert(found != nullptr ? *found : record(id), m.cmd);
  if (info.status == Status::kStable) return;
  if (info.status != Status::kNone && info.ballot >= m.ballot) return;  // dup

  std::optional<IdSet> whitelist;
  if (m.has_whitelist) whitelist = m.whitelist;
  IdSet pred = compute_predecessors(m.cmd, m.ts, whitelist);
  update_entry(info, m.ts, std::move(pred), Status::kFastPending, m.ballot,
               m.has_whitelist);

  Parked p;
  p.cmd = id;
  p.leader = from;
  p.ballot = m.ballot;
  p.ts = m.ts;
  p.slow = false;
  p.parked_at = env_.now();
  std::vector<CmdId> blockers;
  // Collect blockers only when waiting is on: the no-wait ablation must keep
  // the seed's early-exit scan (and its CPU charge) since it never parks.
  const ConflictScan scan =
      scan_conflicts(info.cmd, m.ts, cfg_.wait_enabled ? &blockers : nullptr);
  if (cfg_.wait_enabled && scan.blocked) {
    park_proposal(std::move(p), blockers);
    return;
  }
  answer_proposal(info, p);
}

void Caesar::handle_slow_propose(NodeId from, net::Decoder& d) {
  TimestampedCmdMsg m = TimestampedCmdMsg::decode(d);
  clock_.observe(m.ts);
  const CmdId id = m.cmd.id;
  CmdInfo* joined = join_ballot(id, m.ballot);
  if (joined == nullptr) return;
  CmdInfo& info = upsert(*joined, m.cmd);
  if (info.status == Status::kStable) return;

  Parked p;
  p.cmd = id;
  p.leader = from;
  p.ballot = m.ballot;
  p.ts = m.ts;
  p.slow = true;
  p.msg_pred = std::move(m.pred);
  p.parked_at = env_.now();
  std::vector<CmdId> blockers;
  const ConflictScan scan =
      scan_conflicts(info.cmd, m.ts, cfg_.wait_enabled ? &blockers : nullptr);
  if (cfg_.wait_enabled && scan.blocked) {
    park_proposal(std::move(p), blockers);
    return;
  }
  answer_proposal(info, p);
}

void Caesar::answer_proposal(CmdInfo& info, const Parked& p) {
  if (info.ballot > p.ballot) return;  // superseded by a recovery
  if (info.status == Status::kStable || info.status == Status::kAccepted) {
    return;  // already past the proposal stage; the reply is moot
  }
  const ConflictScan scan = scan_conflicts(info.cmd, p.ts);
  const bool reject =
      scan.reject || (!cfg_.wait_enabled && scan.blocked);

  ProposeReplyMsg r;
  r.cmd = p.cmd;
  r.ballot = p.ballot;
  if (!reject) {
    r.ok = true;
    r.ts = p.ts;
    if (p.slow) {
      // Slow proposals echo the leader's predecessor set (TLA Phase2Reply)
      // and the command parks in H as slow-pending.
      update_entry(info, p.ts, p.msg_pred, Status::kSlowPending, p.ballot,
                   false);
      r.pred = info.pred;
    } else {
      r.pred = info.pred;  // computed at receive time (paper line P13)
    }
  } else {
    // NACK: suggest a fresh timestamp greater than everything seen, plus the
    // predecessors that justify it (paper §IV-B).
    r.ok = false;
    r.ts = clock_.next();
    r.pred = cmds_with_lower_ts(info.cmd, r.ts);
    update_entry(info, r.ts, r.pred, Status::kRejected, p.ballot, info.forced);
  }
  net::Encoder e = env_.encoder();
  r.encode(e);
  env_.send(p.leader, p.slow ? kSlowProposeReply : kFastProposeReply,
            std::move(e));
}

void Caesar::register_waiters(std::uint64_t ticket, const Parked& p,
                              std::vector<CmdId>& blockers) {
  // A rival spanning several of the proposal's keys is collected once per
  // shared key; registering it once is enough.
  std::sort(blockers.begin(), blockers.end());
  blockers.erase(std::unique(blockers.begin(), blockers.end()),
                 blockers.end());
  for (CmdId b : blockers) {
    park_waiters_[b].emplace_back(ticket, p.wait_epoch);
  }
}

void Caesar::park_proposal(Parked p, std::vector<CmdId>& blockers) {
  const std::uint64_t ticket = next_park_ticket_++;
  p.wait_epoch = 1;
  register_waiters(ticket, p, blockers);
  parked_tickets_[p.cmd].push_back(ticket);
  parked_[ticket] = std::move(p);
  if (stats_ != nullptr) ++stats_->waits;
}

void Caesar::release_parked(std::uint64_t ticket, const Parked& p,
                            bool record_wait) {
  if (record_wait && stats_ != nullptr) {
    stats_->wait_time.record(env_.now() - p.parked_at);
  }
  if (std::vector<std::uint64_t>* tickets = parked_tickets_.find(p.cmd)) {
    std::erase(*tickets, ticket);
    if (tickets->empty()) parked_tickets_.erase(p.cmd);
  }
  parked_.erase(ticket);
  // Stale park_waiters_ references die lazily on their blocker's wake.
}

void Caesar::wake_dependents(CmdId id) {
  // Proposals parked for `id` itself are moot: its status just advanced past
  // the proposal stage, so the wait can no longer produce a useful vote.
  if (std::vector<std::uint64_t>* own = parked_tickets_.find(id)) {
    std::vector<std::uint64_t> tickets = std::move(*own);
    parked_tickets_.erase(id);
    for (std::uint64_t ticket : tickets) {
      if (Parked* p = parked_.find(ticket)) release_parked(ticket, *p);
    }
  }

  auto* registered = park_waiters_.find(id);
  if (registered == nullptr) return;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> waiters =
      std::move(*registered);
  park_waiters_.erase(id);
  for (const auto& [ticket, epoch] : waiters) {
    Parked* parked = parked_.find(ticket);
    if (parked == nullptr || parked->wait_epoch != epoch) continue;
    Parked& p = *parked;
    CmdInfo* found = cmds_.find(p.cmd);
    if (found == nullptr || !found->in_history) {  // pruned: drop silently
      release_parked(ticket, p, /*record_wait=*/false);
      continue;
    }
    CmdInfo& info = *found;
    if (info.ballot > p.ballot || info.status == Status::kStable ||
        info.status == Status::kAccepted) {
      // The command moved on without our vote; the wait is moot.
      release_parked(ticket, p);
      continue;
    }
    std::vector<CmdId> blockers;
    const ConflictScan scan = scan_conflicts(info.cmd, p.ts, &blockers);
    if (scan.blocked) {
      // Still blocked, possibly by different rivals now: re-register under
      // the current blocker set. The epoch bump invalidates older entries.
      ++p.wait_epoch;
      register_waiters(ticket, p, blockers);
      continue;
    }
    const Parked answered = std::move(p);
    release_parked(ticket, answered);
    answer_proposal(info, answered);
  }
}

// --------------------------------------------------------------------------
// Leader: reply handling
// --------------------------------------------------------------------------

void Caesar::handle_propose_reply(NodeId from, net::Decoder& d, bool slow) {
  ProposeReplyMsg m = ProposeReplyMsg::decode(d);
  clock_.observe(m.ts);
  Coordinator* found = coord_.find(m.cmd);
  if (found == nullptr) return;
  Coordinator& c = *found;
  if (c.ballot != m.ballot) return;
  const Phase expected = slow ? Phase::kSlowProposal : Phase::kFastProposal;
  if (c.phase != expected) return;
  const std::uint64_t bit = 1ull << from;
  if ((c.responded & bit) != 0) return;
  c.responded |= bit;
  c.pred.merge(m.pred);
  env_.charge_cpu(static_cast<Time>(m.pred.size()) / kEntriesPerUs);
  if (m.ts > c.max_ts) c.max_ts = m.ts;
  if (m.ok) {
    ++c.oks;
  } else {
    ++c.nacks;
  }
  if (!slow) {
    evaluate_fast_replies(c);
    return;
  }
  if (static_cast<std::size_t>(std::popcount(c.responded)) == cq_) {
    if (c.nacks > 0) {
      retry_phase(c);
    } else {
      stable_phase(c);
    }
  }
}

// --------------------------------------------------------------------------
// Retry phase (paper §V-C): never rejected
// --------------------------------------------------------------------------

void Caesar::handle_retry(NodeId from, net::Decoder& d) {
  TimestampedCmdMsg m = TimestampedCmdMsg::decode(d);
  clock_.observe(m.ts);
  const CmdId id = m.cmd.id;
  CmdInfo* joined = join_ballot(id, m.ballot);
  if (joined == nullptr) return;
  CmdInfo& info = upsert(*joined, m.cmd);
  if (info.status == Status::kStable) {
    // Already stable (a higher-ballot recovery finished first). Theorem 2
    // guarantees the attributes match; answer consistently if they do.
    if (info.ts != m.ts) return;
    RetryReplyMsg r{id, m.ballot, info.ts, info.pred};
    net::Encoder e = env_.encoder();
    r.encode(e);
    env_.send(from, kRetryReply, std::move(e));
    return;
  }
  IdSet deps = cmds_with_lower_ts(m.cmd, m.ts);
  deps.merge(m.pred);
  update_entry(info, m.ts, deps, Status::kAccepted, m.ballot, false);
  RetryReplyMsg r{id, m.ballot, m.ts, std::move(deps)};
  net::Encoder e = env_.encoder();
  r.encode(e);
  env_.send(from, kRetryReply, std::move(e));
  // An accepted status can unblock parked proposals (paper Fig 3 line 5).
  wake_dependents(id);
}

void Caesar::handle_retry_reply(NodeId from, net::Decoder& d) {
  RetryReplyMsg m = RetryReplyMsg::decode(d);
  clock_.observe(m.ts);
  Coordinator* found = coord_.find(m.cmd);
  if (found == nullptr) return;
  Coordinator& c = *found;
  if (c.ballot != m.ballot || c.phase != Phase::kRetry) return;
  const std::uint64_t bit = 1ull << from;
  if ((c.responded & bit) != 0) return;
  c.responded |= bit;
  c.pred.merge(m.pred);
  env_.charge_cpu(static_cast<Time>(m.pred.size()) / kEntriesPerUs);
  if (static_cast<std::size_t>(std::popcount(c.responded)) == cq_) {
    stable_phase(c);
  }
}

// --------------------------------------------------------------------------
// Stable phase and delivery (paper §V-B)
// --------------------------------------------------------------------------

void Caesar::handle_stable(net::Decoder& d) {
  TimestampedCmdMsg m = TimestampedCmdMsg::decode(d);
  clock_.observe(m.ts);
  CmdInfo* info = join_ballot(m.cmd.id, m.ballot);
  if (info == nullptr) return;
  make_stable(*info, m.cmd, m.ballot, m.ts, std::move(m.pred));
}

void Caesar::make_stable(CmdInfo& entry, const rsm::Command& cmd,
                         Ballot ballot, const Timestamp& ts, IdSet pred) {
  CmdInfo& info = upsert(entry, cmd);
  if (info.status == Status::kStable) return;  // duplicate
  update_entry(info, ts, std::move(pred), Status::kStable, ballot,
               info.forced);
  break_loops(info);
  try_deliver(info);
  wake_dependents(cmd.id);
}

void Caesar::break_loops(CmdInfo& info) {
  lower_stable_.clear();
  higher_stable_.clear();
  env_.charge_cpu(static_cast<Time>(info.pred.size()) / kEntriesPerUs);
  for (CmdId p : info.pred) {
    CmdInfo* pi = cmds_.find(p);
    if (pi == nullptr || pi->status != Status::kStable) continue;
    if (pi->ts < info.ts) {
      lower_stable_.push_back(pi);
    } else {
      higher_stable_.push_back(p);
    }
  }
  // A stable predecessor with a *greater* timestamp is a loop artefact:
  // drop it from our set (paper Fig 3 lines 13-14).
  for (CmdId p : higher_stable_) info.pred.erase(p);
  // Symmetrically, remove us from the predecessor sets of stable commands
  // with lower timestamps (lines 11-12); that can unblock their delivery.
  // Delivery erases no record, so the pointers stay valid.
  for (CmdInfo* pi : lower_stable_) {
    if (pi->pred.erase(info.cmd.id)) try_deliver(*pi);
  }
}

void Caesar::try_deliver(CmdInfo& info) {
  if (info.delivered || info.status != Status::kStable) return;
  deliver_cascade(info.cmd.id);
}

void Caesar::deliver_cascade(CmdId id) {
  cascade_.assign(1, id);
  for (std::size_t next = 0; next < cascade_.size(); ++next) {
    const CmdId cur = cascade_[next];
    CmdInfo* info = cmds_.find(cur);
    if (info == nullptr || info->delivered ||
        info->status != Status::kStable) {
      continue;
    }
    // DELIVERABLE (paper Fig 3 lines 16-17): all predecessors decided.
    CmdId missing = kNoCmd;
    for (CmdId p : info->pred) {
      if (!is_delivered(p)) {
        missing = p;
        break;
      }
    }
    if (missing != kNoCmd) {
      delivery_waiters_[missing].push_back(cur);
      continue;
    }
    info->delivered = true;
    ++delivered_count_;
    deliver_(info->cmd);
    Coordinator* c = coord_.find(cur);
    if (c != nullptr && c->phase == Phase::kDone) {
      if (stats_ != nullptr) {
        stats_->deliver_phase.record(env_.now() - c->stable_sent);
      }
      coord_.erase(cur);
    }
    if (cfg_.gossip_interval_us > 0) gossip_outbox_.push_back(cur);
    if (std::vector<CmdId>* waiters = delivery_waiters_.find(cur)) {
      cascade_.insert(cascade_.end(), waiters->begin(), waiters->end());
      delivery_waiters_.erase(cur);
    }
  }
}

// --------------------------------------------------------------------------
// Recovery (paper Fig 5)
// --------------------------------------------------------------------------

void Caesar::on_node_suspected(NodeId peer) {
  rec_.note_suspected(peer);
  std::vector<CmdId> to_recover;
  for (const auto& [id, info] : cmds_) {
    if (info.status == Status::kStable || info.status == Status::kNone)
      continue;
    const Ballot b = info.joined;
    const NodeId leader = ballot_round(b) == 0 ? cmd_origin(id) : ballot_node(b);
    if (leader == peer) to_recover.push_back(id);
  }
  // One stagger draw per command in id order, so the draws do not depend on
  // the command table's layout.
  std::sort(to_recover.begin(), to_recover.end());
  for (CmdId id : to_recover) {
    const Time stagger = static_cast<Time>(env_.rng().uniform_int(
        static_cast<std::uint64_t>(cfg_.recovery_stagger_us) + 1));
    env_.set_timer(stagger, [this, id] { start_recovery(id); });
  }
}

void Caesar::on_node_recovered(NodeId peer) {
  // The peer is back with its state intact; it pulls what it missed through
  // its own catch-up, so nothing needs re-sending from here.
  rec_.note_recovered(peer);
}

void Caesar::start_recovery(CmdId id) {
  const CmdInfo* info = cmds_.find(id);
  if (info == nullptr || !info->in_history ||
      info->status == Status::kStable) {
    return;
  }
  if (recovery_.find(id) != nullptr) return;  // already recovering
  if (stats_ != nullptr) ++stats_->recoveries;
  const Ballot nb = make_ballot(ballot_round(info->joined) + 1, env_.id());
  RecoveryCoordinator& rc = recovery_[id];
  rc.ballot = nb;
  RecoveryMsg m{id, nb};
  net::Encoder e = env_.encoder();
  m.encode(e);
  // Broadcast includes self: our own reply (and ballot join) loops back.
  env_.broadcast(kRecovery, std::move(e), /*include_self=*/true);
  rc.retry_timer = env_.set_timer(cfg_.recovery_retry_us, [this, id] {
    // Lost a ballot duel or a replier crashed: retry with a higher ballot.
    recovery_.erase(id);
    start_recovery(id);
  });
}

void Caesar::handle_recovery(NodeId from, net::Decoder& d) {
  RecoveryMsg m = RecoveryMsg::decode(d);
  CmdInfo* found = cmds_.find(m.cmd);
  if (m.ballot <= (found == nullptr ? 0 : found->joined)) return;
  CmdInfo& info = found != nullptr ? *found : record(m.cmd);
  info.joined = m.ballot;
  // If we were coordinating this command under a lower ballot, stand down.
  Coordinator* c = coord_.find(m.cmd);
  if (c != nullptr && c->ballot < m.ballot && c->phase != Phase::kDone) {
    if (c->timeout != sim::kNoEvent) env_.cancel_timer(c->timeout);
    coord_.erase(m.cmd);
  }
  RecoveryReplyMsg r;
  r.cmd = m.cmd;
  r.ballot = m.ballot;
  if (info.status != Status::kNone) {
    r.has_info = true;
    r.payload = info.cmd;
    r.ts = info.ts;
    r.pred = info.pred;
    r.status = info.status;
    r.info_ballot = info.ballot;
    r.forced = info.forced;
  }
  net::Encoder e = env_.encoder();
  r.encode(e);
  env_.send(from, kRecoveryReply, std::move(e));
}

void Caesar::handle_recovery_reply(NodeId from, net::Decoder& d) {
  RecoveryReplyMsg m = RecoveryReplyMsg::decode(d);
  const CmdId id = m.cmd;
  RecoveryCoordinator* rc = recovery_.find(id);
  if (rc == nullptr || rc->ballot != m.ballot) return;
  const std::uint64_t bit = 1ull << from;
  if ((rc->responded & bit) != 0) return;
  rc->responded |= bit;
  rc->replies.push_back(std::move(m));
  if (static_cast<std::size_t>(std::popcount(rc->responded)) == cq_) {
    finish_recovery(id);
  }
}

void Caesar::finish_recovery(CmdId id) {
  RecoveryCoordinator* found = recovery_.find(id);
  assert(found != nullptr);
  RecoveryCoordinator rc = std::move(*found);
  recovery_.erase(id);
  if (rc.retry_timer != sim::kNoEvent) env_.cancel_timer(rc.retry_timer);
  const Ballot B = rc.ballot;

  // RecoverySet: replies with info, restricted to the maximum info-ballot.
  Ballot max_info_ballot = 0;
  bool any_info = false;
  for (const auto& r : rc.replies) {
    if (!r.has_info) continue;
    any_info = true;
    if (r.info_ballot > max_info_ballot) max_info_ballot = r.info_ballot;
  }
  std::vector<const RecoveryReplyMsg*> set;
  for (const auto& r : rc.replies) {
    if (r.has_info && r.info_ballot == max_info_ballot) set.push_back(&r);
  }

  if (!any_info) {
    // Nobody in the quorum has seen the command (case at Fig 5 lines 26-27);
    // we only recover commands we know, so propose it afresh.
    const CmdInfo* info = cmds_.find(id);
    if (info == nullptr || !info->in_history) return;
    fast_proposal_phase(info->cmd, B, clock_.next(), std::nullopt);
    return;
  }

  auto find_status = [&](Status s) -> const RecoveryReplyMsg* {
    for (const auto* r : set) {
      if (r->status == s) return r;
    }
    return nullptr;
  };

  if (const auto* r = find_status(Status::kStable)) {
    // (i) Someone saw it stable: re-broadcast the decision.
    Coordinator& c = coord_[id];
    c = Coordinator{};
    c.cmd = r->payload;
    c.ballot = B;
    c.ts = r->ts;
    c.pred = r->pred;
    c.propose_start = env_.now();
    c.propose_recorded = true;
    stable_phase(c);
    return;
  }
  if (const auto* r = find_status(Status::kAccepted)) {
    // (ii) An accepted tuple: finish via a retry phase with its attributes.
    Coordinator& c = coord_[id];
    c = Coordinator{};
    c.cmd = r->payload;
    c.ballot = B;
    c.ts = r->ts;
    c.max_ts = r->ts;
    c.pred = r->pred;
    c.propose_start = env_.now();
    retry_phase(c);
    return;
  }
  if (find_status(Status::kRejected) != nullptr) {
    // (iii) Rejected: it was never decided; propose with a new timestamp.
    fast_proposal_phase(set.front()->payload, B, clock_.next(), std::nullopt);
    return;
  }
  if (const auto* r = find_status(Status::kSlowPending)) {
    // (iv) Slow-pending: re-run the slow proposal phase.
    Coordinator& c = coord_[id];
    c = Coordinator{};
    c.cmd = r->payload;
    c.ballot = B;
    c.ts = r->ts;
    c.max_ts = r->ts;
    c.pred = r->pred;
    c.propose_start = env_.now();
    slow_proposal_phase(c);
    return;
  }

  // (v) Only fast-pending tuples, all with the same timestamp: the command
  // may have been fast-decided. Re-propose at that timestamp with a
  // whitelist constraining the predecessor sets (Fig 5 lines 16-25).
  const Timestamp T = set.front()->ts;
  IdSet pred_union;
  for (const auto* r : set) pred_union.merge(r->pred);

  std::optional<IdSet> whitelist;
  const RecoveryReplyMsg* forced = nullptr;
  for (const auto* r : set) {
    if (r->forced) forced = r;
  }
  if (forced != nullptr) {
    // A previous recovery already forced a whitelist; reuse its set.
    whitelist = forced->pred;
  } else if (set.size() >= cq_ / 2 + 1) {
    // c̄ must be a predecessor unless a majority-of-CQ subset of the
    // RecoverySet omits it — the ⌊CQ/2⌋+1 bound is the minimum intersection
    // of a classic and a fast quorum.
    IdSet wl;
    const std::size_t threshold = cq_ / 2 + 1;
    for (std::uint64_t cand : pred_union) {
      std::size_t without = 0;
      for (const auto* r : set) {
        if (!r->pred.contains(cand)) ++without;
      }
      if (without < threshold) wl.insert(cand);
    }
    whitelist = std::move(wl);
  } else {
    whitelist = std::nullopt;
  }
  fast_proposal_phase(set.front()->payload, B, T, std::move(whitelist));
}

// --------------------------------------------------------------------------
// Instance catch-up (rejoin state transfer)
// --------------------------------------------------------------------------
// There is no slot log to ship a suffix of: a rejoining node instead asks a
// live peer for the *stable instances* it missed. The request summarizes
// local knowledge as per-origin sequence bounds (instance columns are not
// dense — batching and resubmission leave permanent, harmless holes — so
// bounds only say "stream anything newer than this") plus an explicit list
// of instances known to exist but not stable here (in-flight entries whose
// STABLE died with the outage, predecessors referenced by blocked stables).
// Replay is make_stable per instance: idempotent, maintains the conflict
// index, and cascades normal dependency-ordered delivery, so catch-up
// traffic interleaves safely with live proposals.

void Caesar::catchup_tick() {
  env_.set_timer(cfg_.catchup_interval_us, [this] { catchup_tick(); });
  // Backlog evidence: a peer-delivered command not stable here (gossip
  // hint), a stable command blocked on an undelivered predecessor, or an
  // in-flight entry that never resolves. Any of these together with a
  // stalled delivered count means this node is missing decisions.
  bool backlog = !delivery_waiters_.empty();
  for (auto [id, info] : cmds_) {
    // Drop hints that resolved through normal traffic since the last tick.
    if (info.status == Status::kStable || info.delivered) {
      info.catchup_hint = false;
    }
    if (info.catchup_hint ||
        (info.status != Status::kNone && info.status != Status::kStable) ||
        (info.status == Status::kStable && !info.delivered)) {
      backlog = true;
    }
  }
  if (rec_.watchdog_tick(delivered_count_, backlog)) request_catchup();
}

void Caesar::request_catchup() {
  // Per-origin stable bound: responder streams instances at/above it. The
  // bound alone is not airtight — stability completes out of seq order, so a
  // command proposed before an outage (seq below the bound) can go stable
  // *during* it and leave a hole the bound skips forever. The per-origin
  // hash of the stable set below the bound closes that: on mismatch the
  // responder re-ships its whole below-bound column (idempotent replay, and
  // the news-free round policy repeats until the hashes agree).
  std::vector<std::uint64_t> bound(n_, 0);
  std::vector<std::uint64_t> hash(n_, 0);
  std::vector<CmdId> wanted;
  for (const auto& [id, info] : cmds_) {
    if (info.status == Status::kStable) {
      const NodeId o = cmd_origin(id);
      if (o < n_) {
        bound[o] = std::max(bound[o], cmd_seq(id) + 1);
        hash[o] = mix_id(hash[o], id);  // bound = max+1, so all stables count
      }
    } else if (info.status != Status::kNone || info.catchup_hint) {
      wanted.push_back(id);  // in flight here or hinted; may be stable elsewhere
    }
  }
  for (const auto& [missing, waiters] : delivery_waiters_) {
    if (status_of(missing) != Status::kStable) wanted.push_back(missing);
  }
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  if (wanted.size() > kCatchupMaxWanted) wanted.resize(kCatchupMaxWanted);
  rec_.request_catchup([&](NodeId peer) {
    if (stats_ != nullptr) ++stats_->catchup_requests;
    net::Encoder e = env_.encoder();
    e.put_varint(rec_.catchup_round());
    e.put_varint(n_);
    for (std::uint64_t b : bound) e.put_varint(b);
    for (std::uint64_t h : hash) e.put_u64(h);
    e.put_varint(wanted.size());
    for (CmdId w : wanted) e.put_varint(w);
    env_.send(peer, rt::kCatchupRequestType, std::move(e));
  });
}

void Caesar::on_catchup_request(NodeId from, net::Decoder& d) {
  const std::uint64_t round = d.get_varint();
  const std::uint64_t norig = d.get_varint();
  std::vector<std::uint64_t> bound(norig, 0);
  for (std::uint64_t i = 0; i < norig; ++i) bound[i] = d.get_varint();
  std::vector<std::uint64_t> their_hash(norig, 0);
  for (std::uint64_t i = 0; i < norig; ++i) their_hash[i] = d.get_u64();
  const std::uint64_t nwant = d.get_varint();
  std::vector<CmdId> ship;
  IdHashSet seen;
  for (std::uint64_t i = 0; i < nwant; ++i) {
    const CmdId w = d.get_varint();
    if (status_of(w) == Status::kStable && seen.insert(w)) ship.push_back(w);
  }
  // Local view of each requester-bounded stable set; a hash mismatch means
  // the requester has a hole below its own bound (or is ahead of us — then
  // the re-shipped column replays as no-ops and produces no news).
  std::vector<std::uint64_t> our_hash(norig, 0);
  for (const auto& [id, info] : cmds_) {
    if (info.status != Status::kStable) continue;
    const NodeId o = cmd_origin(id);
    if (o < norig && cmd_seq(id) < bound[o]) {
      our_hash[o] = mix_id(our_hash[o], id);
    }
  }
  for (const auto& [id, info] : cmds_) {
    if (info.status != Status::kStable) continue;
    const NodeId o = cmd_origin(id);
    if (o >= norig) continue;
    const bool above_bound = cmd_seq(id) >= bound[o];
    const bool hole_suspect = !above_bound && our_hash[o] != their_hash[o];
    if ((above_bound || hole_suspect) && seen.insert(id)) {
      ship.push_back(id);
    }
  }
  std::sort(ship.begin(), ship.end());  // deterministic frame contents
  // Chunked frames: varint count, count x TimestampedCmdMsg, u8 done. An
  // empty result still sends one done frame so the requester's
  // catchup_needed latch clears.
  std::size_t pos = 0;
  do {
    const std::size_t count =
        std::min(ship.size() - pos, rsm::kCatchupChunkEntries);
    net::Encoder e = env_.encoder();
    e.put_varint(round);
    e.put_varint(count);
    for (std::size_t k = 0; k < count; ++k) {
      const CmdInfo& info = *cmds_.find(ship[pos + k]);
      info.cmd.encode(e);
      e.put_u64(info.ballot);
      info.ts.encode(e);
      e.put_id_set(info.pred);
    }
    pos += count;
    e.put_u8(pos == ship.size() ? 1 : 0);
    env_.send(from, rt::kCatchupReplyType, std::move(e));
    if (stats_ != nullptr) ++stats_->catchup_chunks;
  } while (pos < ship.size());
}

void Caesar::on_catchup_reply(NodeId /*from*/, net::Decoder& d) {
  const std::uint64_t round = d.get_varint();
  const std::uint64_t count = d.get_varint();
  for (std::uint64_t i = 0; i < count; ++i) {
    TimestampedCmdMsg m = TimestampedCmdMsg::decode(d);
    clock_.observe(m.ts);
    const CmdId id = m.cmd.id;
    CmdInfo& info = record(id);
    if (m.ballot > info.joined) info.joined = m.ballot;
    if (info.status != Status::kStable) {
      rec_.note_catchup_news();
      if (stats_ != nullptr) ++stats_->catchup_commands;
    }
    // A coordinator of ours still in flight for this command is obsolete —
    // the decision is in; it must not push a dead ballot any further.
    Coordinator* c = coord_.find(id);
    if (c != nullptr && c->phase != Phase::kDone) {
      if (c->timeout != sim::kNoEvent) env_.cancel_timer(c->timeout);
      coord_.erase(id);
    }
    make_stable(info, m.cmd, m.ballot, m.ts, std::move(m.pred));
  }
  if (d.get_u8() != 0 && round == rec_.catchup_round()) {
    // Clears the latch only if the round in flight taught us nothing new;
    // otherwise the next tick asks the next peer on the rotor, until a full
    // round comes back news-free (see RecoveryDriver::finish_catchup_round).
    rec_.finish_catchup_round();
  }
}

// --------------------------------------------------------------------------
// Garbage collection via delivered-id gossip
// --------------------------------------------------------------------------

void Caesar::gossip_tick() {
  if (!gossip_outbox_.empty()) {
    GossipMsg m;
    m.delivered = IdSet::from_vector(gossip_outbox_);
    gossip_outbox_.clear();
    net::Encoder e = env_.encoder();
    m.encode(e);
    env_.broadcast(kGossip, std::move(e), /*include_self=*/false);
    for (std::uint64_t id : m.delivered) {
      CmdInfo& info = record(id);
      if (++info.acks == n_) maybe_prune(id, info);
    }
  }
  env_.set_timer(cfg_.gossip_interval_us, [this] { gossip_tick(); });
}

void Caesar::handle_gossip(NodeId /*from*/, net::Decoder& d) {
  GossipMsg m = GossipMsg::decode(d);
  for (std::uint64_t id : m.delivered) {
    CmdInfo& info = record(id);
    if (++info.acks == n_ && maybe_prune(id, info)) continue;
    // The sender delivered this command; if it is neither delivered nor
    // stable here, its STABLE never arrived (e.g. the broadcast died with a
    // crashing sender) and nothing local may ever reference it — flag it
    // for catch-up.
    if (!info.delivered && info.status != Status::kStable) {
      info.catchup_hint = true;
    }
  }
}

bool Caesar::maybe_prune(CmdId id, CmdInfo& info) {
  // Delivered on every node: no future proposal can need it as a
  // predecessor, and nobody will ask about it again (paper §V-B).
  if (!info.delivered || !info.in_history) return false;
  index_erase(info.cmd, info.ts);
  pruned_.insert(id);
  cmds_.erase(id);
  return true;
}

// --------------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------------

void Caesar::on_message(NodeId from, std::uint16_t type, net::Decoder& d) {
  switch (static_cast<MsgType>(type)) {
    case kFastPropose:
      handle_fast_propose(from, d);
      break;
    case kFastProposeReply:
      handle_propose_reply(from, d, /*slow=*/false);
      break;
    case kSlowPropose:
      handle_slow_propose(from, d);
      break;
    case kSlowProposeReply:
      handle_propose_reply(from, d, /*slow=*/true);
      break;
    case kRetry:
      handle_retry(from, d);
      break;
    case kRetryReply:
      handle_retry_reply(from, d);
      break;
    case kStable:
      handle_stable(d);
      break;
    case kRecovery:
      handle_recovery(from, d);
      break;
    case kRecoveryReply:
      handle_recovery_reply(from, d);
      break;
    case kGossip:
      handle_gossip(from, d);
      break;
    default:
      log::warn("caesar: unknown message type ", type);
  }
}

}  // namespace caesar::core
