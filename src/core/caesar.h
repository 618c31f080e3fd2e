// CAESAR: multi-leader Generalized Consensus via timestamp confirmation
// (Arun et al., DSN 2017). This is the paper's primary contribution.
//
// Every node can lead commands. A leader assigns its command a logical
// timestamp and asks a fast quorum (⌈3N/4⌉) to confirm it. Acceptors confirm
// unless a conflicting command with a *greater* timestamp has already been
// accepted/stabilized without listing this command as a predecessor — and,
// crucially, an acceptor that cannot yet tell (the greater-timestamped rival
// is still in flight) *waits* instead of rejecting (§IV-A). Quorum replies
// may carry different predecessor sets without spoiling the fast path; the
// leader simply unions them (§IV, the key difference from EPaxos).
//
// Decision paths implemented here (paper Fig 4):
//   fast:             FastPropose --FQ all-OK--> Stable          (2 delays)
//   slow via retry:   FastPropose --any NACK--> Retry -> Stable  (4 delays)
//   slow via timeout: FastPropose --timeout,CQ OK--> SlowPropose
//                        --all OK--> Stable | --NACK--> Retry -> Stable
//
// Failure handling (paper Fig 5): ballot-protected recovery reconstructs the
// fate of a crashed leader's commands from a classic quorum, including the
// whitelist reconstruction needed to preserve a possibly-taken fast decision.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/caesar_messages.h"
#include "core/id_table.h"
#include "core/key_index.h"
#include "core/timestamp.h"
#include "runtime/protocol.h"
#include "runtime/recovery_driver.h"
#include "stats/protocol_stats.h"

namespace caesar::core {

struct CaesarConfig {
  /// Ablation knob: when false, a proposal that would wait NACKs immediately
  /// (the behaviour of EPaxos-style protocols the paper §IV-A argues against).
  bool wait_enabled = true;
  /// 0 = use ⌈3N/4⌉ (paper §III); tests/ablations may override.
  std::size_t fast_quorum_override = 0;
  /// How long the leader waits for a fast quorum before settling for a
  /// classic quorum + slow proposal phase (paper §V-D).
  Time fast_timeout_us = 400 * kMs;
  /// Random stagger before starting recovery of a suspected leader's command
  /// (avoids duelling recoveries).
  Time recovery_stagger_us = 50 * kMs;
  /// Re-run a recovery that made no progress after this long.
  Time recovery_retry_us = 2 * kSec;
  /// Delivered-id gossip period driving garbage collection; 0 disables GC
  /// (tests that inspect full histories disable it).
  Time gossip_interval_us = 0;
  /// Progress-watchdog period: a stalled delivered count with undelivered
  /// backlog (blocked stables, in-flight entries that never resolve)
  /// triggers instance catch-up from a rotating live peer. 0 disables the
  /// watchdog (the default).
  Time catchup_interval_us = 0;
};

class Caesar final : public rt::Protocol {
 public:
  Caesar(rt::Env& env, DeliverFn deliver, CaesarConfig cfg,
         stats::ProtocolStats* stats);

  void start() override;
  void on_recover() override;
  void propose(rsm::Command cmd) override;
  void on_message(NodeId from, std::uint16_t type, net::Decoder& d) override;
  void on_node_suspected(NodeId peer) override;
  void on_node_recovered(NodeId peer) override;
  void on_catchup_request(NodeId from, net::Decoder& d) override;
  void on_catchup_reply(NodeId from, net::Decoder& d) override;
  std::string_view name() const override { return "Caesar"; }

  // --- introspection (tests / benches) ------------------------------------
  std::size_t fast_quorum() const { return fq_; }
  std::size_t classic_quorum() const { return cq_; }
  /// Status of a command in this node's history (kNone if unknown).
  Status status_of(CmdId id) const;
  /// Current predecessor set of a command in the history.
  IdSet pred_of(CmdId id) const;
  Timestamp ts_of(CmdId id) const;
  /// Commands in the history H (pruned ones excluded).
  std::size_t history_size() const;
  /// Delivered here, whether or not GC has pruned the command since.
  bool is_delivered(CmdId id) const;
  std::size_t parked_count() const { return parked_.size(); }
  /// Commands flagged for catch-up by peers' delivered-id gossip.
  std::size_t catchup_hint_count() const;

 private:
  // ---- per-command record --------------------------------------------------
  /// Everything this node keeps about one command until GC prunes it: the
  /// history tuple of paper §V-A, the ballot joined for it, its delivery and
  /// the GC/catch-up bookkeeping. One IdTable probe finds all of it.
  struct CmdInfo {
    rsm::Command cmd;
    Timestamp ts;
    IdSet pred;
    Status status = Status::kNone;
    Ballot ballot = 0;   // ballot under which this tuple was written
    bool forced = false; // predecessors forced by a recovery whitelist
    /// The payload is known, i.e. H holds the command (maybe still kNone).
    /// A record can exist without it, holding only a joined ballot, gossip
    /// acks or a catch-up hint.
    bool in_history = false;
    bool delivered = false;
    /// A peer delivered the command while it was not stable here: proof of a
    /// decision this node missed (e.g. a STABLE broadcast cut down mid-flight
    /// by the sender's crash). Counts as watchdog backlog and rides the
    /// catch-up wanted list until the command is stable here.
    bool catchup_hint = false;
    std::uint32_t acks = 0;  // delivered-id gossip acks, own included
    Ballot joined = 0;       // highest ballot this node joined for it
  };

  // ---- leader-side coordination --------------------------------------------
  enum class Phase : std::uint8_t { kFastProposal, kSlowProposal, kRetry, kDone };
  struct Coordinator {
    rsm::Command cmd;
    Ballot ballot = 0;
    Timestamp ts;
    IdSet pred;             // accumulated union of reply predecessor sets
    Phase phase = Phase::kFastProposal;
    std::uint64_t responded = 0;  // one bit per replier (at most 64 sites)
    std::uint32_t oks = 0;
    std::uint32_t nacks = 0;
    Timestamp max_ts;       // max timestamp over all replies (retry input)
    sim::EventId timeout = sim::kNoEvent;
    bool timeout_fired = false;
    bool fast = false;  // decided on the fast path
    // Instrumentation (paper Fig 11a).
    Time propose_start = 0;
    Time retry_start = 0;
    Time stable_sent = 0;
    bool propose_recorded = false;
  };

  // ---- recovery-side coordination ------------------------------------------
  struct RecoveryCoordinator {
    Ballot ballot = 0;
    std::vector<RecoveryReplyMsg> replies;
    std::uint64_t responded = 0;  // one bit per replier
    sim::EventId retry_timer = sim::kNoEvent;
  };

  /// A proposal parked by the wait condition (§IV-A).
  struct Parked {
    CmdId cmd = kNoCmd;
    NodeId leader = kNoNode;
    Ballot ballot = 0;
    Timestamp ts;
    bool slow = false;  // true when parked by a SlowPropose
    IdSet msg_pred;     // pred carried by a SlowPropose
    Time parked_at = 0;
    /// Bumped on every (re-)registration in the waiter index; wake entries
    /// carrying an older epoch are stale and skipped.
    std::uint64_t wait_epoch = 0;
  };

  // ---- message handlers -----------------------------------------------------
  void handle_fast_propose(NodeId from, net::Decoder& d);
  void handle_slow_propose(NodeId from, net::Decoder& d);
  void handle_propose_reply(NodeId from, net::Decoder& d, bool slow);
  void handle_retry(NodeId from, net::Decoder& d);
  void handle_retry_reply(NodeId from, net::Decoder& d);
  void handle_stable(net::Decoder& d);
  void handle_recovery(NodeId from, net::Decoder& d);
  void handle_recovery_reply(NodeId from, net::Decoder& d);
  void handle_gossip(NodeId from, net::Decoder& d);

  // ---- leader phases (paper Fig 4, left column) ------------------------------
  void fast_proposal_phase(rsm::Command cmd, Ballot ballot, Timestamp ts,
                           std::optional<IdSet> whitelist);
  void slow_proposal_phase(Coordinator& c);
  void retry_phase(Coordinator& c);
  void stable_phase(Coordinator& c);
  void evaluate_fast_replies(Coordinator& c);
  void on_fast_timeout(CmdId id);

  // ---- acceptor helpers -------------------------------------------------------
  /// COMPUTEPREDECESSORS (paper Fig 3 lines 1-3).
  IdSet compute_predecessors(const rsm::Command& cmd, const Timestamp& ts,
                             const std::optional<IdSet>& whitelist);
  /// All conflicting commands with timestamp < ts (TLA CmdsWithLowerT).
  IdSet cmds_with_lower_ts(const rsm::Command& cmd, const Timestamp& ts);
  /// One pass over the conflict index: does anything block (pending rival
  /// with greater ts, us not among its predecessors) or force a NACK
  /// (accepted/stable such rival)? Implements WAIT of paper Fig 3.
  /// With `blockers`, every blocking rival is collected (no early exit) so a
  /// parked proposal can register for exactly the wakeups that matter to it.
  struct ConflictScan {
    bool blocked = false;
    bool reject = false;
  };
  ConflictScan scan_conflicts(const rsm::Command& cmd, const Timestamp& ts,
                              std::vector<CmdId>* blockers = nullptr);
  /// Finishes a proposal for `info` that is (no longer) blocked: replies OK
  /// or NACK.
  void answer_proposal(CmdInfo& info, const Parked& p);
  /// Parks `p` and registers it in the waiter index under its blockers
  /// (deduplicated in place).
  void park_proposal(Parked p, std::vector<CmdId>& blockers);
  /// Registers `ticket` under every blocker at p's current wait epoch; the
  /// one registration path park_proposal and wake_dependents share.
  void register_waiters(std::uint64_t ticket, const Parked& p,
                        std::vector<CmdId>& blockers);
  /// Re-evaluates exactly the proposals waiting on `id` after its status
  /// advanced to accepted/stable; replaces the seed's full parked_ rescan.
  void wake_dependents(CmdId id);
  /// Removes one parked entry, optionally recording its wait time (pruned
  /// commands release silently, like the seed's rescan).
  void release_parked(std::uint64_t ticket, const Parked& p,
                      bool record_wait = true);

  // ---- history / index maintenance ------------------------------------------
  /// The record of `id`, created empty when absent. A record re-created for
  /// a pruned id starts out delivered.
  CmdInfo& record(CmdId id);
  /// The ballot check the phase-2, retry and stable handlers start with:
  /// nullptr when a higher ballot was joined for `id`, else its record with
  /// `ballot` joined.
  CmdInfo* join_ballot(CmdId id, Ballot ballot);
  /// Enters `cmd` into H through its record.
  CmdInfo& upsert(CmdInfo& info, const rsm::Command& cmd);
  /// H.UPDATE from the paper: replaces the tuple and maintains the per-key
  /// timestamp index.
  void update_entry(CmdInfo& info, const Timestamp& ts, IdSet pred,
                    Status status, Ballot ballot, bool forced);
  void index_erase(const rsm::Command& cmd, const Timestamp& ts);

  // ---- stable / delivery ------------------------------------------------------
  void make_stable(CmdInfo& info, const rsm::Command& cmd, Ballot ballot,
                   const Timestamp& ts, IdSet pred);
  void break_loops(CmdInfo& info);
  void try_deliver(CmdInfo& info);
  void deliver_cascade(CmdId id);

  // ---- recovery ---------------------------------------------------------------
  void start_recovery(CmdId id);
  void finish_recovery(CmdId id);

  // ---- instance catch-up ------------------------------------------------------
  // CAESAR has no totally ordered log, so rejoin state transfer works in
  // *instance space*: the requester summarizes its stable knowledge as
  // per-origin sequence bounds plus an explicit list of instances it knows
  // exist but has not seen stable (in-flight entries, missing predecessors),
  // and the responder streams matching stable instances in chunks. Replay
  // goes through make_stable, i.e. the normal dependency-driven delivery.
  void catchup_tick();
  void request_catchup();

  // ---- gc ----------------------------------------------------------------------
  void gossip_tick();
  /// Prunes a command delivered on every node; true when it did.
  bool maybe_prune(CmdId id, CmdInfo& info);

  CaesarConfig cfg_;
  stats::ProtocolStats* stats_;
  std::size_t n_;
  std::size_t fq_;
  std::size_t cq_;
  TimestampClock clock_;

  /// One record per command this node holds state for (see CmdInfo).
  IdTable<CmdInfo> cmds_;
  /// Ids GC pruned: delivered on every node, record gone. A late STABLE may
  /// still name one as a predecessor, and it must read as delivered.
  IdHashSet pruned_;
  std::uint64_t delivered_count_ = 0;
  /// Per-key conflict index ordered by timestamp — the paper's red-black
  /// tree of conflicting commands (§VI), flattened to sorted vectors.
  KeyIndex key_index_;

  IdTable<Coordinator> coord_;
  IdTable<RecoveryCoordinator> recovery_;

  // --- wait-condition waiter index ---
  // Parked proposals keyed by a monotone ticket; per-blocker wakeup lists
  // mirror delivery_waiters_: a status change re-evaluates only the
  // proposals it can actually unblock, not the whole parked set.
  std::uint64_t next_park_ticket_ = 1;
  IdTable<Parked> parked_;
  /// blocker cmd -> (ticket, wait_epoch) of proposals waiting on it. Entries
  /// whose epoch no longer matches the parked entry are stale (the proposal
  /// re-registered or was released) and are skipped on wake.
  IdTable<std::vector<std::pair<std::uint64_t, std::uint64_t>>> park_waiters_;
  /// cmd -> tickets parked for that cmd itself (released as moot when the
  /// cmd's own status advances past the proposal stage).
  IdTable<std::vector<std::uint64_t>> parked_tickets_;

  /// stable-but-blocked commands waiting for `key` to be delivered.
  IdTable<std::vector<CmdId>> delivery_waiters_;
  /// Work lists of deliver_cascade and break_loops, kept across calls so a
  /// STABLE allocates nothing here. Neither call re-enters itself: delivery
  /// hands commands to the runtime, which queues any new proposal behind
  /// the CPU.
  std::vector<CmdId> cascade_;
  std::vector<CmdInfo*> lower_stable_;
  std::vector<CmdId> higher_stable_;

  // --- gc state ---
  std::vector<CmdId> gossip_outbox_;

  // --- catch-up state ---
  /// Shared recovery machinery: failure-detector view, catch-up rotor and
  /// progress watchdog (runtime/recovery_driver.h). Revocation rounds are
  /// unused: CAESAR's ballot-protected per-command recovery (paper Fig 5)
  /// already resolves a dead leader's in-flight commands.
  rt::RecoveryDriver rec_;
  /// Cap on explicitly requested missing instances per catch-up request;
  /// the watchdog keeps re-requesting until the backlog drains, so the cap
  /// only bounds one round, not total transfer.
  static constexpr std::size_t kCatchupMaxWanted = 512;
};

}  // namespace caesar::core
