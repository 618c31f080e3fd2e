// Mencius baseline (Mao et al., OSDI 2008) — paper §II, evaluated in Figs 7/9.
//
// Consensus slots are pre-assigned round-robin: slot s belongs to node
// s mod N. A node proposes only in its own slots (coordinated Paxos: its
// ACCEPT is chosen once a majority acks), and skips its unused earlier slots
// whenever it observes a higher slot in use. Delivery is strictly in slot
// order, so a replica can deliver slot s only once every lower slot is either
// committed or known skipped — which requires hearing from *every* node.
// That is Mencius' structural weakness the paper highlights: it cannot use
// quorums for delivery and performs as the slowest/farthest node.
//
// Floors ("all my own slots below f are used-or-skipped") piggyback on every
// message and on idle heartbeats; COMMIT carries the coordinator's full floor
// vector so learners converge fast.
//
// Beyond the paper's fault-free evaluation, this implementation closes the
// two crash-era gaps (extension; in the spirit of Fast Mencius):
//   * rejoin state transfer — a node returning from an outage fetches the
//     committed slot suffix it missed from a live peer (chunked
//     rsm::LogSnapshot frames over the runtime's catch-up framing) and
//     replays it through normal delivery, so its log and store converge
//     with the cluster instead of silently treating missed slots as skipped;
//   * dead-node slot revocation — once the failure detector flags a node,
//     a designated revoker gathers every live peer's knowledge of the dead
//     node's in-flight slots, commits any value some peer holds (safe:
//     slots are single-proposer, so only one value was ever proposable) and
//     resolves the rest as skipped, so delivery no longer wedges behind an
//     owner that never returns. Each verdict covers an explicit bounded
//     slot range and is applied permanently by a quorum (see
//     runtime/recovery_driver.h for why permanence is what makes it safe
//     against the owner rejoining mid-retraction).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rsm/log_snapshot.h"
#include "runtime/protocol.h"
#include "runtime/recovery_driver.h"
#include "stats/protocol_stats.h"

namespace caesar::mencius {

/// After a rejoin, how long to wait for owners' re-ACCEPTs / COMMIT replays
/// before sweeping unconfirmed pre-crash accept entries (must exceed the
/// cluster's failure-detector retraction delay; validate_scenario checks it).
inline constexpr Time kResyncGraceUs = 2 * kSec;

class Mencius final : public rt::Protocol {
 public:
  Mencius(rt::Env& env, DeliverFn deliver, stats::ProtocolStats* stats);

  void start() override;
  void on_recover() override;
  void on_node_suspected(NodeId peer) override;
  void on_node_recovered(NodeId peer) override;
  void propose(rsm::Command cmd) override;
  void on_message(NodeId from, std::uint16_t type, net::Decoder& d) override;
  void on_catchup_request(NodeId from, net::Decoder& d) override;
  void on_catchup_reply(NodeId from, net::Decoder& d) override;
  void on_catchup_snapshot(NodeId from, net::Decoder& d) override;
  void on_restore(storage::RecoveredState& st) override;
  std::string_view name() const override { return "Mencius"; }

  // --- introspection -------------------------------------------------------
  std::uint64_t next_own_slot() const { return next_own_slot_; }
  /// A revocation verdict stands against `node` (some slot range of its was
  /// resolved commit-or-skip by a designated-revoker round).
  bool is_revoked(NodeId node) const {
    return !rec_.revoked_ranges(node).empty();
  }
  const rsm::CommandLog& delivered_log() const { return log_; }

 private:
  enum MsgType : std::uint16_t {
    kAccept = 1,     // coordinator -> all: value for its own slot (+floor)
    kAccepted = 2,   // acceptor -> coordinator: ack (+floor)
    kCommit = 3,     // coordinator -> all: slot chosen (+floor)
    kFloor = 4,      // heartbeat: floor announcement
    kRevokeQuery = 5,     // revoker -> all: report a dead node's slots
    kRevokeInfo = 6,      // peer -> revoker: known values for those slots
    kRevokeDecision = 7,  // revoker -> all: commit these, skip the rest
    kSlotRevoked = 8,     // acceptor -> stale proposer: slot already resolved
    kResyncRequest = 9,   // retracted receiver -> rejoined peer: barrage again
    kFloorSync = 10,      // after a barrage: floor fully covered, lift fence
  };

  void handle_accept(NodeId from, net::Decoder& d);
  void handle_accepted(NodeId from, net::Decoder& d);
  void handle_commit(NodeId from, net::Decoder& d);
  void handle_revoke_query(NodeId from, net::Decoder& d);
  void handle_revoke_info(NodeId from, net::Decoder& d);
  void handle_revoke_decision(net::Decoder& d);
  void handle_slot_revoked(net::Decoder& d);
  void handle_resync_request(NodeId from);
  void handle_floor_sync(NodeId from, net::Decoder& d);
  /// Announces that the preceding resend_history covered every used slot
  /// in [covered_from, floor) (FIFO), letting receivers lower their fences
  /// to covered_from.
  void send_floor_sync(NodeId peer, std::uint64_t covered_from);
  void skip_own_slots_below(std::uint64_t slot);
  /// Recovery barrage: re-offers still-pending slots and re-announces the
  /// recent commit window, in ascending slot order with original-send
  /// floors (see the definition for why both matter). Returns the lowest
  /// slot soundly covered: 0 when the ring has never evicted (full history
  /// re-sent), else the oldest re-sent slot — the floor-sync fence must not
  /// lift below it.
  std::uint64_t resend_history(NodeId peer);
  static constexpr NodeId kAllPeers = kNoNode;
  void note_floor(NodeId node, std::uint64_t floor);
  void deliver_slot(std::uint64_t slot, rsm::Command cmd);
  void try_deliver();
  void heartbeat();
  void catchup_tick();
  void request_catchup();
  /// Collects this node's knowledge of `dead`-owned slots >= `from`
  /// (committed, delivered or accepted values) into `out`.
  void collect_revoke_info(NodeId dead, std::uint64_t from,
                           std::map<std::uint64_t, rsm::Command>& out) const;
  NodeId designated_revoker() const;
  void maybe_start_revocations();
  void start_revocation(NodeId dead);
  void maybe_decide_revocation(NodeId dead);
  void apply_revoke_decision(NodeId dead, std::uint64_t from,
                             std::uint64_t upto,
                             std::map<std::uint64_t, rsm::Command> commits,
                             bool authoritative);
  void drain_parked();
  NodeId owner_of(std::uint64_t slot) const {
    return static_cast<NodeId>(slot % n_);
  }

  stats::ProtocolStats* stats_;
  /// Durable storage handle (null without a data dir). All record_* calls
  /// are gated on it, so durability-off runs take the exact same paths.
  storage::Durability* dur_ = nullptr;
  /// Own slots covered per record_bound flush: proposing inside the durable
  /// lease skips the forced fsync, so only every kBoundLease-th own proposal
  /// pays it.
  static constexpr std::uint64_t kBoundLease = 64;
  /// Exclusive fence below which this node promised (durably) never to
  /// originate a new proposal — a restarted node must not reuse a slot it
  /// may already have offered before the crash.
  std::uint64_t durable_bound_ = 0;
  std::size_t n_;
  std::size_t cq_;

  std::uint64_t next_own_slot_;  // smallest own slot not yet used/skipped
  /// floor_[q]: q has used-or-skipped all its own slots < floor_[q].
  /// CRITICAL: floors are only ever learned from q itself (its ACCEPTs,
  /// ACCEPTED replies, COMMITs and heartbeats). Per-link FIFO then
  /// guarantees that when floor_[q] passes slot s, q's ACCEPT for s — if s
  /// was used rather than skipped — has already been seen, so "not in
  /// accepted_slots_ and below the floor" is a sound skip test... as long
  /// as the link history has no hole. Across an outage it does, which is
  /// what floor_fence_ guards (see below).
  std::vector<std::uint64_t> floor_;
  /// Rejoin soundness fence for the floor rule: after a crash, ACCEPTs that
  /// were in flight (or sent) during the outage are gone, so a floor
  /// learned post-rejoin must not be used to skip slots below the *first*
  /// floor heard from that owner after rejoining — those slots' ACCEPTs
  /// may have fallen into the hole, and only catch-up (skip_below_) or a
  /// commit can resolve them. Slots at/above the first-heard floor are
  /// proposed after the link resumed, so FIFO soundness holds again.
  std::vector<std::uint64_t> floor_fence_;
  /// Owners whose post-rejoin fence is still unassigned (fence = +inf).
  std::uint64_t fence_pending_mask_ = 0;

  /// Slots known proposed but not yet committed: when the ACCEPT was last
  /// seen (recovery sweeps entries not re-confirmed after a rejoin) and the
  /// proposed value, retained so a revocation round can commit a dead
  /// owner's in-flight value even though its COMMIT never made it out.
  struct Accepted {
    Time seen = 0;
    rsm::Command cmd;
  };
  std::unordered_map<std::uint64_t, Accepted> accepted_slots_;

  /// Distinct ackers as a bitmask: duplicate ACCEPTED replies (possible
  /// after recovery re-broadcasts) must not double-count toward the quorum.
  struct Pending {
    rsm::Command cmd;
    std::uint64_t ack_mask = 0;
    Time start = 0;
  };
  std::unordered_map<std::uint64_t, Pending> pending_;  // coordinator side
  std::map<std::uint64_t, rsm::Command> committed_;
  std::uint64_t next_deliver_ = 0;

  /// Delivered commands by slot, retained to serve catch-up requests and
  /// revocation queries (see rsm/log_snapshot.h).
  rsm::CommandLog log_;
  /// Catch-up resolution watermark: a peer's reply proved every slot below
  /// this is delivered-or-skipped, so slots under it that are not in
  /// committed_ are skipped without waiting on their owner.
  std::uint64_t skip_below_ = 0;

  /// Shared recovery machinery: failure-detector view, catch-up rotor and
  /// progress watchdog, designated-revoker rounds, and the permanently
  /// revoked slot ranges those rounds decide (runtime/recovery_driver.h).
  rt::RecoveryDriver rec_;
  /// Slots-per-owner granularity of one revocation verdict: a round resolves
  /// the dead owner's slots up to kRevokeSlotsPerRound own-slots past the
  /// highest slot any reporter knew of, so the bounded range gives the
  /// cluster runway before the revoker must open a fresh round (try_deliver
  /// opens it once half the grant is consumed, so delivery throughput during
  /// an outage is gated on round latency, not on the watchdog period).
  static constexpr std::uint64_t kRevokeSlotsPerRound = 1024;
  /// Own commands bounced off already-revoked slots, re-proposed at fresh
  /// slots by the watchdog (throttled so a not-yet-retracted rejoiner does
  /// not busy-loop against peers still rejecting it).
  std::vector<rsm::Command> parked_;

  /// Recent own commits, kept so a recovering node can re-announce COMMITs
  /// that were still in flight when it crashed (peers wedge on an
  /// accepted-but-uncommitted slot otherwise). Only COMMITs broadcast within
  /// one max-RTT of the crash can have been lost, so the ring must cover
  /// ~RTT x per-node commit rate; 8192 covers ~300ms at ~25k commits/s per
  /// node, beyond the saturation throughput of the bench workloads.
  static constexpr std::size_t kRecentCommits = 8192;
  std::deque<std::pair<std::uint64_t, rsm::Command>> recent_commits_;
};

}  // namespace caesar::mencius
