// Clock-RSM (Du et al., DSN 2014) — extension beyond the paper's evaluated
// baselines; §II discusses it as the closest timestamp-based relative:
// "Although Clock-RSM is multi-leader like CAESAR, and it relies on quorums
//  to implement replication, it suffers from the same drawbacks of Mencius,
//  namely the need of a confirmation that no other command with an earlier
//  timestamp has been concurrently proposed."
//
// Every node stamps its commands with its (loosely synchronized) physical
// clock and replicates them to all. A command commits once a majority has
// acknowledged it, but it can only *deliver* after every node's clock has
// provably passed its timestamp (so no earlier-stamped command can still
// appear) and all earlier-stamped commands have been delivered. Idle nodes
// advance others via periodic clock announcements. Delivery latency is
// therefore governed by the farthest node — the weakness CAESAR's
// quorum-confirmed timestamps remove.
//
// Clock skew is simulated: each node's physical clock is the simulation
// clock plus a fixed per-node offset within ±max_skew_us.
//
// Fault handling (extension): a crashed node freezes its announced clock, so
// the whole cluster wedges below it. Dead-node revocation resolves that: a
// designated revoker collects every live peer's knowledge of the dead node's
// undelivered commands, commits the union cluster-wide, and the frozen clock
// is excluded from the delivery gate until the node provably returns.
// Rejoining nodes fetch the delivered suffix they missed from a live peer
// (chunked rsm::LogSnapshot frames) before resuming; their pre-crash
// proposals are re-driven at their original stamps when still resolvable and
// re-stamped fresh when the cluster has moved past them.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "rsm/log_snapshot.h"
#include "runtime/protocol.h"
#include "runtime/recovery_driver.h"
#include "stats/protocol_stats.h"

namespace caesar::clockrsm {

struct ClockRsmConfig {
  /// Simulated clock skew bound: each node gets a fixed offset in
  /// [-max_skew_us, +max_skew_us].
  Time max_skew_us = 2 * kMs;
};

class ClockRsm final : public rt::Protocol {
 public:
  ClockRsm(rt::Env& env, DeliverFn deliver, ClockRsmConfig cfg,
           stats::ProtocolStats* stats);

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
  std::string_view name() const override { return "ClockRSM"; }

  // --- introspection -------------------------------------------------------
  Time physical_now() const;
  Time known_clock(NodeId node) const { return clocks_[node]; }
  std::size_t undelivered() const { return log_.size(); }
  bool is_excluded(NodeId node) const { return excluded_[node]; }
  const rsm::CommandLog& delivered_log() const { return delivered_; }

 private:
  enum MsgType : std::uint16_t {
    kPropose = 1,  // leader -> all: command with its physical timestamp
    kAck = 2,      // acceptor -> leader: replicated
    kClock = 3,    // periodic clock announcement
    kCommit = 4,   // leader -> all: majority reached
    kRevokeQuery = 5,     // revoker -> all: report a dead node's commands
    kRevokeInfo = 6,      // peer -> revoker: undelivered entries it holds
    kRevokeDecision = 7,  // revoker -> all: commit these, exclude the clock
    kProposeDead = 8,     // peer -> stale proposer: stamp already passed
  };

  /// Timestamps order by (time, node) so stamps are cluster-unique.
  struct Stamp {
    Time t = 0;
    NodeId node = 0;
    auto operator<=>(const Stamp&) const = default;
  };

  /// Stamps pack into the 64-bit order index CommandLog/LogSnapshot use:
  /// time in the high bits, node in the low byte, preserving stamp order.
  static std::uint64_t pack(const Stamp& s) {
    return (static_cast<std::uint64_t>(s.t) << 8) |
           static_cast<std::uint64_t>(s.node);
  }
  static Stamp unpack(std::uint64_t packed) {
    return Stamp{static_cast<Time>(packed >> 8),
                 static_cast<NodeId>(packed & 0xFF)};
  }

  struct Entry {
    rsm::Command cmd;
    /// Distinct ackers as a bitmask: recovery re-broadcasts cause duplicate
    /// acks, which must not double-count toward the quorum.
    std::uint64_t ack_mask = 0;
    bool committed = false;  // majority-replicated
    Time proposed_at = 0;    // leader-side instrumentation (0 on acceptors)
  };

  void handle_propose(NodeId from, net::Decoder& d);
  void handle_ack(NodeId from, net::Decoder& d);
  void handle_commit(net::Decoder& d);
  void handle_propose_dead(net::Decoder& d);
  void handle_revoke_query(NodeId from, net::Decoder& d);
  void handle_revoke_info(NodeId from, net::Decoder& d);
  void handle_revoke_decision(net::Decoder& d);
  void note_clock(NodeId node, Time value);
  void deliver_entry(const Stamp& stamp, Entry entry);
  void try_deliver();
  void clock_tick();
  void catchup_tick();
  void request_catchup();
  NodeId designated_revoker() const;
  void maybe_start_revocations();
  void start_revocation(NodeId dead);
  void maybe_decide_revocation(NodeId dead);
  void apply_revoke_decision(NodeId dead, std::uint64_t ref_frontier,
                             std::map<std::uint64_t, rsm::Command> entries);
  void maybe_activate_exclusions();
  void collect_revoke_info(NodeId dead,
                           std::map<std::uint64_t, rsm::Command>& out) const;

  ClockRsmConfig cfg_;
  stats::ProtocolStats* stats_;
  /// Durable storage handle (null without a data dir). No index-reuse bound
  /// is needed here: stamps derive from the physical clock, and on_restore
  /// re-seeds last_stamp_ from the durable state, so a restarted node can
  /// never re-stamp below anything it offered before the crash.
  storage::Durability* dur_ = nullptr;
  std::size_t n_;
  std::size_t cq_;
  Time skew_;

  /// All known undelivered commands ordered by stamp.
  std::map<Stamp, Entry> log_;
  /// Latest clock value known per node (a node never stamps below this).
  std::vector<Time> clocks_;
  Time last_stamp_ = 0;  // local monotonicity guard under skew

  /// Delivered commands by packed stamp, retained to serve catch-up.
  rsm::CommandLog delivered_;
  /// Delivery frontier: packed stamp bound (exclusive) below which
  /// everything is resolved here.
  std::uint64_t frontier_ = 0;

  /// Revocation state. excluded_[q]: q's frozen clock is ignored by the
  /// delivery gate (cleared when q returns — unlike a slot protocol's
  /// revoked ranges, an exclusion is about the *clock*, and the resync
  /// fences make un-excluding safe once the peer is provably back).
  std::vector<bool> excluded_;
  /// Decisions received while this node's frontier trailed the revoker's:
  /// the exclusion activates only once catch-up reaches the recorded
  /// reference frontier, or this node could race past commands it never saw.
  std::unordered_map<NodeId, std::uint64_t> pending_exclusions_;

  /// Shared recovery machinery: failure-detector view, catch-up rotor and
  /// progress watchdog, designated-revoker rounds (runtime/recovery_driver.h).
  /// Round values map packed stamp -> command. The driver's revoked-range
  /// half is unused: exclusions above are Clock-RSM's verdict form.
  rt::RecoveryDriver rec_;
  /// Rejoin soundness fence: commands stamped below a peer's clock at the
  /// moment our link resumed may have been lost with the outage, so
  /// catch-up only counts as complete once the replayed frontier passes the
  /// first clock heard from every live peer after rejoining. Stamps above
  /// those clocks arrive live (FIFO), so normal delivery is sound there.
  std::vector<Time> rejoin_clock_fence_;
  std::uint64_t clock_fence_pending_ = 0;
  /// Receiver-side resync after a peer's FD retraction: its clock stays
  /// frozen here (new announcements buffer instead of feeding the delivery
  /// gate) until catch-up replays everything below its first post-retraction
  /// announcement — commands it delivered just before crashing may exist
  /// that this node has never seen, and an unfrozen clock would leap them.
  std::uint64_t resync_mask_ = 0;
  std::vector<Time> resync_target_;  // first post-retraction clock (fixed)
  std::vector<Time> resync_buffer_;  // newest buffered clock
  void maybe_complete_resyncs();
};

}  // namespace caesar::clockrsm
