// Multi-Paxos baseline (paper §II, evaluated in Figs 7 and 9).
//
// A single stable leader orders all commands: non-leader replicas forward
// client commands to the leader; the leader assigns consecutive log indices,
// runs phase-2 (ACCEPT/ACCEPTED) against a majority, then broadcasts COMMIT.
// Replicas deliver the log in index order. The leader site is configurable —
// the paper deploys it both close to a quorum (Ireland) and far from one
// (Mumbai).
//
// Leader election/recovery is deliberately out of scope: the paper's failure
// experiment (Fig 12) only exercises CAESAR and EPaxos. Follower outages are
// fully handled, though: a rejoining replica fetches the committed log
// suffix it missed from a live peer (chunked rsm::LogSnapshot frames) and
// replays it in index order, so its log has no gaps and its store converges
// with the cluster.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "rsm/log_snapshot.h"
#include "runtime/protocol.h"
#include "runtime/recovery_driver.h"
#include "stats/protocol_stats.h"

namespace caesar::mpaxos {

/// After a follower rejoin, how long to wait before jumping the delivery
/// watermark past any gap that neither state transfer nor the leader's
/// fd-retraction replay closed (must exceed the cluster's failure-detector
/// delay; validate_scenario checks it). With catch-up in place this is a
/// backstop that should never fire in practice.
inline constexpr Time kResyncGraceUs = 2 * kSec;

struct MultiPaxosConfig {
  NodeId leader = 0;
};

class MultiPaxos final : public rt::Protocol {
 public:
  MultiPaxos(rt::Env& env, DeliverFn deliver, MultiPaxosConfig cfg,
             stats::ProtocolStats* stats);

  void start() override;
  void propose(rsm::Command cmd) override;
  void on_message(NodeId from, std::uint16_t type, net::Decoder& d) override;
  void on_recover() override;
  void on_node_suspected(NodeId peer) override;
  void on_node_recovered(NodeId peer) override;
  void on_catchup_request(NodeId from, net::Decoder& d) override;
  void on_catchup_reply(NodeId from, net::Decoder& d) override;
  void on_catchup_snapshot(NodeId from, net::Decoder& d) override;
  void on_restore(storage::RecoveredState& st) override;
  std::string_view name() const override { return "MultiPaxos"; }

  bool is_leader() const { return env_.id() == cfg_.leader; }

  // --- introspection -------------------------------------------------------
  const rsm::CommandLog& delivered_log() const { return log_; }

 private:
  enum MsgType : std::uint16_t {
    kForward = 1,   // non-leader -> leader: client command
    kAccept = 2,    // leader -> all: log entry
    kAccepted = 3,  // acceptor -> leader: ack
    kCommit = 4,    // leader -> all: entry is chosen
  };

  void lead(rsm::Command cmd);
  void handle_accept(NodeId from, net::Decoder& d);
  void handle_accepted(NodeId from, net::Decoder& d);
  void handle_commit(net::Decoder& d);
  void try_deliver();
  void rebroadcast_pending();
  /// Re-sends the recent commit window, to one peer or to everyone.
  void replay_recent_commits(NodeId peer);
  static constexpr NodeId kAllPeers = kNoNode;
  void catchup_tick();
  void request_catchup();

  MultiPaxosConfig cfg_;
  stats::ProtocolStats* stats_;
  /// Durable storage handle (null without a data dir). Followers persist
  /// only deliveries (acceptors discard the command; the COMMIT re-carries
  /// it); the leader additionally persists its in-flight accepts and an
  /// index-reuse bound.
  storage::Durability* dur_ = nullptr;
  /// Indices covered per record_bound flush (see Mencius::kBoundLease).
  static constexpr std::uint64_t kBoundLease = 64;
  std::uint64_t durable_bound_ = 0;

  // Leader bookkeeping: distinct ackers per in-flight index (a bitmask so
  // duplicate ACCEPTED replies, possible after recovery re-broadcasts,
  // never double-count toward the quorum).
  struct Pending {
    rsm::Command cmd;
    std::uint64_t ack_mask = 0;
  };
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_index_ = 0;
  /// Commands this leader has led, kept while they are pending or inside
  /// the recent-commit window: dedups re-forwards after a leader recovery.
  std::unordered_set<CmdId> led_ids_;

  /// Follower bookkeeping: commands forwarded to the leader and not yet
  /// delivered. Re-forwarded when the leader rejoins after a crash (the
  /// originals died in its queue; see on_node_recovered).
  std::unordered_map<CmdId, rsm::Command> forwarded_;

  // Learner state (all nodes): chosen log and delivery watermark.
  std::map<std::uint64_t, rsm::Command> committed_;
  std::uint64_t deliver_next_ = 0;
  /// Delivered log by index, retained to serve catch-up requests.
  rsm::CommandLog log_;
  /// Set by on_recover: an outage gap is suspected until the catch-up reply
  /// (or the grace-period backstop) resolves it.
  bool resync_ = false;
  /// Shared recovery machinery: failure-detector view, catch-up rotor and
  /// progress watchdog (runtime/recovery_driver.h). The revocation half is
  /// unused — leader election is out of scope here.
  rt::RecoveryDriver rec_;

  /// Recent own commits (leader only), re-announced by on_recover: a COMMIT
  /// in flight when the leader crashed was dropped at every learner, which
  /// would leave a permanent gap in their logs. Bounded: only COMMITs from
  /// within one max-RTT of the crash can have been lost.
  static constexpr std::size_t kRecentCommits = 8192;
  std::deque<std::pair<std::uint64_t, rsm::Command>> recent_commits_;
};

}  // namespace caesar::mpaxos
