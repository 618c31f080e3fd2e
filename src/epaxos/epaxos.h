// EPaxos baseline (Moraru et al., SOSP 2013) — the paper's closest
// competitor (§II, §VI).
//
// Multi-leader, dependency-tracking Generalized Consensus:
//   * every replica leads its own instances (L, slot);
//   * PreAccept collects interference attributes (seq, deps) from a fast
//     quorum of F + ⌊(F+1)/2⌋ nodes (3 of 5 — one fewer than CAESAR's 4);
//   * the fast path commits in two delays ONLY if all quorum replies left
//     the attributes unchanged — the exact weakness CAESAR removes: any
//     disagreement on deps forces the Paxos-Accept slow path;
//   * execution linearizes the dependency graph: strongly connected
//     components (Tarjan) in dependency order, seq order within a component.
//     This graph analysis is the delivery cost the paper measures against
//     CAESAR's implicit predecessor sets (Figs 8, 9).
//
// Recovery is a simplified explicit-prepare sufficient for the paper's
// single-crash experiment (see DESIGN.md for the documented simplification).
//
// Beyond the paper's fault-free evaluation, a rejoining replica runs
// instance-space catch-up (extension): leader columns are dense (slots are
// assigned from a per-leader counter), so the request summarizes local
// knowledge as one committed-prefix frontier per leader and a live peer
// streams every committed instance at/above each frontier in chunked frames.
// Replay is apply_commit per instance — idempotent, maintains the
// interference index and wakes blocked execution — so catch-up traffic
// interleaves safely with live proposals. The rotor, progress watchdog and
// failure-detector view live in the shared rt::RecoveryDriver.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runtime/protocol.h"
#include "runtime/recovery_driver.h"
#include "stats/protocol_stats.h"

namespace caesar::epaxos {

/// Instance identifier: (leader << 48) | slot, packed like CmdId.
using InstanceId = std::uint64_t;
constexpr InstanceId make_iid(NodeId leader, std::uint64_t slot) {
  return make_cmd_id(leader, slot);
}
constexpr NodeId iid_leader(InstanceId iid) { return cmd_origin(iid); }
constexpr std::uint64_t iid_slot(InstanceId iid) { return cmd_seq(iid); }

struct EPaxosConfig {
  /// Stagger before recovering a suspected peer's instances.
  Time recovery_stagger_us = 50 * kMs;
  Time recovery_retry_us = 2 * kSec;
  /// Progress-watchdog period: a stalled execution frontier with committable
  /// backlog triggers instance catch-up from a live peer. 0 disables the
  /// watchdog (the default).
  Time catchup_interval_us = 0;
};

class EPaxos final : public rt::Protocol {
 public:
  EPaxos(rt::Env& env, DeliverFn deliver, EPaxosConfig cfg,
         stats::ProtocolStats* stats);

  void start() override;
  void on_recover() override;
  void propose(rsm::Command cmd) override;
  void on_message(NodeId from, std::uint16_t type, net::Decoder& d) override;
  void on_node_suspected(NodeId peer) override;
  void on_node_recovered(NodeId peer) override;
  void on_catchup_request(NodeId from, net::Decoder& d) override;
  void on_catchup_reply(NodeId from, net::Decoder& d) override;
  std::string_view name() const override { return "EPaxos"; }

  // --- introspection -------------------------------------------------------
  std::size_t fast_quorum() const { return fq_; }
  bool is_executed(InstanceId iid) const;
  bool is_committed(InstanceId iid) const;
  std::uint64_t seq_of(InstanceId iid) const;
  IdSet deps_of(InstanceId iid) const;

 private:
  enum MsgType : std::uint16_t {
    kPreAccept = 1,
    kPreAcceptReply = 2,
    kAccept = 3,
    kAcceptReply = 4,
    kCommit = 5,
    kPrepare = 6,
    kPrepareReply = 7,
  };

  enum class IStatus : std::uint8_t {
    kNone = 0,
    kPreAccepted = 1,
    kAccepted = 2,
    kCommitted = 3,
    kExecuted = 4,
  };

  struct Instance {
    rsm::Command cmd;  // empty ops = no-op (recovery fallback)
    std::uint64_t seq = 0;
    IdSet deps;
    IStatus status = IStatus::kNone;
    Ballot ballot = 0;
  };

  enum class Phase : std::uint8_t { kPreAccept, kAccept, kDone };
  struct Coordinator {
    Ballot ballot = 0;
    std::uint64_t seq = 0;  // leader's original attributes (fast-path check)
    IdSet deps;
    std::uint64_t max_seq = 0;
    IdSet union_deps;
    std::uint32_t replies = 0;  // non-self PreAccept replies
    std::uint32_t changed = 0;
    std::uint32_t accept_acks = 0;
    Phase phase = Phase::kPreAccept;
    Time start = 0;
  };

  struct RecoveryCoordinator {
    Ballot ballot = 0;
    std::vector<std::tuple<NodeId, Instance, bool>> replies;  // (from, info, has)
    std::unordered_set<NodeId> responded;
    sim::EventId retry_timer = sim::kNoEvent;
  };

  // --- attribute bookkeeping -------------------------------------------------
  /// Computes (seq, deps) for a command from the per-key interference index.
  std::pair<std::uint64_t, IdSet> attributes_for(const rsm::Command& cmd,
                                                 InstanceId self);
  /// Records an instance in the interference index.
  void note_instance(InstanceId iid, const rsm::Command& cmd,
                     std::uint64_t seq);

  // --- handlers ---------------------------------------------------------------
  void handle_pre_accept(NodeId from, net::Decoder& d);
  void handle_pre_accept_reply(NodeId from, net::Decoder& d);
  void handle_accept(NodeId from, net::Decoder& d);
  void handle_accept_reply(NodeId from, net::Decoder& d);
  void handle_commit(net::Decoder& d);
  void handle_prepare(NodeId from, net::Decoder& d);
  void handle_prepare_reply(NodeId from, net::Decoder& d);

  void start_accept_phase(InstanceId iid, std::uint64_t seq, IdSet deps);
  void commit(InstanceId iid, std::uint64_t seq, IdSet deps, bool fast);
  void apply_commit(InstanceId iid, const rsm::Command& cmd, std::uint64_t seq,
                    IdSet deps);

  // --- execution (dependency-graph linearization) -----------------------------
  void try_execute(InstanceId root);
  void execute_instance(Instance& inst, InstanceId iid);

  // --- recovery -----------------------------------------------------------------
  void start_recovery(InstanceId iid);
  void finish_recovery(InstanceId iid);
  void catchup_tick();
  void request_catchup();
  /// Per-leader committed-prefix frontiers (first locally-uncommitted slot,
  /// columns are dense from 1). Sets *any_hole when some leader has a
  /// committed slot above its frontier — i.e. a commit below it was missed.
  std::vector<std::uint64_t> committed_frontiers(bool* any_hole) const;

  EPaxosConfig cfg_;
  stats::ProtocolStats* stats_;
  std::size_t n_;
  std::size_t fq_;
  std::size_t cq_;
  std::uint64_t next_slot_ = 0;

  std::unordered_map<InstanceId, Instance> instances_;
  std::unordered_map<InstanceId, Coordinator> coord_;
  std::unordered_map<InstanceId, RecoveryCoordinator> recovery_;

  /// Interference index: per key, the latest instance per replica and the
  /// highest seq seen.
  struct KeyInfo {
    std::unordered_map<NodeId, InstanceId> latest;
    std::uint64_t max_seq = 0;
  };
  std::unordered_map<Key, KeyInfo> key_info_;

  /// Execution waiters: instances blocked on a dependency's commit.
  std::unordered_map<InstanceId, std::vector<InstanceId>> exec_waiters_;
  /// Dependencies referenced but never seen locally (candidates for
  /// recovery if their leader dies).
  std::unordered_set<InstanceId> unknown_deps_;

  /// Shared recovery machinery: failure-detector view, catch-up rotor and
  /// progress watchdog (runtime/recovery_driver.h). The designated-revoker
  /// round half is unused — EPaxos resolves a dead leader's instances per
  /// instance via explicit prepare, not by range verdicts.
  rt::RecoveryDriver rec_;
  /// Execution-frontier proxy fed to the progress watchdog.
  std::uint64_t executed_count_ = 0;
};

}  // namespace caesar::epaxos
