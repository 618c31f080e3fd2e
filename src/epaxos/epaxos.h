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
#include <utility>
#include <vector>

#include "common/id_table.h"
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

  /// End of a waiter chain (see Instance::wait_head).
  static constexpr std::uint32_t kNoLink = ~std::uint32_t{0};

  /// Everything this node keeps about one instance. Instances are never
  /// pruned and IdTable records never move, so a record's address is fixed
  /// for the whole run: coordinators and the execution walk hold pointers
  /// to it.
  struct Instance {
    rsm::Command cmd;  // empty ops = no-op (recovery fallback)
    IdSet deps;
    std::uint64_t seq = 0;
    Ballot ballot = 0;
    /// try_execute's Tarjan marks, meaningful only while `walk` is the
    /// number of the walk in progress.
    std::uint64_t walk = 0;
    std::uint32_t index = 0;
    std::uint32_t lowlink = 0;
    /// Roots whose execution waits for this instance's commit, in the order
    /// they blocked: a chain through wait_links_.
    std::uint32_t wait_head = kNoLink;
    std::uint32_t wait_tail = kNoLink;
    IStatus status = IStatus::kNone;
    bool on_stack = false;
    /// Named as a dependency before anything else about it reached this
    /// node: a candidate for recovery if its leader dies. Cleared by the
    /// commit.
    bool unknown = false;
  };

  /// Leader-side state of one open round. It lives only until the commit,
  /// so it has its own table instead of a place in the instance record,
  /// which stays for the whole run; `inst` saves the reply handlers a probe.
  enum class Phase : std::uint8_t { kPreAccept, kAccept };
  struct Coordinator {
    Instance* inst = nullptr;  // the record of the instance coordinated
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

  /// One replier's view of an instance under recovery.
  struct PrepareReply {
    rsm::Command cmd;
    IdSet deps;
    std::uint64_t seq = 0;
    IStatus status = IStatus::kNone;
  };

  struct RecoveryCoordinator {
    Ballot ballot = 0;
    std::vector<PrepareReply> replies;  // in arrival order
    std::uint64_t responded = 0;        // one bit per replier
    sim::EventId retry_timer = sim::kNoEvent;
  };

  /// Interference index entry of one key: the highest seq seen and the
  /// latest instance of each leader (0 = none; slots start at 1).
  struct KeyInfo {
    std::uint64_t max_seq = 0;
    std::vector<InstanceId> latest;  // n entries once any instance noted
  };

  /// One link of a waiter chain.
  struct WaitLink {
    InstanceId root = 0;
    std::uint32_t next = kNoLink;
  };

  static bool decided(const Instance& inst) {
    return inst.status >= IStatus::kCommitted;
  }

  // --- attribute bookkeeping -------------------------------------------------
  /// Computes (seq, deps) for a command from the per-key interference index.
  std::pair<std::uint64_t, IdSet> attributes_for(const rsm::Command& cmd,
                                                 InstanceId self);
  /// Records an instance in the interference index.
  void note_instance(InstanceId iid, const rsm::Command& cmd,
                     std::uint64_t seq);
  /// The index entry of `key`, nullptr when no instance touched it yet.
  const KeyInfo* find_key(Key key) const;
  /// The index entry of `key`, created when absent.
  KeyInfo& key_info(Key key);

  // --- handlers ---------------------------------------------------------------
  void handle_pre_accept(NodeId from, net::Decoder& d);
  void handle_pre_accept_reply(NodeId from, net::Decoder& d);
  void handle_accept(NodeId from, net::Decoder& d);
  void handle_accept_reply(NodeId from, net::Decoder& d);
  void handle_commit(net::Decoder& d);
  void handle_prepare(NodeId from, net::Decoder& d);
  void handle_prepare_reply(NodeId from, net::Decoder& d);

  /// A fresh coordinator for `iid` at `ballot`, replacing any earlier one.
  Coordinator& open_coordinator(InstanceId iid, Instance& inst, Ballot ballot);
  void start_accept_phase(InstanceId iid, Coordinator& c, std::uint64_t seq,
                          IdSet deps);
  /// Commits c's current attributes and retires the coordinator.
  void commit(InstanceId iid, Coordinator& c, bool fast);
  /// Records the decision (a decided instance is left as it is), then runs
  /// what it unblocks.
  void apply_commit(InstanceId iid, Instance& inst, rsm::Command cmd,
                    std::uint64_t seq, IdSet deps);

  // --- execution (dependency-graph linearization) -----------------------------
  void try_execute(InstanceId root, Instance& root_inst);
  void execute_instance(Instance& inst);
  /// Appends `root` to the chain of roots waiting for `dep`'s commit.
  void add_waiter(Instance& dep, InstanceId root);

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

  /// One record per instance this node has heard of (see Instance).
  IdTable<Instance> instances_;
  IdTable<Coordinator> coord_;
  IdTable<RecoveryCoordinator> recovery_;

  /// Interference index. Key 0 is the first key of every shared key pool
  /// and IdTable reserves id 0 for free cells, so its entry lives outside
  /// the table.
  IdTable<KeyInfo> keys_;
  KeyInfo key0_;

  /// Storage of every waiter chain; freed links form a free list from
  /// free_link_, so registering a waiter allocates nothing once the pool
  /// has grown.
  std::vector<WaitLink> wait_links_;
  std::uint32_t free_link_ = kNoLink;

  /// try_execute's work lists, kept across calls so a walk allocates
  /// nothing once they have grown. A walk does not re-enter itself:
  /// delivery hands commands to the runtime, which queues any new work
  /// behind the CPU.
  struct WalkFrame {
    Instance* inst = nullptr;
    std::size_t dep_idx = 0;  // next dependency to visit
  };
  struct WalkNode {
    InstanceId iid = 0;
    Instance* inst = nullptr;
  };
  std::uint64_t walks_ = 0;            // number of the latest walk
  std::vector<WalkFrame> frames_;      // depth-first search path
  std::vector<WalkNode> stack_;        // Tarjan's stack
  std::vector<WalkNode> components_;   // popped components, back to back
  std::vector<std::size_t> component_ends_;

  /// Shared recovery machinery: failure-detector view, catch-up rotor and
  /// progress watchdog (runtime/recovery_driver.h). The designated-revoker
  /// round half is unused — EPaxos resolves a dead leader's instances per
  /// instance via explicit prepare, not by range verdicts.
  rt::RecoveryDriver rec_;
  /// Execution-frontier proxy fed to the progress watchdog.
  std::uint64_t executed_count_ = 0;
};

}  // namespace caesar::epaxos
