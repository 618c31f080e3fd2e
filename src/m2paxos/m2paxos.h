// M2Paxos baseline (Peluso et al., DSN 2016) — paper §II, Figs 6/8/9.
//
// Multi-leader consensus via per-key ownership: the owner of every key a
// command touches can decide it in two communication delays against a simple
// majority, with no dependency exchange. A node proposing a command whose
// keys belong to another node *forwards* it to that owner (the extra hop the
// paper blames for M2Paxos' geo-scale degradation under conflicts); unowned
// keys are claimed through an epoch-ordered acquisition phase (majority
// grant), after which the new owner proceeds.
//
// Execution: every key carries an instance sequence assigned by its owner;
// a command executes when each of its keys reaches the command's position —
// the per-key analogue of log order.
//
// Ownership revocation from a live owner and crash recovery are out of scope
// (the paper's failure experiment covers CAESAR and EPaxos only); owners are
// stable once established, matching the forwarding behaviour the paper
// describes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runtime/protocol.h"
#include "stats/protocol_stats.h"

namespace caesar::m2paxos {

class M2Paxos final : public rt::Protocol {
 public:
  M2Paxos(rt::Env& env, DeliverFn deliver, stats::ProtocolStats* stats);

  void start() override;
  void propose(rsm::Command cmd) override;
  void propose_batch(std::vector<rsm::Command> cmds) override;
  void on_message(NodeId from, std::uint16_t type, net::Decoder& d) override;
  std::string_view name() const override { return "M2Paxos"; }

  // --- introspection -------------------------------------------------------
  NodeId owner_of(Key k) const;
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t acquisitions() const { return acquisitions_; }

 private:
  enum MsgType : std::uint16_t {
    kForward = 1,       // non-owner -> owner: please decide this command
    kAcquire = 2,       // claim ownership of keys (epoch-ordered)
    kAcquireReply = 3,  // grant/deny + last instance per key
    kAccept = 4,        // owner -> all: command at per-key positions
    kAcceptReply = 5,
    kDecide = 6,        // owner -> all: command chosen
  };

  struct KeyState {
    NodeId owner = kNoNode;
    std::uint64_t promised_epoch = 0;  // highest Acquire epoch granted
    std::uint64_t last_instance = 0;   // highest position seen for this key
    /// True only after WE completed a majority acquisition for this key:
    /// the position counter is synced to the key's history. A node whose
    /// (higher-epoch) acquisition failed may still look like the owner to
    /// itself — deciding with an unsynced counter would orphan commands at
    /// stale positions.
    bool synced = false;
  };

  /// An accepted-but-undecided value at some position: the Paxos state a new
  /// owner must adopt instead of overwriting (classic prepare-phase rule).
  struct AcceptedEntry {
    std::uint64_t epoch = 0;
    rsm::Command cmd;
    std::vector<std::pair<Key, std::uint64_t>> pos;
  };

  // --- proposal routing -----------------------------------------------------
  /// Routes a command: local accept, forward to owner, or acquisition.
  /// `hops` counts forwards so far; beyond kMaxForwardHops the node claims
  /// ownership itself to break forwarding cycles from split ownership views.
  static constexpr std::uint8_t kMaxForwardHops = 3;
  void route(rsm::Command cmd, std::uint8_t hops);
  void accept_phase(rsm::Command cmd);
  /// Accept round at fixed per-key positions (used to re-propose values
  /// adopted from acquisition replies).
  void accept_phase_at(rsm::Command cmd,
                       std::vector<std::pair<Key, std::uint64_t>> pos,
                       bool local);
  void start_acquisition(rsm::Command cmd);

  // --- handlers ---------------------------------------------------------------
  void handle_forward(net::Decoder& d);
  void handle_acquire(NodeId from, net::Decoder& d);
  void handle_acquire_reply(NodeId from, net::Decoder& d);
  void handle_accept(NodeId from, net::Decoder& d);
  void handle_accept_reply(NodeId from, net::Decoder& d);
  void handle_decide(net::Decoder& d);

  // --- execution ---------------------------------------------------------------
  struct PendingExec {
    rsm::Command cmd;
    std::vector<std::pair<Key, std::uint64_t>> pos;
    std::uint64_t epoch = 0;  // deciding round's epoch: collision tie-break
    bool done = false;
  };
  void schedule_exec(std::shared_ptr<PendingExec> entry);
  void try_exec(Key key);

  stats::ProtocolStats* stats_;
  std::size_t n_;
  std::size_t cq_;

  std::unordered_map<Key, KeyState> keys_;
  std::unordered_map<Key, std::uint64_t> next_instance_;  // owner side
  /// Accepted-but-undecided values per key/position (acceptor log).
  std::unordered_map<Key, std::map<std::uint64_t, AcceptedEntry>> accepted_log_;
  /// Commands already executed locally (dedupe: a command can be decided at
  /// two positions when an adoption races its origin's retry).
  std::unordered_set<CmdId> delivered_ids_;

  // In-flight accepts (owner side).
  struct AcceptRound {
    rsm::Command cmd;
    std::vector<std::pair<Key, std::uint64_t>> pos;
    std::uint64_t epoch = 0;
    std::uint32_t acks = 1;  // self
    std::uint32_t nacks = 0;
    bool decided = false;
    bool was_local = false;  // no forward/acquire hop: counts as fast
    Time start = 0;
  };
  std::unordered_map<CmdId, AcceptRound> accepts_;

  // In-flight acquisitions.
  struct Acquisition {
    rsm::Command cmd;
    std::vector<std::pair<Key, std::uint64_t>> epochs;
    std::uint32_t grants = 1;  // self
    std::uint32_t denials = 0;
    bool resolved = false;
    std::unordered_map<Key, std::uint64_t> max_last_instance;
    /// Adoption candidates reported by grantors, keyed by command id,
    /// keeping the highest-epoch report.
    std::unordered_map<CmdId, AcceptedEntry> adoptions;
    /// Commands that arrived for these keys while the acquisition was in
    /// flight; re-routed once ownership resolves. Without this, a command
    /// would see the optimistic owner==self and mint positions from a
    /// counter that has not been synced to the key's real history yet.
    std::vector<rsm::Command> queued;
  };
  std::unordered_map<std::uint64_t, Acquisition> acquiring_;
  /// Keys with an acquisition in flight -> its token.
  std::unordered_map<Key, std::uint64_t> acquiring_keys_;
  std::uint64_t acquire_token_ = 0;

  // Execution state.
  std::unordered_map<Key, std::map<std::uint64_t, std::shared_ptr<PendingExec>>>
      exec_index_;
  std::unordered_map<Key, std::uint64_t> exec_watermark_;  // next pos, from 1

  /// Own commands awaiting local delivery, for the retry watchdog.
  struct PendingOwn {
    rsm::Command cmd;
    Time since = 0;
  };
  std::unordered_map<CmdId, PendingOwn> my_pending_;
  void watchdog_sweep();

  std::uint64_t forwarded_ = 0;
  std::uint64_t acquisitions_ = 0;
};

}  // namespace caesar::m2paxos
