// Protocol host interface.
//
// Every consensus implementation (CAESAR and the four baselines) plugs into
// the node runtime through this interface. The runtime supplies messaging,
// timers, randomness and CPU accounting via Env; the protocol supplies
// propose/on_message handlers and calls the deliver callback exactly once per
// command, in its decided order — the DECIDE(c) side of Generalized
// Consensus.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/serialization.h"
#include "rsm/command.h"
#include "rsm/kvstore.h"
#include "sim/simulator.h"

namespace caesar::storage {
class Durability;
struct RecoveredState;
}  // namespace caesar::storage

namespace caesar::rt {

/// Message types at the top of the tag space are reserved for the runtime's
/// state-transfer framing: the node dispatches them to the catch-up hooks
/// instead of Protocol::on_message, so every protocol shares one wire path
/// for rejoin catch-up without burning its private tag range.
inline constexpr std::uint16_t kCatchupRequestType = 0xFFF0;
inline constexpr std::uint16_t kCatchupReplyType = 0xFFF1;
/// Store-snapshot catch-up frame: served when the requester's frontier lies
/// behind the responder's compaction horizon, ahead of the chunked suffix.
inline constexpr std::uint16_t kCatchupSnapshotType = 0xFFF2;

/// Services a node runtime provides to its protocol instance.
class Env {
 public:
  virtual ~Env() = default;

  virtual NodeId id() const = 0;
  virtual std::size_t cluster_size() const = 0;
  virtual Time now() const = 0;

  /// Message-body encoder for send/broadcast; every body sent must come from
  /// here. It pre-reserves the frame header (the runtime's implementation
  /// also recycles buffers through its pool), so a message ships with zero
  /// copies and zero steady-state allocation. send/broadcast throw
  /// std::logic_error on a body without the header, such as a
  /// default-constructed net::Encoder.
  virtual net::Encoder encoder() {
    return net::Encoder::with_frame_header({});
  }

  /// Sends one message; the encoder holds the message body (the runtime
  /// prepends the type tag).
  virtual void send(NodeId to, std::uint16_t type, net::Encoder body) = 0;

  /// Sends the same body to every node; with include_self the message loops
  /// back through the network (uniform code path for quorum counting).
  virtual void broadcast(std::uint16_t type, net::Encoder body,
                         bool include_self) = 0;

  virtual sim::EventId set_timer(Time delay, std::function<void()> fn) = 0;
  virtual void cancel_timer(sim::EventId id) = 0;

  virtual Rng& rng() = 0;

  /// Adds `extra` microseconds of service time to the message currently being
  /// processed (protocols charge algorithmic work, e.g. graph analysis).
  virtual void charge_cpu(Time extra) = 0;

  /// Mints a cluster-unique command id originating at this node.
  virtual CmdId fresh_cmd_id() = 0;

  /// Mints the id for a runtime-built batch composite. Batch ids carry the
  /// marker bit (common/types.h kBatchSeqBit) so delivery-side code can
  /// recognize composites and unbundle them into member commands with ids
  /// derived from the composite's (rsm::batch_member).
  virtual CmdId fresh_batch_id() {
    return make_batch_cmd_id(id(), ++batch_counter_);
  }

  /// Per-node durable storage, or nullptr when the node runs without a data
  /// dir (the default — persistence hooks are then no-ops with zero cost).
  virtual storage::Durability* durability() { return nullptr; }

  /// Tells the runtime's owner (harness/cluster) that this node replaced its
  /// store wholesale from a peer's snapshot during catch-up, so external
  /// mirrors of the node's state can re-seed themselves. `delivered_count`
  /// is the commands folded into the snapshot.
  virtual void notify_snapshot_install(const rsm::KvStore& store,
                                       std::uint64_t delivered_count) {
    (void)store;
    (void)delivered_count;
  }

 protected:
  /// Per-origin batch sequence backing the default fresh_batch_id().
  std::uint64_t batch_counter_ = 0;
};

class Protocol {
 public:
  /// Invoked exactly once per command on each node, in decided order.
  using DeliverFn = std::function<void(const rsm::Command&)>;

  Protocol(Env& env, DeliverFn deliver)
      : env_(env), deliver_(std::move(deliver)) {}
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Called once after the whole cluster is wired up.
  virtual void start() {}

  /// Proposes a command with this node as its leader. `cmd.id` and
  /// `cmd.origin` are already set by the runtime.
  virtual void propose(rsm::Command cmd) = 0;

  /// Proposes a group of client commands that arrived within one batching
  /// window. Default: merge into a single composite command (key-set union).
  /// Protocols with routing concerns (M2Paxos) override this.
  virtual void propose_batch(std::vector<rsm::Command> cmds);

  /// Dispatches an incoming message. `type` is the protocol-private tag the
  /// sender passed to Env::send.
  virtual void on_message(NodeId from, std::uint16_t type, net::Decoder& d) = 0;

  /// Failure-detector upcall: `peer` is suspected to have crashed.
  virtual void on_node_suspected(NodeId peer) { (void)peer; }

  /// Failure-detector retraction: a previously suspected peer is reachable
  /// again (it recovered with its durable state intact).
  virtual void on_node_recovered(NodeId peer) { (void)peer; }

  /// Called on this node after it recovers from a crash with its state
  /// intact. In-memory timers died with the crash, so the default restarts
  /// the periodic chains by re-running start(); protocols whose start() has
  /// one-shot side effects must override.
  virtual void on_recover() { start(); }

  /// State-transfer hooks (kCatchupRequestType / kCatchupReplyType frames,
  /// routed here by the node runtime). A lagging node sends a request naming
  /// its delivery frontier (see send_catchup_request); a live peer answers
  /// with the missing committed suffix as chunked rsm::LogSnapshot frames,
  /// which the requester replays through its normal delivery path. Default:
  /// the protocol has no state transfer and ignores the frames.
  virtual void on_catchup_request(NodeId from, net::Decoder& d);
  virtual void on_catchup_reply(NodeId from, net::Decoder& d);

  /// Store-snapshot leg of catch-up (kCatchupSnapshotType frames): served by
  /// a responder whose CommandLog was compacted past the requester's
  /// frontier. Default: ignored (protocol keeps its full log in memory).
  virtual void on_catchup_snapshot(NodeId from, net::Decoder& d);

  /// Called on a freshly constructed protocol instance before on_recover()
  /// when the node restarts from disk: rebuild delivered/acceptor state from
  /// the replayed RecoveredState *silently* — the deliver callback must NOT
  /// fire for commands already folded into the recovered store. Default: the
  /// protocol has no durable state to restore.
  virtual void on_restore(storage::RecoveredState& st) { (void)st; }

  virtual std::string_view name() const = 0;

 protected:
  /// Merges client commands into one composite command with a fresh id.
  rsm::Command make_composite(std::vector<rsm::Command>& cmds);

  /// Sends the shared catch-up request frame: this node's delivery frontier
  /// (the first order index it has not resolved) and the rolling hash of its
  /// delivered prefix, so the responder can verify the histories agree
  /// before shipping the suffix.
  void send_catchup_request(NodeId to, std::uint64_t frontier,
                            std::uint64_t prefix_hash);

  /// Sends the shared snapshot frame (kCatchupSnapshotType): the responder's
  /// store contents as of `frontier`, with the prefix hash and digest the
  /// requester verifies before installing.
  void send_catchup_snapshot(NodeId to, const rsm::KvStore& store,
                             std::uint64_t frontier, std::uint64_t prefix_hash,
                             std::uint64_t delivered_count);

  /// Decoded + digest-verified snapshot frame; `valid` is false when the
  /// transferred contents do not match the carried digest.
  struct CatchupSnapshot {
    rsm::KvStore store;
    std::uint64_t frontier = 0;
    std::uint64_t prefix_hash = 0;
    std::uint64_t delivered_count = 0;
    bool valid = false;
  };
  static CatchupSnapshot decode_catchup_snapshot(net::Decoder& d);

  Env& env_;
  DeliverFn deliver_;

 private:
  /// The shared recovery driver serves chunked log catch-up on a protocol's
  /// behalf (runtime/recovery_driver.h) and needs the snapshot send helper.
  friend class RecoveryDriver;
};

}  // namespace caesar::rt
