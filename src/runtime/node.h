// Node runtime: hosts one protocol instance on one simulated machine.
//
// Responsibilities:
//   * frames outgoing messages (type tag + body) and hands bytes to the
//     network; unframes and dispatches incoming bytes;
//   * models the node's CPU as a serial server: each message/submission has a
//     service time (base + whatever the handler charges), and a busy node
//     queues work — this is what makes throughput saturate (paper Figs 8, 9);
//   * mints command ids for client submissions and optionally batches them
//     with an accumulate-while-busy policy (paper's "network batching"): a
//     submission flushes to the protocol immediately while the proposer has
//     capacity, and accumulates into a batch composite while it is busy or
//     its pipeline window is full — capped by batch_delay_us / batch_max_ops
//     so batches never wait unboundedly;
//   * optionally coalesces same-destination frames sent within one CPU turn
//     into a single multi-frame network message (net/coalesce.h);
//   * implements crash-stop: a crashed node drops all queued work, timers and
//     traffic.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/buffer_pool.h"
#include "net/network.h"
#include "runtime/protocol.h"
#include "storage/durability.h"

namespace caesar::rt {

struct NodeConfig {
  /// Base CPU service time per handled message, microseconds.
  Time base_service_us = 10;
  /// Client-request batching (the paper evaluates with and without). The
  /// batcher accumulates while the CPU is busy or the pipeline window is
  /// full and flushes the moment either clears; the two knobs below only
  /// bound the accumulation, they are not a fixed delay.
  bool batching = false;
  /// Longest a request may sit in the accumulator before the batch is
  /// force-flushed regardless of CPU or window state.
  Time batch_delay_us = 2000;
  /// Size cap: a batch reaching this many ops flushes as soon as the
  /// pipeline window has room. Must be >= 1.
  std::size_t batch_max_ops = 128;
  /// Instance pipelining: max batch flushes from this node concurrently in
  /// flight (proposed but not yet delivered back at the origin) before the
  /// batcher holds further flushes. Must be >= 1; 1 = one batch per
  /// consensus round trip, the classic stop-and-wait proposer.
  std::size_t pipeline_window = 1;
  /// Merge same-destination frames sent within one CPU turn into a single
  /// multi-frame message (net/coalesce.h), amortizing per-message network
  /// overhead and receive-side dispatch.
  bool coalescing = false;
};

class Node final : public Env {
 public:
  Node(sim::Simulator& sim, net::Network& net, NodeId id, NodeConfig cfg);

  /// Installs the protocol; must happen before any traffic.
  void set_protocol(std::unique_ptr<Protocol> protocol);
  Protocol& protocol() { return *protocol_; }

  /// Attaches durable storage rooted at `node_dir` (the node's own
  /// directory, not the shared data dir). Must precede set_protocol so the
  /// protocol's constructor can wire its persistence hooks.
  void enable_durability(const std::string& node_dir,
                         const storage::StorageConfig& cfg);

  /// Invoked when the protocol installs a peer's store snapshot during
  /// catch-up (see Env::notify_snapshot_install).
  using SnapshotInstallHook =
      std::function<void(const rsm::KvStore&, std::uint64_t delivered_count)>;
  void set_snapshot_install_hook(SnapshotInstallHook h) {
    snapshot_install_hook_ = std::move(h);
  }

  /// Client entry point: assigns the command an id and proposes it (possibly
  /// after batching).
  void submit(rsm::Command cmd);

  /// Pipelining feedback from the cluster's delivery funnel: a command was
  /// delivered on this node. When it is one of this node's own proposals the
  /// batcher counts the in-flight instance back in and may flush the next
  /// accumulated batch into the freed window slot.
  void note_delivery(const rsm::Command& cmd);

  /// Crash-stop. Drops queued work, stops timers firing, severs the network.
  void crash();
  /// Rejoins after a crash with protocol state intact (models a restart from
  /// stable storage). Queued work and every in-memory timer died with the
  /// crash; the protocol's on_recover() hook restarts its periodic timers.
  void recover();
  bool crashed() const { return crashed_; }

  // --- Env interface -------------------------------------------------------
  NodeId id() const override { return id_; }
  std::size_t cluster_size() const override { return net_.size(); }
  Time now() const override { return sim_.now(); }
  net::Encoder encoder() override {
    return net::Encoder::with_frame_header(pool_->acquire());
  }
  void send(NodeId to, std::uint16_t type, net::Encoder body) override;
  void broadcast(std::uint16_t type, net::Encoder body,
                 bool include_self) override;
  sim::EventId set_timer(Time delay, std::function<void()> fn) override;
  void cancel_timer(sim::EventId id) override;
  Rng& rng() override { return rng_; }
  void charge_cpu(Time extra) override { extra_charge_ += extra; }
  CmdId fresh_cmd_id() override { return make_cmd_id(id_, ++cmd_counter_); }
  storage::Durability* durability() override { return durability_.get(); }
  void notify_snapshot_install(const rsm::KvStore& store,
                               std::uint64_t delivered_count) override {
    if (snapshot_install_hook_) snapshot_install_hook_(store, delivered_count);
  }

  // --- introspection -------------------------------------------------------
  std::uint64_t messages_handled() const { return messages_handled_; }
  Time cpu_busy_time() const { return busy_time_; }
  std::size_t queue_depth() const { return queue_.size(); }
  const net::BufferPool& buffer_pool() const { return *pool_; }

 private:
  void on_packet(NodeId from,
                 std::shared_ptr<const std::vector<std::byte>> bytes);
  /// Dispatches one decoded frame (type tag already consumed) to the
  /// protocol or the runtime's reserved catch-up hooks.
  void dispatch_frame(NodeId from, std::uint16_t type, net::Decoder& d);
  /// Stamps the type tag into an encoder() body and wraps it as a pooled
  /// payload; throws std::logic_error on a body without the frame header.
  std::shared_ptr<const std::vector<std::byte>> finish_frame(
      std::uint16_t type, net::Encoder body);
  void enqueue(std::function<void()> fn, Time service);
  void run_next();
  void flush_batch();
  bool window_has_room() const { return open_batches_ < cfg_.pipeline_window; }
  /// Coalescing turn bracket: sends inside a turn are staged and merged
  /// per-destination when the outermost turn ends.
  void begin_turn();
  void end_turn();
  void flush_staged();

  sim::Simulator& sim_;
  net::Network& net_;
  NodeId id_;
  NodeConfig cfg_;
  /// shared_ptr: in-flight payload deleters must outlive the node.
  std::shared_ptr<net::BufferPool> pool_ = std::make_shared<net::BufferPool>();
  std::unique_ptr<Protocol> protocol_;
  /// Durable storage; null when the node runs without a data dir. Owned here
  /// (not by the protocol) so it survives protocol reinstallation across a
  /// restart-from-disk.
  std::unique_ptr<storage::Durability> durability_;
  SnapshotInstallHook snapshot_install_hook_;
  Rng rng_;
  bool crashed_ = false;
  /// Bumped on every crash; fences out timers and CPU-chain continuations
  /// armed in a previous incarnation (see set_timer / run_next).
  std::uint64_t epoch_ = 0;

  struct Task {
    std::function<void()> fn;
    Time service;
  };
  std::deque<Task> queue_;
  bool busy_ = false;
  Time extra_charge_ = 0;
  Time busy_time_ = 0;
  std::uint64_t messages_handled_ = 0;
  std::uint64_t cmd_counter_ = 0;

  std::vector<rsm::Command> batch_;
  std::size_t batch_ops_ = 0;
  sim::EventId batch_timer_ = sim::kNoEvent;
  /// Batch flushes proposed but not yet seen back through note_delivery;
  /// bounded by cfg_.pipeline_window (see submit/flush_batch).
  std::size_t open_batches_ = 0;

  /// Coalescing state: depth of nested CPU turns and the frames staged
  /// within the current outermost turn, in send order.
  int turn_depth_ = 0;
  std::vector<std::pair<NodeId, std::shared_ptr<const std::vector<std::byte>>>>
      staged_;
};

}  // namespace caesar::rt
