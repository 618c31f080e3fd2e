#include "runtime/node.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/logging.h"
#include "net/coalesce.h"

namespace caesar::rt {

namespace {

/// CPU service time for accepting one client submission.
constexpr Time kSubmitServiceUs = 3;
/// Extra per-op service charged when proposing composite batches.
constexpr Time kPerOpServiceUs = 1;

}  // namespace

Node::Node(sim::Simulator& sim, net::Network& net, NodeId id, NodeConfig cfg)
    : sim_(sim), net_(net), id_(id), cfg_(cfg), rng_(sim.rng().fork()) {
  net_.set_sink(id_, [this](NodeId from,
                            std::shared_ptr<const std::vector<std::byte>> p) {
    on_packet(from, std::move(p));
  });
}

void Node::set_protocol(std::unique_ptr<Protocol> protocol) {
  protocol_ = std::move(protocol);
}

void Node::enable_durability(const std::string& node_dir,
                             const storage::StorageConfig& cfg) {
  durability_ = std::make_unique<storage::Durability>(node_dir, cfg);
  // Flush timers ride the node's epoch-fenced timer path, so a crash voids
  // them with everything else; flush CPU cost lands on the current task.
  durability_->set_scheduler([this](Time delay, std::function<void()> fn) {
    set_timer(delay, std::move(fn));
  });
  durability_->set_cpu_charge([this](Time t) { charge_cpu(t); });
}

std::shared_ptr<const std::vector<std::byte>> Node::finish_frame(
    std::uint16_t type, net::Encoder body) {
  // Env::encoder() reserves the header bytes, so stamping the type finishes
  // the frame in place: the protocol's encode buffer IS the wire payload, no
  // copy. Any other body would have its first payload bytes overwritten.
  if (!body.has_frame_header()) {
    throw std::logic_error(
        "message body was not built with Env::encoder() (no frame header)");
  }
  body.patch_u16(0, type);
  return pool_->wrap(body.take());
}

void Node::send(NodeId to, std::uint16_t type, net::Encoder body) {
  if (crashed_) return;
  auto bytes = finish_frame(type, std::move(body));
  if (turn_depth_ > 0) {
    staged_.emplace_back(to, std::move(bytes));
    return;
  }
  net_.send(id_, to, std::move(bytes));
}

void Node::broadcast(std::uint16_t type, net::Encoder body, bool include_self) {
  if (crashed_) return;
  auto bytes = finish_frame(type, std::move(body));
  for (NodeId to = 0; to < net_.size(); ++to) {
    if (!include_self && to == id_) continue;
    if (turn_depth_ > 0) {
      staged_.emplace_back(to, bytes);
    } else {
      net_.send(id_, to, bytes);
    }
  }
}

void Node::begin_turn() {
  if (cfg_.coalescing) ++turn_depth_;
}

void Node::end_turn() {
  if (!cfg_.coalescing || turn_depth_ == 0) return;
  if (--turn_depth_ == 0) flush_staged();
}

void Node::flush_staged() {
  if (staged_.empty()) return;
  auto staged = std::move(staged_);
  staged_.clear();
  // Emit destinations in first-send order so the network's per-send jitter
  // RNG draws stay in a deterministic sequence.
  for (std::size_t i = 0; i < staged.size(); ++i) {
    if (!staged[i].second) continue;  // folded into an earlier envelope
    const NodeId to = staged[i].first;
    std::size_t count = 1;
    for (std::size_t j = i + 1; j < staged.size(); ++j) {
      if (staged[j].first == to && staged[j].second) ++count;
    }
    if (count == 1) {
      // A lone frame ships as-is (broadcast payloads stay shared).
      net_.send(id_, to, std::move(staged[i].second));
      continue;
    }
    net::Encoder env = net::Encoder::with_frame_header(pool_->acquire());
    env.patch_u16(0, net::kCoalescedFrameType);
    env.put_varint(count);
    for (std::size_t j = i; j < staged.size(); ++j) {
      if (staged[j].first != to || !staged[j].second) continue;
      env.put_varint(staged[j].second->size());
      env.append_raw(*staged[j].second);
      staged[j].second.reset();
    }
    net_.send(id_, to, pool_->wrap(env.take()));
  }
}

sim::EventId Node::set_timer(Time delay, std::function<void()> fn) {
  // The epoch fence makes a crash drop every in-memory timer for good: a
  // timer armed before the crash must not fire after a recover(). Timer
  // callbacks are a CPU turn of their own for coalescing purposes — they
  // send without going through run_next.
  return sim_.after(delay, [this, fn = std::move(fn), epoch = epoch_] {
    if (crashed_ || epoch != epoch_) return;
    begin_turn();
    fn();
    end_turn();
  });
}

void Node::cancel_timer(sim::EventId id) {
  if (id != sim::kNoEvent) sim_.cancel(id);
}

void Node::dispatch_frame(NodeId from, std::uint16_t type, net::Decoder& d) {
  // Reserved state-transfer frames bypass the protocol's private dispatch;
  // everything else is the protocol's own tag space.
  if (type == kCatchupRequestType) {
    protocol_->on_catchup_request(from, d);
  } else if (type == kCatchupReplyType) {
    protocol_->on_catchup_reply(from, d);
  } else if (type == kCatchupSnapshotType) {
    protocol_->on_catchup_snapshot(from, d);
  } else {
    protocol_->on_message(from, type, d);
  }
}

void Node::on_packet(NodeId from,
                     std::shared_ptr<const std::vector<std::byte>> bytes) {
  if (crashed_) return;
  enqueue(
      [this, from, bytes = std::move(bytes)] {
        try {
          net::Decoder d{std::span<const std::byte>(*bytes)};
          const std::uint16_t type = d.get_u16();
          if (type == net::kCoalescedFrameType) {
            // Demux a coalesced envelope: every sub-frame is a complete
            // frame of its own, handled within this single task — the
            // receive-side amortization is the point of coalescing.
            const std::uint64_t n = net::decode_coalesced_count(d);
            messages_handled_ += n;
            for (std::uint64_t i = 0; i < n; ++i) {
              net::Decoder sub{net::decode_coalesced_next(d)};
              const std::uint16_t sub_type = sub.get_u16();
              if (sub_type == net::kCoalescedFrameType) {
                throw net::DecodeError("nested coalesced frame");
              }
              dispatch_frame(from, sub_type, sub);
            }
          } else {
            ++messages_handled_;
            dispatch_frame(from, type, d);
          }
        } catch (const net::DecodeError& e) {
          log::error("node ", id_, ": dropping corrupt message from ", from,
                     ": ", e.what());
        }
      },
      cfg_.base_service_us);
}

void Node::enqueue(std::function<void()> fn, Time service) {
  if (crashed_) return;
  queue_.push_back(Task{std::move(fn), service});
  if (!busy_) run_next();
}

void Node::run_next() {
  if (crashed_) {
    busy_ = false;
    return;
  }
  if (queue_.empty()) {
    // Accumulate-while-busy: the CPU just ran dry. Commands that piled up
    // while it was busy flush now if the pipeline window has room, instead
    // of waiting out the batch timer.
    if (!batch_.empty() && window_has_room()) {
      flush_batch();  // enqueues the propose task; fall through to run it
    }
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
  }
  busy_ = true;
  Task task = std::move(queue_.front());
  queue_.pop_front();
  extra_charge_ = 0;
  begin_turn();
  task.fn();
  end_turn();
  const Time service = task.service + extra_charge_;
  busy_time_ += service;
  // Epoch-fenced like timers: a service completion scheduled before a crash
  // must not resume the CPU loop after a recover(), or the node would run
  // two concurrent service chains.
  sim_.after(service, [this, epoch = epoch_] {
    if (epoch == epoch_) run_next();
  });
}

void Node::submit(rsm::Command cmd) {
  if (crashed_) return;
  assert(protocol_ != nullptr);
  cmd.id = fresh_cmd_id();
  cmd.origin = id_;
  cmd.finalize();
  if (!cfg_.batching) {
    enqueue(
        [this, c = std::move(cmd)]() mutable { protocol_->propose(std::move(c)); },
        kSubmitServiceUs);
    return;
  }
  batch_ops_ += cmd.ops.size();
  batch_.push_back(std::move(cmd));
  if (batch_timer_ == sim::kNoEvent) {
    batch_timer_ = set_timer(cfg_.batch_delay_us, [this] {
      batch_timer_ = sim::kNoEvent;
      // Force-flush regardless of CPU or window state: bounds the queuing
      // latency of a lull and un-wedges the batcher if an in-flight batch
      // was lost to a fault (its note_delivery will never come).
      flush_batch();
    });
  }
  // Accumulate-while-busy: flush right away while the proposer has capacity
  // (idle CPU or a full-size batch) and the pipeline window has room;
  // otherwise keep accumulating until one of the flush triggers fires —
  // CPU idle (run_next), a window slot freeing (note_delivery), the size
  // cap here, or the timer.
  if (window_has_room() && (!busy_ || batch_ops_ >= cfg_.batch_max_ops)) {
    flush_batch();
  }
}

void Node::note_delivery(const rsm::Command& cmd) {
  if (!cfg_.batching || crashed_) return;
  if (cmd.origin != id_) return;
  // One of our own proposals came out of consensus: count the in-flight
  // instance back in. This is heuristic feedback, not an exact ledger — a
  // protocol may split one flush into several proposals (M2Paxos routing) or
  // a crash may lose an in-flight batch — so it clamps at zero and the batch
  // timer backstops any undercount.
  if (open_batches_ > 0) --open_batches_;
  if (!batch_.empty() && window_has_room()) flush_batch();
}

void Node::flush_batch() {
  if (crashed_ || batch_.empty()) return;
  cancel_timer(batch_timer_);
  batch_timer_ = sim::kNoEvent;
  std::vector<rsm::Command> cmds = std::move(batch_);
  batch_.clear();
  batch_ops_ = 0;
  ++open_batches_;
  const Time service =
      kSubmitServiceUs + kPerOpServiceUs * static_cast<Time>(cmds.size());
  enqueue(
      [this, cs = std::move(cmds)]() mutable {
        protocol_->propose_batch(std::move(cs));
      },
      service);
}

void Node::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;  // invalidates every pending timer and the CPU service chain
  queue_.clear();
  busy_ = false;
  batch_.clear();
  batch_ops_ = 0;
  batch_timer_ = sim::kNoEvent;  // the epoch fence already voided the event
  open_batches_ = 0;
  staged_.clear();
  turn_depth_ = 0;
  net_.crash_node(id_);
  // Power-loss model: whatever the WAL had not flushed is gone.
  if (durability_) durability_->on_crash();
  log::info("node ", id_, " crashed at t=", sim_.now());
}

void Node::recover() {
  if (!crashed_) return;
  crashed_ = false;
  net_.recover_node(id_);
  log::info("node ", id_, " recovered at t=", sim_.now());
  protocol_->on_recover();
}

}  // namespace caesar::rt
