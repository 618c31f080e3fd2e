// Simulated geo-replicated network.
//
// Substitutes for the paper's EC2 inter-region links. Properties modelled:
//   * per-pair propagation delay from the Topology matrix, plus jitter;
//   * per-link FIFO ordering (TCP semantics): a message never overtakes an
//     earlier message on the same (src, dst) link;
//   * serialization delay from message size and link bandwidth;
//   * crash-stop failures (a crashed node neither sends nor receives);
//   * explicit link partitions: traffic on a cut link is *held* and released
//     when the link heals (TCP retransmission across a transient partition —
//     the paper's quasi-reliable channels between correct processes), while
//     traffic involving a crashed node is dropped outright.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/topology.h"
#include "sim/simulator.h"

namespace caesar::net {

struct NetworkConfig {
  /// Link bandwidth in bytes per microsecond (125 = 1 Gbit/s).
  double bytes_per_us = 125.0;
  /// Fixed per-message overhead added to the payload when computing the
  /// serialization delay (headers etc.).
  std::size_t overhead_bytes = 60;
};

class Network {
 public:
  /// Called at delivery time on the destination's behalf. The payload pointer
  /// is shared with other recipients of the same broadcast; treat as
  /// immutable.
  using Sink = std::function<void(
      NodeId from, std::shared_ptr<const std::vector<std::byte>> payload)>;

  Network(sim::Simulator& sim, Topology topo, NetworkConfig cfg = {});

  std::size_t size() const { return topo_.size(); }
  const Topology& topology() const { return topo_; }

  /// Registers the receive callback for `node`.
  void set_sink(NodeId node, Sink sink);

  /// Sends `payload` from `from` to `to`. The payload is shared, not copied,
  /// so broadcasting the same bytes to N peers costs one allocation.
  void send(NodeId from, NodeId to,
            std::shared_ptr<const std::vector<std::byte>> payload);

  /// Crash-stop: all queued and future traffic to/from `node` is dropped.
  void crash_node(NodeId node);
  /// Reconnects a previously crashed node. Traffic queued while it was down
  /// stays lost; only messages sent from now on reach it.
  void recover_node(NodeId node);

  /// Cuts or restores both directions of a link. While cut, messages on the
  /// link are held; restoring the link re-injects them (in order) with fresh
  /// propagation delays, except those whose endpoint has crashed meanwhile.
  void set_link_up(NodeId a, NodeId b, bool up);
  bool link_up(NodeId a, NodeId b) const { return link_up_[a][b]; }

  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }
  /// Messages currently parked on cut links.
  std::uint64_t messages_held() const { return messages_held_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  Time delay_for(NodeId from, NodeId to, std::size_t bytes);
  void deliver(NodeId from, NodeId to,
               std::shared_ptr<const std::vector<std::byte>> payload);
  void release_held(NodeId from, NodeId to);

  sim::Simulator& sim_;
  Topology topo_;
  NetworkConfig cfg_;
  std::vector<Sink> sinks_;
  std::vector<bool> crashed_;
  /// Bumped on every crash; a message only arrives if both endpoints are
  /// still in the incarnation they were in when it was sent, so traffic of
  /// a dead incarnation can never reach a recovered node.
  std::vector<std::uint64_t> incarnation_;
  std::vector<std::vector<bool>> link_up_;
  /// Last scheduled arrival per (from, to): enforces FIFO per link.
  std::vector<std::vector<Time>> last_arrival_;
  /// Messages parked on cut links, per (from, to), in send order.
  std::vector<std::vector<std::vector<
      std::shared_ptr<const std::vector<std::byte>>>>>
      held_;
  Rng rng_;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t messages_held_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace caesar::net
