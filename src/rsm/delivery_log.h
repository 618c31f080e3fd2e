// Records the order in which a node delivered (decided) commands.
//
// Used by the consistency oracle and the tests to check the Generalized
// Consensus consistency property: for every key, all nodes must deliver the
// commands touching that key in the same relative order (non-conflicting
// commands may be permuted).
//
// Recording is on every replica's delivery path, so the record is flat and
// append-only: the delivery sequence plus, per op, its key and the index of
// its delivery, with no hashing. The per-key view is built on first use by one stable
// radix sort of those entries by key, so each key keeps its delivery order:
// one key-sorted id array with a run per key. Any mutation drops it. The
// view is held as offsets, so a copied or moved log never points into
// another log's arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "rsm/command.h"

namespace caesar::rsm {

class DeliveryLog {
 public:
  /// One key and the ids of the commands that touched it, in delivery order.
  /// `ids` points into the log and lives until the log's next mutation.
  struct KeyIds {
    Key key;
    std::span<const CmdId> ids;
  };

  /// Appends one delivery. Throws std::length_error past 2^32 deliveries,
  /// which a 32-bit delivery index cannot name.
  void record(const Command& cmd) {
    drop_order();
    if (sequence_.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("DeliveryLog: too many deliveries");
    }
    const auto at = static_cast<std::uint32_t>(sequence_.size());
    for (const Op& op : cmd.ops) {
      touch_keys_.push_back(op.key);
      touch_at_.push_back(at);
    }
    sequence_.push_back(cmd.id);
  }

  /// Drops every record after the first `n` deliveries. Models a restart
  /// from disk: the node's observable history shrinks back to the durable
  /// prefix, and re-deliveries after replay re-record from there.
  void truncate(std::size_t n);

  /// Clears the log and marks it trimmed: this node installed a store
  /// snapshot, so its recorded history starts mid-stream. The consistency
  /// oracle switches from prefix to suffix semantics for trimmed logs.
  void reset_trimmed();

  bool trimmed() const { return trimmed_; }

  /// Full delivery order on this node.
  const std::vector<CmdId>& sequence() const { return sequence_; }

  /// Delivery order restricted to commands touching `k`; empty for a key
  /// this log never saw.
  std::span<const CmdId> key_sequence(Key k) const;

  /// Every key this log has seen, in ascending key order, as KeyIds.
  auto per_key() const {
    build_order();
    return std::views::iota(std::size_t{0}, run_keys_.size()) |
           std::views::transform([this](std::size_t r) { return run(r); });
  }

  std::size_t size() const { return sequence_.size(); }

 private:
  /// The r-th key and its delivery order, key_ids_[run_ends_[r - 1],
  /// run_ends_[r]).
  KeyIds run(std::size_t r) const {
    const std::size_t begin = r == 0 ? 0 : run_ends_[r - 1];
    return {run_keys_[r], std::span<const CmdId>(key_ids_).subspan(
                              begin, run_ends_[r] - begin)};
  }
  void build_order() const {
    if (!ordered_) sort_order();
  }
  void sort_order() const;
  void drop_order() {
    ordered_ = false;
    key_ids_.clear();
    run_keys_.clear();
    run_ends_.clear();
  }

  std::vector<CmdId> sequence_;
  // Per op, in delivery order: its key, and its delivery's index into
  // sequence_.
  std::vector<Key> touch_keys_;
  std::vector<std::uint32_t> touch_at_;
  // The per-key view, valid while ordered_.
  mutable std::vector<CmdId> key_ids_;
  mutable std::vector<Key> run_keys_;
  mutable std::vector<std::size_t> run_ends_;
  mutable bool ordered_ = false;
  bool trimmed_ = false;
};

/// Returns true if `a` is order-consistent with `b` for every key: the common
/// elements of the two per-key sequences appear in the same relative order.
/// (Nodes may have delivered different prefixes when a run is cut off.)
bool consistent_key_orders(const DeliveryLog& a, const DeliveryLog& b);

/// Stronger oracle: for every key, the shorter of the two per-key sequences
/// must be a *prefix* of the longer. Rules out the gap a missing catch-up
/// leaves behind (a rejoined node resuming delivery with missed commands
/// omitted from the middle), which the common-relative-order check cannot
/// see. On failure fills `why` (when non-null) with the smallest offending
/// key and its position.
bool prefix_consistent_key_orders(const DeliveryLog& a, const DeliveryLog& b,
                                  std::string* why = nullptr);

/// Oracle for trimmed logs (see DeliveryLog::reset_trimmed): for every key
/// the trimmed log has seen, its per-key sequence must be a contiguous
/// *suffix* of the full log's — the trimmed node joined mid-stream via a
/// store snapshot and must have delivered everything after its join point in
/// the cluster order, with nothing missing from the middle or end. On
/// failure fills `why` (when non-null) with the smallest offending key.
bool suffix_consistent_key_orders(const DeliveryLog& full,
                                  const DeliveryLog& trimmed,
                                  std::string* why = nullptr);

}  // namespace caesar::rsm
