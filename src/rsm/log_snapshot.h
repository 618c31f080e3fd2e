// State transfer for slot/stamp-ordered protocols.
//
// A rejoining node's store silently lags the cluster unless it can fetch the
// commands it missed. CommandLog retains what a node has delivered, keyed by
// the protocol's own 64-bit order index (Mencius/Multi-Paxos: the slot or log
// index; Clock-RSM: the packed (timestamp, node) stamp), and LogSnapshot is
// the wire format of one catch-up reply chunk cut from it: the committed
// suffix above the requester's delivery frontier, plus the bound below which
// every index not listed was skipped, so the requester can resolve its whole
// gap — deliver the missed commands, skip the holes — through the normal
// delivery path.
//
// The rolling prefix hash gives catch-up a divergence tripwire: the requester
// sends the hash of its delivered prefix, the responder recomputes the same
// prefix from its own log, and a mismatch means the two replicas already
// disagree on history — state transfer must not paper over that.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/serialization.h"
#include "rsm/command.h"

namespace caesar::rsm {

/// One chunk of a catch-up reply: the responder's committed entries with
/// index in [from, through), in index order. Every index in [from, through)
/// *not* listed was skipped (resolved with no command) at the responder.
/// Entries with index >= through may be appended too (commands the responder
/// knows are committed but has not delivered yet); they carry no skip
/// information. `done` marks the final chunk of one reply.
struct LogSnapshot {
  std::uint64_t from = 0;
  std::uint64_t through = 0;
  bool done = true;
  /// Responder's hash over its delivered entries with index < `from`
  /// (see CommandLog::hash_below); compare against the local rolling hash.
  std::uint64_t prefix_hash = 0;
  std::vector<std::pair<std::uint64_t, Command>> entries;

  void encode(net::Encoder& e) const;
  static LogSnapshot decode(net::Decoder& d);
};

/// Append-only record of the commands a node has delivered, in delivery
/// order, keyed by the protocol's order index. Serves catch-up requests
/// (suffix extraction) and revocation queries (point lookup of a delivered
/// slot). Indices are appended in strictly increasing order — delivery order
/// *is* index order for the protocols that use this — so lookups are binary
/// searches. A snapshot can compact the retained prefix: entries below the
/// base index are dropped, with the base hash standing in for them so the
/// rolling hash (and catch-up's divergence tripwire) is unchanged.
class CommandLog {
 public:
  void append(std::uint64_t index, Command cmd) {
    hash_ = mix(hash_, index, cmd.id);
    entries_.emplace_back(index, std::move(cmd));
  }

  /// Drops retained entries with index < `index` once a durable snapshot
  /// covers them. The rolling hash is unaffected: the hash of the dropped
  /// prefix becomes the new base hash.
  void compact_through(std::uint64_t index);

  /// Re-bases an empty-or-compacted log onto a snapshot: everything below
  /// `index` is summarized by `hash` (the snapshot's prefix hash). Drops any
  /// retained entries below the new base.
  void set_base(std::uint64_t index, std::uint64_t hash);

  /// First index whose command may still be retained; entries below this
  /// were compacted away (0 = nothing compacted).
  std::uint64_t base_index() const { return base_index_; }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Delivered command at `index`, or nullptr (never delivered / skipped).
  const Command* find(std::uint64_t index) const;

  /// Rolling hash over all appended (index, cmd-id) pairs.
  std::uint64_t rolling_hash() const { return hash_; }

  /// Hash over the prefix of entries with index < `index` — what the rolling
  /// hash was when the log had delivered exactly that prefix. O(prefix).
  std::uint64_t hash_below(std::uint64_t index) const;

  /// Cuts one reply chunk: at most `max_entries` delivered entries with
  /// index >= `from`. `frontier` is the caller's delivery frontier
  /// (exclusive); the chunk's `through` covers as far as the included
  /// entries prove skips, i.e. the full frontier when everything fits.
  LogSnapshot suffix(std::uint64_t from, std::uint64_t frontier,
                     std::size_t max_entries) const;

  const std::vector<std::pair<std::uint64_t, Command>>& entries() const {
    return entries_;
  }

  /// One FNV-1a step over an (index, cmd-id) pair; exposed so catch-up
  /// responders can carry the prefix hash incrementally across reply chunks
  /// instead of rescanning the log per chunk (see hash_below).
  static std::uint64_t mix(std::uint64_t h, std::uint64_t index, CmdId id) {
    // FNV-1a over the two words; good enough for a divergence tripwire.
    constexpr std::uint64_t kPrime = 1099511628211ull;
    h = (h ^ index) * kPrime;
    h = (h ^ id) * kPrime;
    return h;
  }

 private:
  static constexpr std::uint64_t kSeed = 1469598103934665603ull;  // FNV offset
  std::vector<std::pair<std::uint64_t, Command>> entries_;
  std::uint64_t hash_ = kSeed;
  /// Compaction horizon: entries below base_index_ were dropped; base_hash_
  /// is the rolling hash the log had at exactly that prefix.
  std::uint64_t base_index_ = 0;
  std::uint64_t base_hash_ = kSeed;
};

/// Entries per catch-up reply chunk: keeps single messages bounded so a long
/// outage's worth of state transfer does not serialize into one giant frame.
inline constexpr std::size_t kCatchupChunkEntries = 256;

}  // namespace caesar::rsm
