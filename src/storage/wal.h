// Write-ahead log with length+CRC-framed records, group commit, and
// torn-tail detection — the durable half of the storage subsystem.
//
// Modeled on a production acceptor's stable storage (libpaxos's BDB-backed
// store is the reference design): appends buffer in memory and only become
// durable at a flush ("fsync") boundary, which SyncMode schedules —
// per-append (always) or time/size-capped batches (batched, the group-commit
// default). A crash or power loss discards the unflushed tail; replay reads
// back exactly the records that were flushed, stopping at the first torn or
// corrupt frame.
//
// On-disk layout (per node directory):
//   wal-<seq>.log  segments: 16-byte header (magic, version, segment seq)
//                  followed by records [u32 payload len][u32 crc32][payload].
//   The payload's first byte is the record type; the rest is an Encoder body
//   owned by the caller (storage::Durability defines the record schema).
//
// Segments roll at a size threshold and at snapshot boundaries; compaction
// deletes closed segments once a snapshot covers them (see durability.h).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/serialization.h"

namespace caesar::storage {

/// Group-commit policy: when do appended records reach disk?
enum class SyncMode {
  kBatched,  // time/size-capped batches (group commit) — the default
  kAlways,   // every append flushes before returning
};

/// Returns the mode for "batched" | "always"; throws std::invalid_argument
/// on anything else.
SyncMode parse_sync_mode(const std::string& name);
std::string to_string(SyncMode m);

struct StorageConfig {
  /// Root directory for all nodes' durable state; empty = durability off.
  /// Each node writes under <data_dir>/node-<id>/.
  std::string data_dir;
  SyncMode sync_mode = SyncMode::kBatched;
  /// Batched mode: flush immediately once this many bytes are buffered.
  std::size_t sync_bytes = 64 * 1024;
  /// Roll to a new segment once the active one exceeds this.
  std::size_t segment_bytes = 256 * 1024;
  /// Write a store snapshot (and compact covered segments) every this many
  /// delivered commands; 0 disables snapshots.
  std::uint64_t snapshot_every = 4096;
  /// Snapshots are written asynchronously off a copy: delay between the
  /// trigger and the file appearing on disk.
  Time snapshot_write_delay_us = 10 * kMs;

  bool enabled() const { return !data_dir.empty(); }
};

/// CRC-32 (IEEE, reflected 0xEDB88320) over a byte span; exposed for the
/// robustness tests that hand-corrupt frames.
std::uint32_t crc32(const std::byte* data, std::size_t len);

/// On-disk format version stamped into segment and snapshot headers; bump on
/// any incompatible layout change (the round-trip golden test pins it).
inline constexpr std::uint32_t kStorageFormatVersion = 1;
inline constexpr std::uint32_t kWalMagic = 0x4C415743u;   // "CWAL"
inline constexpr std::uint32_t kSnapMagic = 0x504E5343u;  // "CSNP"

class Wal {
 public:
  struct Record {
    std::uint8_t type = 0;
    std::vector<std::byte> body;
  };

  /// Opens (creating the directory if needed) the WAL in `dir`. Existing
  /// segments are left in place for replay; new appends go to a fresh
  /// segment above the highest existing sequence number.
  Wal(std::string dir, const StorageConfig& cfg);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Buffers one record; durable only after the next flush(). Returns the
  /// number of bytes buffered for this record (frame included).
  std::size_t append(std::uint8_t type, const net::Encoder& body);

  /// Writes all buffered records to the active segment and flushes the
  /// stream — the group-commit point. Returns true if anything was written.
  bool flush();

  /// Drops buffered records that were never flushed: the power-loss /
  /// process-crash model (this simulation treats both conservatively as
  /// losing everything after the last flush).
  void discard_pending();

  /// Flushes, closes the active segment and opens a fresh one. The new
  /// segment starts empty; compaction can later delete everything before it.
  void roll();

  /// Deletes all closed segments below the active one (they are fully
  /// covered by a snapshot). Returns how many files were removed.
  std::size_t truncate_closed_segments();

  std::size_t pending_bytes() const { return pending_.size(); }
  std::uint64_t active_segment_seq() const { return active_seq_; }
  /// Segment files currently on disk, in sequence order.
  std::vector<std::string> segment_files() const;

  /// Reads every record that survives CRC/framing checks from all segments
  /// in `dir`, in order. Replay stops at the first torn or corrupt frame —
  /// everything after an unreadable record is suspect and is dropped, never
  /// delivered. Missing directory = empty log. Never throws on corruption.
  static std::vector<Record> replay_dir(const std::string& dir);

 private:
  void open_segment(std::uint64_t seq);

  std::string dir_;
  StorageConfig cfg_;
  std::ofstream out_;
  std::uint64_t active_seq_ = 0;
  std::size_t active_bytes_ = 0;  // flushed bytes in the active segment
  std::vector<std::byte> pending_;
};

}  // namespace caesar::storage
