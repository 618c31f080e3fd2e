// WAL robustness: framing, group commit, torn-tail and corruption handling.
//
// The invariant under test everywhere: replay returns exactly the records
// that were durably flushed before the incident, stops at the first frame it
// cannot trust, and never crashes or hands back garbage.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/serialization.h"
#include "storage/wal.h"

namespace caesar::storage {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = "caesar-test-data/wal/" + name;
  fs::remove_all(dir);
  return dir;
}

net::Encoder payload(std::uint64_t v) {
  net::Encoder e(16);
  e.put_varint(v);
  return e;
}

std::uint64_t body_value(const Wal::Record& rec) {
  net::Decoder d(rec.body);
  return d.get_varint();
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(WalTest, RoundTripAcrossReopen) {
  const std::string dir = fresh_dir("roundtrip");
  {
    Wal wal(dir, StorageConfig{});
    for (std::uint64_t i = 0; i < 10; ++i) {
      wal.append(static_cast<std::uint8_t>(1 + i % 3), payload(100 + i));
    }
    wal.flush();
  }
  const auto records = Wal::replay_dir(dir);
  ASSERT_EQ(records.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(records[i].type, 1 + i % 3);
    EXPECT_EQ(body_value(records[i]), 100 + i);
  }
}

TEST(WalTest, UnflushedTailIsLostOnCrash) {
  const std::string dir = fresh_dir("unflushed");
  Wal wal(dir, StorageConfig{});
  wal.append(1, payload(1));
  wal.append(1, payload(2));
  wal.flush();
  wal.append(1, payload(3));  // buffered, never flushed
  wal.discard_pending();      // power loss
  const auto records = Wal::replay_dir(dir);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(body_value(records[1]), 2u);
}

TEST(WalTest, ReplayOfMissingDirectoryIsEmpty) {
  EXPECT_TRUE(Wal::replay_dir("caesar-test-data/wal/never-created").empty());
}

// A torn write cut the last frame short mid-payload: the intact prefix
// replays, the torn record is dropped.
TEST(WalTest, TornTailRecordIsDropped) {
  const std::string dir = fresh_dir("torn");
  std::string segment;
  {
    Wal wal(dir, StorageConfig{});
    for (std::uint64_t i = 0; i < 5; ++i) wal.append(1, payload(i));
    wal.flush();
    ASSERT_EQ(wal.segment_files().size(), 1u);
    segment = wal.segment_files()[0];
  }
  auto bytes = read_file(segment);
  bytes.resize(bytes.size() - 3);  // cut into the last record's payload
  write_file(segment, bytes);

  const auto records = Wal::replay_dir(dir);
  ASSERT_EQ(records.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(body_value(records[i]), i);
}

// Only a frame's length prefix survived: same outcome as a torn payload.
TEST(WalTest, TruncationInsideFrameHeaderIsDropped) {
  const std::string dir = fresh_dir("torn-header");
  std::string segment;
  std::size_t flushed_size = 0;
  {
    Wal wal(dir, StorageConfig{});
    wal.append(1, payload(7));
    wal.flush();
    segment = wal.segment_files()[0];
    flushed_size = read_file(segment).size();
    wal.append(1, payload(8));
    wal.flush();
  }
  auto bytes = read_file(segment);
  bytes.resize(flushed_size + 2);  // 2 bytes of the second frame's header
  write_file(segment, bytes);

  const auto records = Wal::replay_dir(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(body_value(records[0]), 7u);
}

// A bit flip in the tail record's payload fails its CRC: dropped, prefix
// intact.
TEST(WalTest, BitFlippedTailRecordIsDropped) {
  const std::string dir = fresh_dir("bitflip-tail");
  std::string segment;
  {
    Wal wal(dir, StorageConfig{});
    for (std::uint64_t i = 0; i < 3; ++i) wal.append(1, payload(10 + i));
    wal.flush();
    segment = wal.segment_files()[0];
  }
  auto bytes = read_file(segment);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  write_file(segment, bytes);

  const auto records = Wal::replay_dir(dir);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(body_value(records[0]), 10u);
  EXPECT_EQ(body_value(records[1]), 11u);
}

// Corruption mid-log: everything *after* the bad frame is suspect (framing
// is length-based, so resynchronization is impossible) and must be dropped
// too, never delivered.
TEST(WalTest, CorruptionMidLogStopsReplayThere) {
  const std::string dir = fresh_dir("bitflip-mid");
  std::string segment;
  {
    Wal wal(dir, StorageConfig{});
    for (std::uint64_t i = 0; i < 6; ++i) wal.append(1, payload(i));
    wal.flush();
    segment = wal.segment_files()[0];
  }
  auto bytes = read_file(segment);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_file(segment, bytes);

  const auto records = Wal::replay_dir(dir);
  EXPECT_LT(records.size(), 6u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(body_value(records[i]), i);  // intact prefix only, in order
  }
}

// A corrupt segment header poisons that whole segment and everything after
// it, but not the segments before it.
TEST(WalTest, CorruptSegmentHeaderDropsSegment) {
  StorageConfig cfg;
  cfg.segment_bytes = 64;  // force several segments
  const std::string dir = fresh_dir("bad-segment-header");
  std::vector<std::string> segments;
  {
    Wal wal(dir, cfg);
    for (std::uint64_t i = 0; i < 12; ++i) {
      wal.append(1, payload(i));
      wal.flush();  // roll check happens at flush boundaries
    }
    segments = wal.segment_files();
  }
  ASSERT_GE(segments.size(), 3u);
  auto bytes = read_file(segments[1]);
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);  // break the magic
  write_file(segments[1], bytes);

  const auto all = Wal::replay_dir(dir);
  const auto first = Wal::replay_dir(dir);  // deterministic
  ASSERT_EQ(all.size(), first.size());
  // Everything from segment[0] survives; nothing from segment[1] onwards.
  ASSERT_FALSE(all.empty());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(body_value(all[i]), i);
  }
  EXPECT_LT(all.size(), 12u);
}

TEST(WalTest, SegmentsRollAndTruncate) {
  StorageConfig cfg;
  cfg.segment_bytes = 64;
  const std::string dir = fresh_dir("roll");
  Wal wal(dir, cfg);
  for (std::uint64_t i = 0; i < 20; ++i) {
    wal.append(1, payload(i));
    wal.flush();
  }
  ASSERT_GT(wal.segment_files().size(), 1u);

  // Replay spans all segments, in append order.
  const auto records = Wal::replay_dir(dir);
  ASSERT_EQ(records.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(body_value(records[i]), i);

  // Compaction: only the active segment survives.
  const std::size_t removed = wal.truncate_closed_segments();
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(wal.segment_files().size(), 1u);
}

// Pins the on-disk segment header layout for format version 1: little-endian
// u32 magic "CWAL", u32 version, u64 segment sequence. Any change here is an
// incompatible format change — bump kStorageFormatVersion.
TEST(WalTest, SegmentHeaderGolden) {
  ASSERT_EQ(kStorageFormatVersion, 1u);
  const std::string dir = fresh_dir("header-golden");
  std::string segment;
  std::uint64_t seq = 0;
  {
    Wal wal(dir, StorageConfig{});
    wal.append(1, payload(1));
    wal.flush();
    segment = wal.segment_files()[0];
    seq = wal.active_segment_seq();
  }
  const auto bytes = read_file(segment);
  ASSERT_GE(bytes.size(), 16u);
  const unsigned char* b = reinterpret_cast<const unsigned char*>(bytes.data());
  auto u32 = [&](std::size_t off) {
    return static_cast<std::uint32_t>(b[off]) |
           static_cast<std::uint32_t>(b[off + 1]) << 8 |
           static_cast<std::uint32_t>(b[off + 2]) << 16 |
           static_cast<std::uint32_t>(b[off + 3]) << 24;
  };
  EXPECT_EQ(u32(0), kWalMagic);
  EXPECT_EQ(u32(0), 0x4C415743u);
  EXPECT_EQ(u32(4), 1u);  // kStorageFormatVersion, literally
  std::uint64_t file_seq = 0;
  for (int i = 7; i >= 0; --i) {
    file_seq = file_seq << 8 | b[8 + static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(file_seq, seq);

  // Record frame: [u32 len][u32 crc][payload], type byte first.
  const std::uint32_t len = u32(16);
  ASSERT_EQ(bytes.size(), 16u + 8u + len);
  const std::uint32_t crc = u32(20);
  EXPECT_EQ(crc32(reinterpret_cast<const std::byte*>(bytes.data()) + 24, len),
            crc);
  EXPECT_EQ(b[24], 1u);  // record type byte leads the payload
}

TEST(WalTest, ParseSyncModeNames) {
  EXPECT_EQ(parse_sync_mode("batched"), SyncMode::kBatched);
  EXPECT_EQ(parse_sync_mode("always"), SyncMode::kAlways);
  EXPECT_THROW(parse_sync_mode("fsync-maybe"), std::invalid_argument);
  EXPECT_EQ(to_string(SyncMode::kBatched), "batched");
}

}  // namespace
}  // namespace caesar::storage
