// ShardMap tests: hash partitioning is deterministic and balanced, range
// partitioning respects boundaries and clamps, count == 1 degenerates to the
// unsharded single group.
#include "shard/shard_map.h"

#include <gtest/gtest.h>

#include <vector>

namespace caesar::shard {
namespace {

/// The workload keyspace handed to maps whose partitioning ignores it.
constexpr std::uint64_t kKeyspace = 1ull << 16;

TEST(ShardMapTest, SingleGroupOwnsEverything) {
  ShardSpec spec;
  spec.count = 1;
  ShardMap map(spec, kKeyspace);
  EXPECT_FALSE(spec.sharded());
  for (Key k : {Key{0}, Key{1}, Key{12345}, Key{1ull << 40}}) {
    EXPECT_EQ(map.shard_of(k), 0u);
  }
}

TEST(ShardMapTest, HashAssignmentIsDeterministic) {
  ShardSpec spec;
  spec.count = 4;
  ShardMap a(spec, kKeyspace);
  ShardMap b(spec, kKeyspace);
  for (Key k = 0; k < 1000; ++k) {
    EXPECT_EQ(a.shard_of(k), b.shard_of(k));
    EXPECT_EQ(a.shard_of(k), splitmix64(k) % 4);
  }
}

TEST(ShardMapTest, HashSpreadsSequentialKeysEvenly) {
  // Sequential keys are the adversarial case for naive modulo; splitmix64
  // must keep every group within 10% of the fair share.
  ShardSpec spec;
  spec.count = 4;
  ShardMap map(spec, kKeyspace);
  const std::uint64_t kKeys = 100000;
  std::vector<std::uint64_t> counts(spec.count, 0);
  for (Key k = 0; k < kKeys; ++k) ++counts[map.shard_of(k)];
  const double fair = static_cast<double>(kKeys) / spec.count;
  for (std::uint32_t g = 0; g < spec.count; ++g) {
    EXPECT_GT(counts[g], fair * 0.9) << "group " << g;
    EXPECT_LT(counts[g], fair * 1.1) << "group " << g;
  }
}

TEST(ShardMapTest, HashSpreadsSparsePrivateKeyRangesEvenly) {
  // The paper workload's private keys live at (1<<40) + (client<<12) + i —
  // a sparse structured keyspace that must still balance.
  ShardSpec spec;
  spec.count = 4;
  ShardMap map(spec, kKeyspace);
  std::vector<std::uint64_t> counts(spec.count, 0);
  std::uint64_t total = 0;
  for (std::uint64_t client = 0; client < 2000; ++client) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      ++counts[map.shard_of((1ull << 40) + (client << 12) + i)];
      ++total;
    }
  }
  const double fair = static_cast<double>(total) / spec.count;
  for (std::uint32_t g = 0; g < spec.count; ++g) {
    EXPECT_GT(counts[g], fair * 0.9) << "group " << g;
    EXPECT_LT(counts[g], fair * 1.1) << "group " << g;
  }
}

TEST(ShardMapTest, RangePartitionBoundaries) {
  ShardSpec spec;
  spec.count = 4;
  spec.partition = Partition::kRange;
  ShardMap map(spec, /*keyspace=*/100);  // width 25 per group
  EXPECT_EQ(map.shard_of(0), 0u);
  EXPECT_EQ(map.shard_of(24), 0u);
  EXPECT_EQ(map.shard_of(25), 1u);
  EXPECT_EQ(map.shard_of(49), 1u);
  EXPECT_EQ(map.shard_of(50), 2u);
  EXPECT_EQ(map.shard_of(75), 3u);
  EXPECT_EQ(map.shard_of(99), 3u);
}

TEST(ShardMapTest, RangeKeysBeyondKeyspaceClampToLastGroup) {
  ShardSpec spec;
  spec.count = 4;
  spec.partition = Partition::kRange;
  ShardMap map(spec, /*keyspace=*/100);
  EXPECT_EQ(map.shard_of(100), 3u);
  EXPECT_EQ(map.shard_of(1ull << 50), 3u);
}

TEST(ShardMapTest, RangeWithTinyKeyspaceStillCoversAllKeys) {
  // keyspace < count: width clamps to 1, high keys clamp to the last group
  // — no division by zero, every key has an owner.
  ShardSpec spec;
  spec.count = 8;
  spec.partition = Partition::kRange;
  ShardMap map(spec, /*keyspace=*/3);
  EXPECT_EQ(map.shard_of(0), 0u);
  EXPECT_EQ(map.shard_of(1), 1u);
  EXPECT_EQ(map.shard_of(2), 2u);
  EXPECT_EQ(map.shard_of(1000), 7u);
}

TEST(ShardMapTest, ToStringCoversEnums) {
  EXPECT_EQ(to_string(Partition::kHash), "hash");
  EXPECT_EQ(to_string(Partition::kRange), "range");
}

}  // namespace
}  // namespace caesar::shard
