// ShardMap: the keyspace partitioner of the multi-group consensus layer.
//
// Commands on disjoint keys need no mutual ordering (the insight CAESAR and
// M2Paxos exploit per-command); partitioning the keyspace across N fully
// independent consensus groups applies it one level up and turns it into
// horizontal scale. A ShardMap deterministically assigns every key to one of
// `count` groups:
//
//   * kHash  — splitmix64(key) % count: spreads any keyspace (including the
//     paper model's sparse private-key ranges) evenly across groups;
//   * kRange — the workload's keyspace [0, keyspace) split into `count`
//     equal contiguous ranges, keys beyond it clamp to the last group.
//     Natural for range scans and for demonstrating skew (a hot prefix lands
//     in one group).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>

#include "common/types.h"

namespace caesar::shard {

enum class Partition { kHash, kRange };

/// Each value with its name in reports and scenario files.
inline constexpr std::pair<std::string_view, Partition> kPartitionNames[] = {
    {"hash", Partition::kHash}, {"range", Partition::kRange}};

constexpr std::string_view to_string(Partition p) {
  for (const auto& [name, value] : kPartitionNames) {
    if (value == p) return name;
  }
  return "?";
}

/// How a scenario shards its keyspace. count == 1 means unsharded: one
/// group owns every key.
struct ShardSpec {
  std::uint32_t count = 1;
  Partition partition = Partition::kHash;

  bool sharded() const { return count > 1; }
};

/// Mixes key bits so hash partitioning stays balanced on structured
/// keyspaces (sequential keys, the workload's private-key ranges).
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class ShardMap {
 public:
  /// `keyspace` is the workload's key domain (wl::KeyDistConfig::keyspace),
  /// which range partitioning splits.
  ShardMap(ShardSpec spec, std::uint64_t keyspace)
      : spec_(spec),
        range_width_(std::max<std::uint64_t>(
            1, keyspace / std::max<std::uint32_t>(1, spec.count))) {}

  std::uint32_t count() const { return spec_.count; }

  /// Owning group of `key`; always 0 for an unsharded spec.
  std::uint32_t shard_of(Key key) const {
    if (spec_.count <= 1) return 0;
    if (spec_.partition == Partition::kHash) {
      return static_cast<std::uint32_t>(splitmix64(key) % spec_.count);
    }
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(key / range_width_, spec_.count - 1));
  }

 private:
  ShardSpec spec_;
  std::uint64_t range_width_;
};

}  // namespace caesar::shard
