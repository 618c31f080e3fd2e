// Core identifier and time types shared by every module.
//
// All ids are small value types. Commands, requests and ballots are packed
// into 64-bit integers so they can be stored in flat containers (IdSet) and
// serialized without indirection.
#pragma once

#include <cstdint>
#include <string>

namespace caesar {

/// Index of a replica within the cluster, 0..N-1.
using NodeId = std::uint32_t;

/// Simulated time in microseconds since the start of the run.
using Time = std::int64_t;

/// Application-level key of the replicated key-value store.
using Key = std::uint64_t;

/// Globally unique command identifier: (origin node << 48) | per-origin seq.
using CmdId = std::uint64_t;

/// Globally unique client request identifier, same packing as CmdId.
using ReqId = std::uint64_t;

/// Ballot number: (round << 16) | node. Two distinct nodes can never produce
/// the same ballot, which rules out duelling recovery leaders with equal
/// ballots (paper §V-E).
using Ballot = std::uint64_t;

inline constexpr NodeId kNoNode = 0xFFFF'FFFFu;
inline constexpr CmdId kNoCmd = 0;

/// Time unit helpers; Time is microseconds.
inline constexpr Time kUs = 1;
inline constexpr Time kMs = 1000;
inline constexpr Time kSec = 1'000'000;

constexpr CmdId make_cmd_id(NodeId origin, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(origin) << 48) | (seq & 0xFFFF'FFFF'FFFFull);
}

constexpr NodeId cmd_origin(CmdId id) { return static_cast<NodeId>(id >> 48); }

constexpr std::uint64_t cmd_seq(CmdId id) { return id & 0xFFFF'FFFF'FFFFull; }

/// Batch composites (runtime-merged groups of client commands) set this bit
/// inside the 48-bit per-origin sequence field. Ordinary per-origin counters
/// never reach 2^47, so the bit cleanly separates composite ids from
/// single-command ids on the wire and in logs.
inline constexpr std::uint64_t kBatchSeqBit = 1ull << 47;
/// Low bits of a batch id reserved for addressing the composite's members:
/// member k of batch B has id B + 1 + k. Every replica derives the same
/// member ids from the composite alone, so delivery logs agree without any
/// extra coordination. Batches are capped far below 2^20 ops.
inline constexpr unsigned kBatchMemberBits = 20;

constexpr CmdId make_batch_cmd_id(NodeId origin, std::uint64_t batch_seq) {
  return make_cmd_id(origin, kBatchSeqBit | (batch_seq << kBatchMemberBits));
}

/// True for a composite batch id proper (member ids carry the batch bit too,
/// but have a nonzero member field).
constexpr bool is_batch_cmd_id(CmdId id) {
  return (cmd_seq(id) & kBatchSeqBit) != 0 &&
         (cmd_seq(id) & ((1ull << kBatchMemberBits) - 1)) == 0;
}

/// Id of member `k` of the batch composite `batch`.
constexpr CmdId batch_member_cmd_id(CmdId batch, std::size_t k) {
  return batch + 1 + static_cast<CmdId>(k);
}

constexpr ReqId make_req_id(NodeId origin, std::uint64_t seq) {
  return make_cmd_id(origin, seq);
}

constexpr Ballot make_ballot(std::uint32_t round, NodeId node) {
  return (static_cast<std::uint64_t>(round) << 16) | (node & 0xFFFFu);
}

constexpr std::uint32_t ballot_round(Ballot b) {
  return static_cast<std::uint32_t>(b >> 16);
}

constexpr NodeId ballot_node(Ballot b) {
  return static_cast<NodeId>(b & 0xFFFFu);
}

/// Human-readable rendering used in logs and test failure messages.
std::string cmd_id_str(CmdId id);

/// Classic (majority) quorum size for a cluster of n nodes: floor(n/2)+1.
constexpr std::size_t classic_quorum_size(std::size_t n) { return n / 2 + 1; }

/// CAESAR fast quorum size: ceil(3n/4) (paper §III).
constexpr std::size_t fast_quorum_size(std::size_t n) { return (3 * n + 3) / 4; }

/// EPaxos optimized fast quorum: f + floor((f+1)/2) where f = floor(n/2).
constexpr std::size_t epaxos_fast_quorum_size(std::size_t n) {
  const std::size_t f = n / 2;
  return f + (f + 1) / 2;
}

}  // namespace caesar
