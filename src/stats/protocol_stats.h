// Counters every protocol implementation exports so the harness can report
// fast/slow path ratios (paper Fig 10) and CAESAR's phase breakdown and wait
// times (paper Fig 11). ProtocolCounters is the plain-counter snapshot the
// metrics windows subtract to get per-window deltas.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>

#include "common/types.h"
#include "stats/latency_stats.h"

namespace caesar::stats {

/// The monotone counters of a ProtocolStats, snapshottable and subtractable:
/// window(t0, t1) = snapshot(t1) - snapshot(t0) gives the decisions taken
/// inside the window, so fast-path fractions can be read per phase without
/// hand-placed sample points.
struct ProtocolCounters {
  // Decision paths, counted once per command at its leader.
  std::uint64_t fast_decisions = 0;
  std::uint64_t slow_decisions = 0;
  std::uint64_t retries = 0;         // retry phases executed
  std::uint64_t slow_proposals = 0;  // CAESAR slow-proposal phases
  std::uint64_t recoveries = 0;      // recovery procedures started
  std::uint64_t waits = 0;           // CAESAR proposals parked (Fig 11b)
  // State transfer & dead-node revocation (rejoin/catch-up subsystem).
  std::uint64_t catchup_requests = 0;  // requests sent by lagging nodes
  std::uint64_t catchup_chunks = 0;    // reply chunks served by live peers
  std::uint64_t catchup_commands = 0;  // commands applied from replies
  std::uint64_t revocations = 0;       // dead-node revocation decisions
  // Durable storage subsystem (storage/durability.h).
  std::uint64_t wal_appends = 0;         // records appended to the WAL
  std::uint64_t fsyncs = 0;              // group-commit flushes made durable
  std::uint64_t snapshots = 0;           // store snapshots written
  std::uint64_t truncated_segments = 0;  // WAL segments deleted by compaction

  std::uint64_t decisions() const { return fast_decisions + slow_decisions; }

  double slow_path_fraction() const {
    const std::uint64_t total = decisions();
    return total == 0 ? 0.0
                      : static_cast<double>(slow_decisions) /
                            static_cast<double>(total);
  }
  double fast_path_fraction() const {
    return decisions() == 0 ? 0.0 : 1.0 - slow_path_fraction();
  }

  ProtocolCounters& operator+=(const ProtocolCounters& o);

  /// Counter delta; counters are monotone, so per-field subtraction of an
  /// earlier snapshot is well-defined.
  ProtocolCounters operator-(const ProtocolCounters& earlier) const;

  friend bool operator==(const ProtocolCounters&,
                         const ProtocolCounters&) = default;
};

/// Every counter with its report key, in report order. operator+=,
/// operator- and the JSON emitter walk this list, so a new counter is a
/// field above plus one entry here.
struct CounterField {
  const char* name;
  std::uint64_t ProtocolCounters::*member;
};
inline constexpr CounterField kCounterFields[] = {
    {"fast_decisions", &ProtocolCounters::fast_decisions},
    {"slow_decisions", &ProtocolCounters::slow_decisions},
    {"retries", &ProtocolCounters::retries},
    {"slow_proposals", &ProtocolCounters::slow_proposals},
    {"recoveries", &ProtocolCounters::recoveries},
    {"waits", &ProtocolCounters::waits},
    {"catchup_requests", &ProtocolCounters::catchup_requests},
    {"catchup_chunks", &ProtocolCounters::catchup_chunks},
    {"catchup_commands", &ProtocolCounters::catchup_commands},
    {"revocations", &ProtocolCounters::revocations},
    {"wal_appends", &ProtocolCounters::wal_appends},
    {"fsyncs", &ProtocolCounters::fsyncs},
    {"snapshots", &ProtocolCounters::snapshots},
    {"truncated_segments", &ProtocolCounters::truncated_segments},
};
static_assert(sizeof(ProtocolCounters) ==
                  std::size(kCounterFields) * sizeof(std::uint64_t),
              "every ProtocolCounters field needs a kCounterFields entry");

inline ProtocolCounters& ProtocolCounters::operator+=(
    const ProtocolCounters& o) {
  for (const CounterField& f : kCounterFields) this->*f.member += o.*f.member;
  return *this;
}

inline ProtocolCounters ProtocolCounters::operator-(
    const ProtocolCounters& earlier) const {
  ProtocolCounters d;
  for (const CounterField& f : kCounterFields) {
    d.*f.member = this->*f.member - earlier.*f.member;
  }
  return d;
}

/// A protocol's latency pools (paper Fig 11): CAESAR's wait condition and
/// the leader's phase breakdown.
struct PhasePools {
  LatencyStats wait_time;      // proposals parked by the wait condition
  LatencyStats propose_phase;  // propose sent -> outcome known
  LatencyStats retry_phase;    // retry sent -> quorum of acks
  LatencyStats deliver_phase;  // stable known -> command delivered locally

  /// Sample count of each pool, in kPoolFields order. Pools are append-only
  /// during a run, so two snapshots delimit the samples recorded between
  /// them; merge_range turns that into per-window phase breakdowns.
  using SampleCounts = std::array<std::uint64_t, 4>;
  SampleCounts sample_counts() const;

  /// Appends every sample of `o`'s pools.
  void merge(const PhasePools& o);
  /// Appends the samples `o`'s pools recorded between two snapshots.
  void merge_range(const PhasePools& o, const SampleCounts& from,
                   const SampleCounts& to);
};

/// Every pool with its report key, in report order. The PhasePools methods
/// and the JSON emitter walk this list, so a new pool is a field above plus
/// one entry here.
struct PoolField {
  const char* name;
  LatencyStats PhasePools::*member;
};
inline constexpr PoolField kPoolFields[] = {
    {"wait", &PhasePools::wait_time},
    {"propose", &PhasePools::propose_phase},
    {"retry", &PhasePools::retry_phase},
    {"deliver", &PhasePools::deliver_phase},
};
static_assert(sizeof(PhasePools) ==
                      std::size(kPoolFields) * sizeof(LatencyStats) &&
                  std::tuple_size_v<PhasePools::SampleCounts> ==
                      std::size(kPoolFields),
              "every PhasePools pool needs a kPoolFields entry");

inline PhasePools::SampleCounts PhasePools::sample_counts() const {
  SampleCounts c{};
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = (this->*kPoolFields[i].member).count();
  }
  return c;
}

inline void PhasePools::merge(const PhasePools& o) {
  for (const PoolField& f : kPoolFields) (this->*f.member).merge(o.*f.member);
}

inline void PhasePools::merge_range(const PhasePools& o,
                                    const SampleCounts& from,
                                    const SampleCounts& to) {
  for (std::size_t i = 0; i < from.size(); ++i) {
    const auto member = kPoolFields[i].member;
    (this->*member).merge_range(o.*member, from[i], to[i]);
  }
}

/// A protocol's counters plus its latency pools.
struct ProtocolStats : ProtocolCounters, PhasePools {
  /// Snapshot of the plain counters (no latency pools) for window deltas.
  ProtocolCounters counters() const { return *this; }
};

}  // namespace caesar::stats
