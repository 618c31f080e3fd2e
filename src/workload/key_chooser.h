// Key selection.
//
// The default distribution implements the paper's conflict model (§VI):
// with probability `conflict_fraction` the command's key comes from a shared
// pool of `shared_pool_size` keys (default 100); otherwise the client writes
// to one of its own private keys, which no other client ever touches.
//
// Sharded and skew experiments need keyspace-wide distributions instead, so
// KeyChooser also speaks two global-keyspace dialects, both seeded and
// deterministic:
//
//   * kUniform — uniform over [0, keyspace);
//   * kZipfian — Zipf(theta) over [0, keyspace), rank 0 hottest, using the
//     Gray et al. rejection-free generator (the YCSB formula) off a zeta
//     table shared by all choosers of a pool.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "common/types.h"

namespace caesar::wl {

enum class KeyDist {
  kPaperConflict,  // the paper's shared-pool / private-key model (default)
  kUniform,
  kZipfian,
};

struct KeyDistConfig {
  KeyDist dist = KeyDist::kPaperConflict;
  /// Keyspace size for the global-distribution modes, and the key domain
  /// that range sharding splits into equal ranges (shard::ShardMap).
  std::uint64_t keyspace = 1ull << 16;
  /// Zipf skew parameter, in (0, 1). 0.99 is the YCSB default.
  double zipf_theta = 0.99;
};

/// Precomputed Zipfian state (zeta sums), shared by every chooser of a pool
/// so the O(keyspace) harmonic sum is paid once, not per client.
class ZipfTable {
 public:
  ZipfTable(std::uint64_t n, double theta)
      : n_(n), theta_(theta), alpha_(1.0 / (1.0 - theta)) {
    double zetan = 0.0;
    for (std::uint64_t i = 1; i <= n_; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    zetan_ = zetan;
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  /// Draws a rank in [0, n): 0 is the most popular key.
  std::uint64_t sample(Rng& rng) const {
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
  }

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_ = 0.0;
  double eta_ = 0.0;
};

class KeyChooser {
 public:
  /// Any distribution; a default KeyDistConfig is the paper's conflict
  /// model (kPaperConflict), which draws from the conflict fraction and
  /// shared pool. `zipf` must be non-null for kZipfian (one shared table per
  /// pool).
  KeyChooser(const KeyDistConfig& dist, double conflict_fraction,
             std::uint64_t shared_pool_size, std::uint64_t global_client_id,
             std::shared_ptr<const ZipfTable> zipf = nullptr)
      : dist_(dist),
        conflict_fraction_(conflict_fraction),
        shared_pool_size_(shared_pool_size),
        private_base_((1ull << 40) + (global_client_id << 12)),
        zipf_(std::move(zipf)) {}

  Key next(Rng& rng) {
    switch (dist_.dist) {
      case KeyDist::kPaperConflict:
        break;  // below
      case KeyDist::kUniform:
        return rng.uniform_int(dist_.keyspace);
      case KeyDist::kZipfian:
        return zipf_->sample(rng);
    }
    if (shared_pool_size_ > 0 && rng.bernoulli(conflict_fraction_)) {
      return rng.uniform_int(shared_pool_size_);
    }
    // Rotate through a small set of private keys: enough that a client does
    // not serialize on its own previous (still-propagating) command, small
    // enough that ownership-based protocols (M2Paxos) amortize their
    // acquisition cost the way the paper's fixed keyspace does.
    return private_base_ + (private_counter_++ & 0xF);
  }

  double conflict_fraction() const { return conflict_fraction_; }
  const KeyDistConfig& dist() const { return dist_; }

 private:
  KeyDistConfig dist_;
  double conflict_fraction_;
  std::uint64_t shared_pool_size_;
  std::uint64_t private_base_;
  std::uint64_t private_counter_ = 0;
  std::shared_ptr<const ZipfTable> zipf_;
};

}  // namespace caesar::wl
