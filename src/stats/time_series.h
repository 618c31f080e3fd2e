// Fixed-width bucketed time series (events per interval) — used for the
// throughput-over-time plot in the recovery experiment (paper Fig 12).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace caesar::stats {

class TimeSeries {
 public:
  explicit TimeSeries(Time bucket_width_us) : width_(bucket_width_us) {}

  void record(Time t, double v = 1.0) {
    if (t < 0) return;
    const std::size_t idx = static_cast<std::size_t>(t / width_);
    if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0.0);
    buckets_[idx] += v;
  }

  Time bucket_width() const { return width_; }
  std::size_t bucket_count() const { return buckets_.size(); }

  double value_at(std::size_t idx) const {
    return idx < buckets_.size() ? buckets_[idx] : 0.0;
  }

  /// Events per second in bucket `idx`.
  double rate_at(std::size_t idx) const {
    return value_at(idx) * (static_cast<double>(kSec) / static_cast<double>(width_));
  }

  const std::vector<double>& buckets() const { return buckets_; }

  /// Sum of the buckets from the one holding `t` to the last.
  double sum_from(Time t) const {
    double sum = 0.0;
    for (std::size_t i = static_cast<std::size_t>(t / width_);
         i < buckets_.size(); ++i) {
      sum += buckets_[i];
    }
    return sum;
  }

 private:
  Time width_;
  std::vector<double> buckets_;
};

}  // namespace caesar::stats
