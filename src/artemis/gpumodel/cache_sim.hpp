#pragma once

#include <cstdint>
#include <vector>

namespace artemis::gpumodel {

/// A set-associative LRU cache simulator: the L2 that metrics::measure_plan
/// replays counting-mode line streams through, and the cache the
/// validation harness checks the analytic model's L2 constants against.
/// Neither drives tuning (Section IV dismisses cycle-accurate simulation as
/// too slow for bottleneck analysis; this is the cheap trace-level middle
/// ground, replayed on small domains).
class CacheSim {
 public:
  /// `capacity_bytes` rounded to sets x ways x line_bytes.
  CacheSim(std::int64_t capacity_bytes, int line_bytes = 32, int ways = 16);

  /// Access one byte address; returns true on hit. Misses fill the line
  /// (write-allocate; writes and reads are treated alike, matching a
  /// sectored write-back L2).
  bool access(std::uint64_t addr);

  void reset();

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::int64_t accesses() const { return hits_ + misses_; }
  double hit_rate() const {
    return accesses() > 0 ? static_cast<double>(hits_) / accesses() : 0.0;
  }
  /// Bytes fetched from the next level (misses x line).
  std::int64_t miss_bytes() const {
    return misses_ * static_cast<std::int64_t>(line_bytes_);
  }

  int line_bytes() const { return line_bytes_; }
  std::int64_t capacity_bytes() const {
    return static_cast<std::int64_t>(num_sets_) * ways_ * line_bytes_;
  }

 private:
  int line_bytes_;
  int line_shift_;  ///< log2(line_bytes_)
  int ways_;
  std::size_t num_sets_;
  /// num_sets x ways line ids. Each set keeps its first fill_[set] slots
  /// in most-recently-used order; under LRU whether an access hits
  /// depends only on that order, so no timestamps are kept.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> fill_;  ///< valid slots per set
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace artemis::gpumodel
