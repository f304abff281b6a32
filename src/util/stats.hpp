#pragma once
// Small sample-statistics accumulator used by the bench harness
// (per-repeat throughput, unreclaimed-object samples, latency percentiles),
// plus the per-thread counter the kv stats snapshots are built on.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/atomics.hpp"
#include "util/cacheline.hpp"

namespace wfe::util {

/// Striped event counters: `Lanes` related counters packed into ONE
/// padded slot per thread, summed per lane on demand by stats readers.
/// Every slot is owned: inc(lane, tid) must come from the thread that
/// holds slot `tid` (the tracker's thread-slot contract), so the hot path
/// is an owned-lane update (util::owned_add: relaxed load + store, no
/// lock-prefixed RMW) on the thread's own cache-line pair.  Op accounting
/// never becomes the bottleneck it is measuring, and a thread's lanes
/// (the kv shards count gets / puts / removes / updates) share a single
/// line instead of one per counter.
template <unsigned Lanes>
class PerThreadCounters {
  static_assert(Lanes >= 1 && Lanes * sizeof(std::atomic<std::uint64_t>) <=
                                  kFalseSharingRange,
                "lanes of one thread must fit its padded slot");

 public:
  explicit PerThreadCounters(unsigned threads)
      : n_(threads), slots_(new Padded<Slot>[threads]) {}

  void inc(unsigned lane, unsigned tid, std::uint64_t by = 1) noexcept {
    util::owned_add(slots_[tid].value.lane[lane], by);
  }

  std::uint64_t sum(unsigned lane) const noexcept {
    std::uint64_t total = 0;
    for (unsigned t = 0; t < n_; ++t)
      total += slots_[t].value.lane[lane].load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> lane[Lanes]{};
  };
  unsigned n_;
  std::unique_ptr<Padded<Slot>[]> slots_;
};

class Samples {
 public:
  void add(double v) { data_.push_back(v); }
  void clear() { data_.clear(); }

  std::size_t count() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double mean() const noexcept {
    if (data_.empty()) return 0.0;
    double s = 0.0;
    for (double v : data_) s += v;
    return s / static_cast<double>(data_.size());
  }

  /// Sample (n-1) standard deviation; 0 for fewer than two samples.
  double stddev() const noexcept {
    if (data_.size() < 2) return 0.0;
    const double m = mean();
    double s = 0.0;
    for (double v : data_) s += (v - m) * (v - m);
    return std::sqrt(s / static_cast<double>(data_.size() - 1));
  }

  double min() const noexcept {
    return data_.empty() ? 0.0 : *std::min_element(data_.begin(), data_.end());
  }
  double max() const noexcept {
    return data_.empty() ? 0.0 : *std::max_element(data_.begin(), data_.end());
  }

  /// Nearest-rank percentile, p in [0, 100].
  double percentile(double p) const {
    if (data_.empty()) return 0.0;
    std::vector<double> sorted(data_);
    std::sort(sorted.begin(), sorted.end());
    const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }

  const std::vector<double>& values() const noexcept { return data_; }

 private:
  std::vector<double> data_;
};

}  // namespace wfe::util
