#pragma once
// Fixed-size log-bucketed (HDR-style) latency histogram.
//
// Same discipline as util::PerThreadCounters — the per-op hot path is an
// owned-lane update (record_owned) on the recording thread's own padded
// lane, never a lock or a shared line — but a lane here is a whole
// bucket array (~9KB), so it cannot literally reuse that template (whose
// lanes must fit one padded slot).  Snapshots merge the lanes and answer
// percentile queries.
//
// Bucketing: values below 2^kSubBits are exact (one bucket per ns);
// above that, each power-of-two octave is split into 2^kSubBits
// sub-buckets, so the relative bucket width — and therefore the
// worst-case relative error of any reported percentile — is bounded by
// 2^-kSubBits (~3.1% at kSubBits=5).  Values at or beyond 2^kMaxExp ns
// (~18 minutes) clamp into the last bucket.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/atomics.hpp"
#include "util/cacheline.hpp"

namespace wfe::obs {

/// Merged view of one histogram at a point in time; plain data, safe to
/// copy around and query off the hot path.
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Nearest-rank percentile (p in [0,100]), answered as the midpoint of
  /// the bucket containing that rank — within one bucket width of the
  /// exact sample, except for p=100 which returns the tracked max.
  std::uint64_t percentile(double p) const noexcept;
};

class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr unsigned kSubBuckets = 1u << kSubBits;  // 32
  static constexpr unsigned kMaxExp = 40;                  // ~18.3 min in ns
  // One linear region + one 32-bucket octave per exponent in
  // [kSubBits, kMaxExp).
  static constexpr unsigned kBuckets =
      kSubBuckets * (kMaxExp - kSubBits + 1);  // 1152

  explicit LatencyHistogram(unsigned lanes)
      : lanes_(lanes), slots_(std::make_unique<Lane[]>(lanes)) {}

  unsigned lanes() const noexcept { return lanes_; }

  /// Shared-lane record: bucket increment + sum add + max CAS, all
  /// relaxed RMWs, because a lane here has several writers: the WAL
  /// flushers map streams onto lanes modulo the lane count (fsync
  /// histogram), and every mutator waiting on a stream's commit records
  /// on that stream's lane (commit-wait histogram).
  void record(std::uint64_t ns, unsigned lane) noexcept {
    Lane& l = slots_[lane];
    l.bucket[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    l.sum.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t m = l.max.load(std::memory_order_relaxed);
    while (ns > m &&
           !l.max.compare_exchange_weak(m, ns, std::memory_order_relaxed)) {
    }
  }

  /// Owned-lane record for the per-op hot path: the caller guarantees it
  /// is the ONLY writer of `lane` (kv ops and the WFE slow-path probe
  /// pass their own thread slot).  Plain relaxed load+store pairs — no
  /// lock-prefixed RMW, so no store-buffer drain on x86; snapshot readers
  /// stay race-free because the cells are still atomics.
  void record_owned(std::uint64_t ns, unsigned lane) noexcept {
    Lane& l = slots_[lane];
    util::owned_add(l.bucket[bucket_index(ns)]);
    util::owned_add(l.sum, ns);
    if (ns > l.max.load(std::memory_order_relaxed))
      l.max.store(ns, std::memory_order_relaxed);
  }

  /// Merge all lanes (relaxed reads; concurrent records may or may not be
  /// visible, which is the usual counter-snapshot contract here).
  HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    s.buckets.assign(kBuckets, 0);
    for (unsigned t = 0; t < lanes_; ++t) {
      const Lane& l = slots_[t];
      for (unsigned b = 0; b < kBuckets; ++b) {
        const std::uint64_t c = l.bucket[b].load(std::memory_order_relaxed);
        s.buckets[b] += c;
        s.count += c;
      }
      s.sum += l.sum.load(std::memory_order_relaxed);
      const std::uint64_t m = l.max.load(std::memory_order_relaxed);
      if (m > s.max) s.max = m;
    }
    return s;
  }

  static unsigned bucket_index(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<unsigned>(v);
    unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    if (e >= kMaxExp) {
      e = kMaxExp - 1;
      v = (1ull << kMaxExp) - 1;
    }
    const unsigned sub =
        static_cast<unsigned>((v >> (e - kSubBits)) & (kSubBuckets - 1));
    return (e - kSubBits + 1) * kSubBuckets + sub;
  }

  /// Inclusive lower bound of a bucket.
  static std::uint64_t bucket_lo(unsigned idx) noexcept {
    const unsigned octave = idx / kSubBuckets;
    if (octave == 0) return idx;
    const unsigned e = octave + kSubBits - 1;
    const std::uint64_t sub = idx % kSubBuckets;
    return (1ull << e) + (sub << (e - kSubBits));
  }

  /// Midpoint representative used when reporting percentiles.
  static std::uint64_t bucket_mid(unsigned idx) noexcept {
    const unsigned octave = idx / kSubBuckets;
    if (octave == 0) return idx;
    const unsigned e = octave + kSubBits - 1;
    return bucket_lo(idx) + ((1ull << (e - kSubBits)) >> 1);
  }

 private:
  struct alignas(util::kFalseSharingRange) Lane {
    std::atomic<std::uint64_t> bucket[kBuckets];
    std::atomic<std::uint64_t> sum;
    std::atomic<std::uint64_t> max;
  };

  unsigned lanes_;
  std::unique_ptr<Lane[]> slots_;  // value-initialized: atomics start at 0
};

inline std::uint64_t HistogramSnapshot::percentile(double p) const noexcept {
  if (count == 0) return 0;
  if (p >= 100.0) return max;
  if (p < 0.0) p = 0.0;
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(p/100 * count), with rank at least 1.
  const double rank = p / 100.0 * static_cast<double>(count);
  std::uint64_t target = static_cast<std::uint64_t>(rank);
  if (static_cast<double>(target) < rank) ++target;  // ceil
  if (target == 0) target = 1;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (cum >= target)
      return LatencyHistogram::bucket_mid(static_cast<unsigned>(b));
  }
  return max;
}

}  // namespace wfe::obs
