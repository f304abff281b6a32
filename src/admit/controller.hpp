#pragma once
// Ratekeeper-style admission controller (FoundationDB's Ratekeeper is
// the model): throttle and shed at the KvStore front door, driven by
// the obs Sampler's snapshots, instead of letting every appender
// discover saturation by spinning on the WAL ring.
//
// Control law, evaluated once per sampler snapshot:
//
//   severity = max( wal_durable_lag   / wal_lag_target,
//                   retire_backlog    / retire_backlog_target,
//                   projected commit-wait p99 / p99_target )
//
// over the store's kv_wal_durable_lag gauge, its kv_unreclaimed gauge
// (every retired block not yet freed waits on a retire list) and the p99
// of its kv_wal_commit_wait_ns summary (extract() below), smoothed by an
// EWMA so one noisy sample neither slams the brakes nor releases them.
// The commit-wait term is trend-extrapolated one step
// (p99 + max(0, delta since last sample)): commit wait is the earliest
// rising signal under write overload, and acting on its slope throttles
// BEFORE the ring fills rather than after.  severity <= 1 opens the
// throttle multiplicatively (kRecoverGain per snapshot, up to
// max_write_rate); severity > 1 divides the rate by the severity
// (floored at min_write_rate), so a 4x-over-target backlog cuts the
// admitted write rate to a quarter in one step — multiplicative
// decrease beats additive under congestion collapse.
//
// Enforcement is a token bucket on WRITES only: admit_write(n) takes n
// tokens (capacity = rate * burst_seconds) and, when the bucket is dry,
// refills it from the clock and retries for a bounded max_wait_us on
// capped backoff before giving up.
// Reads are never token-gated — they only shed, and only at a much
// higher severity (read_shed_severity vs shed_severity): writes are
// what feed the WAL and the retire lists, so writes throttle first and
// reads keep flowing until the store is truly drowning.  A refused op
// surfaces as kv::Overloaded at the API instead of silent latency.
//
// Threading: the controller has no thread of its own.  admit_read and
// admit_write are the hot path — one relaxed flag load for reads, one
// CAS for writes — and may run from any thread.  observe() runs on the
// sampler's thread, once per snapshot (the hook KvStore hands
// KvMetrics::start_sampler), and is single-writer by contract.  A write
// that finds the bucket dry refills it itself (refill(): a CAS on the
// last-refill stamp credits each interval to one writer), so no
// throttled write waits for another thread to be scheduled.  Null-object
// discipline matches obs::KvMetrics: a store with admission disabled
// holds no controller at all.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "obs/clock.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/backoff.hpp"

namespace wfe::admit {

/// Multiplicative rate recovery per snapshot while severity <= 1.
inline constexpr double kRecoverGain = 1.25;

struct AdmitOptions {
  bool enabled = false;
  /// Token-bucket ceiling/floor for admitted writes, ops/second.  The
  /// ceiling should sit above any rate the store can actually serve
  /// (the controller finds the real capacity by feedback); the floor
  /// keeps a throttled store live instead of parked.
  double max_write_rate = 5e6;
  double min_write_rate = 1e3;
  /// Bucket capacity = current rate * burst_seconds: how much burst a
  /// steady-state-admissible workload can front-load.
  double burst_seconds = 0.05;
  /// Severity targets: the operating point each signal is normalized
  /// against.  wal_lag counts records (compare the stream's
  /// ring_capacity), retire_backlog counts blocks queued on the
  /// domains' retire lists.
  double wal_lag_target = 512;
  double retire_backlog_target = 4096;
  double commit_wait_p99_target_ns = 5e6;  // 5 ms
  /// Shed thresholds: severity at which writes (then, much later,
  /// reads) are refused outright instead of merely rate-limited.
  double shed_write_severity = 4.0;
  double shed_read_severity = 16.0;
  /// EWMA weight of the newest severity sample (0..1].
  double severity_alpha = 0.5;
  /// How long admit_write retries a dry bucket before refusing.
  std::uint32_t max_wait_us = 2000;
};

/// One control input, extracted from a RegistrySnapshot (or injected
/// directly by tests).
struct Signals {
  double wal_lag = 0;            ///< appended - durable, records (max over shards)
  double retire_backlog = 0;     ///< blocks queued on the retire lists (kv_unreclaimed)
  double commit_wait_p99_ns = 0; ///< kv_wal_commit_wait_ns p99
};

/// Racy-relaxed view for stats()/gauges.
struct AdmitSnapshot {
  double write_rate = 0;
  double severity = 0;
  bool shedding_writes = false;
  bool shedding_reads = false;
  std::uint64_t shed_writes = 0;     ///< write ops refused
  std::uint64_t shed_reads = 0;      ///< read ops refused
  std::uint64_t throttle_waits = 0;  ///< writes that waited on the bucket
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmitOptions& options) : opt(options) {
    opt.max_write_rate = std::max(1.0, opt.max_write_rate);
    opt.min_write_rate =
        std::clamp(opt.min_write_rate, 1.0, opt.max_write_rate);
    opt.burst_seconds = std::max(1e-4, opt.burst_seconds);
    opt.severity_alpha = std::clamp(opt.severity_alpha, 1e-3, 1.0);
    rate_.store(opt.max_write_rate, std::memory_order_relaxed);
    tokens_.store(bucket_capacity(opt.max_write_rate),
                  std::memory_order_relaxed);
  }

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // ---- hot path (any thread) ----

  /// One relaxed load: reads are never token-gated, they only shed at
  /// read_shed_severity (write-before-read priority).
  bool admit_read() noexcept {
    if (!shed_reads_.load(std::memory_order_relaxed)) return true;
    shed_read_ops_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Takes `n` tokens (a multi-op batch is n writes); retries a dry
  /// bucket for up to max_wait_us, then refuses.  A batch larger than
  /// the whole bucket costs the full bucket — it must not be
  /// unadmittable at any rate.
  bool admit_write(std::uint32_t n = 1) noexcept {
    if (shed_writes_.load(std::memory_order_relaxed)) {
      shed_write_ops_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const std::int64_t want = std::max<std::int64_t>(
        1, std::min<std::int64_t>(
               n, bucket_capacity(rate_.load(std::memory_order_relaxed))));
    if (try_take(want)) return true;
    // Dry bucket: this op is now throttle-bound.  Tag the episode for
    // the slow-op trace, then refill from the clock and retry on capped
    // backoff for a bounded window before giving up and shedding.
    obs::stall_note(obs::TraceCause::kAdmitThrottle);
    throttle_waits_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t deadline_ns =
        obs::now_ns() + std::uint64_t{opt.max_wait_us} * 1000;
    util::Backoff backoff;
    for (;;) {
      const std::uint64_t now = obs::now_ns();
      refill(now);
      if (try_take(want)) return true;
      if (now >= deadline_ns || shed_writes_.load(std::memory_order_relaxed))
        break;
      backoff.pause();
    }
    shed_write_ops_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // ---- control law (sampler thread, or a test harness; single writer) ----

  /// Feed one sample through the law: update severity, rate and the
  /// shed flags.  Pure state machine — no clock, no threads — so tests
  /// can drive saturation and drain scenarios deterministically.
  void observe(const Signals& s) noexcept {
    double sev = 0;
    if (opt.wal_lag_target > 0) sev = std::max(sev, s.wal_lag / opt.wal_lag_target);
    if (opt.retire_backlog_target > 0)
      sev = std::max(sev, s.retire_backlog / opt.retire_backlog_target);
    if (opt.commit_wait_p99_target_ns > 0) {
      // One-step trend extrapolation: act on the slope before the ring
      // fills, not after.
      const double projected =
          s.commit_wait_p99_ns + std::max(0.0, s.commit_wait_p99_ns - last_p99_);
      sev = std::max(sev, projected / opt.commit_wait_p99_target_ns);
    }
    last_p99_ = s.commit_wait_p99_ns;
    smoothed_ = opt.severity_alpha * sev + (1.0 - opt.severity_alpha) * smoothed_;
    severity_.store(smoothed_, std::memory_order_relaxed);
    double r = rate_.load(std::memory_order_relaxed);
    if (smoothed_ <= 1.0) {
      r = std::min(opt.max_write_rate, r * kRecoverGain);
    } else {
      // Multiplicative decrease, capped so one wild sample cannot park
      // the store; the EWMA plus repeated snapshots reach any depth anyway.
      r = std::max(opt.min_write_rate, r / std::min(smoothed_, 16.0));
    }
    rate_.store(r, std::memory_order_relaxed);
    credit(0, bucket_capacity(r));  // a rate cut shrinks the bucket at once
    shed_writes_.store(smoothed_ >= opt.shed_write_severity,
                       std::memory_order_relaxed);
    shed_reads_.store(smoothed_ >= opt.shed_read_severity,
                      std::memory_order_relaxed);
  }

  /// Credits the whole tokens earned at the current rate since the last
  /// refill, clamped to the bucket; `now_ns` is obs::now_ns() on the
  /// write path and explicit in tests.  Racing writers CAS the
  /// last-refill stamp, so each interval is credited once, and the stamp
  /// moves by exactly the time the credited tokens took, so a fraction of
  /// a token carries over.  Only a dry bucket refills, so time it sat
  /// full is credited too: after an idle spell the first dry write finds
  /// up to one more bucket (a burst of at most twice the capacity).
  void refill(std::uint64_t now_ns) noexcept {
    std::uint64_t last = refilled_ns_.load(std::memory_order_relaxed);
    if (now_ns <= last) return;
    const double r = rate_.load(std::memory_order_relaxed);
    const std::int64_t cap = bucket_capacity(r);
    const double earned = static_cast<double>(now_ns - last) * r / 1e9;
    if (earned < 1) return;  // no whole token yet: the interval accrues
    std::int64_t add = cap;
    std::uint64_t upto = now_ns;
    if (earned < static_cast<double>(cap)) {
      add = static_cast<std::int64_t>(earned);
      upto = last + static_cast<std::uint64_t>(static_cast<double>(add) *
                                               1e9 / r);
    }
    if (refilled_ns_.compare_exchange_strong(last, upto,
                                             std::memory_order_relaxed))
      credit(add, cap);
  }

  // ---- introspection ----

  double write_rate() const noexcept {
    return rate_.load(std::memory_order_relaxed);
  }
  double severity() const noexcept {
    return severity_.load(std::memory_order_relaxed);
  }
  std::int64_t tokens() const noexcept {
    return tokens_.load(std::memory_order_relaxed);
  }

  AdmitSnapshot snapshot() const noexcept {
    AdmitSnapshot s;
    s.write_rate = write_rate();
    s.severity = severity();
    s.shedding_writes = shed_writes_.load(std::memory_order_relaxed);
    s.shedding_reads = shed_reads_.load(std::memory_order_relaxed);
    s.shed_writes = shed_write_ops_.load(std::memory_order_relaxed);
    s.shed_reads = shed_read_ops_.load(std::memory_order_relaxed);
    s.throttle_waits = throttle_waits_.load(std::memory_order_relaxed);
    return s;
  }

  /// Map a registry snapshot onto the law's inputs (by gauge/histogram
  /// name; absent entries read as 0).
  static Signals extract(const obs::RegistrySnapshot& s) {
    Signals sig;
    for (const obs::GaugeValue& g : s.gauges) {
      if (g.name == "kv_wal_durable_lag") sig.wal_lag = g.value;
      else if (g.name == "kv_unreclaimed") sig.retire_backlog = g.value;
    }
    for (const obs::HistogramSummary& h : s.histograms)
      if (h.name == "kv_wal_commit_wait_ns")
        sig.commit_wait_p99_ns = static_cast<double>(h.p99_ns);
    return sig;
  }

  AdmitOptions opt;  ///< normalized in the constructor, then read-only

 private:
  std::int64_t bucket_capacity(double rate) const noexcept {
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(rate * opt.burst_seconds)));
  }

  /// tokens = min(cap, tokens + add); add 0 only clamps down.
  void credit(std::int64_t add, std::int64_t cap) noexcept {
    std::int64_t cur = tokens_.load(std::memory_order_relaxed);
    for (;;) {
      const std::int64_t next = std::min(cap, cur + add);
      if (next == cur) break;
      if (tokens_.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                        std::memory_order_relaxed))
        break;
    }
  }

  bool try_take(std::int64_t n) noexcept {
    std::int64_t cur = tokens_.load(std::memory_order_relaxed);
    while (cur >= n) {
      if (tokens_.compare_exchange_weak(cur, cur - n,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed))
        return true;
    }
    return false;
  }

  // Hot-path state.
  std::atomic<std::int64_t> tokens_{0};
  std::atomic<bool> shed_writes_{false};
  std::atomic<bool> shed_reads_{false};
  std::atomic<std::uint64_t> shed_write_ops_{0};
  std::atomic<std::uint64_t> shed_read_ops_{0};
  std::atomic<std::uint64_t> throttle_waits_{0};

  /// obs::now_ns() up to which the bucket has been credited.
  std::atomic<std::uint64_t> refilled_ns_{obs::now_ns()};

  // Law state (sampler-thread-only writes; atomics for readers).
  std::atomic<double> rate_{0};
  std::atomic<double> severity_{0};
  double smoothed_ = 0;
  double last_p99_ = 0;
};

}  // namespace wfe::admit
