#pragma once
// KvMetrics: the bundle KvStore owns when KvConfig::metrics.enabled.
//
// Null-object discipline: a disabled store holds no KvMetrics at all and
// every instrumentation site is one untaken `if (metrics_)` branch; an
// enabled store pays two TSC reads plus one histogram record per op.
// All histograms live in the embedded registry (so the sampler and the
// exporters see them); KvMetrics keeps raw references for the hot paths.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace wfe::obs {

/// The flight recorder's ring capacity.
inline constexpr std::size_t kFlightBytes = std::size_t{1} << 20;
/// Events the trace ring keeps (a power of two).
inline constexpr std::size_t kTraceCapacity = 4096;

struct MetricsOptions {
  bool enabled = false;
  /// Per-thread op sampling: the op probes time every 2^sample_shift-th
  /// op (0 = every op).  A TSC read costs ~15-20ns on virtualized hosts,
  /// so timing every op can eat >10% of a sub-microsecond op; at the
  /// default 1/16 the unsampled ops pay one thread-local increment and a
  /// predictable branch.  Percentiles are computed over the sampled
  /// population; the exact op COUNTS always come from KvStats gauges.
  /// Only the per-op probes sample — fsync, commit-wait, migration and
  /// WFE slow-path events are rare and always recorded.
  unsigned sample_shift = 4;
  /// Ops at or above this end-to-end latency push a trace event.
  std::uint64_t slow_op_ns = 1'000'000;  // 1ms
  /// Background sampler (set sampler=false to snapshot manually only).
  bool sampler = true;
  std::uint32_t sample_interval_ms = 100;
  std::size_t sample_ring = 128;  ///< retained snapshots
  /// Crash-surviving flight recorder (the black box).  When enabled with
  /// an empty path, KvStore defaults it to <persistence.dir>/flight.bin
  /// (and disables it when the store has no persist dir to put it in).
  bool flight = false;
  std::string flight_path;
  /// Liveness watchdog (see obs/watchdog.hpp).
  WatchdogOptions watchdog;
};

/// Per-thread op tick driving the sampling decision in op_begin().
inline thread_local std::uint64_t tls_op_tick = 0;

class KvMetrics {
 public:
  KvMetrics(const MetricsOptions& options, unsigned lanes)
      : opt(options),
        trace(kTraceCapacity),
        op_get(registry.add_histogram("kv_op_get_ns", lanes)),
        op_put(registry.add_histogram("kv_op_put_ns", lanes)),
        op_update(registry.add_histogram("kv_op_update_ns", lanes)),
        op_remove(registry.add_histogram("kv_op_remove_ns", lanes)),
        op_multi(registry.add_histogram("kv_op_multi_ns", lanes)),
        op_scan(registry.add_histogram("kv_op_scan_ns", lanes)),
        wal_fsync(registry.add_histogram("kv_wal_fsync_ns", lanes)),
        wal_commit_wait(
            registry.add_histogram("kv_wal_commit_wait_ns", lanes)),
        migrate_bucket(
            registry.add_histogram("kv_migrate_bucket_copy_ns", lanes)),
        wfe_slow_path(registry.add_histogram("kv_wfe_slow_path_ns", lanes)),
        sample_mask_((std::uint64_t{1} << options.sample_shift) - 1) {
    warm_up();  // pay TSC calibration here, not in a measurement window
    if (opt.flight && !opt.flight_path.empty()) {
      flight_ =
          std::make_unique<FlightRecorder>(opt.flight_path, kFlightBytes);
      if (!flight_->ok()) {
        flight_.reset();  // unopenable path degrades to no box, never aborts
      } else {
        flight_->record_marker("open");
        trace.set_sink(flight_.get());
      }
    }
    if (opt.watchdog.enabled) {
      // One reserved heartbeat slot per kv thread slot (index == tid);
      // background threads acquire dynamic slots past them.
      watchdog_ = std::make_unique<Watchdog>(opt.watchdog, lanes);
      watchdog_->start(&trace, flight_.get());
    }
  }

  ~KvMetrics() {
    stop_sampler();
    if (watchdog_) watchdog_->stop();
    trace.set_sink(nullptr);
  }

  /// Call at the start of an instrumented op.  Returns the tick
  /// timestamp the store's record_op closes against, or 0 when this op
  /// is not sampled (nothing is recorded then; the unsampled path is one
  /// thread-local increment and a predictable branch).  A raw TSC read
  /// of 0 cannot occur after boot, so 0 is safe as the skip sentinel.
  std::uint64_t op_begin() noexcept {
    if ((++tls_op_tick & sample_mask_) != 0) return 0;
    return op_begin_sampled();
  }

  /// Cold half of op_begin, kept out of line so the per-op inline
  /// footprint in get/put is just the tick increment and a branch.
  [[gnu::noinline]] std::uint64_t op_begin_sampled() noexcept {
    tls_cause = TraceCause::kNone;
    return now_ticks();
  }

  /// Starts the background sampler (unless opt.sampler is off).  Each
  /// snapshot goes to the flight recorder and then to `consumer` (the
  /// store's admission law), on the sampler's thread.
  void start_sampler(Sampler::OnSample consumer = {}) {
    if (!opt.sampler) return;
    sampler_.emplace(registry, opt.sample_interval_ms, opt.sample_ring,
                     watchdog_.get(),
                     [fl = flight_.get(), consumer = std::move(consumer)](
                         const RegistrySnapshot& s) {
                       if (fl != nullptr) fl->record_snapshot(to_json_string(s));
                       if (consumer) consumer(s);
                     });
    sampler_->start();
  }

  /// Must run before the store tears down tables/WALs: the sampler's
  /// gauge collector walks live store state.
  void stop_sampler() {
    if (sampler_) sampler_->stop();
  }

  Sampler* sampler() noexcept { return sampler_ ? &*sampler_ : nullptr; }
  const Sampler* sampler() const noexcept {
    return sampler_ ? &*sampler_ : nullptr;
  }

  FlightRecorder* flight() noexcept { return flight_.get(); }
  const FlightRecorder* flight() const noexcept { return flight_.get(); }
  Watchdog* watchdog() noexcept { return watchdog_.get(); }
  const Watchdog* watchdog() const noexcept { return watchdog_.get(); }

  const MetricsOptions opt;
  MetricsRegistry registry;
  TraceRing trace;

  LatencyHistogram& op_get;
  LatencyHistogram& op_put;
  LatencyHistogram& op_update;
  LatencyHistogram& op_remove;
  LatencyHistogram& op_multi;
  LatencyHistogram& op_scan;
  LatencyHistogram& wal_fsync;
  LatencyHistogram& wal_commit_wait;
  LatencyHistogram& migrate_bucket;
  LatencyHistogram& wfe_slow_path;

 private:
  std::uint64_t sample_mask_;
  // Declaration order is teardown order in reverse: the sampler (which
  // feeds the flight recorder) dies first, then the watchdog (which
  // writes to it), then the box itself; `trace` is declared above all
  // three, and ~KvMetrics detaches it from the sink before any of this.
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<Watchdog> watchdog_;
  std::optional<Sampler> sampler_;
};

}  // namespace wfe::obs
