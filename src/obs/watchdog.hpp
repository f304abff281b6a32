#pragma once
// Liveness watchdog: per-thread heartbeat slots stamped at op entry
// (KvStore ops, WAL flusher loop, resize driver, sampler), scanned on an
// obs::PeriodicLoop that turns "silently stuck" into a structured stall
// report — pushed into the trace ring AND the flight recorder — when
// any armed heartbeat exceeds a configurable bound.  This is what makes
// the paper's bounded-wait claim an observable, testable property.
//
// Hot-path cost is deliberately timestamp-free: arm() bumps a per-slot
// episode counter and stores site/shard (a handful of relaxed stores to
// a cache line only this thread writes), and the SCANNER supplies the
// clock — a slot whose episode has not changed across scans spanning
// the bound is stalled.  No TSC read per op, so the obs-overhead A/A
// gate sees the same cost profile with the watchdog on.  Detection
// latency is bound + at most two scan intervals; the constructor clamps
// the scan interval to bound/4, so detection always lands within 2× the
// configured bound.
//
// Attribution: arm() publishes this thread's slot in a thread_local, and
// wait sites tag the condition they are blocked on via stall_note()
// (which also feeds the existing tls_cause slow-op tag), so a report
// carries {slot, site, shard, stall ns, last TraceCause} — enough to
// tell a wedged fsync from a parked resizer from an admission stall.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/clock.hpp"
#include "obs/flight.hpp"
#include "obs/periodic.hpp"
#include "obs/trace.hpp"
#include "util/cacheline.hpp"

namespace wfe::obs {

enum class Site : std::uint8_t {
  kNone = 0,       ///< slot disarmed
  kKvOp,           ///< a KvStore op entry point
  kWalFlusher,     ///< a ShardWal flusher iteration
  kResizeDriver,   ///< the thread driving resize_locked
  kAdmitDriver,    ///< unused: admission has no thread; kept so the
                   ///< stall frame's site byte keeps its numbering
  kSampler,        ///< the metrics sampler's snapshot tick
};

inline const char* name(Site s) noexcept {
  switch (s) {
    case Site::kNone: return "none";
    case Site::kKvOp: return "kv-op";
    case Site::kWalFlusher: return "wal-flusher";
    case Site::kResizeDriver: return "resize-driver";
    case Site::kAdmitDriver: return "admit-driver";
    case Site::kSampler: return "sampler";
  }
  return "?";
}

inline constexpr std::uint32_t kNoShard = 0xffffffffu;
inline constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

struct alignas(util::kCacheLine) HeartbeatSlot {
  /// Bumped on every arm AND disarm by the owning thread: an armed slot
  /// whose episode holds still across scans is genuinely one stuck
  /// episode, never two fast ops the scanner confused for each other.
  std::atomic<std::uint64_t> episode{0};
  std::atomic<std::uint32_t> shard{kNoShard};
  std::atomic<std::uint8_t> site{0};
  std::atomic<std::uint8_t> cause{0};  ///< last TraceCause noted here
  std::atomic<std::uint8_t> taken{0};  ///< dynamic-slot allocation bit
};

struct StallReport {
  std::uint32_t slot = 0;
  Site site = Site::kNone;
  TraceCause cause = TraceCause::kNone;
  std::uint32_t shard = kNoShard;
  std::uint64_t stall_ns = 0;
  std::uint64_t episode = 0;
};

struct WatchdogOptions {
  bool enabled = false;
  std::uint64_t stall_bound_ns = 500'000'000;  ///< 500ms
  std::uint32_t scan_interval_ms = 20;  ///< clamped to stall bound / 4
};

/// The arming thread's slot, published by arm() so deep wait sites can
/// annotate it without plumbing a context object through every layer.
inline thread_local HeartbeatSlot* tls_heartbeat = nullptr;

/// Wait sites call this instead of assigning tls_cause directly: the
/// tag still feeds the slow-op trace, and ALSO lands in this thread's
/// heartbeat slot so a stall report can say what the thread was stuck
/// on (and, when known, where).
inline void stall_note(TraceCause c,
                       std::uint32_t shard_hint = kNoShard) noexcept {
  tls_cause = c;
  if (HeartbeatSlot* hb = tls_heartbeat; hb != nullptr) {
    hb->cause.store(static_cast<std::uint8_t>(c), std::memory_order_relaxed);
    if (shard_hint != kNoShard)
      hb->shard.store(shard_hint, std::memory_order_relaxed);
  }
}

/// Progress note for long driver loops (resize migration cursor): keeps
/// the armed slot's shard current so a stall report points at the shard
/// being worked, not the one from arm time.
inline void beat_shard(std::uint32_t shard) noexcept {
  if (HeartbeatSlot* hb = tls_heartbeat; hb != nullptr)
    hb->shard.store(shard, std::memory_order_relaxed);
}

/// Liveness beat for long single ops (wide range scans): bumps the armed
/// slot's episode so the scanner's stall clock restarts.  beat_shard()
/// alone does NOT do this — the scanner keys its clock on the episode
/// counter only — so a legitimately long op that merely refreshed the
/// shard field would still be reported as stalled.  Owner-thread
/// plain load+store, same discipline as arm()/disarm().
inline void beat() noexcept {
  if (HeartbeatSlot* hb = tls_heartbeat; hb != nullptr) {
    hb->episode.store(hb->episode.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }
}

class Watchdog {
 public:
  /// `reserved_slots` are owned by kv thread slots (index == tid);
  /// background threads (WAL flushers, sampler) take dynamic slots after
  /// them via acquire_slot().
  explicit Watchdog(const WatchdogOptions& options,
                    std::size_t reserved_slots,
                    std::size_t dynamic_slots = 64)
      : opt(options),
        reserved_(reserved_slots),
        slots_(reserved_slots + dynamic_slots) {
    if (opt.stall_bound_ns == 0) opt.stall_bound_ns = 1;
    const std::uint64_t max_scan_ms =
        std::max<std::uint64_t>(1, opt.stall_bound_ns / 4 / 1'000'000);
    if (opt.scan_interval_ms == 0) opt.scan_interval_ms = 1;
    if (opt.scan_interval_ms > max_scan_ms)
      opt.scan_interval_ms = static_cast<std::uint32_t>(max_scan_ms);
    for (std::size_t i = 0; i < reserved_; ++i)
      slots_[i].taken.store(1, std::memory_order_relaxed);
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  std::size_t slot_count() const noexcept { return slots_.size(); }
  HeartbeatSlot& slot(std::size_t i) noexcept { return slots_[i]; }

  /// Dynamic slot for a background thread; kNoSlot when exhausted (the
  /// thread simply runs unmonitored — never an error).
  std::size_t acquire_slot() noexcept {
    for (std::size_t i = reserved_; i < slots_.size(); ++i) {
      std::uint8_t z = 0;
      if (slots_[i].taken.compare_exchange_strong(z, 1,
                                                  std::memory_order_acq_rel))
        return i;
    }
    return kNoSlot;
  }

  void release_slot(std::size_t i) noexcept {
    if (i == kNoSlot || i >= slots_.size()) return;
    disarm(i);
    slots_[i].taken.store(0, std::memory_order_release);
  }

  /// Stamp the heartbeat at op/iteration entry.  Owner-thread only —
  /// which is why the episode bump is a plain load+store, not a
  /// fetch_add: a lock-prefixed RMW costs ~15-20ns on virtualized
  /// hosts, twice per op, and the slot has exactly one writer.
  void arm(std::size_t i, Site site,
           std::uint32_t shard = kNoShard) noexcept {
    HeartbeatSlot& s = slots_[i];
    s.episode.store(s.episode.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    s.shard.store(shard, std::memory_order_relaxed);
    s.cause.store(0, std::memory_order_relaxed);
    s.site.store(static_cast<std::uint8_t>(site), std::memory_order_relaxed);
    tls_heartbeat = &s;
  }

  void disarm(std::size_t i) noexcept {
    HeartbeatSlot& s = slots_[i];
    s.site.store(0, std::memory_order_relaxed);
    s.episode.store(s.episode.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    if (tls_heartbeat == &s) tls_heartbeat = nullptr;
  }

  /// Start the scanner.  `trace` and `flight` may each be null; reports
  /// always land in the in-process report ring for tests/introspection.
  /// The scan state lives in the loop's tick, so a restart scans fresh.
  void start(TraceRing* trace, FlightRecorder* flight) {
    loop_.start(std::chrono::milliseconds(opt.scan_interval_ms),
                [this, trace, flight,
                 scan = std::vector<ScanState>(slots_.size())]() mutable {
                  scan_once(scan, trace, flight);
                });
  }

  void stop() { loop_.stop(); }

  std::uint64_t stalls_detected() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }

  /// Most recent reports (bounded; oldest dropped).  Cold, test/debug.
  std::vector<StallReport> reports() const {
    std::lock_guard<std::mutex> lk(report_mu_);
    return reports_;
  }

  WatchdogOptions opt;  ///< normalized in the constructor, then read-only

 private:
  struct ScanState {
    std::uint64_t episode = 0;
    std::uint64_t first_seen_ns = 0;
    std::uint64_t reported_ns = 0;
  };

  void scan_once(std::vector<ScanState>& scan, TraceRing* trace,
                 FlightRecorder* flight) {
    const std::uint64_t now = now_ns();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      HeartbeatSlot& s = slots_[i];
      // site read BEFORE episode: if the owner disarms+rearms between
      // the two reads, the episode moved and the next scan resets —
      // "same (armed, episode) across scans" always means one
      // continuously armed episode, so idle threads can never trip it.
      const std::uint8_t site = s.site.load(std::memory_order_acquire);
      const std::uint64_t ep = s.episode.load(std::memory_order_acquire);
      ScanState& st = scan[i];
      if (site == 0) {
        st.episode = ep;
        st.first_seen_ns = 0;
        st.reported_ns = 0;
        continue;
      }
      if (ep != st.episode || st.first_seen_ns == 0) {
        st.episode = ep;
        st.first_seen_ns = now;
        st.reported_ns = 0;
        continue;
      }
      const std::uint64_t stalled = now - st.first_seen_ns;
      if (stalled < opt.stall_bound_ns) continue;
      // One report per episode at the bound, then again each time the
      // stall doubles — an hours-long wedge stays visible without
      // flooding the ring every scan tick.
      if (st.reported_ns != 0 && stalled < st.reported_ns * 2) continue;
      st.reported_ns = stalled;
      emit(i, s, stalled, trace, flight);
    }
  }

  void emit(std::size_t i, HeartbeatSlot& s, std::uint64_t stalled_ns,
            TraceRing* trace, FlightRecorder* flight) {
    StallReport r;
    r.slot = static_cast<std::uint32_t>(i);
    r.site = static_cast<Site>(s.site.load(std::memory_order_relaxed));
    r.cause = static_cast<TraceCause>(s.cause.load(std::memory_order_relaxed));
    r.shard = s.shard.load(std::memory_order_relaxed);
    r.stall_ns = stalled_ns;
    r.episode = s.episode.load(std::memory_order_relaxed);
    stalls_.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t aux = (static_cast<std::uint32_t>(r.site) << 24) |
                              (r.slot & 0x00ffffffu);
    if (trace != nullptr)
      trace->push(OpKind::kStall, r.shard, stalled_ns, r.cause, aux);
    if (flight != nullptr)
      flight->record_stall(r.slot, static_cast<std::uint8_t>(r.site),
                            static_cast<std::uint8_t>(r.cause), r.shard,
                            r.stall_ns, r.episode);
    std::lock_guard<std::mutex> lk(report_mu_);
    reports_.push_back(r);
    if (reports_.size() > kMaxReports)
      reports_.erase(reports_.begin());
  }

  static constexpr std::size_t kMaxReports = 64;

  const std::size_t reserved_;
  std::vector<HeartbeatSlot> slots_;
  std::atomic<std::uint64_t> stalls_{0};

  mutable std::mutex report_mu_;
  std::vector<StallReport> reports_;
  /// Declared last, so its thread is joined before the slots and
  /// reports it scans are destroyed.
  PeriodicLoop loop_;
};

/// RAII heartbeat for op entry points.  Null watchdog → complete no-op.
/// Nests: an inner scope (resize driver inside a put's auto-grow) saves
/// the outer site/shard and re-arms them on exit, so the op stays
/// monitored end to end with the most specific site always current.
class BeatScope {
 public:
  BeatScope(Watchdog* wd, std::size_t slot, Site site,
            std::uint32_t shard = kNoShard) noexcept {
    if (wd == nullptr || slot >= wd->slot_count()) return;
    wd_ = wd;
    slot_ = slot;
    HeartbeatSlot& s = wd->slot(slot);
    // Owner-thread reads of owner-written fields: exact by construction.
    prev_site_ = static_cast<Site>(s.site.load(std::memory_order_relaxed));
    prev_shard_ = s.shard.load(std::memory_order_relaxed);
    wd->arm(slot, site, shard);
  }

  ~BeatScope() {
    if (wd_ == nullptr) return;
    if (prev_site_ != Site::kNone)
      wd_->arm(slot_, prev_site_, prev_shard_);
    else
      wd_->disarm(slot_);
  }

  BeatScope(const BeatScope&) = delete;
  BeatScope& operator=(const BeatScope&) = delete;

 private:
  Watchdog* wd_ = nullptr;
  std::size_t slot_ = 0;
  Site prev_site_ = Site::kNone;
  std::uint32_t prev_shard_ = kNoShard;
};

}  // namespace wfe::obs
