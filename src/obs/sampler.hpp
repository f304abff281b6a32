#pragma once
// Background sampler: snapshots a MetricsRegistry on a fixed interval
// into a bounded time-series ring — the store's periodic dashboard view.
//
// The snapshot runs on an obs::PeriodicLoop (absolute deadlines, no
// banked catch-up ticks), and each snapshot stamps its own capture time
// (RegistrySnapshot::at_ns), so consumers always see when it was really
// taken.  The tick only ever calls MetricsRegistry::snapshot() (which
// takes the registry mutex and whatever the gauge collectors take — for
// KvStore, its resize_mu_) and the on_sample hook, so it is safe to run
// concurrently with resizes, cooperative helpers and the WAL flusher;
// those paths never block on the sampler.  History access is
// mutex-protected: this is the cold read side, not a hot path.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/periodic.hpp"
#include "obs/registry.hpp"
#include "obs/watchdog.hpp"

namespace wfe::obs {

class Sampler {
 public:
  using OnSample = std::function<void(const RegistrySnapshot&)>;

  /// `watchdog` (may be null) heartbeats each snapshot tick, so a gauge
  /// collector wedged on store state (stats() takes resize_mu_) shows up
  /// as a kSampler stall.  `on_sample` runs on the sampler's thread after
  /// each snapshot, before it lands in the ring (the flight recorder and
  /// the admission law consume it there).
  Sampler(MetricsRegistry& reg, std::uint32_t interval_ms,
          std::size_t capacity, Watchdog* watchdog = nullptr,
          OnSample on_sample = {})
      : reg_(reg),
        interval_(interval_ms == 0 ? 1 : interval_ms),
        capacity_(capacity == 0 ? 1 : capacity),
        watchdog_(watchdog),
        hb_(watchdog != nullptr ? watchdog->acquire_slot() : kNoSlot),
        on_sample_(std::move(on_sample)) {}

  ~Sampler() {
    loop_.stop();
    if (watchdog_ != nullptr) watchdog_->release_slot(hb_);
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start() { loop_.start(interval_, [this] { tick(); }); }
  void stop() { loop_.stop(); }
  bool running() const { return loop_.running(); }

  std::uint64_t samples_taken() const {
    std::lock_guard<std::mutex> lk(mu_);
    return taken_;
  }

  /// Oldest-to-newest copy of the retained window.
  std::vector<RegistrySnapshot> history() const {
    std::lock_guard<std::mutex> lk(mu_);
    return {ring_.begin(), ring_.end()};
  }

  /// Most recent sample (empty snapshot if none taken yet).
  RegistrySnapshot latest() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ring_.empty() ? RegistrySnapshot{} : ring_.back();
  }

 private:
  void tick() {
    // Snapshot outside mu_ so history readers never wait on a slow
    // gauge collector (stats() takes the store's resize mutex).
    if (hb_ != kNoSlot) watchdog_->arm(hb_, Site::kSampler);
    RegistrySnapshot s = reg_.snapshot();
    if (on_sample_) on_sample_(s);
    if (hb_ != kNoSlot) watchdog_->disarm(hb_);
    std::lock_guard<std::mutex> lk(mu_);
    ring_.push_back(std::move(s));
    if (ring_.size() > capacity_) ring_.pop_front();
    ++taken_;
  }

  MetricsRegistry& reg_;
  const std::chrono::milliseconds interval_;
  const std::size_t capacity_;
  Watchdog* const watchdog_;
  const std::size_t hb_;
  const OnSample on_sample_;

  mutable std::mutex mu_;
  std::deque<RegistrySnapshot> ring_;
  std::uint64_t taken_ = 0;
  PeriodicLoop loop_;
};

}  // namespace wfe::obs
