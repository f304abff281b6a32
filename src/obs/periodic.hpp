#pragma once
// The one background loop of the obs layer: a thread that runs a tick
// function every `interval` until stopped.  The sampler's snapshot and
// the watchdog's scan both run on it.
//
// Deadlines are absolute, not wait_for(interval): a relative wait makes
// the real period interval + tick cost, so a time series drifts and
// anything pacing off it sees a slower, jittery cadence.  A tick slower
// than the interval does not bank a burst of catch-up ticks either: the
// cadence resumes from the tick's end.  start() and stop() are
// idempotent, and stop() wakes a waiting loop at once.

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

namespace wfe::obs {

class PeriodicLoop {
 public:
  PeriodicLoop() = default;
  ~PeriodicLoop() { stop(); }
  PeriodicLoop(const PeriodicLoop&) = delete;
  PeriodicLoop& operator=(const PeriodicLoop&) = delete;

  /// Starts the thread; a no-op (dropping `tick`) while it runs.
  void start(std::chrono::milliseconds interval, std::function<void()> tick) {
    std::lock_guard<std::mutex> lk(mu_);
    if (running_) return;
    stop_ = false;
    running_ = true;
    thread_ = std::thread([this, interval, tick = std::move(tick)] {
      run(interval, tick);
    });
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!running_) return;
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    std::lock_guard<std::mutex> lk(mu_);
    running_ = false;
  }

  bool running() const {
    std::lock_guard<std::mutex> lk(mu_);
    return running_;
  }

 private:
  void run(std::chrono::milliseconds interval,
           const std::function<void()>& tick) {
    using Clock = std::chrono::steady_clock;
    auto next = Clock::now() + interval;
    std::unique_lock<std::mutex> lk(mu_);
    while (!cv_.wait_until(lk, next, [this] { return stop_; })) {
      lk.unlock();  // running() and stop()'s flag never wait on a tick
      tick();
      lk.lock();
      next += interval;
      if (const auto now = Clock::now(); next <= now) next = now + interval;
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_ = false;
};

}  // namespace wfe::obs
