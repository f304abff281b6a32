#pragma once
// Timed multi-thread benchmark driver.
//
// Methodology follows §5 of the paper: prefill, run a fixed wall-clock
// duration with all threads hammering the structure, report
// Mops/second and the average number of unreclaimed objects (sampled
// periodically by the coordinating thread), repeated `repeats` times.
// Durations/repeats are scaled down by default for CI hosts and can be
// restored to the paper's 10s x 5 via WFE_BENCH_SECONDS / _REPEATS.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness/workload.hpp"
#include "util/affinity.hpp"
#include "util/barrier.hpp"
#include "util/cacheline.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace wfe::harness {

struct RunConfig {
  unsigned threads = 4;
  double seconds = 0.5;
  unsigned repeats = 1;
  bool pin_threads = true;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

struct RunResult {
  double mops = 0.0;              ///< mean across repeats
  double mops_stddev = 0.0;
  double avg_unreclaimed = 0.0;   ///< mean of periodic samples
  double seconds = 0.0;           ///< measured wall time, summed over repeats
};

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}
inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atol(v) : fallback;
}
/// Comma list of unsigned numbers ("1,2,4,8"); any non-digit separates
/// items.  `fallback` when the variable is unset or holds no number.
inline std::vector<unsigned> env_list(const char* name,
                                      std::vector<unsigned> fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  std::vector<unsigned> out;
  unsigned cur = 0;
  bool have = false;
  for (const char* p = env;; ++p) {
    if (*p >= '0' && *p <= '9') {
      cur = cur * 10 + static_cast<unsigned>(*p - '0');
      have = true;
    } else {
      if (have) out.push_back(cur);
      cur = 0;
      have = false;
      if (*p == '\0') break;
    }
  }
  return out.empty() ? fallback : out;
}

/// Runs `op(rng, tid)` on `cfg.threads` threads for `cfg.seconds`,
/// sampling `unreclaimed()` from the coordinator.  `op` must be
/// re-entrant per tid; `unreclaimed` is any callable returning uint64.
template <class Op, class Unreclaimed>
RunResult run_timed(const RunConfig& cfg, Op&& op, Unreclaimed&& unreclaimed) {
  util::Samples mops_samples;
  util::Samples unreclaimed_samples;
  double seconds = 0.0;

  for (unsigned rep = 0; rep < cfg.repeats; ++rep) {
    std::atomic<bool> stop{false};
    util::SpinBarrier barrier(cfg.threads + 1);
    std::vector<util::Padded<std::uint64_t>> op_counts(cfg.threads);
    std::vector<std::thread> workers;
    workers.reserve(cfg.threads);

    for (unsigned t = 0; t < cfg.threads; ++t) {
      workers.emplace_back([&, t] {
        if (cfg.pin_threads) util::pin_to_cpu(t);
        util::Xoshiro256 rng(cfg.seed + rep * 1315423911ull + t);
        barrier.arrive_and_wait();
        std::uint64_t local = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          op(rng, t);
          ++local;
        }
        op_counts[t].value = local;
      });
    }

    barrier.arrive_and_wait();
    const auto start = std::chrono::steady_clock::now();
    const auto deadline =
        start + std::chrono::duration<double>(cfg.seconds);
    // Sample the unreclaimed-object count while the clock runs (the
    // paper's memory metric is an average over the run, not a final
    // snapshot, so bursts between cleanup scans are visible).
    while (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      unreclaimed_samples.add(static_cast<double>(unreclaimed()));
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& w : workers) w.join();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    std::uint64_t total_ops = 0;
    for (auto& c : op_counts) total_ops += c.value;
    mops_samples.add(static_cast<double>(total_ops) / elapsed.count() / 1e6);
    seconds += elapsed.count();
  }

  return {mops_samples.mean(), mops_samples.stddev(), unreclaimed_samples.mean(),
          seconds};
}

/// Thread-count sweep parsed from WFE_BENCH_THREAD_LIST ("1,2,4,8") or
/// defaulted to powers of two up to 2x the hardware concurrency (the
/// paper sweeps 1..120 on a 96-core box; oversubscription by 2x retains
/// the preempted-reservation-holder regime its memory plots rely on).
inline std::vector<unsigned> thread_sweep() {
  std::vector<unsigned> out = env_list("WFE_BENCH_THREAD_LIST", {});
  std::erase(out, 0u);
  if (!out.empty()) return out;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 1; t <= 2 * hw; t *= 2) out.push_back(t);
  if (out.back() != 2 * hw) out.push_back(2 * hw);
  return out;
}

}  // namespace wfe::harness
