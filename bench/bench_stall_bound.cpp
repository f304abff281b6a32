// Stalled-thread memory bound (paper §2.1/§2.4): EBR's memory usage is
// unbounded when a thread stalls inside an operation, while HP/HE/WFE/
// 2GEIBR/WFE-IBR pin only blocks whose lifespan overlaps the stalled
// reservation.
//
// One thread enters an operation (publishing its reservation) and stalls;
// the rest churn insert/remove.  We sample unreclaimed objects over time:
// EBR and QSBR grow linearly with churn, the era/pointer schemes plateau.
// The run is a gate: it exits 1 unless every sample of a bounded scheme
// is at most twice its first sample plus 64, and the last sample of EBR
// and of QSBR is at least twice its first.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/wfe.hpp"
#include "core/wfe_ibr.hpp"
#include "ds/hm_list.hpp"
#include "harness/runner.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/he.hpp"
#include "reclaim/hp.hpp"
#include "reclaim/ibr.hpp"
#include "reclaim/qsbr.hpp"
#include "util/random.hpp"

/// Runs one scheme and returns its unreclaimed-object samples.
template <class TR>
std::vector<std::uint64_t> stall_run(double seconds, unsigned churners) {
  using namespace wfe;
  reclaim::TrackerConfig cfg;
  cfg.max_threads = churners + 1;
  using List = ds::HmList<std::uint64_t, std::uint64_t, TR>;
  cfg.max_hes = List::kSlotsNeeded;
  TR tracker(cfg);
  List list(tracker);
  constexpr std::uint64_t kRange = 4096;
  util::Xoshiro256 prefill_rng(7);
  for (int i = 0; i < 1024; ++i)
    list.insert(prefill_rng.next_bounded(kRange) + 1, 1, 0);

  // The stalled thread: enter an operation, protect one block, then sleep
  // for the whole run WITHOUT clearing the reservation (tid = churners).
  // EBR's published epoch pins everything retired from now on; the
  // era/pointer schemes pin only blocks overlapping this one reservation.
  struct DummyNode : reclaim::Block {};
  std::atomic<bool> stop{false};
  std::atomic<bool> stalled{false};
  std::thread staller([&] {
    const unsigned tid = churners;
    DummyNode* dummy = tracker.template alloc<DummyNode>(tid);
    std::atomic<std::uintptr_t> root{reinterpret_cast<std::uintptr_t>(dummy)};
    tracker.begin_op(tid);
    tracker.protect_word(root, 0, tid, nullptr);
    stalled.store(true);
    while (!stop.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    tracker.end_op(tid);
    tracker.dealloc(dummy, tid);
  });
  while (!stalled.load()) std::this_thread::yield();

  std::vector<std::thread> churn;
  for (unsigned t = 0; t < churners; ++t) {
    churn.emplace_back([&, t] {
      util::Xoshiro256 rng(t + 100);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.next_bounded(kRange) + 1;
        if (rng.percent(50)) {
          list.insert(k, k, t);
        } else {
          list.remove(k, t);
        }
      }
    });
  }

  constexpr int kSamples = 8;
  std::vector<std::uint64_t> samples;
  for (int s = 0; s < kSamples; ++s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds / kSamples));
    samples.push_back(tracker.unreclaimed());
  }
  stop.store(true);
  staller.join();
  for (auto& th : churn) th.join();
  return samples;
}

/// Prints one scheme's row and its verdict; false when the verdict fails.
/// A bounded scheme keeps every sample within 2 x its first + 64; an
/// unbounded one (EBR, QSBR) ends at 2 x its first or more.
template <class TR>
bool verdict(double seconds, unsigned churners, bool bounded) {
  const std::vector<std::uint64_t> s = stall_run<TR>(seconds, churners);
  std::printf("%-8s", TR::name());
  bool ok = true;
  for (std::uint64_t v : s) {
    std::printf("%10llu", static_cast<unsigned long long>(v));
    if (bounded && v > 2 * s.front() + 64) ok = false;
  }
  if (!bounded) ok = s.back() >= 2 * s.front();
  std::printf("  %s %s\n", bounded ? "bounded" : "grows", ok ? "ok" : "FAILED");
  return ok;
}

int main() {
  using namespace wfe;
  const double seconds = harness::env_double("WFE_BENCH_SECONDS", 2.0);
  const unsigned churners = 3;
  std::printf(
      "=== Stalled-reservation memory bound (list churn, %u churners, "
      "%.1fs; unreclaimed objects sampled over time) ===\n",
      churners, seconds);
  std::printf("%-8s%10s ... (8 samples over the run)  verdict\n", "scheme", "t1");
  bool ok = verdict<reclaim::EbrTracker>(seconds, churners, false);
  ok &= verdict<reclaim::QsbrTracker>(seconds, churners, false);
  ok &= verdict<reclaim::HeTracker>(seconds, churners, true);
  ok &= verdict<core::WfeTracker>(seconds, churners, true);
  ok &= verdict<reclaim::HpTracker>(seconds, churners, true);
  ok &= verdict<reclaim::IbrTracker>(seconds, churners, true);
  ok &= verdict<core::WfeIbrTracker>(seconds, churners, true);
  return ok ? 0 : 1;
}
