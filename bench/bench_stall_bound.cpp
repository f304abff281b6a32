// Stalled-thread memory bound (paper §2.1/§2.4): EBR's memory usage is
// unbounded when a thread stalls inside an operation, while HP/HE/WFE/
// 2GEIBR pin only blocks whose lifespan overlaps the stalled reservation.
//
// One thread enters an operation (publishing its reservation) and stalls;
// the rest churn insert/remove.  We sample unreclaimed objects over time:
// EBR grows linearly with churn, the era/pointer schemes plateau.

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/wfe.hpp"
#include "ds/hm_list.hpp"
#include "harness/runner.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/he.hpp"
#include "reclaim/hp.hpp"
#include "reclaim/ibr.hpp"
#include "util/random.hpp"

template <class TR>
void stall_run(double seconds, unsigned churners) {
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

  std::printf("%-8s", TR::name());
  const int samples = 8;
  for (int s = 0; s < samples; ++s) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds / samples));
    std::printf("%10llu",
                static_cast<unsigned long long>(tracker.unreclaimed()));
  }
  std::printf("\n");
  stop.store(true);
  staller.join();
  for (auto& th : churn) th.join();
}

int main() {
  using namespace wfe;
  const double seconds = harness::env_double("WFE_BENCH_SECONDS", 2.0);
  const unsigned churners = 3;
  std::printf(
      "=== Stalled-reservation memory bound (list churn, %u churners, "
      "%.1fs; unreclaimed objects sampled over time) ===\n",
      churners, seconds);
  std::printf("%-8s%10s ... (8 samples over the run)\n", "scheme", "t1");
  stall_run<reclaim::EbrTracker>(seconds, churners);
  stall_run<reclaim::HeTracker>(seconds, churners);
  stall_run<core::WfeTracker>(seconds, churners);
  stall_run<reclaim::HpTracker>(seconds, churners);
  stall_run<reclaim::IbrTracker>(seconds, churners);
  return 0;
}
