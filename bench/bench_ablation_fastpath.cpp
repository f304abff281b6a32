// Ablation: WFE fast-path attempt budget (paper §5 uses 16 and notes the
// slow path is rarely taken even at that small budget; it also validates
// under a forced slow path).  Sweeps the budget and reports throughput
// plus the slow-path entries of the timed window (the prefill's are not
// counted), in all and per op, on the list workload.

#include <cstdio>
#include <memory>

#include "core/wfe.hpp"
#include "ds/hm_list.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"

int main() {
  using namespace wfe;
  const unsigned attempts[] = {1, 2, 4, 8, 16, 32, 64};

  harness::Workload w{harness::OpMix::kWrite5050, 100000, 50000};
  w.prefill = static_cast<std::uint64_t>(
      harness::env_long("WFE_BENCH_PREFILL", static_cast<long>(w.prefill)));
  w.key_range = static_cast<std::uint64_t>(
      harness::env_long("WFE_BENCH_KEY_RANGE", static_cast<long>(w.key_range)));
  harness::RunConfig rc;
  rc.seconds = harness::env_double("WFE_BENCH_SECONDS", 0.5);
  rc.repeats = static_cast<unsigned>(harness::env_long("WFE_BENCH_REPEATS", 1));
  rc.threads = harness::thread_sweep().back();

  std::printf("=== Ablation: WFE fast-path attempts (Linked List, %s, %u threads) ===\n",
              mix_name(w.mix), rc.threads);
  std::printf("%10s%12s%16s%18s\n", "attempts", "Mops/s", "slow entries", "slow/op");

  using List = ds::HmList<std::uint64_t, std::uint64_t, core::WfeTracker>;
  auto run_one = [&](unsigned budget) {
    reclaim::TrackerConfig cfg;
    cfg.max_threads = rc.threads;
    cfg.max_hes = List::kSlotsNeeded;
    cfg.fast_path_attempts = budget;  // 0: every protect takes the slow path
    core::WfeTracker tracker(cfg);
    List list(tracker);
    harness::prefill(list, w.prefill, w.key_range);
    const std::uint64_t prefill_slow = tracker.slow_path_entries();

    auto r = harness::run_timed(
        rc,
        [&](util::Xoshiro256& g, unsigned tid) { harness::kv_op(list, w, g, tid); },
        [&] { return tracker.unreclaimed(); });
    const double slow = static_cast<double>(tracker.slow_path_entries() - prefill_slow);
    char label[16];
    if (budget == 0) {
      std::snprintf(label, sizeof label, "forced");
    } else {
      std::snprintf(label, sizeof label, "%u", budget);
    }
    std::printf("%10s%12.3f%16.0f%18.4f\n", label, r.mops, slow,
                r.mops > 0 ? slow / (r.mops * 1e6 * rc.seconds * rc.repeats) : 0.0);
  };

  for (unsigned a : attempts) run_one(a);
  run_one(0);  // paper's stress validation: slow path taken always
  return 0;
}
