// Ablation: era-increment frequency ν (paper §5 fixes ν=150 "large enough
// to avoid performance bottlenecks for the epoch counter increments").
// Sweeps ν for WFE and HE on the list workload: small ν stresses the era
// clock (and WFE's helping machinery), large ν delays reclamation.

#include <cstdio>

#include "core/wfe.hpp"
#include "ds/hm_list.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "reclaim/he.hpp"

template <class TR>
void sweep(const char* label, const wfe::harness::Workload& w,
           const wfe::harness::RunConfig& rc) {
  using namespace wfe;
  const std::uint64_t freqs[] = {10, 50, 150, 500, 2000};
  std::printf("%s:\n%10s%12s%16s\n", label, "era_freq", "Mops/s", "avg unreclaimed");
  for (std::uint64_t f : freqs) {
    reclaim::TrackerConfig cfg;
    cfg.max_threads = rc.threads;
    using List = ds::HmList<std::uint64_t, std::uint64_t, TR>;
    cfg.max_hes = List::kSlotsNeeded;
    cfg.era_freq = f;
    TR tracker(cfg);
    List list(tracker);
    harness::prefill(list, w.prefill, w.key_range);
    auto r = harness::run_timed(
        rc,
        [&](util::Xoshiro256& g, unsigned tid) { harness::kv_op(list, w, g, tid); },
        [&] { return tracker.unreclaimed(); });
    std::printf("%10llu%12.3f%16.1f\n", static_cast<unsigned long long>(f),
                r.mops, r.avg_unreclaimed);
  }
}

int main() {
  using namespace wfe;
  harness::Workload w{harness::OpMix::kWrite5050, 100000, 50000};
  w.prefill = static_cast<std::uint64_t>(
      harness::env_long("WFE_BENCH_PREFILL", static_cast<long>(w.prefill)));
  w.key_range = static_cast<std::uint64_t>(
      harness::env_long("WFE_BENCH_KEY_RANGE", static_cast<long>(w.key_range)));
  harness::RunConfig rc;
  rc.seconds = harness::env_double("WFE_BENCH_SECONDS", 0.5);
  rc.repeats = static_cast<unsigned>(harness::env_long("WFE_BENCH_REPEATS", 1));
  rc.threads = harness::thread_sweep().back();
  std::printf("=== Ablation: era increment frequency (Linked List, %s, %u threads) ===\n",
              mix_name(w.mix), rc.threads);
  sweep<core::WfeTracker>("WFE", w, rc);
  sweep<reclaim::HeTracker>("HE", w, rc);
  return 0;
}
