// Cross-module integration: shared trackers, memory-bound contrasts under
// stalls (the paper's EBR-vs-era argument, §2.1), forced-slow-path full
// stack, and harness plumbing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "ds/hash_map.hpp"
#include "ds/hm_list.hpp"
#include "ds/kp_queue.hpp"
#include "ds/natarajan_bst.hpp"
#include "ds/treiber_stack.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "tracker_types.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

TEST(Integration, MultipleStructuresShareOneTracker) {
  // One reclamation domain serving four structures concurrently — the
  // "universal" in the paper's title.
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 4;
  cfg.max_hes = ds::NatarajanBst<std::uint64_t, core::WfeTracker>::kSlotsNeeded;
  core::WfeTracker tracker(cfg);
  {
    ds::TreiberStack<std::uint64_t, core::WfeTracker> stack(tracker);
    ds::HmList<std::uint64_t, std::uint64_t, core::WfeTracker> list(tracker);
    ds::HashMap<std::uint64_t, std::uint64_t, core::WfeTracker> map(tracker, 64);
    ds::NatarajanBst<std::uint64_t, core::WfeTracker> bst(tracker);
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < 4; ++tid) {
      threads.emplace_back([&, tid] {
        util::Xoshiro256 rng(tid + 21);
        for (int i = 0; i < 3000; ++i) {
          const std::uint64_t k = rng.next_bounded(64) + 1;
          switch (rng.next_bounded(4)) {
            case 0:
              stack.push(k, tid);
              stack.pop(tid);
              break;
            case 1:
              list.insert(k, k, tid);
              list.remove(k, tid);
              break;
            case 2:
              map.put(k, k, tid);
              map.remove(k, tid);
              break;
            case 3:
              bst.insert(k, k, tid);
              bst.remove(k, tid);
              break;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(tracker.allocated(), tracker.freed() + tracker.unreclaimed());
}

// The quantitative §2.1 contrast on a real structure: one stalled
// reservation, equal churn — EBR retains everything, era schemes almost
// nothing.  `hold(tracker)` parks tid 2 holding a live reservation and
// returns a release callback.
template <class TR, class Hold>
std::uint64_t churn_with_stalled_reservation(Hold&& hold) {
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 3;
  cfg.max_hes = 3;  // HmList::kSlotsNeeded
  cfg.era_freq = 4;
  cfg.cleanup_freq = 2;
  TR tracker(cfg);
  std::uint64_t pinned = 0;
  {
    ds::HmList<std::uint64_t, std::uint64_t, TR> list(tracker);
    for (std::uint64_t k = 1; k <= 64; ++k) list.insert(k, k, 0);
    auto release = hold(tracker);  // tid 2 stalls holding a reservation
    util::Xoshiro256 rng(5);
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t k = rng.next_bounded(64) + 1;
      list.remove(k, 0);
      list.insert(k, k, 0);
    }
    tracker.flush(0);
    pinned = tracker.unreclaimed();
    release();
  }
  return pinned;
}

TEST(Integration, EbrUnboundedVsEraBounded) {
  const std::uint64_t ebr_pinned =
      churn_with_stalled_reservation<reclaim::EbrTracker>(
          [](reclaim::EbrTracker& t) {
            t.begin_op(2);
            return [&t] { t.end_op(2); };
          });

  struct Probe : reclaim::Block {};
  auto root = std::make_shared<std::atomic<std::uintptr_t>>(0);
  const std::uint64_t wfe_pinned =
      churn_with_stalled_reservation<core::WfeTracker>(
          [root](core::WfeTracker& t) {
            Probe* probe = t.alloc<Probe>(2);
            root->store(reinterpret_cast<std::uintptr_t>(probe));
            t.begin_op(2);
            t.protect_word(*root, 0, 2, nullptr);
            return [&t, probe] {
              t.end_op(2);
              t.dealloc(probe, 2);
            };
          });

  // Each churn cycle retires two blocks since the value-cell split
  // (node + cell), so thresholds are per-block, not per-key.
  EXPECT_GT(ebr_pinned, 2000u) << "EBR should pin (almost) all churned blocks";
  EXPECT_LT(wfe_pinned, 200u)
      << "WFE reservation pins only overlapping lifespans";
}

TEST(Integration, ForcedSlowPathAcrossAllStructures) {
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 4;
  cfg.max_hes = ds::NatarajanBst<std::uint64_t, core::WfeTracker>::kSlotsNeeded;
  cfg.fast_path_attempts = 0;  // every protect takes the slow path
  cfg.era_freq = 2;
  cfg.cleanup_freq = 2;
  core::WfeTracker tracker(cfg);
  ds::HashMap<std::uint64_t, std::uint64_t, core::WfeTracker> map(tracker, 32);
  ds::NatarajanBst<std::uint64_t, core::WfeTracker> bst(tracker);
  std::vector<std::thread> threads;
  std::atomic<long> map_bal{0}, bst_bal{0};
  for (unsigned tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(tid + 2);
      for (int i = 0; i < 1500; ++i) {
        const std::uint64_t k = rng.next_bounded(48) + 1;
        if (rng.percent(50)) {
          if (map.insert(k, k, tid)) map_bal.fetch_add(1);
          if (bst.insert(k, k, tid)) bst_bal.fetch_add(1);
        } else {
          if (map.remove(k, tid)) map_bal.fetch_sub(1);
          if (bst.remove(k, tid)) bst_bal.fetch_sub(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(static_cast<std::size_t>(map_bal.load()), map.size_unsafe());
  EXPECT_EQ(static_cast<std::size_t>(bst_bal.load()), bst.size_unsafe());
  EXPECT_GT(tracker.slow_path_entries(), 0u);
  EXPECT_EQ(tracker.slow_path_entries(), tracker.slow_path_exits());
}

// ---- harness plumbing ----

TEST(Harness, RunTimedCountsOperations) {
  harness::RunConfig rc;
  rc.threads = 2;
  rc.seconds = 0.05;
  rc.repeats = 2;
  rc.pin_threads = false;
  std::atomic<std::uint64_t> calls{0};
  auto result = harness::run_timed(
      rc, [&](util::Xoshiro256&, unsigned) { calls.fetch_add(1); },
      [] { return std::uint64_t{7}; });
  EXPECT_GT(calls.load(), 0u);
  EXPECT_GT(result.mops, 0.0);
  EXPECT_DOUBLE_EQ(result.avg_unreclaimed, 7.0);
}

TEST(Harness, ThreadSweepParsesEnvList) {
  ::setenv("WFE_BENCH_THREAD_LIST", "1,3, 9", 1);
  const auto sweep = harness::thread_sweep();
  ::unsetenv("WFE_BENCH_THREAD_LIST");
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_EQ(sweep[0], 1u);
  EXPECT_EQ(sweep[1], 3u);
  EXPECT_EQ(sweep[2], 9u);
}

TEST(Harness, ThreadSweepDefaultsNonEmpty) {
  ::unsetenv("WFE_BENCH_THREAD_LIST");
  const auto sweep = harness::thread_sweep();
  ASSERT_FALSE(sweep.empty());
  EXPECT_EQ(sweep.front(), 1u);
}

TEST(Harness, KvOpDispatchesMix) {
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 1;
  cfg.max_hes = 3;  // HmList::kSlotsNeeded
  core::WfeTracker tracker(cfg);
  ds::HmList<std::uint64_t, std::uint64_t, core::WfeTracker> list(tracker);
  util::Xoshiro256 rng(1);
  harness::Workload w{harness::OpMix::kWrite5050, 32, 0};
  for (int i = 0; i < 200; ++i) harness::kv_op(list, w, rng, 0);
  w.mix = harness::OpMix::kRead9010;
  for (int i = 0; i < 200; ++i) harness::kv_op(list, w, rng, 0);
  SUCCEED();  // contract: no crashes, ops accepted
}

TEST(Harness, EnvHelpers) {
  ::setenv("WFE_TEST_ENV_D", "2.5", 1);
  ::setenv("WFE_TEST_ENV_L", "42", 1);
  EXPECT_DOUBLE_EQ(harness::env_double("WFE_TEST_ENV_D", 1.0), 2.5);
  EXPECT_EQ(harness::env_long("WFE_TEST_ENV_L", 1), 42);
  EXPECT_DOUBLE_EQ(harness::env_double("WFE_TEST_ENV_MISSING", 1.5), 1.5);
  EXPECT_EQ(harness::env_long("WFE_TEST_ENV_MISSING", 3), 3);
  ::unsetenv("WFE_TEST_ENV_D");
  ::unsetenv("WFE_TEST_ENV_L");
}

}  // namespace
