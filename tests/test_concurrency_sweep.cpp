// Property sweeps over concurrency level and WFE path mode: the core
// invariants (balance conservation, exactly-once queue delivery, slow
// path entry/exit balance, leak-freedom) must hold at every thread count,
// on both the fast path and the permanently-forced slow path.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "core/wfe.hpp"
#include "ds/crturn_queue.hpp"
#include "ds/hm_list.hpp"
#include "ds/kp_queue.hpp"
#include "tracker_types.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

// Parameters: (thread count, forced slow path: fast_path_attempts = 0).
class WfeSweep : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {
 protected:
  reclaim::TrackerConfig make_cfg() const {
    const auto [threads, force] = GetParam();
    reclaim::TrackerConfig cfg;
    cfg.max_threads = threads;
    cfg.max_hes = 4;
    cfg.era_freq = 4;
    cfg.cleanup_freq = 2;
    if (force) cfg.fast_path_attempts = 0;
    return cfg;
  }
  unsigned threads() const { return std::get<0>(GetParam()); }
  int ops_per_thread() const { return std::get<1>(GetParam()) ? 1500 : 6000; }
};

TEST_P(WfeSweep, ListBalanceConserved) {
  auto cfg = make_cfg();
  core::WfeTracker tracker(cfg);
  {
    ds::HmList<std::uint64_t, std::uint64_t, core::WfeTracker> list(tracker);
    std::atomic<long> balance{0};
    std::vector<std::thread> workers;
    for (unsigned tid = 0; tid < threads(); ++tid) {
      workers.emplace_back([&, tid] {
        util::Xoshiro256 rng(tid * 31 + 7);
        for (int i = 0; i < ops_per_thread(); ++i) {
          const std::uint64_t k = rng.next_bounded(64) + 1;
          if (rng.percent(50)) {
            if (list.insert(k, k, tid)) balance.fetch_add(1);
          } else {
            if (list.remove(k, tid)) balance.fetch_sub(1);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(static_cast<std::size_t>(balance.load()), list.size_unsafe());
    EXPECT_EQ(tracker.slow_path_entries(), tracker.slow_path_exits());
  }
  EXPECT_EQ(tracker.allocated(), tracker.freed() + tracker.unreclaimed());
}

TEST_P(WfeSweep, KpQueueExactlyOnce) {
  auto cfg = make_cfg();
  core::WfeTracker tracker(cfg);
  {
    ds::KpQueue<std::uint64_t, core::WfeTracker> q(tracker);
    const std::uint64_t per_thread =
        static_cast<std::uint64_t>(ops_per_thread());
    std::vector<std::atomic<int>> seen(threads() * per_thread + 1);
    for (auto& s : seen) s.store(0);
    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> consumed{0};
    const std::uint64_t total = threads() * per_thread;
    for (unsigned tid = 0; tid < threads(); ++tid) {
      workers.emplace_back([&, tid] {
        // Each thread produces its share, consuming opportunistically.
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          q.enqueue(tid * per_thread + i + 1, tid);
          if (auto v = q.dequeue(tid)) {
            seen[*v].fetch_add(1);
            consumed.fetch_add(1);
          }
        }
        while (consumed.load(std::memory_order_relaxed) < total) {
          if (auto v = q.dequeue(tid)) {
            seen[*v].fetch_add(1);
            consumed.fetch_add(1);
          } else if (consumed.load() >= total) {
            break;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    for (std::uint64_t v = 1; v <= total; ++v) {
      ASSERT_EQ(seen[v].load(), 1) << "value " << v;
    }
  }
  EXPECT_EQ(tracker.allocated(), tracker.freed() + tracker.unreclaimed());
}

TEST_P(WfeSweep, CrTurnQueueConservation) {
  auto cfg = make_cfg();
  core::WfeTracker tracker(cfg);
  {
    ds::CrTurnQueue<std::uint64_t, core::WfeTracker> q(tracker);
    std::atomic<std::uint64_t> in{0}, out{0};
    std::vector<std::thread> workers;
    for (unsigned tid = 0; tid < threads(); ++tid) {
      workers.emplace_back([&, tid] {
        util::Xoshiro256 rng(tid * 17 + 3);
        for (int i = 0; i < ops_per_thread(); ++i) {
          if (rng.percent(50)) {
            const std::uint64_t v = rng.next_bounded(9999) + 1;
            q.enqueue(v, tid);
            in.fetch_add(v);
          } else if (auto v = q.dequeue(tid)) {
            out.fetch_add(*v);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    while (auto v = q.dequeue(0)) out.fetch_add(*v);
    EXPECT_EQ(in.load(), out.load());
  }
  EXPECT_EQ(tracker.allocated(), tracker.freed() + tracker.unreclaimed());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndPath, WfeSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 6u, 8u),
                       ::testing::Bool()),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_slowpath" : "_fastpath");
    });

}  // namespace
