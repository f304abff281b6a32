// Tests for the repo's extension modules: WFE-IBR (wait-free 2GEIBR, the
// application the paper scopes out in §2.4), QSBR, and the Michael-Scott
// queue baseline.

#include <gtest/gtest.h>

#include <atomic>

#include "ds/ms_queue.hpp"
#include "tracker_types.hpp"

namespace {

using namespace wfe;
using test::CountedNode;

reclaim::TrackerConfig ext_cfg() {
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 4;
  cfg.max_hes = 4;
  cfg.era_freq = 2;
  cfg.cleanup_freq = 2;
  return cfg;
}

// ---- WFE-IBR (the Fig. 4 contract runs in test_wfe's typed suite) ----

TEST(WfeIbr, IntervalPinsLikeIbr) {
  // Same behavioural contract as the lock-free 2GEIBR (test_schemes.cpp):
  // the interval pins the old block, young blocks stay reclaimable.
  core::WfeIbrTracker tracker(ext_cfg());
  CountedNode* n = tracker.alloc<CountedNode>(0);
  std::atomic<CountedNode*> root{n};
  tracker.begin_op(1);
  reclaim::protect(tracker, root, 0, 1, nullptr);
  for (int i = 0; i < 20; ++i) tracker.dealloc(tracker.alloc<CountedNode>(0), 0);
  reclaim::protect(tracker, root, 0, 1, nullptr);
  tracker.retire(n, 0);
  root.store(nullptr);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 1u);
  tracker.end_op(1);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
}

// ---- QSBR ----

TEST(Qsbr, IdleThreadsDoNotBlockReclamation) {
  reclaim::QsbrTracker tracker(ext_cfg());
  for (int i = 0; i < 100; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0), 0);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u)
      << "threads that never ran an op must not pin garbage";
}

TEST(Qsbr, NonQuiescentThreadPinsEverythingAfterIt) {
  reclaim::QsbrTracker tracker(ext_cfg());
  tracker.begin_op(1);  // tid 1 inside an operation, never announcing
  for (int i = 0; i < 200; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0), 0);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 200u) << "QSBR is blocking, like EBR";
  tracker.quiesce(1);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
}

TEST(Qsbr, QuiescenceCoversOnlyEarlierGarbage) {
  reclaim::QsbrTracker tracker(ext_cfg());
  tracker.begin_op(1);
  for (int i = 0; i < 50; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0), 0);
  // tid 1 announces, then immediately re-enters: pre-announcement garbage
  // frees; post-re-entry garbage is pinned again.
  tracker.quiesce(1);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
  tracker.begin_op(1);
  for (int i = 0; i < 50; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0), 0);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 50u);
  tracker.end_op(1);
}

// ---- MS queue scheme-specific (full contract runs in test_queues) ----

TEST(MsQueue, SequentialFifo) {
  core::WfeTracker tracker(ext_cfg());
  ds::MsQueue<std::uint64_t, core::WfeTracker> q(tracker);
  for (std::uint64_t i = 1; i <= 100; ++i) q.enqueue(i, 0);
  for (std::uint64_t i = 1; i <= 100; ++i) ASSERT_EQ(*q.dequeue(0), i);
  EXPECT_FALSE(q.dequeue(0).has_value());
}

TEST(MsQueue, SentinelsReclaimedPromptly) {
  reclaim::HeTracker tracker(ext_cfg());
  {
    ds::MsQueue<std::uint64_t, reclaim::HeTracker> q(tracker);
    for (int round = 0; round < 50; ++round) {
      for (std::uint64_t i = 0; i < 10; ++i) q.enqueue(i, 0);
      for (std::uint64_t i = 0; i < 10; ++i) q.dequeue(0);
    }
    tracker.flush(0);
    EXPECT_LE(tracker.unreclaimed(), 5u);
  }
  EXPECT_EQ(tracker.allocated(), tracker.freed() + tracker.unreclaimed());
}

}  // namespace
