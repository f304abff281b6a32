// Scheme-specific semantics: the properties that DIFFER between EBR, HP,
// HE and 2GEIBR — reservation granularity, stall behaviour, era clocks —
// and what one cleanup pass of each era scheme must see.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <type_traits>

#include "tracker_types.hpp"

namespace {

using namespace wfe;
using test::CountedNode;

reclaim::TrackerConfig cfg_small() {
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 4;
  cfg.max_hes = 4;
  cfg.era_freq = 2;
  cfg.cleanup_freq = 1;  // scan on every retire
  return cfg;
}

// ---- EBR ----

TEST(Ebr, EpochAdvancesOnAlloc) {
  reclaim::EbrTracker tracker(cfg_small());
  const auto before = tracker.epoch();
  for (int i = 0; i < 20; ++i)
    tracker.dealloc(tracker.alloc<CountedNode>(0), 0);
  EXPECT_GT(tracker.epoch(), before);
}

TEST(Ebr, StalledReaderPinsEverythingRetiredAfterIt) {
  // The unbounded-memory failure mode the paper keeps EBR around to show
  // (§2.1): one published epoch blocks ALL subsequent reclamation.
  reclaim::EbrTracker tracker(cfg_small());
  tracker.begin_op(1);  // tid 1 stalls inside an operation
  for (int i = 0; i < 300; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0), 0);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 300u);
  tracker.end_op(1);  // release
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
}

TEST(Ebr, BlocksRetiredBeforeReservationAreFreed) {
  reclaim::EbrTracker tracker(cfg_small());
  // Retire first, with no readers...
  for (int i = 0; i < 50; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0), 0);
  // ...advance the epoch past them, then a reader arrives.
  for (int i = 0; i < 10; ++i)
    tracker.dealloc(tracker.alloc<CountedNode>(0), 0);
  tracker.begin_op(1);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u)
      << "a late reader must not pin earlier garbage";
  tracker.end_op(1);
}

// ---- HP ----

TEST(Hp, HazardPinsExactlyTheNamedBlock) {
  reclaim::HpTracker tracker(cfg_small());
  std::atomic<int> dtors{0};
  CountedNode* pinned = tracker.alloc<CountedNode>(0, &dtors, 1);
  std::atomic<CountedNode*> root{pinned};
  reclaim::protect(tracker, root, 0, 1, nullptr);
  tracker.retire(pinned, 0);
  // Unrelated churn is fully reclaimed despite the live hazard.
  for (int i = 0; i < 100; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0, &dtors), 0);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 1u);
  EXPECT_EQ(dtors.load(), 100);
  tracker.end_op(1);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
  EXPECT_EQ(dtors.load(), 101);
}

TEST(Hp, MarkedSourcePublishesStrippedAddress) {
  reclaim::HpTracker tracker(cfg_small());
  CountedNode* n = tracker.alloc<CountedNode>(0);
  std::atomic<std::uintptr_t> root{reinterpret_cast<std::uintptr_t>(n) | 1u};
  const std::uintptr_t w = tracker.protect_word(root, 0, 1, nullptr);
  EXPECT_TRUE(wfe::util::is_marked(w));
  // The published (stripped) hazard must pin the node itself.
  tracker.retire(n, 0);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 1u);
  tracker.end_op(1);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
}

TEST(Hp, ValidationLoopTracksChangingSource) {
  reclaim::HpTracker tracker(cfg_small());
  CountedNode* a = tracker.alloc<CountedNode>(0, nullptr, 1);
  CountedNode* b = tracker.alloc<CountedNode>(0, nullptr, 2);
  std::atomic<CountedNode*> root{a};
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      root.store(a);
      root.store(b);
    }
  });
  for (int i = 0; i < 20000; ++i) {
    CountedNode* got = reclaim::protect(tracker, root, 0, 1, nullptr);
    ASSERT_TRUE(got == a || got == b);
    ASSERT_TRUE(got->value == 1 || got->value == 2);
  }
  stop.store(true);
  flipper.join();
  tracker.end_op(1);
  tracker.dealloc(a, 0);
  tracker.dealloc(b, 0);
}

// ---- HE ----

TEST(He, EraClockIsMonotonic) {
  reclaim::HeTracker tracker(cfg_small());
  std::uint64_t last = tracker.era();
  for (int i = 0; i < 50; ++i) {
    tracker.retire(tracker.alloc<CountedNode>(0), 0);
    const std::uint64_t now = tracker.era();
    ASSERT_GE(now, last);
    last = now;
  }
}

TEST(He, ReservationPinsByLifespanOverlap) {
  reclaim::HeTracker tracker(cfg_small());
  std::atomic<int> dtors{0};
  // Block A lives across the reservation era; block B is born after.
  CountedNode* a = tracker.alloc<CountedNode>(0, &dtors, 1);
  std::atomic<CountedNode*> root{a};
  reclaim::protect(tracker, root, 0, 1, nullptr);  // reserve current era e
  // Push the era clock forward, then retire A (lifespan spans e) and
  // fresh blocks (born after e, disjoint from it).
  for (int i = 0; i < 10; ++i)
    tracker.dealloc(tracker.alloc<CountedNode>(0), 0);
  tracker.retire(a, 0);
  for (int i = 0; i < 60; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0, &dtors), 0);
  tracker.flush(0);
  EXPECT_GE(dtors.load(), 55) << "disjoint-lifespan blocks must be freed";
  EXPECT_LE(tracker.unreclaimed(), 5u);
  // A itself must have survived.
  EXPECT_EQ(root.load()->value, 1u);
  tracker.end_op(1);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
}

TEST(He, StalledReservationDoesNotBlockYoungBlocks) {
  // The contrast with EBR: identical scenario to
  // Ebr.StalledReaderPinsEverythingRetiredAfterIt, opposite outcome.
  reclaim::HeTracker tracker(cfg_small());
  CountedNode* pinned = tracker.alloc<CountedNode>(0);
  std::atomic<CountedNode*> root{pinned};
  reclaim::protect(tracker, root, 0, 1, nullptr);  // stall with era reservation
  for (int i = 0; i < 300; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0), 0);
  tracker.flush(0);
  EXPECT_LE(tracker.unreclaimed(), 10u)
      << "HE must reclaim blocks born after the stalled reservation";
  tracker.end_op(1);
  tracker.dealloc(pinned, 0);
}

// ---- 2GEIBR ----

TEST(Ibr, IntervalGrowsDuringOperation) {
  reclaim::IbrTracker tracker(cfg_small());
  CountedNode* n = tracker.alloc<CountedNode>(0);
  std::atomic<CountedNode*> root{n};
  tracker.begin_op(1);
  reclaim::protect(tracker, root, 0, 1, nullptr);
  // Push the era forward; re-reading must extend the upper bound, and the
  // early block must stay pinned via the interval's lower bound.
  for (int i = 0; i < 20; ++i)
    tracker.dealloc(tracker.alloc<CountedNode>(0), 0);
  reclaim::protect(tracker, root, 0, 1, nullptr);
  tracker.retire(n, 0);
  root.store(nullptr);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 1u) << "interval must pin the old block";
  tracker.end_op(1);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
}

TEST(Ibr, InactiveThreadsDoNotPin) {
  reclaim::IbrTracker tracker(cfg_small());
  for (int i = 0; i < 100; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0), 0);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
}

TEST(Ibr, StalledIntervalBoundsMemory) {
  reclaim::IbrTracker tracker(cfg_small());
  tracker.begin_op(1);  // interval [e, e] held while stalled
  for (int i = 0; i < 300; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0), 0);
  tracker.flush(0);
  EXPECT_LE(tracker.unreclaimed(), 10u)
      << "2GEIBR pins only interval-overlapping blocks, unlike EBR";
  tracker.end_op(1);
}

// ---- One cleanup pass (HE, WFE, 2GEIBR, WFE-IBR) ----
//
// A pass reads every reservation once, and flush() judges the whole
// retire list against what it read.  A second thread reserves e1 in its
// lowest slot and later e2 in its highest (an interval scheme opens
// [e1, e1] and grows it to [e1, e2]); one flush must keep exactly the
// retired blocks whose lifespans meet a reservation, boundaries
// included, and free every other one.  Every alloc advances the era
// by one (era_freq 1) and no retire starts a pass, so the order below
// sets each lifespan.

template <class TR>
class OnePass : public ::testing::Test {};

using EraTrackers = ::testing::Types<core::WfeTracker, reclaim::HeTracker,
                                     reclaim::IbrTracker, core::WfeIbrTracker>;
TYPED_TEST_SUITE(OnePass, EraTrackers);

TYPED_TEST(OnePass, KeepsExactlyWhatReservationsMeet) {
  constexpr bool kInterval = std::is_same_v<TypeParam, reclaim::IbrTracker> ||
                             std::is_same_v<TypeParam, core::WfeIbrTracker>;
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 2;
  cfg.max_hes = 4;
  cfg.era_freq = 1;
  cfg.cleanup_freq = 1u << 30;
  TypeParam tracker(cfg);
  CountedNode* live = tracker.template alloc<CountedNode>(0);
  std::atomic<CountedNode*> root{live};

  enum { kSpan, kBefore, kEndsAtE1, kStartsAtE1, kBetween, kEndsAtE2,
         kStartsAtE2, kAfter, kBlocks };
  std::atomic<int> dtors[kBlocks] = {};
  CountedNode* b[kBlocks];
  auto born = [&](int i) {
    b[i] = tracker.template alloc<CountedNode>(0, &dtors[i]);
  };

  born(kSpan);
  born(kBefore);
  tracker.retire(b[kBefore], 0);
  born(kEndsAtE1);
  born(kStartsAtE1);
  tracker.retire(b[kEndsAtE1], 0);
  if constexpr (kInterval) {
    tracker.begin_op(1);  // opens [e1, e1]
  } else {
    reclaim::protect(tracker, root, 0, 1, nullptr);  // lowest slot
  }
  const std::uint64_t e1 = tracker.era();
  born(kBetween);
  tracker.retire(b[kStartsAtE1], 0);
  tracker.retire(b[kBetween], 0);
  born(kEndsAtE2);
  born(kStartsAtE2);
  tracker.retire(b[kEndsAtE2], 0);
  // Highest slot; an interval scheme grows its upper bound to e2.
  reclaim::protect(tracker, root, kInterval ? 0 : cfg.max_hes - 1, 1, nullptr);
  const std::uint64_t e2 = tracker.era();
  born(kAfter);
  tracker.retire(b[kStartsAtE2], 0);
  tracker.retire(b[kAfter], 0);
  tracker.retire(b[kSpan], 0);

  ASSERT_LT(b[kBefore]->retire_era, e1);
  ASSERT_EQ(b[kEndsAtE1]->retire_era, e1);
  ASSERT_EQ(b[kStartsAtE1]->alloc_era, e1);
  ASSERT_GT(b[kBetween]->alloc_era, e1);
  ASSERT_LT(b[kBetween]->retire_era, e2);
  ASSERT_EQ(b[kEndsAtE2]->retire_era, e2);
  ASSERT_EQ(b[kStartsAtE2]->alloc_era, e2);
  ASSERT_GT(b[kAfter]->alloc_era, e2);
  ASSERT_LT(b[kSpan]->alloc_era, e1);
  ASSERT_GT(b[kSpan]->retire_era, e2);

  tracker.flush(0);
  // Era points pin their own boundaries and the span; the interval also
  // pins the block between its ends.
  const bool kept[kBlocks] = {true, false, true, true,
                              kInterval, true, true, false};
  unsigned n_kept = 0;
  for (int i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(dtors[i].load(), kept[i] ? 0 : 1) << "block " << i;
    n_kept += kept[i] ? 1 : 0;
  }
  EXPECT_EQ(tracker.unreclaimed(), n_kept);

  tracker.end_op(1);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
  for (int i = 0; i < kBlocks; ++i) EXPECT_EQ(dtors[i].load(), 1) << "block " << i;
  tracker.dealloc(live, 0);
}

// ---- Leak ----

TEST(Leak, NeverReclaimsDuringRun) {
  reclaim::LeakTracker tracker(cfg_small());
  for (int i = 0; i < 100; ++i)
    tracker.retire(tracker.alloc<CountedNode>(0), 0);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 100u);
  EXPECT_EQ(tracker.freed(), 0u);
}

TEST(Leak, DestructorStillFreesEverything) {
  std::atomic<int> dtors{0};
  {
    reclaim::LeakTracker tracker(cfg_small());
    for (int i = 0; i < 100; ++i)
      tracker.retire(tracker.alloc<CountedNode>(0, &dtors), 0);
  }
  EXPECT_EQ(dtors.load(), 100);
}

}  // namespace
