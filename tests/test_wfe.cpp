// Tests for the paper's contribution: the fast path, slow path, helping
// protocol and cleanup scanning discipline of Fig. 4.  Both trackers that
// run that engine (WFE and WFE-IBR, paper §2.4) take the typed suite;
// every op brackets its protects with begin_op/end_op so that WFE-IBR's
// interval is live.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/wfe.hpp"
#include "ds/hm_list.hpp"
#include "tracker_types.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;
using core::WfeTracker;
using test::CountedNode;

reclaim::TrackerConfig small_cfg(bool force_slow = false) {
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 4;
  cfg.max_hes = 4;
  cfg.era_freq = 2;
  cfg.cleanup_freq = 2;
  if (force_slow) cfg.fast_path_attempts = 0;
  return cfg;
}

template <class TR>
class WaitFree : public ::testing::Test {};

TYPED_TEST_SUITE(WaitFree, test::WaitFreeTrackers);

TYPED_TEST(WaitFree, FastPathDoesNotEnterSlowPath) {
  TypeParam tracker(small_cfg());
  CountedNode* n = tracker.template alloc<CountedNode>(0);
  std::atomic<CountedNode*> root{n};
  // A stable era means the very first attempt succeeds.
  tracker.begin_op(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(reclaim::protect(tracker, root, 0, 0, nullptr), n);
  }
  tracker.end_op(0);
  EXPECT_EQ(tracker.slow_path_entries(), 0u);
  tracker.dealloc(n, 0);
}

TYPED_TEST(WaitFree, ForcedSlowPathCompletesSingleThreaded) {
  // With no helpers around, the requester itself must converge (the
  // global era is stable, so the cancel-WCAS in Fig. 4 line 38 fires).
  TypeParam tracker(small_cfg(/*force_slow=*/true));
  CountedNode* n = tracker.template alloc<CountedNode>(0, nullptr, 5);
  std::atomic<CountedNode*> root{n};
  tracker.begin_op(0);
  for (int i = 0; i < 100; ++i) {
    CountedNode* got = reclaim::protect(tracker, root, 0, 0, nullptr);
    ASSERT_EQ(got, n);
    ASSERT_EQ(got->value, 5u);
  }
  tracker.end_op(0);
  EXPECT_EQ(tracker.slow_path_entries(), 100u);
  EXPECT_EQ(tracker.slow_path_exits(), 100u);
  tracker.dealloc(n, 0);
}

TYPED_TEST(WaitFree, SlowPathCounterBalances) {
  TypeParam tracker(small_cfg(true));
  CountedNode* n = tracker.template alloc<CountedNode>(0);
  std::atomic<CountedNode*> root{n};
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < 2000; ++i) {
        tracker.begin_op(tid);
        reclaim::protect(tracker, root, tid % 4, tid, nullptr);
        tracker.end_op(tid);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every slow-path entry must have a matching exit: wait-freedom means
  // nobody is ever stranded.
  EXPECT_EQ(tracker.slow_path_entries(), tracker.slow_path_exits());
  EXPECT_EQ(tracker.slow_path_entries(), 8000u);
  tracker.dealloc(n, 0);
}

TYPED_TEST(WaitFree, SlowPathWithConcurrentEraIncrements) {
  // The adversarial schedule from the paper's §3.3: era-incrementing
  // threads (alloc/retire) run concurrently with forced-slow-path
  // readers.  Helping must deliver every reader a valid pointer.
  TypeParam tracker(small_cfg(true));
  CountedNode* n = tracker.template alloc<CountedNode>(0, nullptr, 99);
  std::atomic<CountedNode*> root{n};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (unsigned tid = 0; tid < 2; ++tid) {
    readers.emplace_back([&, tid] {
      while (!stop.load(std::memory_order_relaxed)) {
        tracker.begin_op(tid);
        CountedNode* got = reclaim::protect(tracker, root, 0, tid, nullptr);
        if (got->value != 99u) {
          ADD_FAILURE() << "protected read returned corrupt data";
          return;
        }
        tracker.end_op(tid);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> churners;
  for (unsigned tid = 2; tid < 4; ++tid) {
    churners.emplace_back([&, tid] {
      while (!stop.load(std::memory_order_relaxed)) {
        // alloc + retire drive increment_era() -> help_thread().
        tracker.retire(tracker.template alloc<CountedNode>(tid), tid);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : readers) t.join();
  for (auto& t : churners) t.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(tracker.slow_path_entries(), tracker.slow_path_exits());
  tracker.dealloc(n, 0);
}

TYPED_TEST(WaitFree, TagMonotonicallyIncreasesAcrossCycles) {
  // Tags number slow-path cycles (paper §3.2) and must never be reused;
  // each completed slow path bumps the slot's tag by exactly one.
  TypeParam tracker(small_cfg(true));
  CountedNode* n = tracker.template alloc<CountedNode>(0);
  std::atomic<CountedNode*> root{n};
  for (int i = 0; i < 50; ++i) {
    tracker.begin_op(0);
    reclaim::protect(tracker, root, 0, 0, nullptr);
    tracker.end_op(0);
  }
  EXPECT_EQ(tracker.slow_path_exits(), 50u);
  tracker.dealloc(n, 0);
}

TYPED_TEST(WaitFree, ParentBlockPinnedDuringHelp) {
  // The parent argument (paper §3.4 / Lemma 4): a helper dereferencing
  // state.pointer must be able to pin the block containing it.  Here the
  // hazardous reference lives INSIDE a retired-able parent block; forced
  // slow-path readers pass the parent so helpers protect it.
  struct Parent : reclaim::Block {
    std::atomic<std::uintptr_t> inner{0};
  };
  TypeParam tracker(small_cfg(true));
  CountedNode* child = tracker.template alloc<CountedNode>(0, nullptr, 1234);
  Parent* parent = tracker.template alloc<Parent>(0);
  parent->inner.store(reinterpret_cast<std::uintptr_t>(child));

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      tracker.begin_op(1);
      const std::uintptr_t w = tracker.protect_word(parent->inner, 0, 1, parent);
      auto* got = reinterpret_cast<CountedNode*>(w);
      if (got->value != 1234u) {
        ADD_FAILURE() << "child read corrupt through helped dereference";
        return;
      }
      tracker.end_op(1);
    }
  });
  std::thread churner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      tracker.retire(tracker.template alloc<CountedNode>(2), 2);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  reader.join();
  churner.join();
  tracker.dealloc(parent, 0);
  tracker.dealloc(child, 0);
}

TYPED_TEST(WaitFree, EraAdvancesWithAllocFrequency) {
  auto cfg = small_cfg();
  cfg.era_freq = 4;
  TypeParam tracker(cfg);
  const std::uint64_t before = tracker.era();
  for (int i = 0; i < 40; ++i)
    tracker.dealloc(tracker.template alloc<CountedNode>(0), 0);
  const std::uint64_t after = tracker.era();
  EXPECT_GE(after - before, 9u);  // 40 allocs / freq 4 = 10 bumps
}

TYPED_TEST(WaitFree, ForcedSlowPathListStress) {
  // Full-stack stress under permanent slow path (the paper §5 validated
  // WFE this way): a real structure with traversal-heavy operations.
  auto cfg = small_cfg(true);
  cfg.max_hes = 3;  // HmList::kSlotsNeeded
  TypeParam tracker(cfg);
  ds::HmList<std::uint64_t, std::uint64_t, TypeParam> list(tracker);
  std::vector<std::thread> threads;
  std::atomic<long> balance{0};
  for (unsigned tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(tid + 3);
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t k = rng.next_bounded(32) + 1;
        if (rng.percent(50)) {
          if (list.insert(k, k, tid)) balance.fetch_add(1);
        } else {
          if (list.remove(k, tid)) balance.fetch_sub(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(static_cast<std::size_t>(balance.load()), list.size_unsafe());
  EXPECT_EQ(tracker.slow_path_entries(), tracker.slow_path_exits());
  EXPECT_GT(tracker.slow_path_entries(), 0u);
}

TYPED_TEST(WaitFree, UnreclaimedBoundedUnderStalledReservation) {
  // The paper's §2.1 claim: a stalled thread holding one reservation
  // (an era point for WFE, an interval for WFE-IBR) pins only blocks
  // whose lifespan overlaps it.
  TypeParam tracker(small_cfg());
  CountedNode* pinned = tracker.template alloc<CountedNode>(0);
  std::atomic<CountedNode*> root{pinned};
  tracker.begin_op(1);
  reclaim::protect(tracker, root, 0, 1, nullptr);  // tid 1 stalls holding this

  // Churn: every block allocated after the stall has alloc_era >= the
  // reserved era... and is freeable once retired (lifespans overlap the
  // reservation only if they span it).
  for (int i = 0; i < 500; ++i) {
    tracker.retire(tracker.template alloc<CountedNode>(0), 0);
  }
  tracker.flush(0);
  EXPECT_LE(tracker.unreclaimed(), 10u)
      << "a stalled reservation must not pin unrelated blocks";
  tracker.end_op(1);
  tracker.dealloc(pinned, 0);
}

// Lemmas 4/5 in one cleanup pass: a helper's parent row pins always, and
// its handover row while a help request is open (counter_start !=
// counter_end).  The probe sets those rows as help_thread() does, so the
// pass meets them without a race to arrange.
class HelperRowsProbe : public WfeTracker {
 public:
  using WfeTracker::WfeTracker;
  static constexpr unsigned kParent = 0, kHandover = 1;
  void hold(unsigned row, unsigned t, std::uint64_t era) {
    resv_[t][requests_ + row].store_a(era);
  }
  void open_request() { counter_start_.value.fetch_add(1); }
  void close_request() { counter_end_.value.fetch_add(1); }
};

TEST(Wfe, OnePassSeesHelperRows) {
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 2;
  cfg.max_hes = 2;
  cfg.era_freq = 1;  // every alloc advances the era: one block per era
  cfg.cleanup_freq = 1u << 30;
  HelperRowsProbe tracker(cfg);
  std::atomic<int> dtors[3] = {};
  CountedNode* b[3];
  for (int i = 0; i < 3; ++i) {
    b[i] = tracker.alloc<CountedNode>(0, &dtors[i]);
    tracker.retire(b[i], 0);
  }
  tracker.hold(HelperRowsProbe::kParent, 1, b[0]->alloc_era);
  tracker.hold(HelperRowsProbe::kHandover, 1, b[1]->alloc_era);
  tracker.open_request();
  tracker.flush(0);
  EXPECT_EQ(dtors[0].load(), 0) << "parent row";
  EXPECT_EQ(dtors[1].load(), 0) << "handover row, request open";
  EXPECT_EQ(dtors[2].load(), 1);

  tracker.hold(HelperRowsProbe::kHandover, 1, reclaim::kInfEra);
  tracker.close_request();
  tracker.flush(0);
  EXPECT_EQ(dtors[0].load(), 0) << "parent row, no request open";
  EXPECT_EQ(dtors[1].load(), 1);

  tracker.hold(HelperRowsProbe::kParent, 1, reclaim::kInfEra);
  tracker.flush(0);
  EXPECT_EQ(dtors[0].load(), 1);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
}

TEST(Wfe, ReservationSlotsBeyondMaxHesAreInternal) {
  // The two internal reservations (max_hes, max_hes+1) exist and start
  // clear; applications never touch them, but the tracker must size the
  // arrays to include them (paper Fig. 3).
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 1;
  cfg.max_hes = 1;
  WfeTracker tracker(cfg);
  // Exercise a full slow-path cycle so the helper slots get used.
  CountedNode* n = tracker.alloc<CountedNode>(0);
  std::atomic<CountedNode*> root{n};
  reclaim::protect(tracker, root, 0, 0, nullptr);
  tracker.end_op(0);
  tracker.retire(n, 0);
  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
}

}  // namespace
