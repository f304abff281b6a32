// Behaviour every tracker must share, verified as a typed suite across
// all eight schemes: the common API contract data structures rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "tracker_types.hpp"

namespace {

using namespace wfe;
using test::CountedNode;

template <class TR>
class TrackerCommon : public ::testing::Test {
 protected:
  reclaim::TrackerConfig cfg_ = [] {
    reclaim::TrackerConfig c;
    c.max_threads = 4;
    c.max_hes = 4;
    c.era_freq = 4;      // small, so era schemes advance quickly in tests
    c.cleanup_freq = 2;  // scan often
    return c;
  }();
};

TYPED_TEST_SUITE(TrackerCommon, test::AllTrackers);

TYPED_TEST(TrackerCommon, AllocStampsAndCounts) {
  TypeParam tracker(this->cfg_);
  CountedNode* n = tracker.template alloc<CountedNode>(0);
  EXPECT_EQ(tracker.allocated(), 1u);
  EXPECT_EQ(tracker.freed(), 0u);
  EXPECT_NE(n->deleter, nullptr);
  tracker.dealloc(n, 0);
  EXPECT_EQ(tracker.freed(), 1u);
}

TYPED_TEST(TrackerCommon, DeleterRunsExactlyOnce) {
  std::atomic<int> dtors{0};
  {
    TypeParam tracker(this->cfg_);
    CountedNode* a = tracker.template alloc<CountedNode>(0, &dtors);
    CountedNode* b = tracker.template alloc<CountedNode>(0, &dtors);
    tracker.dealloc(a, 0);
    tracker.retire(b, 0);
    // b is freed at latest by the tracker destructor.
  }
  EXPECT_EQ(dtors.load(), 2);
}

// Recycling (reclaim::TrackerBase): a block freed by dealloc() or by a
// cleanup pass is destroyed once, and its memory goes on the freeing
// thread's free list for its exact size; that thread's next alloc of the
// same size gets it back, freshly constructed.  Another thread or another
// size never does.  A list holds at most kFreeListCap blocks (0 under
// AddressSanitizer, where nothing is kept), and the ledger allocated ==
// freed + live + retire_backlog closes after every step, because a kept
// block counts as freed.
TYPED_TEST(TrackerCommon, FreedBlocksAreRecycledPerThread) {
  struct WideNode : CountedNode {
    using CountedNode::CountedNode;
    std::uint64_t pad[2] = {};
  };
  constexpr bool kKeeps = reclaim::kFreeListCap != 0;
  constexpr bool kReclaims = !std::is_same_v<TypeParam, reclaim::LeakTracker>;
  const auto addr = [](const void* p) { return reinterpret_cast<std::uintptr_t>(p); };
  std::atomic<int> dtors{0};
  TypeParam tracker(this->cfg_);
  std::uint64_t live = 0;
  const auto expect_ledger = [&](const char* step) {
    EXPECT_EQ(tracker.allocated(), tracker.freed() + live + tracker.retire_backlog())
        << step;
  };

  // dealloc: the same thread's next alloc of the same size reuses it.
  CountedNode* a = tracker.template alloc<CountedNode>(1, &dtors, 5);
  const std::uintptr_t a_addr = addr(a);
  ++live;
  tracker.dealloc(a, 1);
  --live;
  EXPECT_EQ(dtors.load(), 1);
  EXPECT_EQ(tracker.cached_blocks(), kKeeps ? 1u : 0u);
  expect_ledger("after dealloc");
  CountedNode* other_thread = tracker.template alloc<CountedNode>(2, &dtors);
  WideNode* other_size = tracker.template alloc<WideNode>(1, &dtors);
  live += 2;
  EXPECT_NE(addr(other_thread), a_addr);
  EXPECT_NE(addr(other_size), a_addr);
  CountedNode* b = tracker.template alloc<CountedNode>(1, &dtors, 7);
  ++live;
  if (kKeeps) EXPECT_EQ(addr(b), a_addr);
  EXPECT_EQ(b->value, 7u);
  EXPECT_EQ(b->retire_next, nullptr);
  EXPECT_EQ(tracker.cached_blocks(), 0u);
  EXPECT_EQ(dtors.load(), 1) << "reuse must not run a destructor";
  expect_ledger("after reuse");

  // A cleanup pass frees onto the sweeping thread's list the same way.
  const std::uintptr_t b_addr = addr(b);
  tracker.retire(b, 1);
  --live;
  expect_ledger("after retire");
  tracker.flush(1);
  expect_ledger("after cleanup");
  if constexpr (kReclaims) {
    EXPECT_EQ(dtors.load(), 2);
    CountedNode* c = tracker.template alloc<CountedNode>(1, &dtors);
    ++live;
    if (kKeeps) EXPECT_EQ(addr(c), b_addr);
    tracker.dealloc(c, 1);
    --live;
  }

  // The cap: free 4x the cap (and a few more) on one thread.
  std::vector<CountedNode*> many;
  for (unsigned i = 0; i < 4 * reclaim::kFreeListCap + 4; ++i)
    many.push_back(tracker.template alloc<CountedNode>(3, &dtors));
  live += many.size();
  expect_ledger("after the burst of allocs");
  const int before = dtors.load();
  for (CountedNode* n : many) {
    tracker.dealloc(n, 3);
    --live;
    ASSERT_LE(tracker.cached_blocks(), reclaim::kFreeListCap + (kKeeps ? 1u : 0u));
  }
  EXPECT_EQ(dtors.load(), before + static_cast<int>(many.size()));
  // Thread 1 holds the block c went back to; thread 3 holds exactly cap.
  EXPECT_EQ(tracker.cached_blocks(),
            reclaim::kFreeListCap + (kKeeps && kReclaims ? 1u : 0u));
  expect_ledger("after the burst of deallocs");

  tracker.dealloc(other_thread, 2);
  tracker.dealloc(other_size, 1);
  live -= 2;
  expect_ledger("at the end");
  EXPECT_EQ(live, 0u);
  EXPECT_EQ(tracker.allocated(), tracker.freed() + tracker.retire_backlog());
}

TYPED_TEST(TrackerCommon, ProtectReturnsCurrentValue) {
  TypeParam tracker(this->cfg_);
  CountedNode* n = tracker.template alloc<CountedNode>(0, nullptr, 42);
  std::atomic<CountedNode*> root{n};
  tracker.begin_op(0);
  CountedNode* got = reclaim::protect(tracker, root, 0, 0, nullptr);
  EXPECT_EQ(got, n);
  EXPECT_EQ(got->value, 42u);
  tracker.end_op(0);
  tracker.dealloc(n, 0);
}

TYPED_TEST(TrackerCommon, ProtectWordPreservesMarkBits) {
  TypeParam tracker(this->cfg_);
  CountedNode* n = tracker.template alloc<CountedNode>(0);
  std::atomic<std::uintptr_t> root{reinterpret_cast<std::uintptr_t>(n) | 1u};
  tracker.begin_op(0);
  const std::uintptr_t w = tracker.protect_word(root, 0, 0, nullptr);
  EXPECT_EQ(w, reinterpret_cast<std::uintptr_t>(n) | 1u);
  tracker.end_op(0);
  tracker.dealloc(n, 0);
}

TYPED_TEST(TrackerCommon, ProtectNullptrIsFine) {
  TypeParam tracker(this->cfg_);
  std::atomic<CountedNode*> root{nullptr};
  tracker.begin_op(0);
  EXPECT_EQ(reclaim::protect(tracker, root, 0, 0, nullptr), nullptr);
  tracker.end_op(0);
}

TYPED_TEST(TrackerCommon, RetiredBlocksEventuallyFreed) {
  TypeParam tracker(this->cfg_);
  // No reservations held: everything retired must be reclaimable.
  for (int i = 0; i < 100; ++i) {
    CountedNode* n = tracker.template alloc<CountedNode>(0);
    tracker.retire(n, 0);
  }
  tracker.flush(0);
  if (std::string(TypeParam::name()) != "Leak") {
    EXPECT_EQ(tracker.unreclaimed(), 0u)
        << "quiescent flush must reclaim everything";
  } else {
    EXPECT_EQ(tracker.unreclaimed(), 100u);
  }
}

TYPED_TEST(TrackerCommon, StatsAreConsistent) {
  TypeParam tracker(this->cfg_);
  for (unsigned tid = 0; tid < 4; ++tid) {
    for (int i = 0; i < 25; ++i) {
      CountedNode* n = tracker.template alloc<CountedNode>(tid);
      if (i % 2 == 0) {
        tracker.retire(n, tid);
      } else {
        tracker.dealloc(n, tid);
      }
    }
  }
  EXPECT_EQ(tracker.allocated(), 100u);
  EXPECT_EQ(tracker.retired(), 52u);   // 13 per thread
  EXPECT_GE(tracker.freed(), 48u);     // all deallocs, plus any scans
  EXPECT_LE(tracker.outstanding(), 52u);
}

TYPED_TEST(TrackerCommon, DestructorDrainsRetireLists) {
  std::atomic<int> dtors{0};
  {
    TypeParam tracker(this->cfg_);
    for (unsigned tid = 0; tid < 4; ++tid) {
      for (int i = 0; i < 10; ++i) {
        tracker.retire(tracker.template alloc<CountedNode>(tid, &dtors), tid);
      }
    }
  }
  EXPECT_EQ(dtors.load(), 40) << "tracker destructor must free every block";
}

TYPED_TEST(TrackerCommon, SlotsAreIndependent) {
  TypeParam tracker(this->cfg_);
  CountedNode* a = tracker.template alloc<CountedNode>(0, nullptr, 1);
  CountedNode* b = tracker.template alloc<CountedNode>(0, nullptr, 2);
  std::atomic<CountedNode*> ra{a}, rb{b};
  tracker.begin_op(0);
  EXPECT_EQ(reclaim::protect(tracker, ra, 0, 0, nullptr), a);
  EXPECT_EQ(reclaim::protect(tracker, rb, 1, 0, nullptr), b);
  tracker.clear_slot(0, 0);
  // Slot 1 must still protect b conceptually; at minimum the calls are
  // accepted and values remain readable.
  EXPECT_EQ(rb.load()->value, 2u);
  tracker.end_op(0);
  tracker.dealloc(a, 0);
  tracker.dealloc(b, 0);
}

// copy_slot(from, to) hands protection over to a lower slot: once `from`
// is cleared, `to` alone keeps the block alive.  The second copy finds
// `to` already holding the value (the path where pointer/era schemes skip
// the store) and must leave that protection in place.
TYPED_TEST(TrackerCommon, CopySlotKeepsProtectionAfterSourceClears) {
  std::atomic<int> keep_dtors{0};
  TypeParam tracker(this->cfg_);
  CountedNode* keep = tracker.template alloc<CountedNode>(0, &keep_dtors, 7);
  std::atomic<CountedNode*> root{keep};
  tracker.begin_op(1);
  ASSERT_EQ(reclaim::protect(tracker, root, 1, 1, nullptr), keep);
  tracker.copy_slot(1, 0, 1);
  tracker.copy_slot(1, 0, 1);
  tracker.clear_slot(1, 1);
  root.store(nullptr);
  tracker.retire(keep, 0);
  for (int i = 0; i < 200; ++i)
    tracker.retire(tracker.template alloc<CountedNode>(0), 0);
  tracker.flush(0);
  ASSERT_EQ(keep_dtors.load(), 0) << "slot 1 did not keep the block alive";
  EXPECT_EQ(keep->value, 7u);
  tracker.end_op(1);
  tracker.flush(0);
  if (std::string(TypeParam::name()) != "Leak") {
    EXPECT_EQ(keep_dtors.load(), 1) << "unprotected block not freed";
  }
}

// The hand-off under concurrent scans.  Each round the owner protects B
// (root `a`'s node) in slot 2, hands it down to slot 1, reuses slot 2 for
// a stable node and reads B's canary through the slot-1 pointer, while a
// second thread replaces B, retires it and flushes.  A scan must find B
// in one of the two slots; it reads a thread's slots from the highest
// down, so one that misses B in slot 2 finds it in slot 1.  The race
// window is two adjacent loads in the scan.  Read in ascending order,
// HP's scan fails this test in most runs on a multi-core host; the era
// schemes overwrite slot 2 only when the era moves, so they rarely hit
// the window.
TYPED_TEST(TrackerCommon, HandOffToLowerSlotSurvivesConcurrentScans) {
  struct Canary : reclaim::Block {
    ~Canary() { alive.store(false, std::memory_order_relaxed); }
    std::atomic<bool> alive{true};
  };
  TypeParam tracker(this->cfg_);
  std::atomic<Canary*> a{tracker.template alloc<Canary>(1)};
  std::atomic<Canary*> stable{tracker.template alloc<Canary>(0)};
  std::atomic<bool> done{false};
  std::thread replacer([&] {
    for (int i = 0; i < 10000; ++i) {
      Canary* old = a.exchange(tracker.template alloc<Canary>(1));
      tracker.retire(old, 1);
      tracker.flush(1);
    }
    done.store(true);
  });
  int dead_reads = 0;
  while (!done.load(std::memory_order_relaxed)) {
    tracker.begin_op(0);
    Canary* b = reclaim::protect(tracker, a, 2, 0, nullptr);
    tracker.copy_slot(2, 1, 0);
    reclaim::protect(tracker, stable, 2, 0, nullptr);
    if (!b->alive.load(std::memory_order_relaxed)) ++dead_reads;
    tracker.end_op(0);
  }
  replacer.join();
  EXPECT_EQ(dead_reads, 0) << "a scan freed a block handed to a lower slot";
  tracker.dealloc(a.load(), 0);
  tracker.dealloc(stable.load(), 0);
}

TYPED_TEST(TrackerCommon, ConcurrentAllocRetireIsSafe) {
  TypeParam tracker(this->cfg_);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < 5000; ++i) {
        CountedNode* n = tracker.template alloc<CountedNode>(tid, nullptr,
                                                             std::uint64_t(i));
        tracker.retire(n, tid);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracker.allocated(), 20000u);
  EXPECT_EQ(tracker.retired(), 20000u);
}

// A reservation on a live block must prevent its reclamation; schemes
// where a reservation pins by lifespan/pointer can reclaim everything
// else.  (Leak trivially retains; EBR pins everything after its epoch —
// both still satisfy the "protected block never freed" direction, which
// is the safety property.)
TYPED_TEST(TrackerCommon, ProtectedBlockSurvivesScans) {
  std::atomic<int> dtors{0};
  TypeParam tracker(this->cfg_);
  CountedNode* keep = tracker.template alloc<CountedNode>(0, &dtors, 7);
  std::atomic<CountedNode*> root{keep};
  tracker.begin_op(1);
  CountedNode* got = reclaim::protect(tracker, root, 0, 1, nullptr);
  ASSERT_EQ(got, keep);
  // Unlink and retire the protected block, then churn to force scans.
  root.store(nullptr);
  tracker.retire(keep, 0);
  for (int i = 0; i < 200; ++i) {
    tracker.retire(tracker.template alloc<CountedNode>(0, &dtors), 0);
  }
  tracker.flush(0);
  // The protected block must still be alive: value readable, dtor not run
  // for it.  (Everything else may or may not be gone.)
  EXPECT_EQ(got->value, 7u);
  EXPECT_LE(dtors.load(), 200) << "the protected block was freed";
  tracker.end_op(1);
}

// Installments (reclaim::TrackerBase): every cleanup_freq-th retire runs
// a pass, which reads the reservations into its thread's snapshot and
// detaches the retire list; each later retire judges at most two of the
// detached blocks against that snapshot, and the next pass finishes the
// rest before it reads its own.  A block retired after a pass must wait
// for the next pass, since its unlink may follow a reservation the
// snapshot never saw.
template <class TR>
class Installments : public ::testing::Test {
 protected:
  static constexpr unsigned kFreq = 8;
  reclaim::TrackerConfig cfg_ = [] {
    reclaim::TrackerConfig c;
    c.max_threads = 4;
    c.max_hes = 4;
    c.cleanup_freq = kFreq;
    return c;
  }();
};

TYPED_TEST_SUITE(Installments, test::ReclaimingTrackers);

// Thread 1 holds nothing while a pass reads its snapshot, then protects
// X; thread 0 unlinks and retires X and keeps retiring until every block
// that pass detached is freed, then on through two more passes.  Judged
// against the first snapshot, X would be freed under thread 1's
// reservation.
TYPED_TEST(Installments, LaterRetireIsNeverJudgedByAnOlderPass) {
  constexpr unsigned kFreq = TestFixture::kFreq;
  TypeParam tracker(this->cfg_);
  std::atomic<int> x_dtors{0};
  CountedNode* x = tracker.template alloc<CountedNode>(0, &x_dtors, 7);
  std::atomic<CountedNode*> root{x};
  const auto churn = [&] { tracker.retire(tracker.template alloc<CountedNode>(0), 0); };

  for (unsigned i = 0; i < kFreq; ++i) churn();  // the last one runs the pass
  ASSERT_EQ(tracker.freed(), 0u) << "a pass frees nothing before a later retire";

  tracker.begin_op(1);
  ASSERT_EQ(reclaim::protect(tracker, root, 0, 1, nullptr), x);
  root.store(nullptr);
  tracker.retire(x, 0);
  unsigned retires = 1;
  while (tracker.freed() < kFreq && retires < kFreq - 1) {
    ASSERT_EQ(x_dtors.load(), 0) << "after " << retires << " retires since the pass";
    churn();
    ++retires;
  }
  EXPECT_EQ(tracker.freed(), kFreq) << "the pass's blocks are judged by the retires after it";
  EXPECT_EQ(x_dtors.load(), 0) << "X was judged by a pass read before its retire";
  for (; retires < 3 * kFreq; ++retires) {
    churn();
    ASSERT_EQ(x_dtors.load(), 0) << "after " << retires << " retires since the pass";
  }
  EXPECT_EQ(x->value, 7u);
  tracker.end_op(1);
  tracker.flush(0);
  EXPECT_EQ(x_dtors.load(), 1);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
}

// With nothing pinned, a retire that starts no pass frees at most two
// blocks, and every block listed at pass k is freed by the end of pass
// k+1.  The second phase makes a pass detach more than the retires
// before the next one can judge (threads 1-3 pin twelve blocks through
// two passes, then let go), so the next pass must finish the rest.
TYPED_TEST(Installments, EachRetireJudgesAtMostTwo) {
  constexpr unsigned kFreq = TestFixture::kFreq;
  TypeParam tracker(this->cfg_);
  unsigned retires = 0;
  std::uint64_t listed_at_pass = 0;  // retired() at the last pass
  bool check_passes = true;
  const auto retire = [&](CountedNode* n) {
    const std::uint64_t before = tracker.freed();
    tracker.retire(n, 0);
    const std::uint64_t freed = tracker.freed();
    if (++retires % kFreq != 0) {
      EXPECT_LE(freed - before, 2u) << "retire " << retires;
      return;
    }
    if (check_passes) {
      EXPECT_GE(freed, listed_at_pass) << "the pass on retire " << retires
                                       << " left blocks listed at the pass before";
    }
    listed_at_pass = tracker.retired();
  };
  const auto churn = [&] { retire(tracker.template alloc<CountedNode>(0)); };

  for (unsigned i = 0; i < 10 * kFreq; ++i) churn();

  constexpr unsigned kHeld = 12;
  CountedNode* held[kHeld];
  std::atomic<CountedNode*> roots[kHeld];
  for (unsigned i = 0; i < kHeld; ++i) {
    held[i] = tracker.template alloc<CountedNode>(0);
    roots[i].store(held[i]);
  }
  for (unsigned t = 1; t <= 3; ++t) {
    tracker.begin_op(t);
    for (unsigned j = 0; j < 4; ++j)
      ASSERT_EQ(reclaim::protect(tracker, roots[(t - 1) * 4 + j], j, t, nullptr),
                held[(t - 1) * 4 + j]);
  }
  check_passes = false;
  for (unsigned i = 0; i < kHeld; ++i) {
    roots[i].store(nullptr);
    retire(held[i]);
  }
  while (retires % kFreq != 0) churn();
  for (unsigned i = 0; i < kFreq; ++i) churn();
  for (unsigned t = 1; t <= 3; ++t) tracker.end_op(t);
  for (unsigned i = 0; i < kFreq; ++i) churn();  // the first pass that sees no pin
  check_passes = true;
  const std::uint64_t backlog = listed_at_pass;
  for (unsigned i = 0; i + 1 < kFreq; ++i) churn();
  EXPECT_LT(tracker.freed(), backlog) << "the installments alone finished the backlog";
  churn();  // this pass must finish it
  EXPECT_GE(tracker.freed(), backlog);

  tracker.flush(0);
  EXPECT_EQ(tracker.unreclaimed(), 0u);
}

// detail::PerThreadRows, the storage of HP's hazards, HE's eras, WFE's
// rows and requests and every era scheme's snapshot: each thread's row
// starts on a kFalseSharingRange boundary, and no two threads' rows
// share a 128-byte range, for any width and element size.
template <class T, class... Init>
void expect_padded_rows(unsigned threads, unsigned width, const Init&... init) {
  constexpr std::size_t kRange = util::kFalseSharingRange;
  static_assert(kRange == 128);
  reclaim::detail::PerThreadRows<T> rows(threads, width, init...);
  ASSERT_EQ(rows.stride() % kRange, 0u);
  ASSERT_GE(rows.stride(), width * sizeof(T));
  const auto addr = [&](unsigned t) { return reinterpret_cast<std::uintptr_t>(rows[t]); };
  for (unsigned t = 0; t < threads; ++t) {
    EXPECT_EQ(addr(t) % kRange, 0u) << "row " << t << " of width " << width;
    for (unsigned u = t + 1; u < threads; ++u) {
      // Row t covers ranges [first, last] of 128 bytes; u's start later.
      const std::uintptr_t last_t = (addr(t) + width * sizeof(T) - 1) / kRange;
      EXPECT_LT(last_t, addr(u) / kRange) << "rows " << t << " and " << u;
    }
  }
}

TEST(PerThreadRows, EachRowIsAlignedAndNoTwoRowsShareARange) {
  for (unsigned width : {1u, 3u, 11u, 16u, 17u})
    expect_padded_rows<std::atomic<std::uintptr_t>>(5, width, std::uintptr_t{0});
  for (unsigned width : {1u, 8u, 13u})
    expect_padded_rows<util::AtomicPair>(5, width, util::Pair{reclaim::kInfEra, 0});
  for (unsigned width : {1u, 4u, 5u})
    expect_padded_rows<reclaim::EraSnapshot::Interval>(3, width);
}

TEST(PerThreadRows, EveryElementStartsFromItsInitialValue) {
  reclaim::detail::PerThreadRows<std::atomic<std::uint64_t>> rows(4, 11, reclaim::kInfEra);
  for (unsigned t = 0; t < 4; ++t)
    for (unsigned j = 0; j < rows.width(); ++j) EXPECT_EQ(rows[t][j].load(), reclaim::kInfEra);
  rows[2][10].store(7);
  auto moved = std::move(rows);
  EXPECT_EQ(moved[2][10].load(), 7u);
  EXPECT_EQ(moved[3][0].load(), reclaim::kInfEra);
}

}  // namespace
