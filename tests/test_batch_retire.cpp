// BatchedTracker edge cases: partial-batch flush at thread exit, retire
// bursts straddling era bumps (buffered blocks must stay conservative —
// stamped at flush time, never early-freed), and drain-then-reuse of the
// same facade.  Complements test_kv_store's happy-path batching test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "kv/batch_retire.hpp"
#include "tracker_types.hpp"

namespace {

using namespace wfe;
using test::CountedNode;

reclaim::TrackerConfig batch_cfg(unsigned retire_batch,
                                 std::uint64_t era_freq = 4) {
  reclaim::TrackerConfig c;
  c.max_threads = 4;
  c.max_hes = 2;
  c.era_freq = era_freq;
  c.cleanup_freq = 2;
  c.retire_batch = retire_batch;
  return c;
}

template <class TR>
class BatchRetireTest : public ::testing::Test {};

TYPED_TEST_SUITE(BatchRetireTest, test::ReclaimingTrackers);

// A thread that exits with a partial batch leaves its blocks invisible
// to the inner tracker until someone flushes its tid — the store's
// flush_retired contract.  Any thread may perform that flush.
TYPED_TEST(BatchRetireTest, PartialBatchFlushAfterThreadExit) {
  TypeParam inner(batch_cfg(/*retire_batch=*/8));
  std::atomic<int> dtors{0};
  {
    kv::BatchedTracker<TypeParam> batched(inner);
    std::thread worker([&] {
      for (int i = 0; i < 5; ++i)
        batched.retire(batched.template alloc<CountedNode>(1, &dtors), 1);
    });
    worker.join();
    // 5 < 8: the burst never filled, nothing reached the inner tracker.
    EXPECT_EQ(batched.pending_count(1), 5u);
    EXPECT_EQ(batched.pending_retired(), 5u);
    EXPECT_EQ(inner.retired(), 0u);
    EXPECT_EQ(dtors.load(), 0);

    batched.flush(1);  // another thread flushes the dead thread's tid
    EXPECT_EQ(batched.pending_count(1), 0u);
    EXPECT_EQ(inner.retired(), 5u);
    inner.flush(1);  // no reservations anywhere: everything reclaims
    EXPECT_EQ(dtors.load(), 5);
    EXPECT_EQ(inner.unreclaimed(), 0u);
  }
  EXPECT_EQ(inner.allocated(), inner.freed() + inner.unreclaimed());
}

// Bursts buffered across era/epoch bumps: blocks sitting in the buffer
// while the clock advances are stamped at FLUSH time (a later
// retire_era, strictly conservative), so a reservation taken before the
// unlink still pins them, and nothing is freed while buffered.
TYPED_TEST(BatchRetireTest, RetireBurstStraddlesEraBumps) {
  TypeParam inner(batch_cfg(/*retire_batch=*/16, /*era_freq=*/1));
  std::atomic<int> protected_dtors{0};
  std::atomic<int> churn_dtors{0};
  {
    kv::BatchedTracker<TypeParam> batched(inner);

    CountedNode* target = batched.template alloc<CountedNode>(0, &protected_dtors);
    std::atomic<std::uintptr_t> root{reinterpret_cast<std::uintptr_t>(target)};
    // Reader (tid 1) holds a reservation on `target` across the burst.
    batched.begin_op(1);
    batched.protect_word(root, 0, 1, nullptr);

    // Writer unlinks target and buffers it, then keeps allocating so
    // era-based schemes bump their clock many times while the block
    // sits in the buffer (era_freq=1: every alloc moves the clock).
    root.store(0, std::memory_order_release);
    batched.retire(target, 0);
    for (int i = 0; i < 12; ++i)
      batched.retire(batched.template alloc<CountedNode>(0, &churn_dtors), 0);
    EXPECT_EQ(batched.pending_retired(), 13u);
    EXPECT_EQ(protected_dtors.load(), 0) << "buffered blocks must never free";

    batched.flush(0);
    inner.flush(0);
    // The reservation predates the unlink, so however many era bumps
    // the buffer straddled, the late retire stamp must still cover it.
    EXPECT_EQ(protected_dtors.load(), 0)
        << "era bumps while buffered must not age a protected block out";

    batched.end_op(1);
    inner.flush(0);
    EXPECT_EQ(protected_dtors.load(), 1);
    EXPECT_EQ(churn_dtors.load(), 12);
  }
  EXPECT_EQ(inner.allocated(), inner.freed() + inner.unreclaimed());
  EXPECT_EQ(inner.unreclaimed(), 0u);
}

// flush_all_unsafe (the teardown path) must leave the facade reusable:
// draining is not a terminal state.
TYPED_TEST(BatchRetireTest, DrainThenReuse) {
  TypeParam inner(batch_cfg(/*retire_batch=*/8));
  std::atomic<int> dtors{0};
  {
    kv::BatchedTracker<TypeParam> batched(inner);
    for (unsigned tid = 0; tid < 3; ++tid)
      batched.retire(batched.template alloc<CountedNode>(tid, &dtors), tid);
    EXPECT_EQ(batched.pending_retired(), 3u);

    batched.flush_all_unsafe();  // drain every thread's buffer
    EXPECT_EQ(batched.pending_retired(), 0u);
    EXPECT_EQ(inner.retired(), 3u);
    EXPECT_EQ(batched.batch_flushes(), 3u);  // one per non-empty buffer

    // Reuse after the drain: buffering and burst-flushing still work.
    for (int i = 0; i < 9; ++i)
      batched.retire(batched.template alloc<CountedNode>(2, &dtors), 2);
    // 9 retires at batch 8: one automatic burst fired, 1 left buffered.
    EXPECT_EQ(batched.pending_count(2), 1u);
    EXPECT_EQ(inner.retired(), 11u);
    EXPECT_EQ(batched.batch_flushes(), 4u);
  }  // facade destructor flushes the remainder
  EXPECT_EQ(inner.retired(), 12u);
  for (unsigned t = 0; t < 3; ++t) inner.flush(t);
  EXPECT_EQ(dtors.load(), 12);
  EXPECT_EQ(inner.allocated(), inner.freed() + inner.unreclaimed());
}

// No facade retire judges more than one installment: each retire pays
// one (at most kJudgeStep blocks of the inner tracker's last pass), and
// a flush only lists its burst, so the put whose burst fills judges no
// more than any other unless a pass falls due in it.  The installments
// still keep up with the passes: every block listed at one pass is
// freed by the next.
TYPED_TEST(BatchRetireTest, EachRetireJudgesAtMostTwo) {
  constexpr unsigned kFreq = 16;
  reclaim::TrackerConfig cfg = batch_cfg(/*retire_batch=*/4);
  // A pass on every 4th burst detaches 16 blocks, more than the three
  // retires before the next burst judge, so a flush that paid
  // installments would show.
  cfg.cleanup_freq = kFreq;
  TypeParam inner(cfg);
  {
    kv::BatchedTracker<TypeParam> batched(inner);
    std::uint64_t listed_at_pass = 0;  // inner.retired() at the last pass
    for (unsigned i = 1; i <= 10 * kFreq; ++i) {
      const std::uint64_t before = inner.freed();
      batched.retire(batched.template alloc<CountedNode>(0), 0);
      const std::uint64_t freed = inner.freed();
      if (i % kFreq != 0) {
        EXPECT_LE(freed - before, TypeParam::kJudgeStep) << "retire " << i;
        continue;
      }
      EXPECT_GE(freed, listed_at_pass)
          << "the pass on retire " << i << " left blocks listed at the pass before";
      listed_at_pass = inner.retired();
    }
    EXPECT_EQ(batched.pending_count(0), 0u);
    batched.flush(0);
    inner.flush(0);
    EXPECT_EQ(inner.unreclaimed(), 0u);
  }
  EXPECT_EQ(inner.allocated(), inner.freed());
}

// retire_batch = 0 is normalized to 1 (unbuffered): every retire is
// handed straight through, pending stays empty.
TYPED_TEST(BatchRetireTest, ZeroBatchMeansUnbuffered) {
  TypeParam inner(batch_cfg(/*retire_batch=*/0));
  std::atomic<int> dtors{0};
  {
    kv::BatchedTracker<TypeParam> batched(inner);
    EXPECT_EQ(batched.retire_batch(), 1u);
    for (int i = 0; i < 4; ++i) {
      batched.retire(batched.template alloc<CountedNode>(0, &dtors), 0);
      EXPECT_EQ(batched.pending_count(0), 0u);
    }
    EXPECT_EQ(inner.retired(), 4u);
  }
  for (unsigned t = 0; t < 4; ++t) inner.flush(t);
  EXPECT_EQ(dtors.load(), 4);
}

}  // namespace
