// WFE multi-slot slow-path interactions: a thread can have several
// reservation slots mid-slow-path-cycle at once (one state slot per
// reservation index, paper Fig. 3), and helpers must serve each slot
// independently without crosstalk between tags.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/wfe.hpp"
#include "tracker_types.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;
using core::WfeTracker;
using test::CountedNode;

reclaim::TrackerConfig cfg_multislot() {
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 4;
  cfg.max_hes = 4;
  cfg.era_freq = 2;
  cfg.cleanup_freq = 2;
  cfg.fast_path_attempts = 0;  // every protect goes through helping
  return cfg;
}

TEST(WfeMultiSlot, InterleavedSlowPathsOnAllSlots) {
  WfeTracker tracker(cfg_multislot());
  CountedNode* nodes[4];
  std::atomic<CountedNode*> roots[4];
  for (int j = 0; j < 4; ++j) {
    nodes[j] = tracker.alloc<CountedNode>(0, nullptr, 100 + j);
    roots[j].store(nodes[j]);
  }
  // Cycle through the slots in varied orders; each slot's tag sequence
  // must stay private to it.
  for (int round = 0; round < 200; ++round) {
    for (int j = 0; j < 4; ++j) {
      const int slot = (round + j) % 4;
      CountedNode* got = reclaim::protect(tracker, roots[slot], slot, 0, nullptr);
      ASSERT_EQ(got, nodes[slot]);
      ASSERT_EQ(got->value, 100u + slot);
    }
    if (round % 3 == 0) tracker.end_op(0);  // clear all four reservations
  }
  tracker.end_op(0);
  EXPECT_EQ(tracker.slow_path_entries(), tracker.slow_path_exits());
  EXPECT_EQ(tracker.slow_path_entries(), 200u * 4u);
  for (auto* n : nodes) tracker.dealloc(n, 0);
}

TEST(WfeMultiSlot, ConcurrentThreadsDistinctSlotsWithChurn) {
  WfeTracker tracker(cfg_multislot());
  CountedNode* nodes[4];
  std::atomic<CountedNode*> roots[4];
  for (int j = 0; j < 4; ++j) {
    nodes[j] = tracker.alloc<CountedNode>(0, nullptr, 200 + j);
    roots[j].store(nodes[j]);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Two readers hammering all four slots in different orders.
  for (unsigned tid = 0; tid < 2; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(tid + 77);
      while (!stop.load(std::memory_order_relaxed)) {
        const unsigned slot = static_cast<unsigned>(rng.next_bounded(4));
        CountedNode* got = reclaim::protect(tracker, roots[slot], slot, tid, nullptr);
        if (got->value != 200u + slot) {
          ADD_FAILURE() << "slot crosstalk: slot " << slot << " returned "
                        << got->value;
          return;
        }
        if (rng.percent(25)) tracker.clear_slot(slot, tid);
        if (rng.percent(10)) tracker.end_op(tid);
      }
    });
  }
  // Two churners driving increment_era -> help_thread over all slots.
  for (unsigned tid = 2; tid < 4; ++tid) {
    threads.emplace_back([&, tid] {
      while (!stop.load(std::memory_order_relaxed))
        tracker.retire(tracker.alloc<CountedNode>(tid), tid);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracker.slow_path_entries(), tracker.slow_path_exits());
  for (auto* n : nodes) tracker.dealloc(n, 0);
}

TEST(WfeMultiSlot, ParentChainDereferences) {
  // Nested protection through parent blocks: protect A (root), then B
  // through A, then C through B — each protect passing the true parent,
  // all on the forced slow path with helpers active.
  struct Link : reclaim::Block {
    std::atomic<std::uintptr_t> next{0};
    std::uint64_t value{0};
  };
  WfeTracker tracker(cfg_multislot());
  Link* c = tracker.alloc<Link>(0);
  c->value = 3;
  Link* b = tracker.alloc<Link>(0);
  b->value = 2;
  b->next.store(reinterpret_cast<std::uintptr_t>(c));
  Link* a = tracker.alloc<Link>(0);
  a->value = 1;
  a->next.store(reinterpret_cast<std::uintptr_t>(b));
  std::atomic<std::uintptr_t> root{reinterpret_cast<std::uintptr_t>(a)};

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    while (!stop.load(std::memory_order_relaxed))
      tracker.retire(tracker.alloc<CountedNode>(1), 1);
  });
  for (int i = 0; i < 2000; ++i) {
    auto* pa = reinterpret_cast<Link*>(tracker.protect_word(root, 0, 0, nullptr));
    ASSERT_EQ(pa->value, 1u);
    auto* pb = reinterpret_cast<Link*>(tracker.protect_word(pa->next, 1, 0, pa));
    ASSERT_EQ(pb->value, 2u);
    auto* pc = reinterpret_cast<Link*>(tracker.protect_word(pb->next, 2, 0, pb));
    ASSERT_EQ(pc->value, 3u);
    tracker.end_op(0);
  }
  stop.store(true);
  churner.join();
  EXPECT_EQ(tracker.slow_path_entries(), tracker.slow_path_exits());
  tracker.dealloc(a, 0);
  tracker.dealloc(b, 0);
  tracker.dealloc(c, 0);
}

}  // namespace
