// reclaim::Block header semantics and the era-overlap predicate every
// era-family scheme's cleanup pass builds on (an era point e is the
// interval [e, e]).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "reclaim/block.hpp"
#include "reclaim/leak.hpp"
#include "reclaim/tracker.hpp"

namespace {

using namespace wfe::reclaim;

TEST(Block, ConstantsAreDistinguished) {
  EXPECT_EQ(kInfEra, ~std::uint64_t{0});
  EXPECT_EQ(kInvPtr, ~std::uintptr_t{0});
  // invptr must not be a plausible aligned pointer value.
  EXPECT_NE(kInvPtr & 0x7u, 0u);
}

struct TestBlock : Block {
  int payload = 0;
};

TEST(Block, EraOverlapInterior) {
  TestBlock b;
  b.alloc_era = 10;
  b.retire_era = 20;
  EXPECT_TRUE(era_overlaps(&b, 10, 10));  // inclusive lower bound
  EXPECT_TRUE(era_overlaps(&b, 15, 15));
  EXPECT_TRUE(era_overlaps(&b, 20, 20));  // inclusive upper bound
}

TEST(Block, EraOverlapExterior) {
  TestBlock b;
  b.alloc_era = 10;
  b.retire_era = 20;
  EXPECT_FALSE(era_overlaps(&b, 9, 9));
  EXPECT_FALSE(era_overlaps(&b, 21, 21));
}

TEST(Block, InfiniteEraNeverOverlaps) {
  // ∞ is the "no reservation" sentinel: it must never pin anything, even
  // blocks whose retire_era is itself ∞ (not yet retired).
  TestBlock b;
  b.alloc_era = 0;
  b.retire_era = kInfEra;
  EXPECT_FALSE(era_overlaps(&b, kInfEra, kInfEra));
  EXPECT_TRUE(era_overlaps(&b, 5, 5));
}

TEST(Block, EraOverlapInterval) {
  // 2GEIBR's reservation [lower, upper] meets a lifespan that reaches
  // either end of it, or spans it, and no other.
  TestBlock b;
  b.alloc_era = 10;
  b.retire_era = 20;
  EXPECT_TRUE(era_overlaps(&b, 5, 10));    // upper == alloc_era
  EXPECT_TRUE(era_overlaps(&b, 20, 25));   // lower == retire_era
  EXPECT_TRUE(era_overlaps(&b, 12, 15));   // inside the lifespan
  EXPECT_TRUE(era_overlaps(&b, 5, 25));    // spans the lifespan
  EXPECT_FALSE(era_overlaps(&b, 5, 9));    // ends before alloc_era
  EXPECT_FALSE(era_overlaps(&b, 21, 25));  // starts after retire_era
}

TEST(Block, PointSizedLifespan) {
  TestBlock b;
  b.alloc_era = 7;
  b.retire_era = 7;
  EXPECT_TRUE(era_overlaps(&b, 7, 7));
  EXPECT_FALSE(era_overlaps(&b, 6, 6));
  EXPECT_FALSE(era_overlaps(&b, 8, 8));
}

// The deleter only destroys: it runs the node's destructor and reports
// the size the memory was allocated at, and the memory stays with the
// caller (a tracker keeps it on a free list or hands it to ::operator
// delete at that size).
TEST(Block, DeleterDestroysAndReportsSize) {
  static int dtors = 0;
  struct Counted : Block {
    ~Counted() { ++dtors; }
    std::uint64_t payload[3] = {};
  };
  dtors = 0;
  LeakTracker tracker(TrackerConfig{});
  Counted* c = tracker.alloc<Counted>(0);
  ASSERT_NE(c->deleter, nullptr);
  const std::size_t size = c->deleter(c);
  EXPECT_EQ(size, sizeof(Counted));
  EXPECT_EQ(dtors, 1);
  ::operator delete(static_cast<void*>(c), size);
}

TEST(Block, HeaderIsFirstSubobject) {
  // HP publishes Block* addresses and compares them against node
  // addresses: the Block header must be the node's address.
  TestBlock b;
  EXPECT_EQ(static_cast<void*>(static_cast<Block*>(&b)),
            static_cast<void*>(&b));
}

TEST(TrackerConfig, PaperDefaults) {
  // §5 of the paper: ν=150, retire-scan ≥30, 16 fast-path attempts.
  TrackerConfig cfg;
  EXPECT_EQ(cfg.era_freq, 150u);
  EXPECT_EQ(cfg.cleanup_freq, 30u);
  EXPECT_EQ(cfg.fast_path_attempts, 16u);
}

}  // namespace
