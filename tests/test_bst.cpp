// Natarajan-Mittal BST: external-tree semantics, sentinel boundaries,
// model checking, concurrent balance, and reclamation of spliced chains.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "ds/natarajan_bst.hpp"
#include "tracker_types.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

reclaim::TrackerConfig bst_cfg() {
  reclaim::TrackerConfig c;
  c.max_threads = 4;
  // Seek record (ancestor, successor, parent, leaf), current node, cell,
  // and slots 3..7 for a scan's deeper retained turns.
  c.max_hes = ds::NatarajanBst<std::uint64_t, reclaim::LeakTracker>::kSlotsNeeded;
  c.era_freq = 8;
  c.cleanup_freq = 4;
  return c;
}

template <class TR>
class BstTest : public ::testing::Test {
 protected:
  reclaim::TrackerConfig cfg_ = bst_cfg();
};

TYPED_TEST_SUITE(BstTest, test::AllTrackers);

TYPED_TEST(BstTest, EmptyTreeLookups) {
  TypeParam tracker(this->cfg_);
  ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
  EXPECT_FALSE(bst.get(1, 0).has_value());
  EXPECT_FALSE(bst.remove(1, 0).has_value());
  EXPECT_EQ(bst.size_unsafe(), 0u);
}

TYPED_TEST(BstTest, InsertGetRemoveSingle) {
  TypeParam tracker(this->cfg_);
  ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
  EXPECT_TRUE(bst.insert(10, 100, 0));
  EXPECT_FALSE(bst.insert(10, 101, 0));
  EXPECT_EQ(*bst.get(10, 0), 100u);
  EXPECT_EQ(*bst.remove(10, 0), 100u);
  EXPECT_FALSE(bst.get(10, 0).has_value());
  EXPECT_EQ(bst.size_unsafe(), 0u);
}

TYPED_TEST(BstTest, AscendingDescendingAndMixedInsertions) {
  TypeParam tracker(this->cfg_);
  ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
  for (std::uint64_t k = 1; k <= 50; ++k) ASSERT_TRUE(bst.insert(k, k, 0));
  for (std::uint64_t k = 100; k >= 51; --k) ASSERT_TRUE(bst.insert(k, k, 0));
  EXPECT_EQ(bst.size_unsafe(), 100u);
  for (std::uint64_t k = 1; k <= 100; ++k) ASSERT_EQ(*bst.get(k, 0), k);
}

TYPED_TEST(BstTest, RemoveInEveryStructuralPosition) {
  TypeParam tracker(this->cfg_);
  ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
  for (std::uint64_t k : {50u, 25u, 75u, 12u, 37u, 62u, 87u}) {
    ASSERT_TRUE(bst.insert(k, k, 0));
  }
  // Remove a deep leaf, a middle node's leaf, then the "root" key.
  EXPECT_TRUE(bst.remove(12, 0).has_value());
  EXPECT_TRUE(bst.remove(75, 0).has_value());
  EXPECT_TRUE(bst.remove(50, 0).has_value());
  EXPECT_EQ(bst.size_unsafe(), 4u);
  for (std::uint64_t k : {25u, 37u, 62u, 87u}) EXPECT_TRUE(bst.contains(k, 0));
  for (std::uint64_t k : {12u, 50u, 75u}) EXPECT_FALSE(bst.contains(k, 0));
}

TYPED_TEST(BstTest, MaxKeyBoundary) {
  TypeParam tracker(this->cfg_);
  ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
  const auto max_key = ds::NatarajanBst<std::uint64_t, TypeParam>::kMaxKey;
  EXPECT_TRUE(bst.insert(max_key, 1, 0));
  EXPECT_TRUE(bst.insert(0, 2, 0));
  EXPECT_EQ(*bst.get(max_key, 0), 1u);
  EXPECT_EQ(*bst.get(0, 0), 2u);
  EXPECT_TRUE(bst.remove(max_key, 0).has_value());
  EXPECT_TRUE(bst.remove(0, 0).has_value());
}

TYPED_TEST(BstTest, PutUpdatesInPlace) {
  TypeParam tracker(this->cfg_);
  ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
  EXPECT_TRUE(bst.put(5, 1, 0));
  EXPECT_FALSE(bst.put(5, 2, 0));
  EXPECT_EQ(*bst.get(5, 0), 2u);
  EXPECT_EQ(bst.size_unsafe(), 1u);
}

TYPED_TEST(BstTest, ConcurrentInsertRemoveBalance) {
  TypeParam tracker(this->cfg_);
  ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
  std::atomic<long> balance{0};
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(tid + 3);
      for (int i = 0; i < 10000; ++i) {
        const std::uint64_t k = rng.next_bounded(256) + 1;
        if (rng.percent(50)) {
          if (bst.insert(k, k, tid)) balance.fetch_add(1);
        } else {
          if (bst.remove(k, tid)) balance.fetch_sub(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(static_cast<std::size_t>(balance.load()), bst.size_unsafe());
}

TYPED_TEST(BstTest, NoLeaksAfterChurn) {
  // Chain retirement (DESIGN.md §4): every spliced internal node and leaf
  // is retired exactly once, so allocated == freed + still-queued after
  // teardown-level flush.
  TypeParam tracker(this->cfg_);
  {
    ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < 4; ++tid) {
      threads.emplace_back([&, tid] {
        util::Xoshiro256 rng(tid + 11);
        for (int i = 0; i < 5000; ++i) {
          const std::uint64_t k = rng.next_bounded(64) + 1;
          if (rng.percent(50)) {
            bst.insert(k, k, tid);
          } else {
            bst.remove(k, tid);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(tracker.allocated(), tracker.freed() + tracker.unreclaimed());
}

// ---- root descents per scan: the retained turns carry a chunk ----

/// Inserts keys[lo, hi) median first, so the tree is balanced.
template <class Bst>
void insert_median_first(Bst& bst, const std::vector<std::uint64_t>& keys,
                         std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  ASSERT_TRUE(bst.insert(keys[mid], keys[mid], 0));
  insert_median_first(bst, keys, lo, mid);
  insert_median_first(bst, keys, mid + 1, hi);
}

// In a balanced 256-key tree, every walk over at most 64 consecutive keys
// finds each next leaf from its retained left turns: one root descent
// per range_keys call, whether the range or `max` ends the walk.
TYPED_TEST(BstTest, ScanOfAtMost64KeysDescendsOnceInABalancedTree) {
  TypeParam tracker(this->cfg_);
  ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
  std::vector<std::uint64_t> keys(256);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 10 * (i + 1);
  insert_median_first(bst, keys, 0, keys.size());
  std::uint64_t out[64];
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t w = 1; w <= 64 && i + w <= keys.size(); ++w) {
      std::uint64_t before = bst.scan_descents();
      ASSERT_EQ(bst.range_keys(keys[i], keys[i + w - 1], out, 64, 0), w);
      ASSERT_EQ(bst.scan_descents() - before, 1u)
          << "range [" << keys[i] << ", " << keys[i + w - 1] << "]";
      ASSERT_TRUE(std::equal(out, out + w, keys.begin() + i));
      before = bst.scan_descents();
      ASSERT_EQ(bst.range_keys(keys[i] - 5, keys.back(), out, w, 0), w);
      ASSERT_EQ(bst.scan_descents() - before, 1u)
          << "max " << w << " from " << keys[i] - 5;
    }
  }
  EXPECT_EQ(bst.scan_restarts(), 0u);
}

// A random tree is deeper and lopsided, so a walk sometimes climbs past
// its deepest eight turns; 64-key scans still average at most 1.2
// descents (with three retained turns they averaged 6.8 here).
TYPED_TEST(BstTest, ScansOfARandomTreeAverageAtMostOnePointTwoDescents) {
  constexpr std::uint64_t kRange = 40000, kLive = 20000;
  constexpr int kScans = 1000;
  TypeParam tracker(this->cfg_);
  ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
  std::vector<std::uint64_t> keys(kRange);
  std::iota(keys.begin(), keys.end(), 1);
  util::Xoshiro256 rng(0x5ca9);
  for (std::size_t i = keys.size() - 1; i > 0; --i)  // Fisher-Yates
    std::swap(keys[i], keys[rng.next_bounded(i + 1)]);
  for (std::uint64_t i = 0; i < kLive; ++i) ASSERT_TRUE(bst.insert(keys[i], i, 0));
  std::uint64_t out[64];
  const std::uint64_t before = bst.scan_descents();
  for (int s = 0; s < kScans; ++s) {
    // Far enough below the top that 64 live keys follow.
    const std::uint64_t lo = rng.next_bounded(kRange - 1000) + 1;
    ASSERT_EQ(bst.range_keys(lo, kRange, out, 64, 0), 64u);
    ASSERT_TRUE(std::is_sorted(out, out + 64));
  }
  const double per_scan =
      static_cast<double>(bst.scan_descents() - before) / kScans;
  EXPECT_LE(per_scan, 1.2);
  EXPECT_EQ(bst.scan_restarts(), 0u);
}

// ---- randomized model check, parameterized over seeds ----

class BstModelTest : public ::testing::TestWithParam<int> {};

TEST_P(BstModelTest, MatchesReferenceModel) {
  core::WfeTracker tracker(bst_cfg());
  ds::NatarajanBst<std::uint64_t, core::WfeTracker> bst(tracker);
  std::map<std::uint64_t, std::uint64_t> model;
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t k = rng.next_bounded(100) + 1;
    const std::uint64_t v = rng.next();
    switch (rng.next_bounded(4)) {
      case 0:
        ASSERT_EQ(bst.insert(k, v, 0), model.emplace(k, v).second)
            << "step " << i;
        break;
      case 1: {
        const auto got = bst.remove(k, 0);
        const auto it = model.find(k);
        ASSERT_EQ(got.has_value(), it != model.end()) << "step " << i;
        if (got) {
          ASSERT_EQ(*got, it->second);
          model.erase(it);
        }
        break;
      }
      case 2: {
        const auto got = bst.get(k, 0);
        const auto it = model.find(k);
        ASSERT_EQ(got.has_value(), it != model.end()) << "step " << i;
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      case 3:
        bst.put(k, v, 0);
        model[k] = v;
        break;
    }
  }
  ASSERT_EQ(bst.size_unsafe(), model.size());
  for (const auto& [k, v] : model) {
    auto got = bst.get(k, 0);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BstModelTest,
                         ::testing::Range(1, 11),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
