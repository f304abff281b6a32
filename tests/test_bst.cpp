// Natarajan-Mittal BST: external-tree semantics, sentinel boundaries,
// model checking, concurrent balance, and reclamation of spliced chains.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
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
  // Seek record (ancestor, successor, parent, leaf), current node, cell.
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
        if (got) ASSERT_EQ(*got, it->second);
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
