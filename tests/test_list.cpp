// Harris-Michael list: sequential semantics, randomized model checking
// against std::map (property tests, parameterized by seed), and
// concurrent conservation across all schemes.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "ds/hm_list.hpp"
#include "tracker_types.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;
using List = ds::HmList<std::uint64_t, std::uint64_t, core::WfeTracker>;

reclaim::TrackerConfig list_cfg() {
  reclaim::TrackerConfig c;
  c.max_threads = 4;
  c.max_hes = 3;  // HmList::kSlotsNeeded (prev + cur + value cell)
  c.era_freq = 8;
  c.cleanup_freq = 4;
  return c;
}

template <class TR>
class ListTest : public ::testing::Test {
 protected:
  reclaim::TrackerConfig cfg_ = list_cfg();
};

TYPED_TEST_SUITE(ListTest, test::AllTrackers);

TYPED_TEST(ListTest, InsertGetRemove) {
  TypeParam tracker(this->cfg_);
  ds::HmList<std::uint64_t, std::uint64_t, TypeParam> list(tracker);
  EXPECT_TRUE(list.insert(5, 50, 0));
  EXPECT_FALSE(list.insert(5, 51, 0)) << "duplicate keys rejected";
  EXPECT_EQ(*list.get(5, 0), 50u);
  EXPECT_FALSE(list.get(6, 0).has_value());
  EXPECT_EQ(*list.remove(5, 0), 50u);
  EXPECT_FALSE(list.remove(5, 0).has_value());
  EXPECT_EQ(list.size_unsafe(), 0u);
}

TYPED_TEST(ListTest, SortedInsertionAnyOrder) {
  TypeParam tracker(this->cfg_);
  ds::HmList<std::uint64_t, std::uint64_t, TypeParam> list(tracker);
  for (std::uint64_t k : {7u, 3u, 9u, 1u, 5u, 8u, 2u, 6u, 4u}) {
    EXPECT_TRUE(list.insert(k, k * 10, 0));
  }
  EXPECT_EQ(list.size_unsafe(), 9u);
  for (std::uint64_t k = 1; k <= 9; ++k) EXPECT_EQ(*list.get(k, 0), k * 10);
}

TYPED_TEST(ListTest, PutInsertsOrUpdates) {
  TypeParam tracker(this->cfg_);
  ds::HmList<std::uint64_t, std::uint64_t, TypeParam> list(tracker);
  EXPECT_TRUE(list.put(1, 10, 0));    // insert
  EXPECT_FALSE(list.put(1, 20, 0));   // update in place
  EXPECT_EQ(*list.get(1, 0), 20u);
  EXPECT_EQ(list.size_unsafe(), 1u);
}

TYPED_TEST(ListTest, BoundaryKeys) {
  TypeParam tracker(this->cfg_);
  ds::HmList<std::uint64_t, std::uint64_t, TypeParam> list(tracker);
  EXPECT_TRUE(list.insert(0, 1, 0));
  EXPECT_TRUE(list.insert(~std::uint64_t{0}, 2, 0));
  EXPECT_EQ(*list.get(0, 0), 1u);
  EXPECT_EQ(*list.get(~std::uint64_t{0}, 0), 2u);
  EXPECT_EQ(*list.remove(0, 0), 1u);
  EXPECT_EQ(*list.remove(~std::uint64_t{0}, 0), 2u);
}

TYPED_TEST(ListTest, ConcurrentInsertRemoveBalance) {
  TypeParam tracker(this->cfg_);
  ds::HmList<std::uint64_t, std::uint64_t, TypeParam> list(tracker);
  std::atomic<long> balance{0};
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(tid + 5);
      for (int i = 0; i < 10000; ++i) {
        const std::uint64_t k = rng.next_bounded(128) + 1;
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
}

TYPED_TEST(ListTest, ConcurrentDisjointKeyRanges) {
  // Threads own disjoint ranges: every operation must succeed exactly as
  // in a sequential run (no interference).
  TypeParam tracker(this->cfg_);
  ds::HmList<std::uint64_t, std::uint64_t, TypeParam> list(tracker);
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (unsigned tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&, tid] {
      const std::uint64_t base = tid * 1000 + 1;
      for (int round = 0; round < 50; ++round) {
        for (std::uint64_t k = base; k < base + 20; ++k) {
          if (!list.insert(k, k, tid)) ok.store(false);
        }
        for (std::uint64_t k = base; k < base + 20; ++k) {
          if (!list.remove(k, tid).has_value()) ok.store(false);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(list.size_unsafe(), 0u);
}

// ---- randomized model check against std::map (property test) ----

class ListModelTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ListModelTest, MatchesReferenceModel) {
  const auto [seed, ops] = GetParam();
  core::WfeTracker tracker(list_cfg());
  List list(tracker);
  std::map<std::uint64_t, std::uint64_t> model;
  util::Xoshiro256 rng(static_cast<std::uint64_t>(seed));
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t k = rng.next_bounded(64) + 1;
    const std::uint64_t v = rng.next();
    switch (rng.next_bounded(4)) {
      case 0: {
        const bool inserted = list.insert(k, v, 0);
        const bool expect = model.emplace(k, v).second;
        ASSERT_EQ(inserted, expect) << "insert(" << k << ") step " << i;
        break;
      }
      case 1: {
        const auto got = list.remove(k, 0);
        const auto it = model.find(k);
        if (it == model.end()) {
          ASSERT_FALSE(got.has_value()) << "remove(" << k << ") step " << i;
        } else {
          ASSERT_TRUE(got.has_value());
          ASSERT_EQ(*got, it->second);
          model.erase(it);
        }
        break;
      }
      case 2: {
        const auto got = list.get(k, 0);
        const auto it = model.find(k);
        ASSERT_EQ(got.has_value(), it != model.end())
            << "get(" << k << ") step " << i;
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      case 3: {
        list.put(k, v, 0);
        model[k] = v;
        break;
      }
    }
  }
  ASSERT_EQ(list.size_unsafe(), model.size());
  for (const auto& [k, v] : model) {
    auto got = list.get(k, 0);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ListModelTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(500, 5000)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_ops" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
