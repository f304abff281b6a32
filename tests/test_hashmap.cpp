// Michael hash map: bucket routing, the full KV contract, model check and
// concurrent balance across schemes.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "ds/hash_map.hpp"
#include "tracker_types.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

reclaim::TrackerConfig map_cfg() {
  reclaim::TrackerConfig c;
  c.max_threads = 4;
  c.max_hes = 3;  // HmList::kSlotsNeeded (prev + cur + value cell)
  c.era_freq = 8;
  c.cleanup_freq = 4;
  return c;
}

template <class TR>
class HashMapTest : public ::testing::Test {
 protected:
  reclaim::TrackerConfig cfg_ = map_cfg();
};

TYPED_TEST_SUITE(HashMapTest, test::AllTrackers);

TYPED_TEST(HashMapTest, BucketCountRoundsToPowerOfTwo) {
  TypeParam tracker(this->cfg_);
  ds::HashMap<std::uint64_t, std::uint64_t, TypeParam> m1(tracker, 1000);
  EXPECT_EQ(m1.bucket_count(), 1024u);
  ds::HashMap<std::uint64_t, std::uint64_t, TypeParam> m2(tracker, 1);
  EXPECT_EQ(m2.bucket_count(), 1u);
  ds::HashMap<std::uint64_t, std::uint64_t, TypeParam> m3(tracker, 64);
  EXPECT_EQ(m3.bucket_count(), 64u);
}

TYPED_TEST(HashMapTest, BasicContract) {
  TypeParam tracker(this->cfg_);
  ds::HashMap<std::uint64_t, std::uint64_t, TypeParam> map(tracker, 16);
  EXPECT_TRUE(map.insert(1, 10, 0));
  EXPECT_FALSE(map.insert(1, 11, 0));
  EXPECT_EQ(*map.get(1, 0), 10u);
  EXPECT_TRUE(map.put(2, 20, 0));
  EXPECT_FALSE(map.put(2, 21, 0));
  EXPECT_EQ(*map.get(2, 0), 21u);
  EXPECT_EQ(*map.remove(1, 0), 10u);
  EXPECT_FALSE(map.remove(1, 0).has_value());
  EXPECT_EQ(map.size_unsafe(), 1u);
}

TYPED_TEST(HashMapTest, CollidingKeysInOneBucket) {
  TypeParam tracker(this->cfg_);
  // One bucket: every key collides; the map degenerates into the list,
  // exercising in-bucket ordering and removal.
  ds::HashMap<std::uint64_t, std::uint64_t, TypeParam> map(tracker, 1);
  for (std::uint64_t k = 1; k <= 64; ++k) EXPECT_TRUE(map.insert(k, k, 0));
  EXPECT_EQ(map.size_unsafe(), 64u);
  for (std::uint64_t k = 1; k <= 64; k += 2) EXPECT_TRUE(map.remove(k, 0).has_value());
  EXPECT_EQ(map.size_unsafe(), 32u);
  for (std::uint64_t k = 2; k <= 64; k += 2) EXPECT_EQ(*map.get(k, 0), k);
}

TYPED_TEST(HashMapTest, ManyKeysAcrossBuckets) {
  TypeParam tracker(this->cfg_);
  ds::HashMap<std::uint64_t, std::uint64_t, TypeParam> map(tracker, 64);
  constexpr std::uint64_t kKeys = 2000;
  for (std::uint64_t k = 1; k <= kKeys; ++k) ASSERT_TRUE(map.insert(k, k * 3, 0));
  EXPECT_EQ(map.size_unsafe(), kKeys);
  for (std::uint64_t k = 1; k <= kKeys; ++k) ASSERT_EQ(*map.get(k, 0), k * 3);
  for (std::uint64_t k = 1; k <= kKeys; ++k) ASSERT_TRUE(map.remove(k, 0).has_value());
  EXPECT_EQ(map.size_unsafe(), 0u);
}

// The map is scoped so its teardown runs before the final check: after
// the buckets are destroyed, every block ever allocated is either freed
// or still waiting on the tracker's retire lists.
TYPED_TEST(HashMapTest, ConcurrentMixedWorkload) {
  TypeParam tracker(this->cfg_);
  {
    ds::HashMap<std::uint64_t, std::uint64_t, TypeParam> map(tracker, 256);
    std::atomic<long> balance{0};
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < 4; ++tid) {
      threads.emplace_back([&, tid] {
        util::Xoshiro256 rng(tid + 41);
        for (int i = 0; i < 10000; ++i) {
          const std::uint64_t k = rng.next_bounded(512) + 1;
          switch (rng.next_bounded(3)) {
            case 0:
              if (map.insert(k, k, tid)) balance.fetch_add(1);
              break;
            case 1:
              if (map.remove(k, tid)) balance.fetch_sub(1);
              break;
            case 2:
              map.get(k, tid);
              break;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(static_cast<std::size_t>(balance.load()), map.size_unsafe());
  }
  EXPECT_EQ(tracker.allocated(), tracker.freed() + tracker.unreclaimed());
}

// Model check (WFE tracker) with a parameterized bucket-count sweep: the
// map must behave identically whatever the bucket geometry.
class HashMapModelTest : public ::testing::TestWithParam<int> {};

TEST_P(HashMapModelTest, MatchesReferenceModel) {
  const std::size_t buckets = static_cast<std::size_t>(GetParam());
  core::WfeTracker tracker(map_cfg());
  ds::HashMap<std::uint64_t, std::uint64_t, core::WfeTracker> map(tracker,
                                                                  buckets);
  std::map<std::uint64_t, std::uint64_t> model;
  util::Xoshiro256 rng(buckets * 7 + 1);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t k = rng.next_bounded(200) + 1;
    const std::uint64_t v = rng.next();
    switch (rng.next_bounded(3)) {
      case 0:
        ASSERT_EQ(map.insert(k, v, 0), model.emplace(k, v).second);
        break;
      case 1: {
        const auto got = map.remove(k, 0);
        const auto it = model.find(k);
        ASSERT_EQ(got.has_value(), it != model.end());
        if (got) {
          ASSERT_EQ(*got, it->second);
          model.erase(it);
        }
        break;
      }
      case 2: {
        const auto got = map.get(k, 0);
        const auto it = model.find(k);
        ASSERT_EQ(got.has_value(), it != model.end());
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
    }
  }
  ASSERT_EQ(map.size_unsafe(), model.size());
}

INSTANTIATE_TEST_SUITE_P(BucketSweep, HashMapModelTest,
                         ::testing::Values(1, 2, 16, 64, 1024),
                         [](const auto& info) {
                           return "buckets" + std::to_string(info.param);
                         });

}  // namespace
