// Randomized reference-model checks (vs std::map) for list, hash map and
// BST under EVERY tracker: the reclamation scheme must be observationally
// invisible to the data structure's sequential semantics.

#include <gtest/gtest.h>

#include <map>

#include "ds/hash_map.hpp"
#include "ds/hm_list.hpp"
#include "ds/natarajan_bst.hpp"
#include "tracker_types.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

reclaim::TrackerConfig model_cfg() {
  reclaim::TrackerConfig c;
  c.max_threads = 2;
  c.max_hes = ds::NatarajanBst<std::uint64_t, core::WfeTracker>::kSlotsNeeded;
  c.era_freq = 4;
  c.cleanup_freq = 2;
  return c;
}

/// Drives `ds` and a std::map through the same random op sequence and
/// compares every result.  Ops: 0 insert, 1 remove, 2 get, 3 put.
template <class DS>
void run_model(DS& ds, std::uint64_t seed, int ops) {
  std::map<std::uint64_t, std::uint64_t> model;
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t k = rng.next_bounded(80) + 1;
    const std::uint64_t v = rng.next();
    switch (rng.next_bounded(4)) {
      case 0:
        ASSERT_EQ(ds.insert(k, v, 0), model.emplace(k, v).second) << "step " << i;
        break;
      case 1: {
        const auto got = ds.remove(k, 0);
        const auto it = model.find(k);
        ASSERT_EQ(got.has_value(), it != model.end()) << "step " << i;
        if (got) {
          ASSERT_EQ(*got, it->second);
          model.erase(it);
        }
        break;
      }
      case 2: {
        const auto got = ds.get(k, 0);
        const auto it = model.find(k);
        ASSERT_EQ(got.has_value(), it != model.end()) << "step " << i;
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      case 3:
        ASSERT_EQ(ds.put(k, v, 0), model.find(k) == model.end()) << "step " << i;
        model[k] = v;
        break;
    }
  }
  ASSERT_EQ(ds.size_unsafe(), model.size());
  for (const auto& [k, v] : model) {
    const auto got = ds.get(k, 0);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    ASSERT_EQ(*got, v);
  }
}

template <class TR>
class ModelAllSchemes : public ::testing::Test {};

TYPED_TEST_SUITE(ModelAllSchemes, test::AllTrackers);

TYPED_TEST(ModelAllSchemes, ListMatchesReference) {
  TypeParam tracker(model_cfg());
  ds::HmList<std::uint64_t, std::uint64_t, TypeParam> list(tracker);
  run_model(list, 0xabcd, 3000);
}

TYPED_TEST(ModelAllSchemes, HashMapMatchesReference) {
  TypeParam tracker(model_cfg());
  ds::HashMap<std::uint64_t, std::uint64_t, TypeParam> map(tracker, 8);
  run_model(map, 0xbeef, 3000);
}

TYPED_TEST(ModelAllSchemes, BstMatchesReference) {
  TypeParam tracker(model_cfg());
  ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
  run_model(bst, 0xcafe, 3000);
}

}  // namespace
