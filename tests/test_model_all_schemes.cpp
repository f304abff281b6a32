// Randomized reference-model checks (vs std::map) for list, hash map and
// BST under EVERY tracker: the reclamation scheme must be observationally
// invisible to the data structure's sequential semantics.  Every write
// mode runs: insert, put, the remove+insert put_copy, update and (list
// and hash map) cas.

#include <gtest/gtest.h>

#include <map>
#include <optional>

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

/// update, or cas when `expected` is set; true when the value was
/// replaced, nullopt when `s` has no such write.  The list and hash map
/// run both as try_upsert modes in a session of the test's own (their
/// buckets never freeze here); the BST has a plain update and no cas.
template <class DS, class TR>
std::optional<bool> replace(DS& s, TR& tracker, std::uint64_t k,
                            std::uint64_t v, const std::uint64_t* expected) {
  if constexpr (requires { s.update(k, v, 0u); }) {
    if (expected != nullptr) return std::nullopt;
    return s.update(k, v, 0);
  } else {
    ds::UpsertOutcome out;
    tracker.begin_op(0);
    const bool done =
        expected == nullptr
            ? s.template try_upsert<ds::Upsert::kUpdate>(k, v, 0, out)
            : s.template try_upsert<ds::Upsert::kCas>(k, v, 0, out, expected);
    tracker.end_op(0);
    EXPECT_TRUE(done);
    EXPECT_FALSE(out.inserted);
    return out.replaced;
  }
}

/// Drives `ds` and a std::map through the same random op sequence and
/// compares every result.  Ops: 0 insert, 1 remove, 2 get, 3 put,
/// 4 put_copy, 5 update, 6 cas (expecting the present value half the
/// time, a random one otherwise).
template <class DS, class TR>
void run_model(DS& ds, TR& tracker, std::uint64_t seed, int ops) {
  std::map<std::uint64_t, std::uint64_t> model;
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t k = rng.next_bounded(80) + 1;
    const std::uint64_t v = rng.next();
    switch (const std::uint64_t op = rng.next_bounded(7)) {
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
      case 4:
        ASSERT_EQ(ds.put_copy(k, v, 0), model.find(k) == model.end())
            << "step " << i;
        model[k] = v;
        break;
      default: {
        const auto it = model.find(k);
        const bool present = it != model.end();
        const bool cas = op == 6;
        const std::uint64_t expected =
            present && rng.next_bounded(2) == 0 ? it->second : rng.next();
        const std::optional<bool> replaced =
            replace(ds, tracker, k, v, cas ? &expected : nullptr);
        if (!replaced.has_value()) break;  // the BST has no cas
        const bool want = present && (!cas || it->second == expected);
        ASSERT_EQ(*replaced, want) << "step " << i;
        if (want) it->second = v;
        break;
      }
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
  run_model(list, tracker, 0xabcd, 3000);
}

TYPED_TEST(ModelAllSchemes, HashMapMatchesReference) {
  TypeParam tracker(model_cfg());
  ds::HashMap<std::uint64_t, std::uint64_t, TypeParam> map(tracker, 8);
  run_model(map, tracker, 0xbeef, 3000);
}

TYPED_TEST(ModelAllSchemes, BstMatchesReference) {
  TypeParam tracker(model_cfg());
  ds::NatarajanBst<std::uint64_t, TypeParam> bst(tracker);
  run_model(bst, tracker, 0xcafe, 3000);
}

}  // namespace
