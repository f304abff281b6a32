// Tombstone deletion protocol of the Natarajan BST (see the header of
// ds/natarajan_bst.hpp): remove() linearizes at the leaf cell-word CAS,
// the FLAG/TAG edge machinery is physical-only and helped by any thread.
//
// Pinned here:
//   * lockstep oracle vs std::map — point ops AND ordered scans, with
//     values and keys-only (range_keys, bounded), every scheme;
//   * remove / re-insert races on ONE key: the ABA shape where a helper
//     could flag a freshly reallocated same-key leaf if "cell marked"
//     were not re-checked under protection;
//   * a tombstone-helping storm (every thread deleting and re-inserting
//     the same tiny key set, so most physical splices are finished by
//     helpers, not their tombstone winners);
//   * two removers of sibling leaves: each must splice its own leaf,
//     even when its cleanup round finished the sibling's splice;
//   * scans under concurrent writers, with values and keys-only:
//     strictly ascending, no duplicates, and every key NO writer
//     touches is always seen — with the churn band beside the stable
//     keys, and interleaved with them, so splices land between stable
//     leaves and on the left turns an in-order scan retains;
//   * the reclamation ledger: 3 blocks per live key (leaf + routing
//     internal + value cell) over the construction sentinels, closing
//     exactly via the shared expect_block_balance identity.
//
// WFE_TEST_OPS scales the concurrent suites for the sanitizer CI jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "ds/natarajan_bst.hpp"
#include "harness/runner.hpp"
#include "kv_balance.hpp"
#include "tracker_types.hpp"
#include "util/barrier.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

constexpr unsigned kThreads = 4;

unsigned test_ops() {
  return static_cast<unsigned>(harness::env_long("WFE_TEST_OPS", 8000));
}

reclaim::TrackerConfig bst_cfg() {
  reclaim::TrackerConfig c;
  c.max_threads = kThreads;
  c.max_hes = ds::NatarajanBst<std::uint64_t, reclaim::LeakTracker>::kSlotsNeeded;
  c.era_freq = 8;
  c.cleanup_freq = 4;
  return c;
}

template <class TR>
using Bst = ds::NatarajanBst<std::uint64_t, TR>;

/// The BST tracker's ledger in the shape kv_balance closes: subtracting
/// the construction sentinels leaves kBlocksPerKey blocks per live key.
template <class TR>
kv::ShardStats bst_ledger(TR& tracker) {
  kv::ShardStats s;
  s.allocated = tracker.allocated() - Bst<TR>::kStructuralBlocks;
  s.freed = tracker.freed();
  s.retired = tracker.retired();
  s.unreclaimed = tracker.unreclaimed();
  return s;
}

template <class TR>
class BstTombstoneTest : public ::testing::Test {
 protected:
  reclaim::TrackerConfig cfg_ = bst_cfg();
};

TYPED_TEST_SUITE(BstTombstoneTest, test::AllTrackers);

// ---- lockstep oracle: point ops + ordered scans vs std::map ----

TYPED_TEST(BstTombstoneTest, LockstepOracleWithScans) {
  TypeParam tracker(this->cfg_);
  Bst<TypeParam> bst(tracker);
  std::map<std::uint64_t, std::uint64_t> model;
  util::Xoshiro256 rng(0xb57c0ffee);
  for (unsigned step = 0; step < 6000; ++step) {
    const std::uint64_t key = 1 + rng.next() % 96;
    const std::uint64_t val = rng.next();
    switch (rng.next() % 6) {
      case 0: {
        const bool inserted = bst.insert(key, val, 0);
        ASSERT_EQ(inserted, model.emplace(key, val).second);
        break;
      }
      case 1: {
        const bool was_absent = bst.put(key, val, 0);
        ASSERT_EQ(was_absent, model.find(key) == model.end());
        model[key] = val;
        break;
      }
      case 2: {
        const bool updated = bst.update(key, val, 0);
        const auto it = model.find(key);
        ASSERT_EQ(updated, it != model.end());
        if (it != model.end()) it->second = val;
        break;
      }
      case 3: {
        const auto got = bst.remove(key, 0);
        const auto it = model.find(key);
        ASSERT_EQ(got.has_value(), it != model.end());
        if (it != model.end()) {
          ASSERT_EQ(*got, it->second);
          model.erase(it);
        }
        break;
      }
      case 4: {
        const auto got = bst.get(key, 0);
        const auto it = model.find(key);
        ASSERT_EQ(got.has_value(), it != model.end());
        if (it != model.end()) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      default: {
        // Ordered view: scan an arbitrary window, compare pair-for-pair
        // with the model's ordered range (single-threaded: exact).
        std::uint64_t lo = rng.next() % 120, hi = rng.next() % 120;
        if (lo > hi) std::swap(lo, hi);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
        bst.scan(lo, hi, [&](std::uint64_t k, std::uint64_t v) {
          seen.emplace_back(k, v);
        }, 0);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> want(
            model.lower_bound(lo), model.upper_bound(hi));
        ASSERT_EQ(seen, want) << "scan [" << lo << ", " << hi << "]";
        // The keys-only walk sees the same keys, and a bounded one stops
        // after the first half of them.
        std::vector<std::uint64_t> want_keys;
        for (const auto& kv : want) want_keys.push_back(kv.first);
        std::vector<std::uint64_t> keys(hi - lo + 1);
        keys.resize(bst.range_keys(lo, hi, keys.data(), keys.size(), 0));
        ASSERT_EQ(keys, want_keys) << "range_keys [" << lo << ", " << hi << "]";
        const std::size_t half = want_keys.size() / 2;
        ASSERT_EQ(bst.range_keys(lo, hi, keys.data(), half, 0), half);
        keys.resize(half);
        want_keys.resize(half);
        ASSERT_EQ(keys, want_keys) << "bounded range_keys";
        break;
      }
    }
  }
  EXPECT_EQ(bst.size_unsafe(), model.size());
  test::expect_block_balance(bst_ledger(tracker), model.size(),
                             "lockstep quiescent", Bst<TypeParam>::kBlocksPerKey);
}

TYPED_TEST(BstTombstoneTest, BoundedRangeGetStopsEarlyAndStaysSorted) {
  TypeParam tracker(this->cfg_);
  Bst<TypeParam> bst(tracker);
  for (std::uint64_t k = 2; k <= 100; k += 2) ASSERT_TRUE(bst.insert(k, 10 * k, 0));
  std::uint64_t out[7];
  // Bounded collect honors max and ascends from the ceiling of lo.
  ASSERT_EQ(bst.range_keys(13, 90, out, 7, 0), 7u);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(out[i], 14 + 2 * i);
  // Inclusive bounds on both ends.
  ASSERT_EQ(bst.range_keys(40, 44, out, 7, 0), 3u);
  EXPECT_EQ(out[0], 40u);
  EXPECT_EQ(out[2], 44u);
  // Empty window between keys, and a window past every key.
  EXPECT_EQ(bst.range_keys(41, 41, out, 7, 0), 0u);
  EXPECT_EQ(bst.range_keys(101, 5000, out, 7, 0), 0u);
  // Tombstoned keys disappear from the ordered view immediately.
  ASSERT_TRUE(bst.remove(14, 0).has_value());
  ASSERT_EQ(bst.range_keys(13, 17, out, 7, 0), 1u);
  EXPECT_EQ(out[0], 16u);
}

// ---- remove / re-insert races on one hot key ----
//
// The hostile shape for helper-driven physical removal: the same key is
// deleted and immediately re-inserted by every thread, so a stalled
// helper's seek can land on a FRESH leaf at the key (possibly at the
// recycled address of the one it meant to splice).  The protocol must
// never flag that live leaf — flags are planted only after re-observing
// a marked cell under protection.

TYPED_TEST(BstTombstoneTest, SingleKeyRemoveReinsertRace) {
  TypeParam tracker(this->cfg_);
  Bst<TypeParam> bst(tracker);
  constexpr std::uint64_t kHot = 7;
  // Neighbors on both sides keep the hot leaf's parent structure
  // interesting (splices have real siblings to keep).
  ASSERT_TRUE(bst.insert(3, 3, 0));
  ASSERT_TRUE(bst.insert(11, 11, 0));
  const unsigned per_thread = test_ops() / kThreads + 100;
  std::atomic<long> net{0};  // successful inserts minus successful removes
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      util::Xoshiro256 rng(0x5eed + t);
      for (unsigned i = 0; i < per_thread; ++i) {
        if (rng.next() & 1) {
          if (bst.insert(kHot, t, t)) net.fetch_add(1);
        } else {
          if (bst.remove(kHot, t).has_value()) net.fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  // Net insert/remove wins must equal final presence — a flagged-alive
  // leaf (the ABA bug) would lose an insert win here.
  ASSERT_TRUE(net.load() == 0 || net.load() == 1) << net.load();
  EXPECT_EQ(bst.get(kHot, 0).has_value(), net.load() == 1);
  EXPECT_EQ(*bst.get(3, 0), 3u);
  EXPECT_EQ(*bst.get(11, 0), 11u);
  const std::size_t live = 2 + static_cast<std::size_t>(net.load());
  EXPECT_EQ(bst.size_unsafe(), live);
  test::expect_block_balance(bst_ledger(tracker), live, "hot-key quiescent",
                             Bst<TypeParam>::kBlocksPerKey);
}

// ---- tombstone-helping storm over a tiny key set ----

TYPED_TEST(BstTombstoneTest, HelpingStormLedgerCloses) {
  TypeParam tracker(this->cfg_);
  Bst<TypeParam> bst(tracker);
  constexpr std::uint64_t kKeys = 8;  // tiny: constant cross-thread collision
  const unsigned per_thread = test_ops() / kThreads + 100;
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      util::Xoshiro256 rng(0xdead + t);
      for (unsigned i = 0; i < per_thread; ++i) {
        const std::uint64_t key = 1 + rng.next() % kKeys;
        switch (rng.next() % 4) {
          case 0: bst.insert(key, i, t); break;
          case 1: bst.put(key, i, t); break;
          case 2: bst.remove(key, t); break;
          default: bst.get(key, t); break;
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  // Quiescent: no tombstoned leaf may remain reachable (every winner
  // drives its physical phase to completion before returning)...
  std::size_t live = 0;
  for (std::uint64_t k = 1; k <= kKeys; ++k) live += bst.get(k, 0).has_value();
  EXPECT_EQ(bst.size_unsafe(), live);
  // ...and every retire happened exactly once: 3 blocks per live key.
  test::expect_block_balance(bst_ledger(tracker), live, "storm quiescent",
                             Bst<TypeParam>::kBlocksPerKey);
}

// ---- sibling removes: each remover splices its own leaf ----
//
// Keys 1 and 2, inserted into an empty tree, are sibling leaves; two
// threads remove them at once.  When one remover's flag CAS loses to
// the other's TAG, its cleanup round completes the OTHER key's splice,
// which moves its own tombstoned leaf up to the ancestor.  Returning
// then strands that leaf and its routing internal node: nobody retires
// them.  The ledger is closed after every round, before the next
// round's inserts could help a stranded leaf out.

TYPED_TEST(BstTombstoneTest, SiblingRemovesSpliceBothLeaves) {
  TypeParam tracker(this->cfg_);
  Bst<TypeParam> bst(tracker);
  // The losing flag CAS must land between the sibling's TAG and its
  // splice, and then win the splice: a few rounds in a thousand.
  const unsigned rounds = 4 * test_ops();
  util::SpinBarrier barrier(3);
  std::vector<std::thread> removers;
  for (unsigned t = 1; t <= 2; ++t) {
    removers.emplace_back([&, t] {
      for (unsigned r = 0; r < rounds; ++r) {
        barrier.arrive_and_wait();  // both keys inserted
        EXPECT_TRUE(bst.remove(t, t).has_value());
        barrier.arrive_and_wait();  // both keys removed
      }
    });
  }
  unsigned stranded_rounds = 0;
  for (unsigned r = 0; r < rounds; ++r) {
    EXPECT_TRUE(bst.insert(1, r, 0));
    EXPECT_TRUE(bst.insert(2, r, 0));
    barrier.arrive_and_wait();
    barrier.arrive_and_wait();
    const kv::ShardStats s = bst_ledger(tracker);
    stranded_rounds += s.allocated != s.freed + s.unreclaimed;
  }
  for (auto& th : removers) th.join();
  EXPECT_EQ(stranded_rounds, 0u) << "rounds that left a removed leaf in the tree";
  test::expect_block_balance(bst_ledger(tracker), 0, "sibling removes",
                             Bst<TypeParam>::kBlocksPerKey);
}

// ---- scans under concurrent writers ----

TYPED_TEST(BstTombstoneTest, ScanUnderChurnSeesStableKeysInOrder) {
  TypeParam tracker(this->cfg_);
  Bst<TypeParam> bst(tracker);
  // Stable plateau no writer ever touches; churn band below it.
  constexpr std::uint64_t kChurnLo = 1, kChurnHi = 256;
  constexpr std::uint64_t kStableLo = 1000, kStableHi = 1080;
  for (std::uint64_t k = kStableLo; k <= kStableHi; ++k)
    ASSERT_TRUE(bst.insert(k, 7 * k, 0));
  const unsigned per_thread = test_ops() / kThreads + 100;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned t = 0; t + 1 < kThreads; ++t) {
    writers.emplace_back([&, t] {
      util::Xoshiro256 rng(0xfeed + t);
      for (unsigned i = 0; i < per_thread; ++i) {
        const std::uint64_t key = kChurnLo + rng.next() % (kChurnHi - kChurnLo);
        if (rng.next() & 1)
          bst.put(key, key, t);
        else
          bst.remove(key, t);
      }
    });
  }
  // Ascending, no duplicates, and every stable key (present for the
  // whole scan) visited.
  const auto check_keys = [&](const std::vector<std::uint64_t>& keys) {
    ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    ASSERT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << "duplicate key visited";
    std::size_t stable_seen = 0;
    for (std::uint64_t k : keys) stable_seen += (k >= kStableLo && k <= kStableHi);
    ASSERT_EQ(stable_seen, kStableHi - kStableLo + 1);
  };
  std::thread scanner([&] {
    const unsigned tid = kThreads - 1;
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<std::uint64_t> keys;
      bst.scan(0, 5000, [&](std::uint64_t k, std::uint64_t v) {
        keys.push_back(k);
        // Writers store key as value in the churn band; the plateau
        // holds 7k.  Any other value is a torn/reclaimed cell read.
        ASSERT_TRUE(v == k || v == 7 * k) << "key " << k << " value " << v;
      }, tid);
      check_keys(keys);
      // The keys-only walk, under the same churn.
      keys.resize(5001);
      keys.resize(bst.range_keys(0, 5000, keys.data(), keys.size(), tid));
      check_keys(keys);
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  scanner.join();
  // Quiescent ordered view matches point lookups exactly.
  std::vector<std::uint64_t> final_keys;
  bst.scan(0, 5000, [&](std::uint64_t k, std::uint64_t) {
    final_keys.push_back(k);
  }, 0);
  EXPECT_EQ(final_keys.size(), bst.size_unsafe());
  for (std::uint64_t k : final_keys) EXPECT_TRUE(bst.get(k, 0).has_value());
  test::expect_block_balance(bst_ledger(tracker), final_keys.size(),
                             "scan-churn quiescent",
                             Bst<TypeParam>::kBlocksPerKey);
}

// ---- scans under churn interleaved with the stable keys ----
//
// Unlike the test above, splices land BETWEEN stable leaves: every key
// that is not a multiple of 4 churns, so the left turns an in-order
// walk retains are routinely spliced out or get new keys inserted under
// them while the scanner sits between two stable keys.

TYPED_TEST(BstTombstoneTest, ScanUnderInterleavedChurn) {
  TypeParam tracker(this->cfg_);
  Bst<TypeParam> bst(tracker);
  constexpr std::uint64_t kRange = 4096;
  constexpr std::uint64_t kStableTag = 0xffff;  // low bits of stable values
  const auto stable = [](std::uint64_t k) { return k % 4 == 0; };
  for (std::uint64_t k = 0; k < kRange; k += 4)
    ASSERT_TRUE(bst.insert(k, k << 16 | kStableTag, 0));
  const unsigned per_thread = test_ops() / kThreads + 100;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned t = 0; t + 1 < kThreads; ++t) {
    writers.emplace_back([&, t] {
      util::Xoshiro256 rng(0xc4a2 + t);
      for (unsigned i = 0; i < per_thread; ++i) {
        // Churn is concentrated in a 256-key window that slides every
        // 1024 ops: spread over all 3072 churn keys at once, a retained
        // turn would rarely be spliced while the scanner holds it.
        std::uint64_t key = (i / 1024 * 256 + rng.next() % 256) % kRange;
        if (stable(key)) ++key;
        if (rng.next() & 1)
          bst.put(key, key << 16 | t, t);
        else
          bst.remove(key, t);
      }
    });
  }
  std::thread scanner([&] {
    const unsigned tid = kThreads - 1;
    util::Xoshiro256 rng(0x5ca9);
    do {  // at least one scan, even if the writers finish first
      // Mostly narrow windows (the KV index's shape), some full range.
      std::uint64_t lo = 0, hi = kRange + 100;
      if (rng.next() % 8 != 0) {
        lo = rng.next() % kRange;
        hi = lo + rng.next() % 256;
      }
      const auto check_keys = [&](const std::vector<std::uint64_t>& keys) {
        ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
        ASSERT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
            << "duplicate key visited";
        ASSERT_TRUE(keys.empty() || (keys.front() >= lo && keys.back() <= hi));
        // Every stable key in [lo, hi] is present for the whole scan, so
        // it must be visited; report the first one missed.
        std::size_t next = 0;
        for (std::uint64_t k = (lo + 3) / 4 * 4; k <= hi && k < kRange; k += 4) {
          while (next < keys.size() && keys[next] < k) ++next;
          ASSERT_TRUE(next < keys.size() && keys[next] == k)
              << "stable key " << k << " skipped by scan [" << lo << ", " << hi
              << "]";
        }
      };
      std::vector<std::uint64_t> keys;
      bst.scan(lo, hi, [&](std::uint64_t k, std::uint64_t v) {
        keys.push_back(k);
        // A value of another key, or a writer tag no writer uses, is a
        // torn or reclaimed cell read.
        const std::uint64_t tag = v & 0xffff;
        ASSERT_EQ(v >> 16, k) << "value " << v;
        ASSERT_TRUE(stable(k) ? tag == kStableTag : tag + 1 < kThreads)
            << "key " << k << " value " << v;
      }, tid);
      check_keys(keys);
      // The keys-only walk, under the same churn.
      keys.resize(std::min<std::uint64_t>(hi, kRange) - lo + 1);
      keys.resize(bst.range_keys(lo, hi, keys.data(), keys.size(), tid));
      check_keys(keys);
    } while (!stop.load(std::memory_order_acquire));
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  scanner.join();
  std::vector<std::uint64_t> final_keys;
  bst.scan(0, kRange, [&](std::uint64_t k, std::uint64_t) {
    final_keys.push_back(k);
  }, 0);
  EXPECT_EQ(final_keys.size(), bst.size_unsafe());
  for (std::uint64_t k : final_keys) EXPECT_TRUE(bst.get(k, 0).has_value());
  test::expect_block_balance(bst_ledger(tracker), final_keys.size(),
                             "interleaved-churn quiescent",
                             Bst<TypeParam>::kBlocksPerKey);
}

// ---- in-place upsert vs the legacy copy path ----

TYPED_TEST(BstTombstoneTest, PutCopyAndPutAgreeOnSemantics) {
  TypeParam tracker(this->cfg_);
  Bst<TypeParam> bst(tracker);
  EXPECT_TRUE(bst.put(5, 1, 0));
  EXPECT_FALSE(bst.put_copy(5, 2, 0));
  EXPECT_EQ(*bst.get(5, 0), 2u);
  EXPECT_FALSE(bst.put(5, 3, 0));
  EXPECT_EQ(*bst.get(5, 0), 3u);
  EXPECT_TRUE(bst.put_copy(9, 4, 0));
  EXPECT_EQ(bst.size_unsafe(), 2u);
  test::expect_block_balance(bst_ledger(tracker), 2, "upsert quiescent",
                             Bst<TypeParam>::kBlocksPerKey);
}

}  // namespace
