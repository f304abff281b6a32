// Cooperative (helper-assisted) migration: progress must never depend
// on the resize-initiating thread's scheduling.  Three proofs, all
// typed over every reclamation scheme:
//
//   * ParkedResizerOpsCompleteViaHelping — the resizer freezes every
//     bucket and then PARKS (set_resize_park_hook) while writers and
//     readers run a full slice workload.  Every op that hits a frozen
//     bucket must claim it and finish its migration itself; the test
//     only unparks the resizer after all traffic completed, so a
//     wait-for-the-resizer regression deadlocks here instead of
//     passing slowly.
//
//   * HelperContentionExactlyOnce — N threads barrier-race gets of the
//     SAME key against a parked resize, so they all contend for one
//     bucket's claim.  Exactly one may migrate it: proven by the
//     per-resize ledger closing exactly (cells == migrated keys, every
//     key copied once — migrate_in's counter would show a double copy)
//     and by the final content holding no duplicates.
//
//   * ForcedHelpStressLedgerCloses — an empty resize park hook freezes
//     every bucket up front on every resize of a grow/shrink cycle under
//     live writers (no parking): mass helping and the resizer racing
//     for the same claims, with per-slice expected-maps and exact
//     ledger closure at the end.
//
// WFE_TEST_OPS / WFE_TEST_RESIZES shrink the stress bodies in the
// sanitizer CI jobs, as in test_reshard_stress.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "kv/kv_store.hpp"
#include "tracker_types.hpp"
#include "util/backoff.hpp"
#include "util/barrier.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

template <class TR>
using Store = kv::KvStore<std::uint64_t, std::uint64_t, TR>;

unsigned env_unsigned(const char* name, unsigned fallback) {
  return static_cast<unsigned>(
      harness::env_long(name, static_cast<long>(fallback)));
}

template <class TR>
kv::KvConfig help_cfg(unsigned threads, std::size_t shards = 4,
                      std::size_t buckets = 32) {
  kv::KvConfig c;
  c.shards = shards;
  c.buckets_per_shard = buckets;
  c.tracker.max_threads = threads;
  c.tracker.max_hes = Store<TR>::kSlotsNeeded;
  c.tracker.era_freq = 8;
  c.tracker.cleanup_freq = 4;
  c.tracker.retire_batch = 4;
  return c;
}

/// Closure identities every migration must satisfy exactly, no matter
/// how many helpers contributed buckets (see kv::ResizeRecord).
void expect_ledgers_close(const kv::KvStats& st) {
  EXPECT_EQ(st.resize_epochs, st.resizes.size());
  std::uint64_t total_migrated = 0, total_helped = 0;
  for (const kv::ResizeRecord& r : st.resizes) {
    EXPECT_EQ(r.cells_retired, r.migrated_keys)
        << "cell retires must equal migrated keys (epoch " << r.epoch << ")";
    EXPECT_GE(r.nodes_retired, r.migrated_keys)
        << "every migrated key's node must be drained (epoch " << r.epoch
        << ")";
    total_migrated += r.migrated_keys;
    total_helped += r.helped_buckets;
  }
  EXPECT_EQ(st.migrated_keys, total_migrated);
  // The store-level helper counter and the per-resize ledger entries
  // are two independent tallies of the same buckets.
  EXPECT_EQ(st.helped_buckets, total_helped);
}

// ---------------------------------------------------------------------
// 1. Ops complete while the resize initiator is parked mid-migration.
// ---------------------------------------------------------------------

template <class TR>
void run_parked_resizer() {
  constexpr unsigned kWriters = 2;
  constexpr unsigned kReaders = 1;
  constexpr unsigned kResizerTid = kWriters + kReaders;
  constexpr unsigned kThreads = kResizerTid + 1;
  constexpr std::uint64_t kSlice = 256;
  const unsigned ops = env_unsigned("WFE_TEST_OPS", 20000) / 4 + 128;

  Store<TR> store(help_cfg<TR>(kThreads));
  // Prefill every writer's slice plus a read-only slab the reader pins.
  for (unsigned w = 0; w < kWriters; ++w)
    for (std::uint64_t k = 0; k < kSlice; k += 2)
      ASSERT_TRUE(store.insert(1 + w * kSlice + k, k * 10, w));
  const std::uint64_t ro_base = 1 + kWriters * kSlice;
  for (std::uint64_t k = 0; k < kSlice; ++k)
    ASSERT_TRUE(store.insert(ro_base + k, k * 7, 0));

  // The park: the resizer blocks here — holding the resize mutex and
  // every bucket frozen, but NO claim — until all traffic is done.
  std::atomic<bool> parked{false};
  std::atomic<bool> traffic_done{false};
  store.set_resize_park_hook([&] {
    parked.store(true, std::memory_order_release);
    util::Backoff bo;
    while (!traffic_done.load(std::memory_order_acquire)) bo.pause();
  });

  std::thread resizer([&] {
    ASSERT_TRUE(store.resize(16, kResizerTid));
    store.flush_retired(kResizerTid);
  });
  {
    util::Backoff bo;
    while (!parked.load(std::memory_order_acquire)) bo.pause();
  }

  // Every bucket of the source table is now frozen and the only thread
  // that could migrate them "for" us is parked: each op below must
  // finish its own bucket's migration or it never completes.
  std::vector<std::map<std::uint64_t, std::uint64_t>> expected(kWriters);
  std::vector<std::thread> threads;
  std::atomic<unsigned> done{0};
  for (unsigned w = 0; w < kWriters; ++w) {
    for (std::uint64_t k = 0; k < kSlice; k += 2)
      expected[w][1 + w * kSlice + k] = k * 10;
    threads.emplace_back([&, w] {
      util::Xoshiro256 rng(0xc0feULL + w * 131);
      auto& exp = expected[w];
      const std::uint64_t base = 1 + w * kSlice;
      for (unsigned i = 0; i < ops; ++i) {
        const std::uint64_t k = base + rng.next_bounded(kSlice);
        const std::uint64_t v = rng.next() | 1;
        switch (rng.next_bounded(4)) {
          case 0: case 1: {
            const bool was_absent = store.put(k, v, w);
            ASSERT_EQ(was_absent, exp.find(k) == exp.end());
            exp[k] = v;
            break;
          }
          case 2: {
            const auto got = store.remove(k, w);
            const auto it = exp.find(k);
            if (it == exp.end()) {
              ASSERT_FALSE(got.has_value());
            } else {
              ASSERT_EQ(got, std::make_optional(it->second));
              exp.erase(it);
            }
            break;
          }
          default: {
            const auto got = store.get(k, w);
            const auto it = exp.find(k);
            if (it == exp.end()) {
              ASSERT_FALSE(got.has_value());
            } else {
              ASSERT_EQ(got, std::make_optional(it->second));
            }
            break;
          }
        }
      }
      store.flush_retired(w);
      done.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  threads.emplace_back([&] {
    const unsigned tid = kWriters;
    util::Xoshiro256 rng(0x9e37ULL);
    while (done.load(std::memory_order_acquire) < kWriters) {
      const std::uint64_t k = rng.next_bounded(kSlice);
      const auto got = store.get(ro_base + k, tid);
      ASSERT_TRUE(got.has_value()) << "read-only key vanished mid-help";
      ASSERT_EQ(*got, k * 7);
    }
    store.flush_retired(tid);
  });
  for (auto& t : threads) t.join();

  // Only now may the resizer move again.
  traffic_done.store(true, std::memory_order_release);
  resizer.join();
  store.set_resize_park_hook(nullptr);

  EXPECT_EQ(store.shard_count(), 16u);
  const kv::KvStats st = store.stats();
  expect_ledgers_close(st);
  EXPECT_GT(st.helped_buckets, 0u)
      << "traffic against a parked resizer must have helped";
  ASSERT_EQ(st.resizes.size(), 1u);
  EXPECT_EQ(st.resizes[0].helped_buckets, st.helped_buckets);

  std::map<std::uint64_t, std::uint64_t> want;
  for (const auto& m : expected) want.insert(m.begin(), m.end());
  for (std::uint64_t k = 0; k < kSlice; ++k) want[ro_base + k] = k * 7;
  std::map<std::uint64_t, std::uint64_t> got;
  store.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) {
    ASSERT_TRUE(got.emplace(k, v).second) << "duplicate key " << k;
  });
  ASSERT_EQ(got, want) << "store diverged from the writers' ledgers";
}

// ---------------------------------------------------------------------
// 2. N threads race to help the same bucket: exactly-once migration.
// ---------------------------------------------------------------------

template <class TR>
void run_helper_contention() {
  constexpr unsigned kRacers = 4;
  constexpr unsigned kResizerTid = kRacers;
  constexpr unsigned kThreads = kResizerTid + 1;
  constexpr std::uint64_t kKeys = 96;

  // One shard, few buckets: every bucket holds several keys, and one
  // designated key gives all racers the same claim to fight over.
  Store<TR> store(help_cfg<TR>(kThreads, /*shards=*/1, /*buckets=*/8));
  for (std::uint64_t k = 1; k <= kKeys; ++k)
    ASSERT_TRUE(store.insert(k, k * 3, 0));

  std::atomic<bool> parked{false};
  std::atomic<bool> traffic_done{false};
  store.set_resize_park_hook([&] {
    parked.store(true, std::memory_order_release);
    util::Backoff bo;
    while (!traffic_done.load(std::memory_order_acquire)) bo.pause();
  });
  std::thread resizer([&] {
    ASSERT_TRUE(store.resize(4, kResizerTid));
    store.flush_retired(kResizerTid);
  });
  {
    util::Backoff bo;
    while (!parked.load(std::memory_order_acquire)) bo.pause();
  }

  constexpr std::uint64_t kHotKey = 7;
  util::SpinBarrier gate(kRacers);
  std::vector<std::thread> racers;
  for (unsigned r = 0; r < kRacers; ++r)
    racers.emplace_back([&, r] {
      gate.arrive_and_wait();  // all racers hit the hot bucket together
      const auto hot = store.get(kHotKey, r);
      ASSERT_EQ(hot, std::make_optional(kHotKey * 3));
      // Fan out so every bucket gets helped while the resizer parks.
      for (std::uint64_t k = 1 + r; k <= kKeys; k += kRacers) {
        const auto got = store.get(k, r);
        ASSERT_EQ(got, std::make_optional(k * 3)) << "key " << k;
      }
      store.flush_retired(r);
    });
  for (auto& t : racers) t.join();
  traffic_done.store(true, std::memory_order_release);
  resizer.join();
  store.set_resize_park_hook(nullptr);

  const kv::KvStats st = store.stats();
  expect_ledgers_close(st);
  ASSERT_EQ(st.resizes.size(), 1u);
  const kv::ResizeRecord& r = st.resizes[0];
  // Exactly-once: every live key copied once — a double-claimed bucket
  // would double migrate_in (the counter ticks before the insert
  // no-ops) and break cells == migrated == population.
  EXPECT_EQ(r.migrated_keys, kKeys);
  EXPECT_EQ(r.cells_retired, kKeys);
  EXPECT_GE(r.nodes_retired, kKeys);
  EXPECT_EQ(st.total().migrated_in, kKeys);
  // Racer gets touched every key while the resizer was parked, so all
  // occupied buckets were migrated by helpers (empty buckets, if the
  // hash left any, fall to the woken resizer).
  EXPECT_GE(r.helped_buckets, 1u);
  EXPECT_LE(r.helped_buckets, 8u);
  EXPECT_EQ(store.size_unsafe(), kKeys);
  for (std::uint64_t k = 1; k <= kKeys; ++k)
    ASSERT_EQ(store.get(k, 0), std::make_optional(k * 3));
}

// ---------------------------------------------------------------------
// 3. Forced mass-helping under a live grow/shrink cycle.
// ---------------------------------------------------------------------

template <class TR>
void run_forced_help_stress() {
  constexpr unsigned kWriters = 3;
  constexpr unsigned kControlTid = kWriters;
  constexpr unsigned kThreads = kControlTid + 1;
  constexpr std::uint64_t kSlice = 384;
  const unsigned ops = env_unsigned("WFE_TEST_OPS", 20000) / 2;
  const unsigned resizes = env_unsigned("WFE_TEST_RESIZES", 8);

  kv::KvConfig cfg = help_cfg<TR>(kThreads, /*shards=*/4, /*buckets=*/32);
  Store<TR> store(cfg);
  // An empty park hook: every resize freezes all buckets up front.
  store.set_resize_park_hook([] {});

  std::atomic<bool> resizes_done{false};
  std::vector<std::map<std::uint64_t, std::uint64_t>> expected(kWriters);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      util::Xoshiro256 rng(0x5eedULL + w * 7919);
      auto& exp = expected[w];
      const std::uint64_t base = 1 + w * kSlice;
      for (unsigned i = 0;
           i < ops || !resizes_done.load(std::memory_order_acquire); ++i) {
        const std::uint64_t k = base + rng.next_bounded(kSlice);
        const std::uint64_t v = rng.next() | 1;
        switch (rng.next_bounded(4)) {
          case 0: case 1: {
            const bool was_absent = store.put(k, v, w);
            ASSERT_EQ(was_absent, exp.find(k) == exp.end());
            exp[k] = v;
            break;
          }
          case 2: {
            const auto got = store.remove(k, w);
            const auto it = exp.find(k);
            if (it == exp.end()) {
              ASSERT_FALSE(got.has_value());
            } else {
              ASSERT_EQ(got, std::make_optional(it->second));
              exp.erase(it);
            }
            break;
          }
          default: {
            const auto got = store.get(k, w);
            const auto it = exp.find(k);
            if (it == exp.end()) {
              ASSERT_FALSE(got.has_value());
            } else {
              ASSERT_EQ(got, std::make_optional(it->second));
            }
            break;
          }
        }
      }
      store.flush_retired(w);
    });

  std::thread control([&] {
    static constexpr std::size_t kCycle[] = {8, 2, 16, 4};
    for (unsigned done = 0; done < resizes; ++done)
      store.resize(kCycle[done % (sizeof(kCycle) / sizeof(kCycle[0]))],
                   kControlTid);
    resizes_done.store(true, std::memory_order_release);
    store.flush_retired(kControlTid);
  });
  control.join();
  for (auto& t : threads) t.join();

  std::map<std::uint64_t, std::uint64_t> want;
  for (const auto& m : expected) want.insert(m.begin(), m.end());
  std::map<std::uint64_t, std::uint64_t> got;
  store.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) {
    ASSERT_TRUE(got.emplace(k, v).second) << "duplicate key " << k;
  });
  ASSERT_EQ(got, want) << "store diverged under forced helping";
  expect_ledgers_close(store.stats());
}

template <class TR>
class ReshardHelpTest : public ::testing::Test {};

TYPED_TEST_SUITE(ReshardHelpTest, test::AllTrackers);

TYPED_TEST(ReshardHelpTest, ParkedResizerOpsCompleteViaHelping) {
  run_parked_resizer<TypeParam>();
}

TYPED_TEST(ReshardHelpTest, HelperContentionExactlyOnce) {
  run_helper_contention<TypeParam>();
}

TYPED_TEST(ReshardHelpTest, ForcedHelpStressLedgerCloses) {
  run_forced_help_stress<TypeParam>();
}

}  // namespace
