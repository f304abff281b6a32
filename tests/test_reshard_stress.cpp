// Reshard stress: N writer + M reader threads hammer one store while a
// control thread repeatedly grows and shrinks the shard count.  Checks:
//
//   * no lost or duplicated keys — each writer keeps a sequential
//     expected-map of its own disjoint key slice (plus per-op result
//     asserts, which are deterministic per slice), and the final store
//     content must equal the union of the expected maps;
//   * monotonic reads on a pinned key — a dedicated writer publishes a
//     strictly increasing counter through put() (the in-place value-cell
//     swap) and readers must never observe it go backwards, which is
//     exactly the stale-read hazard a botched migration hand-off would
//     expose (reading a frozen source bucket after writers moved on to
//     the destination table);
//   * every migration's retire ledger closes — per ResizeRecord,
//     source-domain cell retires == migrated keys and node retires cover
//     at least every migrated key (dead nodes whose removers could not
//     unlink past the freeze are drained on top).
//
// Iteration counts scale down via WFE_TEST_OPS / WFE_TEST_RESIZES so
// the TSan/ASan CI jobs stay inside their wall-clock budget.
// WFE_TEST_HELP=1 installs an empty resize park hook: every resize then
// freezes all buckets up front, so all traffic takes the helping path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "kv/kv_store.hpp"
#include "tracker_types.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

template <class TR>
using Store = kv::KvStore<std::uint64_t, std::uint64_t, TR>;

constexpr unsigned kWriters = 3;
constexpr unsigned kReaders = 2;
// tids: writers [0, kWriters), pinned writer, readers, control thread.
constexpr unsigned kPinnedTid = kWriters;
constexpr unsigned kReaderTid0 = kWriters + 1;
constexpr unsigned kControlTid = kWriters + 1 + kReaders;
constexpr unsigned kThreads = kControlTid + 1;

constexpr std::uint64_t kSlice = 512;
constexpr std::uint64_t kPinnedKey = ~std::uint64_t{0};  // outside all slices
constexpr std::size_t kMultiBatch = 8;
constexpr std::size_t kBucketsPerShard = 64;  // short buckets: tiny pauses

unsigned env_unsigned(const char* name, unsigned fallback) {
  return static_cast<unsigned>(
      harness::env_long(name, static_cast<long>(fallback)));
}

template <class TR>
kv::KvConfig stress_cfg() {
  kv::KvConfig c;
  c.shards = 4;
  c.buckets_per_shard = kBucketsPerShard;
  c.tracker.max_threads = kThreads;
  c.tracker.max_hes = Store<TR>::kSlotsNeeded;
  c.tracker.era_freq = 8;
  c.tracker.cleanup_freq = 4;
  c.tracker.retire_batch = 4;
  return c;
}

/// WFE_TEST_HELP=1 (see the file header), applied right after the
/// store's construction.
template <class TR>
void apply_test_help(Store<TR>& store) {
  if (const char* e = std::getenv("WFE_TEST_HELP");
      e != nullptr && *e != '\0' && *e != '0')
    store.set_resize_park_hook([] {});
}

/// One writer's deterministic slice workload: random put / insert /
/// remove / multi_put / multi_get against keys
/// [1 + tid*kSlice, 1 + (tid+1)*kSlice), with every result asserted
/// against a sequential expected-map (slice-disjointness makes each
/// result deterministic no matter how the other threads interleave).
/// Runs at least `ops` iterations and keeps going until the control
/// thread has finished its resizes, so every migration happens under
/// live write traffic (the forwarding path cannot go unexercised).
template <class TR>
void writer_loop(Store<TR>& store, unsigned tid, unsigned ops,
                 std::map<std::uint64_t, std::uint64_t>& expected,
                 const std::atomic<bool>& resizes_done) {
  util::Xoshiro256 rng(0xbeefULL + tid * 7919);
  const std::uint64_t base = 1 + tid * kSlice;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mputs(kMultiBatch);
  std::vector<std::uint64_t> mkeys(kMultiBatch);
  std::vector<std::optional<std::uint64_t>> mout(kMultiBatch);
  for (unsigned i = 0;
       i < ops || !resizes_done.load(std::memory_order_acquire); ++i) {
    const std::uint64_t k = base + rng.next_bounded(kSlice - kMultiBatch);
    const std::uint64_t v = rng.next() | 1;
    switch (rng.next_bounded(8)) {
      case 0: case 1: case 2: {
        const bool was_absent = store.put(k, v, tid);
        ASSERT_EQ(was_absent, expected.find(k) == expected.end());
        expected[k] = v;
        break;
      }
      case 3: {
        const bool inserted = store.insert(k, v, tid);
        ASSERT_EQ(inserted, expected.emplace(k, v).second);
        break;
      }
      case 4: case 5: {
        const auto got = store.remove(k, tid);
        const auto it = expected.find(k);
        if (it == expected.end()) {
          ASSERT_FALSE(got.has_value());
        } else {
          ASSERT_EQ(got, std::make_optional(it->second));
          expected.erase(it);
        }
        break;
      }
      case 6: {
        std::size_t want_inserted = 0;
        for (std::size_t j = 0; j < kMultiBatch; ++j) {
          mputs[j] = {k + j, v + j};
          if (expected.find(k + j) == expected.end()) ++want_inserted;
          expected[k + j] = v + j;
        }
        ASSERT_EQ(store.multi_put(mputs.data(), kMultiBatch, tid),
                  want_inserted);
        break;
      }
      default: {
        for (std::size_t j = 0; j < kMultiBatch; ++j) mkeys[j] = k + j;
        store.multi_get(mkeys.data(), kMultiBatch, mout.data(), tid);
        for (std::size_t j = 0; j < kMultiBatch; ++j) {
          const auto it = expected.find(mkeys[j]);
          if (it == expected.end()) {
            ASSERT_FALSE(mout[j].has_value()) << "ghost key " << mkeys[j];
          } else {
            ASSERT_EQ(mout[j], std::make_optional(it->second));
          }
        }
        break;
      }
    }
  }
  store.flush_retired(tid);
}

template <class TR>
void run_stress() {
  const unsigned ops = env_unsigned("WFE_TEST_OPS", 20000);
  const unsigned resizes = env_unsigned("WFE_TEST_RESIZES", 8);
  const unsigned pinned_writes = ops / 4;

  Store<TR> store(stress_cfg<TR>());
  apply_test_help(store);
  std::atomic<bool> stop{false};
  std::atomic<bool> resizes_done{false};
  std::atomic<std::uint64_t> pinned_floor{0};
  std::atomic<std::uint64_t> pinned_last{0};

  std::vector<std::map<std::uint64_t, std::uint64_t>> expected(kWriters);
  std::vector<std::thread> threads;

  for (unsigned w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      writer_loop<TR>(store, w, ops, expected[w], resizes_done);
    });

  // Pinned writer: strictly increasing counter through the in-place
  // path, kept running across every migration like the slice writers.
  threads.emplace_back([&] {
    std::uint64_t i = 0;
    while (i < pinned_writes || !resizes_done.load(std::memory_order_acquire)) {
      ++i;
      store.put(kPinnedKey, i, kPinnedTid);
      pinned_floor.store(i, std::memory_order_release);
    }
    pinned_last.store(i, std::memory_order_release);
    store.flush_retired(kPinnedTid);
  });

  // Readers: monotonic observation of the pinned key across migrations.
  for (unsigned r = 0; r < kReaders; ++r)
    threads.emplace_back([&, r] {
      const unsigned tid = kReaderTid0 + r;
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t floor = pinned_floor.load(std::memory_order_acquire);
        const auto got = store.get(kPinnedKey, tid);
        if (floor > 0) {
          ASSERT_TRUE(got.has_value()) << "pinned key vanished";
          ASSERT_GE(*got, floor) << "read older than the pre-read floor";
        }
        if (got.has_value()) {
          ASSERT_GE(*got, last) << "pinned key went backwards";
          last = *got;
        }
      }
      store.flush_retired(tid);
    });

  // Control thread: grow and shrink through a fixed cycle; the writers
  // keep running until this signals completion, so every migration
  // executes under live traffic.
  std::thread control([&] {
    static constexpr std::size_t kCycle[] = {8, 2, 16, 4, 32, 1};
    unsigned done = 0;
    while (done < resizes) {
      store.resize(kCycle[done % (sizeof(kCycle) / sizeof(kCycle[0]))],
                   kControlTid);
      ++done;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    resizes_done.store(true, std::memory_order_release);
    store.flush_retired(kControlTid);
  });

  control.join();
  for (unsigned i = 0; i < kWriters + 1; ++i) threads[i].join();
  stop.store(true, std::memory_order_release);
  for (unsigned i = kWriters + 1; i < threads.size(); ++i) threads[i].join();

  // ---- no lost / duplicated keys: store == union of expected maps ----
  std::map<std::uint64_t, std::uint64_t> got;
  store.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) {
    ASSERT_TRUE(got.emplace(k, v).second) << "duplicate key " << k;
  });
  std::map<std::uint64_t, std::uint64_t> want;
  for (const auto& m : expected) want.insert(m.begin(), m.end());
  want[kPinnedKey] = pinned_last.load(std::memory_order_acquire);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got, want) << "store diverged from the writers' ledgers";

  // ---- every migration's retire ledger closes ----
  const kv::KvStats st = store.stats();
  EXPECT_EQ(st.resize_epochs, st.resizes.size());
  std::uint64_t total_migrated = 0;
  for (const kv::ResizeRecord& r : st.resizes) {
    EXPECT_EQ(r.cells_retired, r.migrated_keys)
        << "live-cell retires must equal migrated keys (epoch " << r.epoch
        << ")";
    EXPECT_GE(r.nodes_retired, r.migrated_keys)
        << "every migrated key's node must be drained (epoch " << r.epoch
        << ")";
    total_migrated += r.migrated_keys;
  }
  EXPECT_EQ(st.migrated_keys, total_migrated);
  // Helper accounting: the store-level counter and the per-resize
  // ledger entries tally the same claim-won buckets, and no resize can
  // report more helped buckets than it had buckets.
  std::uint64_t total_helped = 0;
  for (const kv::ResizeRecord& r : st.resizes) {
    EXPECT_LE(r.helped_buckets, r.from_shards * kBucketsPerShard);
    total_helped += r.helped_buckets;
  }
  EXPECT_EQ(st.helped_buckets, total_helped);
  // Writers run until every resize completed, so on a multi-core host
  // each full-table migration freezes buckets in parallel with live
  // traffic and some op must observe a frozen bucket and forward.  On a
  // single CPU a whole migration can fit inside one scheduler quantum
  // with no writer running, so forwarded_ops == 0 is a scheduling
  // outcome there, not a bug (the forwarding mechanism itself is pinned
  // deterministically by test_reshard_unit's FrozenBucketForwards).
  if (st.resize_epochs >= 4 && std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(st.forwarded_ops, 0u);
  }
}

/// Multi-op-only traffic across migrations: every writer issues nothing
/// but WIDE multi_put / multi_remove / multi_get spans (width 32, so a
/// span regularly straddles several buckets and shards) while the
/// control thread cycles resizes.  This pins the frozen-key DEFERRAL
/// path — keys whose bucket froze mid-session are pulled out of the
/// span, regrouped for the destination geometry and re-dispatched —
/// under live migration, with every per-op result asserted against a
/// sequential expected-map (disjoint slices keep results deterministic).
template <class TR>
void run_multi_op_stress() {
  const unsigned ops = env_unsigned("WFE_TEST_OPS", 20000) / 8 + 64;
  const unsigned resizes = env_unsigned("WFE_TEST_RESIZES", 8);
  constexpr std::size_t kWide = 32;

  Store<TR> store(stress_cfg<TR>());
  apply_test_help(store);
  std::atomic<bool> resizes_done{false};
  std::vector<std::map<std::uint64_t, std::uint64_t>> expected(kWriters);
  std::vector<std::thread> threads;

  for (unsigned w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      util::Xoshiro256 rng(0x3333ULL + w * 7919);
      const std::uint64_t base = 1 + w * kSlice;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> mputs(kWide);
      std::vector<std::uint64_t> mkeys(kWide);
      std::vector<std::optional<std::uint64_t>> mout(kWide);
      auto& exp = expected[w];
      for (unsigned i = 0;
           i < ops || !resizes_done.load(std::memory_order_acquire); ++i) {
        const std::uint64_t k = base + rng.next_bounded(kSlice - kWide);
        const std::uint64_t v = rng.next() | 1;
        switch (rng.next_bounded(4)) {
          case 0: case 1: {
            std::size_t want_inserted = 0;
            for (std::size_t j = 0; j < kWide; ++j) {
              mputs[j] = {k + j, v + j};
              if (exp.find(k + j) == exp.end()) ++want_inserted;
              exp[k + j] = v + j;
            }
            ASSERT_EQ(store.multi_put(mputs.data(), kWide, w), want_inserted);
            break;
          }
          case 2: {
            std::size_t want_removed = 0;
            for (std::size_t j = 0; j < kWide; ++j) {
              mkeys[j] = k + j;
              want_removed += exp.count(k + j);
            }
            ASSERT_EQ(store.multi_remove(mkeys.data(), kWide, mout.data(), w),
                      want_removed);
            for (std::size_t j = 0; j < kWide; ++j) {
              const auto it = exp.find(mkeys[j]);
              if (it == exp.end()) {
                ASSERT_FALSE(mout[j].has_value());
              } else {
                ASSERT_EQ(mout[j], std::make_optional(it->second));
                exp.erase(it);
              }
            }
            break;
          }
          default: {
            for (std::size_t j = 0; j < kWide; ++j) mkeys[j] = k + j;
            store.multi_get(mkeys.data(), kWide, mout.data(), w);
            for (std::size_t j = 0; j < kWide; ++j) {
              const auto it = exp.find(mkeys[j]);
              if (it == exp.end()) {
                ASSERT_FALSE(mout[j].has_value()) << "ghost key " << mkeys[j];
              } else {
                ASSERT_EQ(mout[j], std::make_optional(it->second));
              }
            }
            break;
          }
        }
      }
      store.flush_retired(w);
    });

  std::thread control([&] {
    static constexpr std::size_t kCycle[] = {8, 2, 16, 1, 32, 4};
    for (unsigned done = 0; done < resizes; ++done) {
      store.resize(kCycle[done % (sizeof(kCycle) / sizeof(kCycle[0]))],
                   kControlTid);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    resizes_done.store(true, std::memory_order_release);
    store.flush_retired(kControlTid);
  });

  control.join();
  for (auto& t : threads) t.join();

  std::map<std::uint64_t, std::uint64_t> got;
  store.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) {
    ASSERT_TRUE(got.emplace(k, v).second) << "duplicate key " << k;
  });
  std::map<std::uint64_t, std::uint64_t> want;
  for (const auto& m : expected) want.insert(m.begin(), m.end());
  ASSERT_EQ(got, want) << "store diverged from the multi-op ledgers";

  const kv::KvStats st = store.stats();
  for (const kv::ResizeRecord& r : st.resizes) {
    EXPECT_EQ(r.cells_retired, r.migrated_keys);
    EXPECT_GE(r.nodes_retired, r.migrated_keys);
  }
  EXPECT_GT(st.total().batched_ops, 0u);
}

/// Concurrent auto-grow: writers alone push the load factor over the
/// trigger repeatedly; growth runs inline on whichever writer's check
/// fires first (racing checks serialize on the resize mutex).
template <class TR>
void run_auto_grow_stress() {
  const unsigned keys_per_writer =
      env_unsigned("WFE_TEST_OPS", 20000) / 4 + 256;
  kv::KvConfig c = stress_cfg<TR>();
  c.shards = 1;
  c.buckets_per_shard = kBucketsPerShard;
  c.auto_grow_load_factor = 4.0;
  c.auto_grow_check_interval = 64;
  c.auto_grow_max_shards = 64;
  Store<TR> store(c);
  apply_test_help(store);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kWriters + 1; ++w)
    threads.emplace_back([&, w] {
      const std::uint64_t base = 1 + w * keys_per_writer;
      for (std::uint64_t k = 0; k < keys_per_writer; ++k)
        ASSERT_TRUE(store.insert(base + k, base + k, w));
      store.flush_retired(w);
    });
  for (auto& t : threads) t.join();
  EXPECT_GT(store.shard_count(), 1u);
  EXPECT_EQ(store.size_unsafe(), (kWriters + 1) * std::size_t{keys_per_writer});
  const kv::KvStats st = store.stats();
  EXPECT_GE(st.resize_epochs, 1u);
  for (const kv::ResizeRecord& r : st.resizes) {
    EXPECT_EQ(r.cells_retired, r.migrated_keys);
    EXPECT_GE(r.nodes_retired, r.migrated_keys);
    EXPECT_EQ(r.to_shards, r.from_shards * 2) << "auto-grow must double";
  }
  for (std::uint64_t k = 1; k <= (kWriters + 1) * keys_per_writer; ++k)
    ASSERT_EQ(store.get(k, 0), std::make_optional(k)) << "lost key " << k;
}

template <class TR>
class ReshardStressTest : public ::testing::Test {};

TYPED_TEST_SUITE(ReshardStressTest, test::AllTrackers);

TYPED_TEST(ReshardStressTest, NoLostKeysMonotonicReadsClosedLedgers) {
  run_stress<TypeParam>();
}

TYPED_TEST(ReshardStressTest, AutoGrowUnderConcurrentWriters) {
  run_auto_grow_stress<TypeParam>();
}

TYPED_TEST(ReshardStressTest, MultiOpsOnlyAcrossResize) {
  run_multi_op_stress<TypeParam>();
}

}  // namespace
