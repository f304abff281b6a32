// Persistence stress: slice writers (including multi-op traffic),
// monotonic readers, an online-resize + snapshot control thread, and
// the group-commit flushers all run against one persistent store.
// Checks:
//
//   * per-op results and the final state match sequential expected-maps
//     (disjoint key slices, as in test_reshard_stress) — the WAL append
//     path must not perturb linearizability;
//   * concurrent snapshot/truncation is harmless: compactions run in
//     the middle of the op storm (serialized with resize on the resize
//     mutex) while writers keep appending;
//   * the durable watermark trails the appended LSN sanely and meets
//     it at a persist_sync barrier;
//   * clean close + reopen reconstructs the exact final state through
//     snapshot-load + tail replay — end-to-end durability of everything
//     the writers acknowledged.
//
// WFE_TEST_OPS scales per-writer op counts for the sanitizer CI jobs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "harness/runner.hpp"
#include "kv/kv_store.hpp"
#include "kv_balance.hpp"
#include "scratch_dir.hpp"
#include "tracker_types.hpp"
#include "txn/txn.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

template <class TR>
using Store = kv::KvStore<std::uint64_t, std::uint64_t, TR>;

constexpr unsigned kWriters = 2;
constexpr unsigned kPinnedTid = kWriters;
constexpr unsigned kReaderTid = kWriters + 1;
constexpr unsigned kControlTid = kWriters + 2;
constexpr unsigned kThreads = kControlTid + 1;

constexpr std::uint64_t kSlice = 256;
constexpr std::uint64_t kPinnedKey = ~std::uint64_t{0};
constexpr std::size_t kMultiBatch = 8;

unsigned env_unsigned(const char* name, unsigned fallback) {
  return static_cast<unsigned>(
      harness::env_long(name, static_cast<long>(fallback)));
}

template <class TR>
kv::KvConfig stress_cfg(const std::string& dir) {
  kv::KvConfig c;
  c.shards = 2;
  c.buckets_per_shard = 32;
  c.tracker.max_threads = kThreads;
  c.tracker.max_hes = Store<TR>::kSlotsNeeded;
  c.tracker.era_freq = 8;
  c.tracker.cleanup_freq = 4;
  c.tracker.retire_batch = 4;
  c.persistence.enabled = true;
  c.persistence.dir = dir;
  c.persistence.sync = persist::SyncMode::kBatched;
  c.persistence.flush_idle_us = 100;
  c.persistence.snapshot_on_open = false;  // final state stays comparable
  if (const char* e = std::getenv("WFE_TEST_ADMIT");
      e != nullptr && *e != '\0' && *e != '0') {
    // Sanitizer knob: run the whole stress with the admission controller
    // live (sampler + driver threads, per-op gates, token bucket) but
    // with targets so high nothing ever sheds — this exercises the
    // controller's concurrency, not its law, so every op still succeeds
    // and the ledger checks stay exact.
    c.admission.enabled = true;
    c.admission.max_write_rate = 1e12;
    c.admission.wal_lag_target = 1e12;
    c.admission.retire_backlog_target = 1e12;
    c.admission.commit_wait_p99_target_ns = 1e15;
    c.metrics.sample_interval_ms = 5;
    c.admission.tick_ms = 2;
  }
  return c;
}

template <class TR>
void writer_loop(Store<TR>& store, unsigned tid, unsigned ops,
                 std::map<std::uint64_t, std::uint64_t>& expected,
                 const std::atomic<bool>& control_done) {
  util::Xoshiro256 rng(0xd15cULL + tid * 7919);
  const std::uint64_t base = 1 + tid * kSlice;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mputs(kMultiBatch);
  std::vector<std::uint64_t> mkeys(kMultiBatch);
  std::vector<std::optional<std::uint64_t>> mout(kMultiBatch);
  for (unsigned i = 0;
       i < ops || !control_done.load(std::memory_order_acquire); ++i) {
    const std::uint64_t k = base + rng.next_bounded(kSlice - kMultiBatch);
    const std::uint64_t v = rng.next() | 1;
    switch (rng.next_bounded(10)) {
      case 0: case 1: {
        ASSERT_EQ(store.put(k, v, tid), expected.find(k) == expected.end());
        expected[k] = v;
        break;
      }
      case 2: {
        ASSERT_EQ(store.insert(k, v, tid), expected.emplace(k, v).second);
        break;
      }
      case 3: {
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
      case 4: {
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
      case 5: {
        std::size_t want_removed = 0;
        for (std::size_t j = 0; j < kMultiBatch; ++j) {
          mkeys[j] = k + j;
          want_removed += expected.count(k + j);
        }
        ASSERT_EQ(store.multi_remove(mkeys.data(), kMultiBatch, mout.data(),
                                     tid),
                  want_removed);
        for (std::size_t j = 0; j < kMultiBatch; ++j) {
          const auto it = expected.find(mkeys[j]);
          if (it == expected.end()) {
            ASSERT_FALSE(mout[j].has_value());
          } else {
            ASSERT_EQ(mout[j], std::make_optional(it->second));
            expected.erase(it);
          }
        }
        break;
      }
      case 6: {
        // Multi-key atomic commit with a mixed put/remove batch: the
        // INTENT pairs + COMMIT record ride the same WALs the snapshots
        // and resizes are churning, so reopen exercises the txn fold.
        txn::Txn<std::uint64_t, std::uint64_t> t;
        for (std::size_t j = 0; j < kMultiBatch; ++j) {
          if ((v >> j) & 1) {
            t.remove(k + j);
            expected.erase(k + j);
          } else {
            t.put(k + j, v + j);
            expected[k + j] = v + j;
          }
        }
        ASSERT_NE(store.txn_commit(t, tid), 0u);
        break;
      }
      case 7: {
        const std::uint64_t delta = (v & 0xff) + 1;
        const auto it = expected.find(k);
        const std::uint64_t want =
            (it == expected.end() ? 0 : it->second) + delta;
        expected[k] = want;
        ASSERT_EQ(store.incr(k, delta, tid), want);
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
  const unsigned ops = env_unsigned("WFE_TEST_OPS", 6000);
  // ScratchDir honors $TMPDIR and removes the tree even when an ASSERT
  // bails out of this function early (the old mkdtemp leaked it then).
  test::ScratchDir scratch("persist");
  const std::string dir = scratch.path() + "/wal";

  std::vector<std::map<std::uint64_t, std::uint64_t>> expected(kWriters);
  std::uint64_t pinned_final = 0;
  {
    Store<TR> store(stress_cfg<TR>(dir));
    std::atomic<bool> stop{false};
    std::atomic<bool> control_done{false};
    std::atomic<std::uint64_t> pinned_floor{0};
    std::vector<std::thread> threads;

    for (unsigned w = 0; w < kWriters; ++w)
      threads.emplace_back([&, w] {
        writer_loop<TR>(store, w, ops, expected[w], control_done);
      });

    // Pinned writer: strictly increasing counter through put().
    threads.emplace_back([&] {
      std::uint64_t i = 0;
      while (i < ops / 4 || !control_done.load(std::memory_order_acquire)) {
        ++i;
        store.put(kPinnedKey, i, kPinnedTid);
        pinned_floor.store(i, std::memory_order_release);
      }
      pinned_final = i;
      store.flush_retired(kPinnedTid);
    });

    // Reader: monotonic observation across resizes AND snapshots.
    threads.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t floor = pinned_floor.load(std::memory_order_acquire);
        const auto got = store.get(kPinnedKey, kReaderTid);
        if (floor > 0) {
          ASSERT_TRUE(got.has_value()) << "pinned key vanished";
          ASSERT_GE(*got, floor);
        }
        if (got.has_value()) {
          ASSERT_GE(*got, last) << "pinned key went backwards";
          last = *got;
        }
      }
      store.flush_retired(kReaderTid);
    });

    // Control: interleave online resizes with snapshot compactions.
    std::thread control([&] {
      static constexpr std::size_t kCycle[] = {4, 2, 8, 2};
      for (unsigned r = 0; r < 4; ++r) {
        store.resize(kCycle[r], kControlTid);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        ASSERT_TRUE(store.snapshot_now(kControlTid));
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
      control_done.store(true, std::memory_order_release);
      store.flush_retired(kControlTid);
    });

    control.join();
    for (unsigned i = 0; i < kWriters + 1; ++i) threads[i].join();
    stop.store(true, std::memory_order_release);
    threads.back().join();

    // Durability barrier: watermark == appended on every stream.
    store.persist_sync(0);
    const kv::KvStats st = store.stats();
    EXPECT_TRUE(st.persist_enabled);
    EXPECT_GE(st.snapshots_written, 4u);
    for (const kv::ShardStats& s : st.shards) {
      EXPECT_EQ(s.wal_appended_lsn, s.wal_durable_lsn)
          << "watermark lagging after a sync barrier, shard " << s.shard;
    }

    // Final state == union of the writers' ledgers.
    std::map<std::uint64_t, std::uint64_t> got;
    store.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) {
      ASSERT_TRUE(got.emplace(k, v).second) << "duplicate key " << k;
    });
    std::map<std::uint64_t, std::uint64_t> want;
    for (const auto& m : expected) want.insert(m.begin(), m.end());
    want[kPinnedKey] = pinned_final;
    ASSERT_EQ(got, want) << "live store diverged from the writers' ledgers";

    // Ledger identity with txn/incr conditional-install paths in the
    // mix — kv_balance.hpp documents how aborted installs are absorbed.
    test::expect_block_balance(store.stats().total(), store.size_unsafe(),
                               "persist stress final");
  }

  // Clean close happened above; reopen must reconstruct the exact state.
  {
    Store<TR> store(stress_cfg<TR>(dir));
    std::map<std::uint64_t, std::uint64_t> got;
    store.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) {
      ASSERT_TRUE(got.emplace(k, v).second) << "duplicate key " << k;
    });
    std::map<std::uint64_t, std::uint64_t> want;
    for (const auto& m : expected) want.insert(m.begin(), m.end());
    want[kPinnedKey] = pinned_final;
    ASSERT_EQ(got, want) << "reopened store diverged from the ledgers";
  }
}

template <class TR>
class PersistStressTest : public ::testing::Test {};

TYPED_TEST_SUITE(PersistStressTest, test::AllTrackers);

TYPED_TEST(PersistStressTest, WritersReadersResizeSnapshotThenReopen) {
  run_stress<TypeParam>();
}

}  // namespace
