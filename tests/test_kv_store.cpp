// Sharded kv store: contract, no-op writes that allocate nothing, shard
// routing/distribution, stats accounting, batched retirement, the
// concurrent sweep across every reclamation scheme at 8 threads
// (acceptance gate for the kv engine), the ordered index's hooks under
// same-key races and their counters, and the auto-snapshot cadence of
// every write entry point.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "kv/kv_store.hpp"
#include "kv_balance.hpp"
#include "scratch_dir.hpp"
#include "tracker_types.hpp"
#include "txn/txn.hpp"
#include "util/barrier.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

template <class TR>
using Store = kv::KvStore<std::uint64_t, std::uint64_t, TR>;

template <class TR>
kv::KvConfig small_cfg(unsigned threads = 4, std::size_t shards = 4) {
  kv::KvConfig c;
  c.shards = shards;
  c.buckets_per_shard = 64;
  c.tracker.max_threads = threads;
  c.tracker.max_hes = Store<TR>::kSlotsNeeded;
  c.tracker.era_freq = 8;
  c.tracker.cleanup_freq = 4;
  c.tracker.retire_batch = 4;
  return c;
}

template <class TR>
class KvStoreTest : public ::testing::Test {};

TYPED_TEST_SUITE(KvStoreTest, test::AllTrackers);

TYPED_TEST(KvStoreTest, BasicContract) {
  Store<TypeParam> store(small_cfg<TypeParam>());
  EXPECT_TRUE(store.insert(1, 10, 0));
  EXPECT_FALSE(store.insert(1, 11, 0));
  EXPECT_EQ(*store.get(1, 0), 10u);

  EXPECT_TRUE(store.put(2, 20, 0));    // absent -> inserted
  EXPECT_FALSE(store.put(2, 21, 0));   // present -> replaced
  EXPECT_EQ(*store.get(2, 0), 21u);

  EXPECT_TRUE(store.update(2, 22, 0));   // present -> replaced
  EXPECT_EQ(*store.get(2, 0), 22u);
  EXPECT_FALSE(store.update(99, 1, 0));  // absent -> no write
  EXPECT_FALSE(store.contains(99, 0));

  EXPECT_EQ(*store.remove(1, 0), 10u);
  EXPECT_FALSE(store.remove(1, 0).has_value());
  EXPECT_EQ(store.size_unsafe(), 1u);
}

// A value write that finds nothing to do touches no block: an insert of
// a present key, an update or cas of an absent key and a cas whose
// expected value differs allocate no cell (it is allocated at first
// need), so every domain's allocated and freed counts stay put.
TYPED_TEST(KvStoreTest, NoOpWritesAllocateNothing) {
  Store<TypeParam> store(small_cfg<TypeParam>());
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t k = 1; k <= kKeys; ++k) ASSERT_TRUE(store.insert(k, k * 10, 0));
  const kv::ShardStats before = store.stats().total();
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    EXPECT_FALSE(store.insert(k, 1, 0));
    EXPECT_FALSE(store.update(k + kKeys, 1, 0));
    EXPECT_FALSE(store.cas(k + kKeys, k * 10, 1, 0));
    EXPECT_FALSE(store.cas(k, k * 10 + 1, 1, 0));
  }
  const kv::ShardStats after = store.stats().total();
  EXPECT_EQ(after.allocated, before.allocated);
  EXPECT_EQ(after.freed, before.freed);
  EXPECT_EQ(after.value_cell_retires, before.value_cell_retires);
  EXPECT_EQ(store.size_unsafe(), kKeys);
  for (std::uint64_t k = 1; k <= kKeys; ++k)
    EXPECT_EQ(store.get(k, 0), std::make_optional(k * 10));
}

TYPED_TEST(KvStoreTest, ShardCountRoundsToPowerOfTwo) {
  auto cfg = small_cfg<TypeParam>();
  cfg.shards = 5;
  Store<TypeParam> store(cfg);
  EXPECT_EQ(store.shard_count(), 8u);
  cfg.shards = 1;
  Store<TypeParam> one(cfg);
  EXPECT_EQ(one.shard_count(), 1u);
}

TYPED_TEST(KvStoreTest, ShardDistributionAndRouting) {
  Store<TypeParam> store(small_cfg<TypeParam>(4, 8));
  constexpr std::uint64_t kKeys = 4096;
  for (std::uint64_t k = 1; k <= kKeys; ++k) ASSERT_TRUE(store.insert(k, k, 0));

  // Routing is stable and data lands where shard_index says.
  std::vector<std::size_t> expected(store.shard_count(), 0);
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    const std::size_t idx = store.shard_index(k);
    ASSERT_EQ(idx, store.shard_index(k));
    ASSERT_LT(idx, store.shard_count());
    ++expected[idx];
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < store.shard_count(); ++i) {
    EXPECT_EQ(store.shard_at(i).size_unsafe(), expected[i]) << "shard " << i;
    total += expected[i];
    // splitmix64 over 4096 sequential keys: every shard far from empty
    // and far from hogging (expected 512 per shard; allow a wide band).
    EXPECT_GT(expected[i], kKeys / 32) << "shard " << i;
    EXPECT_LT(expected[i], kKeys / 4) << "shard " << i;
  }
  EXPECT_EQ(total, kKeys);
  EXPECT_EQ(store.size_unsafe(), kKeys);
}

// The same keyspace must produce the same map whatever the shard/bucket
// geometry (the fixed-geometry analogue of a rehash invariance check).
TYPED_TEST(KvStoreTest, GeometryInvariance) {
  std::map<std::uint64_t, std::uint64_t> model;
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i)
    model[rng.next_bounded(500) + 1] = rng.next();

  for (std::size_t shards : {1u, 2u, 16u}) {
    auto cfg = small_cfg<TypeParam>(1, shards);
    cfg.buckets_per_shard = shards == 1 ? 1 : 32;  // vary buckets too
    Store<TypeParam> store(cfg);
    for (const auto& [k, v] : model) ASSERT_TRUE(store.insert(k, v, 0));
    std::map<std::uint64_t, std::uint64_t> out;
    store.for_each_unsafe(
        [&](std::uint64_t k, std::uint64_t v) { out.emplace(k, v); });
    EXPECT_EQ(out, model) << shards << " shards";
  }
}

TYPED_TEST(KvStoreTest, StatsCountOpsPerShard) {
  Store<TypeParam> store(small_cfg<TypeParam>());
  for (std::uint64_t k = 1; k <= 100; ++k) store.put(k, k, 0);
  for (std::uint64_t k = 1; k <= 100; ++k) store.get(k, 0);
  for (std::uint64_t k = 1; k <= 50; ++k) store.update(k, 0, 0);
  for (std::uint64_t k = 1; k <= 100; ++k) store.remove(k, 0);

  const kv::ShardStats tot = store.stats().total();
  EXPECT_EQ(tot.gets, 100u);
  EXPECT_EQ(tot.puts, 100u);
  EXPECT_EQ(tot.updates, 50u);
  EXPECT_EQ(tot.removes, 100u);
  EXPECT_EQ(tot.ops(), 350u);

  // Per-shard decomposition matches the routing.
  const kv::KvStats st = store.stats();
  std::uint64_t gets = 0;
  for (const auto& s : st.shards) gets += s.gets;
  EXPECT_EQ(gets, 100u);
}

TYPED_TEST(KvStoreTest, BatchedRetireFlushesInBursts) {
  auto cfg = small_cfg<TypeParam>();
  cfg.shards = 1;
  cfg.tracker.retire_batch = 16;
  Store<TypeParam> store(cfg);
  // 10 replacements retire 10 old nodes: all buffered, none handed to
  // the domain tracker yet.
  for (std::uint64_t k = 1; k <= 10; ++k) ASSERT_TRUE(store.insert(k, k, 0));
  for (std::uint64_t k = 1; k <= 10; ++k) ASSERT_FALSE(store.put(k, k + 1, 0));
  kv::ShardStats s = store.stats().total();
  EXPECT_EQ(s.pending_retired, 10u);
  EXPECT_EQ(s.retired, 0u);  // domain tracker hasn't seen them

  store.flush_retired(0);
  s = store.stats().total();
  EXPECT_EQ(s.pending_retired, 0u);
  EXPECT_EQ(s.retired, 10u);
}

// A stream whose fdatasync never lands (a stalled or failing disk)
// freezes its durable-LSN watermark; that must stall acks, not the
// shard's reclamation.  Every displaced value cell still reaches the
// domain tracker in bursts of retire_batch, so at most one partial
// burst stays buffered.
TYPED_TEST(KvStoreTest, StalledWalWatermarkDoesNotPinRetires) {
  test::ScratchDir dir("kv_stalled_wal");
  auto cfg = small_cfg<TypeParam>(2, 1);
  cfg.tracker.retire_batch = 8;
  cfg.persistence.enabled = true;
  cfg.persistence.dir = dir.path();
  cfg.persistence.sync = persist::SyncMode::kBatched;
  Store<TypeParam> store(cfg);
  for (std::uint64_t k = 1; k <= 4; ++k) ASSERT_TRUE(store.insert(k, k, 0));

  store.persist_suppress_sync(true);  // the watermark stops here
  constexpr std::uint64_t kReplaces = 10000;
  for (std::uint64_t i = 0; i < kReplaces; ++i)
    ASSERT_FALSE(store.put(1 + i % 4, i, 0));
  const kv::ShardStats s = store.stats().total();
  EXPECT_LT(s.pending_retired, cfg.tracker.retire_batch);
  EXPECT_EQ(s.retired + s.pending_retired, kReplaces);
  store.persist_suppress_sync(false);
}

// Acceptance sweep: concurrent get/put/remove/update from 8 threads
// under every scheme, then full drain and a block birth/retire balance
// check against the counting allocator (TrackerBase counters).  The op
// lanes are owned lanes (a relaxed load and store, no RMW), so their sums
// must equal exactly the ops the threads issued: a lane two threads
// wrote would lose counts here.  The domains' free lists must stay
// within their cap: two block sizes per shard (node and value cell),
// each at most kFreeListCap per thread.
TYPED_TEST(KvStoreTest, ConcurrentSweep8Threads) {
  constexpr unsigned kThreads = 8;
  constexpr int kOpsPerThread = 8000;
  auto cfg = small_cfg<TypeParam>(kThreads, 4);
  {
    Store<TypeParam> store(cfg);
    // Updates run on their own preloaded key range: update() retries
    // remove+insert internally, so a concurrent insert() on the same key
    // can be absorbed without the outside observer seeing a balanced
    // pair — disjoint ranges keep the balance ledger exact while still
    // racing update against update.
    constexpr std::uint64_t kUpdBase = 1u << 20, kUpdKeys = 128;
    for (std::uint64_t k = 0; k < kUpdKeys; ++k)
      ASSERT_TRUE(store.insert(kUpdBase + k, k, 0));
    std::atomic<long> balance{0};
    // Ops each thread issued, by kind: insert, remove, update, get.
    std::vector<std::array<std::uint64_t, 4>> issued(kThreads);
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&, tid] {
        util::Xoshiro256 rng(tid + 97);
        for (int i = 0; i < kOpsPerThread; ++i) {
          const std::uint64_t k = rng.next_bounded(1024) + 1;
          const std::uint64_t kind = rng.next_bounded(4);
          ++issued[tid][kind];
          switch (kind) {
            case 0:
              if (store.insert(k, k, tid)) balance.fetch_add(1);
              break;
            case 1:
              if (store.remove(k, tid)) balance.fetch_sub(1);
              break;
            case 2:
              store.update(kUpdBase + rng.next_bounded(kUpdKeys), i, tid);
              break;
            case 3:
              store.get(k, tid);
              break;
          }
        }
        store.flush_retired(tid);
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(static_cast<std::size_t>(balance.load()) + kUpdKeys,
              store.size_unsafe());

    std::array<std::uint64_t, 4> sent{};
    for (const auto& per_thread : issued)
      for (std::size_t kind = 0; kind < sent.size(); ++kind)
        sent[kind] += per_thread[kind];
    const kv::ShardStats total = store.stats().total();
    EXPECT_EQ(total.puts, kUpdKeys + sent[0]);  // preload + inserts
    EXPECT_EQ(total.removes, sent[1]);
    EXPECT_EQ(total.updates, sent[2]);
    EXPECT_EQ(total.gets, sent[3]);

    // Birth/retire balance while the store is alive (see kv_balance.hpp
    // for the ledger and how conditional-install aborts are absorbed).
    test::expect_block_balance(store.stats().total(), store.size_unsafe(),
                               "store total");
    // And per shard — domains are independent, so the identity must
    // hold shard-locally too.
    const kv::KvStats st = store.stats();
    for (std::size_t i = 0; i < st.shards.size(); ++i) {
      test::expect_block_balance(st.shards[i], store.shard_at(i).size_unsafe(),
                                 "per-shard balance");
      EXPECT_LE(st.shards[i].cached_blocks,
                std::uint64_t{2} * kThreads * reclaim::kFreeListCap)
          << "shard " << i;
    }
  }
  // Store destroyed: every shard drained its domain — nothing leaks
  // (verified inside the tracker destructors via drain_all_unsafe; a
  // Leak tracker keeps blocks by design and is exercised for API only).
}

/// Entries the ordered index's BST holds, from its domain ledger: every
/// block not freed, buffered or awaiting reclamation belongs to a live
/// entry, 3 per entry (leaf + routing internal + marker cell).
std::uint64_t index_entries(const kv::ShardStats& ix) {
  const std::uint64_t held =
      ix.allocated - ix.freed - ix.pending_retired - ix.unreclaimed;
  EXPECT_EQ(held % 3, 0u) << "index ledger is not a whole number of entries";
  return held / 3;
}

template <class TR>
std::vector<std::pair<std::uint64_t, std::uint64_t>> full_scan(Store<TR>& store,
                                                                unsigned tid) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  store.scan(0, ~std::uint64_t{0},
             [&](std::uint64_t k, std::uint64_t v) { out.emplace_back(k, v); },
             tid);
  return out;
}

// Same-key races on the ordered index's hooks.  A put adds an index
// entry only when it inserted, and a remove drops one only when its
// primary probe finds the key, before the erase.  Here 4 threads put and
// remove over ONE shared 64-key range, in rounds: each round every
// thread sweeps the range in the same order, picking put or remove per
// key at random, so the threads race on the same key at the same time.
// After every round, with all threads parked, the index must hold every
// live key (a full scan equals the primary's contents); at the end its
// ledger must hold a whole number of entries, at least one per live key
// (the rest are stale).  Then one thread puts and removes every key, and
// the index must be empty: the next remove that finds a key drops a
// stale entry too.  WFE_TEST_OPS sizes the run (ops per thread).
TYPED_TEST(KvStoreTest, OrderedIndexKeepsEveryLiveKeyUnderSameKeyRaces) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kKeys = 64;
  const auto rounds = static_cast<unsigned>(
      harness::env_long("WFE_TEST_OPS", 4000) / kKeys + 1);
  auto cfg = small_cfg<TypeParam>(kThreads, 4);
  cfg.ordered_index = true;
  Store<TypeParam> store(cfg);
  const auto primary = [&] {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    store.for_each_unsafe(
        [&](std::uint64_t k, std::uint64_t v) { out.emplace_back(k, v); });
    std::sort(out.begin(), out.end());
    return out;
  };
  util::SpinBarrier barrier(kThreads);
  unsigned lost_rounds = 0;  // written by thread 0 only
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(tid + 0x1d3);
      for (unsigned r = 0; r < rounds; ++r) {
        barrier.arrive_and_wait();
        for (std::uint64_t k = 1; k <= kKeys; ++k) {
          if (rng.next_bounded(2) == 0)
            store.put(k, k << 32 | r, tid);
          else
            store.remove(k, tid);
        }
        barrier.arrive_and_wait();  // quiescent until the next round
        if (tid == 0) lost_rounds += full_scan(store, 0) != primary();
      }
      store.flush_retired(tid);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(lost_rounds, 0u) << "rounds whose scan missed a live pair";

  EXPECT_EQ(full_scan(store, 0), primary());
  const std::uint64_t entries = index_entries(store.stats().index);
  EXPECT_GE(entries, store.size_unsafe()) << "index lost a live key";
  EXPECT_LE(entries, kKeys);

  for (std::uint64_t k = 1; k <= kKeys; ++k) store.put(k, k, 0);
  EXPECT_EQ(full_scan(store, 0).size(), kKeys);
  for (std::uint64_t k = 1; k <= kKeys; ++k) ASSERT_TRUE(store.remove(k, 0));
  EXPECT_TRUE(full_scan(store, 0).empty());
  EXPECT_EQ(index_entries(store.stats().index), 0u)
      << "a remove that found its key left its index entry behind";
}

// The index hooks touch the BST only when membership changes, and the
// index's op lanes (exported as kv_index_adds_total and
// kv_index_drops_total) count exactly the BST ops they issue.
TYPED_TEST(KvStoreTest, IndexHooksCountOnlyMembershipChanges) {
  constexpr std::uint64_t kN = 50;
  auto cfg = small_cfg<TypeParam>(2, 4);
  cfg.ordered_index = true;
  cfg.metrics.enabled = true;
  cfg.metrics.sampler = false;
  Store<TypeParam> store(cfg);
  struct Moves {
    std::uint64_t adds, drops;
    bool operator==(const Moves&) const = default;
  };
  const auto moves = [&] {
    const kv::KvStats st = store.stats();
    Moves m{st.index.puts, st.index.removes};
    Moves gauges{~std::uint64_t{0}, ~std::uint64_t{0}};
    for (const auto& g : store.metrics()->registry.snapshot().gauges) {
      const auto v = static_cast<std::uint64_t>(g.value);
      if (g.name == "kv_index_adds_total") gauges.adds = v;
      if (g.name == "kv_index_drops_total") gauges.drops = v;
    }
    EXPECT_EQ(gauges, m) << "gauges disagree with KvStats::index";
    return m;
  };
  EXPECT_EQ(moves(), (Moves{0, 0}));
  for (std::uint64_t k = 1; k <= kN; ++k) ASSERT_TRUE(store.put(k, k, 0));
  EXPECT_EQ(moves(), (Moves{kN, 0})) << "inserting puts";
  for (std::uint64_t k = 1; k <= kN; ++k) ASSERT_FALSE(store.put(k, k + 1, 1));
  EXPECT_EQ(moves(), (Moves{kN, 0})) << "replacing puts";
  for (std::uint64_t k = kN + 1; k <= 2 * kN; ++k)
    ASSERT_FALSE(store.remove(k, 1).has_value());
  EXPECT_EQ(moves(), (Moves{kN, 0})) << "absent-key removes";
  for (std::uint64_t k = 1; k <= kN; ++k) ASSERT_TRUE(store.remove(k, 0));
  EXPECT_EQ(moves(), (Moves{kN, kN})) << "present-key removes";
  for (std::uint64_t k = 1; k <= kN; ++k) ASSERT_TRUE(store.insert(k, k, 1));
  EXPECT_EQ(moves(), (Moves{2 * kN, kN})) << "inserts";
  // The remove probe is the store's own lookup, not a user get.
  EXPECT_EQ(store.stats().total().gets, 0u);
  EXPECT_EQ(index_entries(store.stats().index), kN);
}

// range_get returns the first `max` pairs of [lo, hi], ascending, and
// equals the same slice of for_each_unsafe: for max 0, for a max below
// the range's live keys, and for ranges spanning several 128-key index
// chunks (stopped by the range or by max, mid-chunk or at a chunk edge).
// The descents the scans made show in KvStats and in their gauge.
TYPED_TEST(KvStoreTest, RangeGetMatchesThePrimarysSlice) {
  auto cfg = small_cfg<TypeParam>(2, 4);
  cfg.ordered_index = true;
  cfg.metrics.enabled = true;
  cfg.metrics.sampler = false;
  Store<TypeParam> store(cfg);
  using Pair = std::pair<std::uint64_t, std::uint64_t>;
  // About 1,960 live keys in [1, 3000]: every third key never written,
  // and every 50th from 5 on removed after its put.
  for (std::uint64_t k = 1; k <= 3000; ++k) {
    if (k % 3 != 0) {
      ASSERT_TRUE(store.put(k, k * 7, 0));
    }
  }
  for (std::uint64_t k = 5; k <= 3000; k += 50) store.remove(k, 0);
  std::vector<Pair> all;
  store.for_each_unsafe([&](std::uint64_t k, std::uint64_t v) { all.emplace_back(k, v); });
  std::sort(all.begin(), all.end());
  ASSERT_GT(all.size(), 10 * std::size_t{128});

  std::vector<Pair> buf(all.size() + 1);
  const auto check = [&](std::uint64_t lo, std::uint64_t hi, std::size_t max) {
    std::vector<Pair> want;
    for (const Pair& p : all)
      if (p.first >= lo && p.first <= hi && want.size() < max) want.push_back(p);
    std::fill(buf.begin(), buf.end(), Pair{0, 0});
    const std::size_t n = store.range_get(lo, hi, buf.data(), max, 1);
    const std::vector<Pair> got(buf.begin(), buf.begin() + n);
    EXPECT_EQ(got, want) << "range_get [" << lo << ", " << hi << "] max " << max;
    EXPECT_EQ(buf[n], (Pair{0, 0})) << "wrote past its count";
  };
  check(1, 3000, 0);
  check(100, 200, 10);      // 66 live keys in range, max stops it
  check(1, 3000, 64);
  check(1, 3000, 128);      // exactly one chunk
  check(1, 3000, 129);      // one key into the second chunk
  check(250, 2900, 300);    // stops mid-way through the third chunk
  check(250, 2900, 100000); // the range stops it, after many chunks
  check(1, 3000, all.size());
  check(2990, 3000, 100);   // fewer live keys than max
  check(3001, 5000, 10);    // no key in range

  const kv::KvStats st = store.stats();
  EXPECT_GT(st.scan_descents, 0u);
  double gauge = -1;
  for (const auto& g : store.metrics()->registry.snapshot().gauges)
    if (g.name == "kv_index_scan_descents_total") gauge = g.value;
  EXPECT_EQ(gauge, static_cast<double>(st.scan_descents));
}

// Slow-path observability: forcing WFE's slow path through the shard
// config must surface in the stats snapshot.
TEST(KvStoreWfe, SlowPathEntriesSurfaceInStats) {
  using TR = core::WfeTracker;
  auto cfg = small_cfg<TR>(2, 2);
  cfg.tracker.fast_path_attempts = 0;
  Store<TR> store(cfg);
  for (std::uint64_t k = 1; k <= 200; ++k) store.put(k, k, 0);
  for (std::uint64_t k = 1; k <= 200; ++k) store.get(k, 1);
  EXPECT_GT(store.stats().total().slow_path_entries, 0u);
}

// Auto-compaction must follow WAL growth whichever write entry point
// appends the bytes, or traffic made of one op kind (say, only
// updates) grows the WAL without bound.  Each instance prefills with
// put(), then drives ONE write op alone past several
// snapshot_every_bytes worths of records and demands a snapshot.
class AutoSnapshotPerWriteOp : public ::testing::TestWithParam<const char*> {};

TEST_P(AutoSnapshotPerWriteOp, WalGrowthTriggersSnapshot) {
  using TR = core::WfeTracker;
  test::ScratchDir dir("kv_autosnap");
  auto cfg = small_cfg<TR>(1, 2);
  cfg.persistence.enabled = true;
  cfg.persistence.dir = dir.path();
  cfg.persistence.sync = persist::SyncMode::kNone;
  cfg.persistence.snapshot_every_bytes = 4096;  // 128 records
  cfg.persistence.snapshot_check_interval = 1;
  Store<TR> store(cfg);
  constexpr std::uint64_t kKeys = 512;  // 4 snapshot intervals of records
  for (std::uint64_t k = 1; k <= kKeys; ++k) store.put(k, k, 0);
  const std::uint64_t before = store.stats().snapshots_written;

  // Runs the op under test once on key k; true when it wrote.
  const std::string op = GetParam();
  const auto write_once = [&](std::uint64_t k) {
    std::pair<std::uint64_t, std::uint64_t> kv{k, k + 1};
    std::optional<std::uint64_t> removed;
    txn::Txn<std::uint64_t, std::uint64_t> t;
    t.put(k, k + 1);
    if (op == "put") return !store.put(k, k + 1, 0);
    if (op == "insert") return store.insert(kKeys + k, k, 0);
    if (op == "update") return store.update(k, k + 1, 0);
    if (op == "remove") return store.remove(k, 0).has_value();
    if (op == "cas") return store.cas(k, k, k + 1, 0);
    if (op == "multi_put") return store.multi_put(&kv, 1, 0) == 0;
    if (op == "multi_remove")
      return store.multi_remove(&k, 1, &removed, 0) == 1;
    return op == "txn_commit" && store.txn_commit(t, 0) != 0;
  };
  for (std::uint64_t k = 1; k <= kKeys; ++k)
    ASSERT_TRUE(write_once(k)) << op << " on key " << k;
  EXPECT_GT(store.stats().snapshots_written, before)
      << op << " appended " << kKeys << " WAL records without a snapshot";
}

INSTANTIATE_TEST_SUITE_P(
    KvStore, AutoSnapshotPerWriteOp,
    ::testing::Values("put", "insert", "update", "remove", "cas", "multi_put",
                      "multi_remove", "txn_commit"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
