#pragma once
// KvStore<K, V, Tracker>: power-of-two sharded key-value engine, each
// shard an independent reclamation domain (see kv/shard.hpp), with
// ONLINE DYNAMIC RESHARDING: resize(new_shard_count) migrates every key
// into a freshly built shard array while readers and writers keep
// running.
//
// Routing carves two independent bit ranges out of the same splitmix64
// hash: the shard index comes from the HIGH bits, the in-shard bucket
// from the LOW bits (ds::BucketArray).  Adjacent integer keys
// therefore spread over shards and buckets without correlation between
// the two levels.
//
// Thread identity: one global tid space, shared by every shard's
// tracker (each is configured with the same max_threads).  A thread
// only ever holds reservations in the shard it is currently operating
// in, so per-shard reservation scans stay domain-local.
//
// === Resharding protocol (cooperative / helper-assisted) ===
//
// The shard array lives in a Table (epoch-numbered, atomically
// published).  resize() — serialized by a mutex — builds the
// destination table, links it as the source table's `next`, then drives
// per-bucket migration.  Each bucket's migration is the sequence
//
//   freeze(source bucket)  -> idempotent fetch_or walk (any thread)
//   claim[bucket] 0 -> 1   -> CAS elects the ONE thread that migrates
//   collect                -> pure read walk of the frozen list
//   migrate_in(dest shard) -> node + cell allocated in the DEST domain
//   migrated[bucket] = 1   -> waiters may proceed to the next table
//   drain(source bucket)   -> node + cell retired in the SOURCE domain
//   ledger += bucket       -> atomic, exactly once per bucket
//   claim[bucket] = 2      -> done
//
// and ANY thread may run it: the resizer freezes buckets ahead of its
// migrate cursor (a fixed window of 8, kFreezeAhead) and claims them in
// order, while an op that observes a freeze bit HELPS — it claims the
// bucket it is blocked on and performs the copy itself with its own
// tracker sessions, falling back to capped exponential backoff (never a
// bare yield spin) only while another thread holds the claim.  No op
// ever waits on one specific thread's scheduling: if the resizer is
// descheduled mid-migration, waiters finish its buckets (the
// progress-restoring property this protocol exists for; the paper's
// wait-free reclamation bounds are hollow if resizing reintroduces a
// single-thread dependency).  The resizer waits for all claims to
// close (ledger merged exactly-once per bucket via the claim word)
// before promoting the destination table.
//
// Migration COPIES instead of re-linking because blocks are stamped and
// scanned by the domain (tracker) that allocated them: a node re-linked
// into another shard would be invisible to its allocator's reservation
// scans and doubly visible to nobody — the copy keeps both domains'
// ledgers closed (see ResizeRecord).  A helper's copies allocate in the
// destination domain under the helper's tid exactly like the resizer's
// would; domain ledgers don't care who ran the session.
//
// Concurrent operations route through the current table; any op that
// observes a freeze bit aborts session-cleanly (no state change), helps
// or backs off OUTSIDE any tracker session, and re-executes against
// table->next.  Each key freezes in exactly one source bucket and
// becomes writable in the destination only after that bucket's flag is
// set, so per-key linearizability survives the hop.  Ops block at most
// for the copy of one bucket, and only when another thread is actively
// copying it.
//
// Table reclamation is hazard-era-flavored, self-similar to the paper:
// every op announces the current table EPOCH before loading the table
// pointer (seq_cst publish, then load — the HP StoreLoad discipline);
// a retired table is freed only when every announcement is idle or
// newer than its epoch.  Because epochs are monotone and a thread only
// ever forwards to HIGHER-epoch tables, one announcement covers the
// whole forwarding chain the thread can reach.
//
// === Durability (src/persist/) ===
//
// With KvConfig::persistence enabled, every table shard owns a WAL
// stream (persist/group_commit.hpp) keyed by (table epoch, shard):
// completed mutations append apply-then-append (kv/shard.hpp), acks
// ride the stream's durable-LSN watermark (reclamation does not), and
// resizes bracket themselves in the log — RESIZE_BEGIN is written
// DURABLY to the source table's stream 0 before the destination
// epoch's streams exist, so recovery (persist/recovery.hpp) always
// reopens at the last announced geometry and replays epochs in order
// (a key writes into epoch e+1 only after its epoch-e bucket froze, so
// per-key order survives the epoch hop).  Snapshots are fuzzy dumps
// under the resize lock (persist/snapshot.hpp explains why that is
// consistent), after which whole superseded segments and epochs are
// truncated.  The null backend (enabled = false, the default) leaves
// every hot path exactly one untaken branch away from the PR 3 code.
//
// === Transactions (src/txn/) ===
//
// txn_commit(txn, tid) applies a client-buffered multi-key write batch
// atomically WITH RESPECT TO CRASHES: effects install per key through
// the ordinary value-cell CAS paths (one tracker session per shard
// group, multi_put's counting-sort shape), each effect appends an
// INTENT pair (TXN_INTENT + TXN_DATA, reserved as one atomic LSN pair)
// to its shard's stream, and one TXN_COMMIT record carrying the pair
// count lands on the final table's stream 0.  Recovery is a pure fold:
// a transaction's pairs apply iff its commit record is durable AND
// every declared pair is readable (persist/recovery.hpp) — so a crash
// anywhere inside the protocol yields all of the batch or none of it.
// Concurrent READERS do observe effects as they install (this is crash
// atomicity, not isolation).  Commits hold txn_mu_ shared; snapshots
// take it exclusive around the mark+dump window, because a fuzzy dump
// that captured SOME of a not-yet-durable transaction's installs could
// never be undone by a redo-only log.  cas() and incr() are the
// degenerate single-key transactions: one record is already atomic on
// its stream, so they ride the plain PUT path.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "admit/controller.hpp"
#include "ds/hash_map.hpp"
#include "ds/natarajan_bst.hpp"
#include "kv/batch_retire.hpp"
#include "kv/shard.hpp"
#include "kv/stats.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "persist/group_commit.hpp"
#include "persist/recovery.hpp"
#include "persist/snapshot.hpp"
#include "reclaim/tracker.hpp"
#include "txn/txn.hpp"
#include "util/backoff.hpp"
#include "util/stats.hpp"

namespace wfe::kv {

/// Thrown by the op entry points when the admission controller refuses
/// the op (KvConfig::admission; never thrown when admission is off).
/// An explicit outcome instead of silent latency blowup: callers decide
/// whether to back off, retry, or surface the overload to their client.
struct Overloaded : std::runtime_error {
  explicit Overloaded(bool write_op)
      : std::runtime_error(write_op ? "kv: overloaded, write shed"
                                    : "kv: overloaded, read shed"),
        write(write_op) {}
  bool write;  ///< true when a write was refused (writes shed first)
};

struct KvConfig {
  std::size_t shards = 8;             ///< rounded up to a power of two
  std::size_t buckets_per_shard = 2048;  ///< rounded up to a power of two
  /// Base tracker config applied to every shard's domain; max_threads is
  /// the store-wide tid space, retire_batch the per-thread burst size
  /// handed to retire() in one go (see kv/batch_retire.hpp).
  reclaim::TrackerConfig tracker;
  /// Load-factor-triggered auto-grow: when > 0, a write that observes
  /// approx_size() > factor * (shards * buckets_per_shard) doubles the
  /// shard count (up to auto_grow_max_shards), running the migration on
  /// the writing thread.  0 disables; resize() stays available either way.
  double auto_grow_load_factor = 0.0;
  std::size_t auto_grow_max_shards = 256;
  /// Writes between auto-grow checks, per thread (power of two).
  unsigned auto_grow_check_interval = 512;
  /// Durability backend (persist::Options.enabled = false keeps the
  /// store purely in-memory).  Requires K and V to be trivially
  /// copyable and at most 8 bytes (persist::wal_encodable).
  persist::Options persistence;
  /// Observability (src/obs/): per-op latency histograms, gauges pulled
  /// from stats(), background sampler, slow-op trace ring.  Null object
  /// when disabled (the default): every instrumentation site is one
  /// untaken branch.
  obs::MetricsOptions metrics;
  /// Admission control (src/admit/): ratekeeper-style front-door
  /// throttling/shedding driven by the sampler's snapshot ring.  Same
  /// null-object discipline as metrics — disabled (the default) costs
  /// one untaken branch per op.  Enabling it forces metrics + sampler
  /// on (the controller consumes their signals); refused ops throw
  /// kv::Overloaded.
  admit::AdmitOptions admission;
  /// Secondary ordered index (a store-level Natarajan BST over the key
  /// space in its own tracker domain): enables scan(lo, hi)/range_get
  /// ordered range reads.  Requires unsigned 64-bit keys no larger than
  /// the BST's kMaxKey.  Geometry-independent — resharding never
  /// touches it.  Writes pay one extra membership op on insert/remove
  /// transitions; values are never duplicated (scans fetch them from
  /// the primary table).
  bool ordered_index = false;
};

template <class K, class V, reclaim::tracker_for Tracker>
class KvStore {
 public:
  using ShardT = Shard<K, V, Tracker>;
  static constexpr unsigned kSlotsNeeded = ShardT::kSlotsNeeded;
  static constexpr bool kPersistable =
      persist::wal_encodable<K> && persist::wal_encodable<V>;
  /// The secondary ordered index keys its BST with the key value itself,
  /// so it needs an order-preserving 64-bit unsigned key space.
  static constexpr bool kOrderable =
      std::is_integral_v<K> && std::is_unsigned_v<K> && sizeof(K) == 8;

  /// With persistence enabled, construction runs crash recovery on
  /// cfg.persistence.dir (thread slot 0 replays; call before any
  /// concurrent traffic): geometry is restored from the log, the
  /// snapshot + WAL tails are replayed, then fresh appends resume on
  /// the recovered streams.
  explicit KvStore(const KvConfig& cfg)
      : cfg_(cfg),
        announce_(cfg.tracker.max_threads),
        counters_(cfg.tracker.max_threads),
        write_ticks_(cfg.tracker.max_threads) {
    cfg_.shards = ds::round_up_pow2(std::max<std::size_t>(1, cfg.shards));
    cfg_.buckets_per_shard =
        ds::round_up_pow2(std::max<std::size_t>(1, cfg.buckets_per_shard));
    cfg_.auto_grow_check_interval = static_cast<unsigned>(ds::round_up_pow2(
        std::max<std::size_t>(1, cfg.auto_grow_check_interval)));
    cfg_.persistence.snapshot_check_interval =
        static_cast<unsigned>(ds::round_up_pow2(std::max<std::size_t>(
            1, cfg.persistence.snapshot_check_interval)));
    if (cfg_.admission.enabled) {
      // The controller consumes the sampler's time series; admission
      // without metrics would run open-loop.
      cfg_.metrics.enabled = true;
      cfg_.metrics.sampler = true;
    }
    for (unsigned t = 0; t < cfg_.tracker.max_threads; ++t) {
      announce_[t].store(kIdle, std::memory_order_relaxed);
      write_ticks_[t] = 0;
    }
    if (cfg_.metrics.flight && cfg_.metrics.flight_path.empty()) {
      // The black box lives next to the WAL by default; a store with no
      // persist dir has nowhere durable to put one, so flight quietly
      // degrades off rather than scattering files in the cwd.
      if (cfg_.persistence.enabled && !cfg_.persistence.dir.empty())
        cfg_.metrics.flight_path = cfg_.persistence.dir + "/flight.bin";
      else
        cfg_.metrics.flight = false;
    }
    if (cfg_.metrics.enabled) {
      // Before any table exists: make_table/open_persistent attach the
      // WAL and slow-path probes as streams and shards are built.
      metrics_ = std::make_unique<obs::KvMetrics>(cfg_.metrics,
                                                  cfg_.tracker.max_threads);
      metrics_->registry.add_collector(
          [this](std::vector<obs::GaugeValue>& out) { collect_gauges(out); });
    }
    if (cfg_.ordered_index) {
      if constexpr (kOrderable) {
        // Before open_persistent(): recovery replay runs through the
        // ordinary put()/remove() entry points, whose index hooks
        // repopulate the index for free.
        reclaim::TrackerConfig ic = cfg_.tracker;
        ic.max_hes =
            std::max<unsigned>(ic.max_hes, OrderedIndex::Bst::kSlotsNeeded);
        index_ = std::make_unique<OrderedIndex>(ic);
      } else {
        std::fprintf(stderr,
                     "KvStore: ordered_index requires unsigned 64-bit keys\n");
        std::abort();
      }
    }
    if (cfg_.persistence.enabled) {
      if constexpr (kPersistable) {
        open_persistent();
      } else {
        std::fprintf(stderr,
                     "KvStore: persistence requires wal_encodable K/V\n");
        std::abort();
      }
    } else {
      tables_.push_back(make_table(cfg_.shards, /*epoch=*/1, /*wals=*/false));
      table_.store(tables_.back().get(), std::memory_order_release);
      epoch_.store(1, std::memory_order_release);
    }
    // The controller is built before the sampler starts, since the
    // sampler's gauge collector reads it through stats(); it starts
    // after recovery replay (which must never be throttled) and after
    // the sampler, so its first observation is real.
    if (cfg_.admission.enabled)
      admit_ = std::make_unique<admit::AdmissionController>(cfg_.admission);
    if (metrics_) metrics_->start_sampler();
    if (admit_)
      admit_->start(metrics_ ? metrics_->sampler() : nullptr,
                    metrics_ ? metrics_->watchdog() : nullptr);
  }

  // tables_ owns every table; shards flush their retire bursts before
  // their WAL streams close durably, trackers drain last.  The sampler must
  // stop FIRST: its gauge collector walks live store state (stats()),
  // and the WAL flushers still record fsync latency during teardown —
  // which is why metrics_ is declared before tables_ (destroyed after).
  ~KvStore() {
    if (admit_) admit_->stop();  // its driver reads the sampler's ring
    if (metrics_) metrics_->stop_sampler();
  }

  // ---- point ops.  Every entry point below is one run_op() call: the
  // op pipeline (see run_op) owns metrics, watchdog, admission, the
  // table guard, index hooks, counters and the after-write step; an
  // entry point supplies only what it does to the table. ----

  std::optional<V> get(const K& key, unsigned tid) {
    return run_op<obs::OpKind::kGet>(key, 1, tid, [&](Table* t, Effect&) {
      return lookup(t, key, tid);
    });
  }

  bool contains(const K& key, unsigned tid) {
    return get(key, tid).has_value();
  }

  /// Insert-or-replace, in place (atomic value-cell swap on present
  /// keys); true when the key was absent.
  bool put(const K& key, const V& value, unsigned tid) {
    return run_op<obs::OpKind::kPut>(
        key, 1, tid,
        [&](Table* t, Effect& fx) {
          bool was_absent = false;
          on_key(t, key, tid, [&](ShardT& s) {
            return s.try_put(key, value, tid, was_absent);
          });
          fx.inserted = was_absent;
          return was_absent;
        },
        /*add=*/[&](bool) { index_add(key, tid); });
  }

  /// Insert-if-absent; false (no write) when present.
  bool insert(const K& key, const V& value, unsigned tid) {
    return run_op<obs::OpKind::kInsert>(
        key, 1, tid,
        [&](Table* t, Effect& fx) {
          bool inserted = false;
          on_key(t, key, tid, [&](ShardT& s) {
            return s.try_insert(key, value, tid, inserted);
          });
          fx.inserted = inserted;
          return inserted;
        },
        /*add=*/[&](bool inserted) {
          if (inserted) index_add(key, tid);
        });
  }

  /// Replace-if-present; false (no write) when absent.
  bool update(const K& key, const V& value, unsigned tid) {
    return run_op<obs::OpKind::kUpdate>(key, 1, tid, [&](Table* t, Effect&) {
      bool updated = false;
      on_key(t, key, tid, [&](ShardT& s) {
        return s.try_update(key, value, tid, updated);
      });
      return updated;
    });
  }

  std::optional<V> remove(const K& key, unsigned tid) {
    return run_op<obs::OpKind::kRemove>(
        key, 1, tid,
        [&](Table* t, Effect& fx) {
          std::optional<V> out;
          on_key(t, key, tid,
                 [&](ShardT& s) { return s.try_remove(key, tid, out); });
          fx.removed = out.has_value();
          return out;
        },
        NoHook{}, /*drop=*/[&] { index_drop(key, tid); });
  }

  // ---- cross-shard multi-ops: group a span of keys by shard with one
  // counting sort, then execute each shard's group in a single tracker
  // session (one begin_op/end_op, reservation publishing amortized over
  // the group; retires ride the shard's BatchedTracker bursts as usual).
  // Results land at the positions of their keys, so callers see plain
  // positional semantics.  Keys whose bucket is mid-migration are
  // deferred out of the session and re-dispatched — regrouped — against
  // the forwarded table (dispatch_grouped). ----

  /// Point lookups for keys[0..n); out[i] receives the result for
  /// keys[i].  Keys may repeat and may hit any mix of shards.
  void multi_get(const K* keys, std::size_t n, std::optional<V>* out,
                 unsigned tid) {
    if (n == 0) return;
    // One record per batch (end-to-end); the trace shard is the first
    // key's — a batch spans shards, attribution wants one anchor.
    run_op<obs::OpKind::kMultiGet>(keys[0], n, tid, [&](Table* t, Effect&) {
      return dispatch_grouped(
          t, n, tid, [&](std::uint32_t i) -> const K& { return keys[i]; },
          [&](ShardT& s, const std::uint32_t* idx, std::size_t m, auto& defer) {
            s.multi_get(keys, idx, m, out, tid, defer);
          });
    });
  }

  std::vector<std::optional<V>> multi_get(const std::vector<K>& keys,
                                          unsigned tid) {
    std::vector<std::optional<V>> out(keys.size());
    multi_get(keys.data(), keys.size(), out.data(), tid);
    return out;
  }

  /// In-place upserts for ops[0..n); returns how many keys were newly
  /// inserted.  Duplicate keys within one batch are applied in shard
  /// grouping order, not positional order — callers that care about
  /// intra-batch overwrite order must not repeat keys in a batch.
  std::size_t multi_put(const std::pair<K, V>* ops, std::size_t n,
                        unsigned tid) {
    if (n == 0) return 0;
    return run_op<obs::OpKind::kMultiPut>(
        ops[0].first, n, tid,
        [&](Table* t, Effect& fx) {
          dispatch_grouped(
              t, n, tid,
              [&](std::uint32_t i) -> const K& { return ops[i].first; },
              [&](ShardT& s, const std::uint32_t* idx, std::size_t m,
                  auto& defer) {
                fx.inserted += s.multi_put(ops, idx, m, tid, defer);
              });
          return fx.inserted;
        },
        /*add=*/[&](std::size_t) {
          for (std::size_t i = 0; i < n; ++i) index_add(ops[i].first, tid);
        });
  }

  std::size_t multi_put(const std::vector<std::pair<K, V>>& ops, unsigned tid) {
    return multi_put(ops.data(), ops.size(), tid);
  }

  /// Point removes for keys[0..n); out[i] receives the removed value
  /// for keys[i] (nullopt when absent).  Same counting-sort shard
  /// grouping and one-session-per-shard execution as multi_get.
  /// Returns how many keys were present (and are now removed).
  std::size_t multi_remove(const K* keys, std::size_t n, std::optional<V>* out,
                           unsigned tid) {
    if (n == 0) return 0;
    return run_op<obs::OpKind::kMultiRemove>(
        keys[0], n, tid,
        [&](Table* t, Effect& fx) {
          dispatch_grouped(
              t, n, tid, [&](std::uint32_t i) -> const K& { return keys[i]; },
              [&](ShardT& s, const std::uint32_t* idx, std::size_t m,
                  auto& defer) {
                fx.removed += s.multi_remove(keys, idx, m, out, tid, defer);
              });
          return fx.removed;
        },
        NoHook{}, /*drop=*/[&] {
          for (std::size_t i = 0; i < n; ++i) index_drop(keys[i], tid);
        });
  }

  std::vector<std::optional<V>> multi_remove(const std::vector<K>& keys,
                                             unsigned tid) {
    std::vector<std::optional<V>> out(keys.size());
    multi_remove(keys.data(), keys.size(), out.data(), tid);
    return out;
  }

  // ---- ordered range scans (KvConfig::ordered_index; 0 results when
  // the index is off).  The index BST yields keys in ascending order in
  // bounded chunks; each chunk's values are then fetched from the
  // primary table, so a scan never reads a value the primary doesn't
  // currently hold.  Keys present in the primary for the whole scan are
  // visited exactly once; concurrently inserted/removed keys may or may
  // not appear.  A stale index entry (possible only transiently, from a
  // cross-thread put/remove race on one key) misses its primary lookup
  // and is skipped.  Between chunks the scan drops every reservation
  // (the cursor is a key, not a pointer) and beats the liveness
  // watchdog, so arbitrarily wide scans neither pin reclamation nor
  // false-positive as stalls. ----

  /// Visit every pair with lo <= key <= hi in ascending key order:
  /// fn(key, value).  Returns the number of keys visited.
  template <class Fn>
  std::size_t scan(const K& lo, const K& hi, Fn&& fn, unsigned tid) {
    return scan_bounded(lo, hi, tid, [&](const K& k, const V& v) {
      fn(k, v);
      return true;
    });
  }

  /// Bounded collect: at most `max` ascending pairs from [lo, hi] into
  /// out[]; returns the count.
  std::size_t range_get(const K& lo, const K& hi, std::pair<K, V>* out,
                        std::size_t max, unsigned tid) {
    if (max == 0) return 0;
    std::size_t n = 0;
    scan_bounded(lo, hi, tid, [&](const K& k, const V& v) {
      out[n++] = {k, v};
      return n < max;
    });
    return n;
  }

  // ---- cross-shard atomic transactions (src/txn/; file header) ----

  /// Applies every write buffered in `txn` as one crash-atomic unit and
  /// returns the transaction id (0 for an empty buffer).  Effects become
  /// visible to concurrent readers per key as they install — atomicity
  /// here is against CRASHES (recovery installs all of the batch or none
  /// of it), not reader isolation.  Duplicate keys were already folded
  /// to their final state by the Txn builder, so one intent pair per
  /// effect keeps the commit record's pair count exact.  With
  /// persistence in kAlways mode the return waits until every intent
  /// pair AND the commit record are durable — a durable commit whose
  /// pairs tore off would be dropped at recovery, so acking the commit
  /// alone would be a lie.
  ///
  /// Index maintenance brackets the install like the point ops: drops
  /// first, adds after.  Index membership is per key, not per txn —
  /// crash atomicity is the primary table's concern (the index is
  /// rebuilt from replay), so a commit torn across the brackets is fine.
  std::uint64_t txn_commit(const txn::Txn<K, V>& txn, unsigned tid) {
    const auto& tops = txn.ops();
    if (tops.empty()) return 0;
    return run_op<obs::OpKind::kMultiPut>(
        tops[0].key, tops.size(), tid,
        [&](Table* t, Effect& fx) {
          const std::uint64_t id =
              1 + txn_seq_.fetch_add(1, std::memory_order_relaxed);
          std::uint64_t total_pairs = 0, commit_lsn = 0;
          persist::ShardWal* commit_wal = nullptr;
          // (wal, last pair LSN) per shard touched: the commit-time ack set.
          static thread_local std::vector<
              std::pair<persist::ShardWal*, std::uint64_t>> acks;
          acks.clear();
          {
            // Shared against the snapshot's exclusive mark+dump window
            // (see the file header): released before the durability
            // waits below — appends are what the barrier orders, not
            // fsyncs.
            std::shared_lock<std::shared_mutex> sl(txn_mu_);
            t = dispatch_grouped(
                t, tops.size(), tid,
                [&](std::uint32_t i) -> const K& { return tops[i].key; },
                [&](ShardT& s, const std::uint32_t* idx, std::size_t m,
                    auto& defer) {
                  const auto r =
                      s.txn_apply(tops.data(), idx, m, id, tid, defer);
                  total_pairs += r.pairs;
                  fx.inserted += r.inserted;
                  fx.removed += r.removed;
                  if (r.last_lsn != 0) acks.emplace_back(s.wal(), r.last_lsn);
                });
            // COMMIT on the final table's stream 0 (the same stream the
            // resize brackets use): recovery scans every stream, so
            // "which one" only has to be deterministic per table, not
            // per key.
            if (!t->wals.empty()) {
              commit_wal = t->wals[0].get();
              commit_lsn = commit_wal->append(persist::RecordType::kTxnCommit,
                                              id, total_pairs);
            }
          }
          // Durability acks under the table announcement (the streams
          // live in tables the guard keeps alive) but outside txn_mu_.
          for (const auto& [w, lsn] : acks) w->ack(lsn);
          if (commit_wal != nullptr) commit_wal->ack(commit_lsn);
          counters_.inc(kTxnCommits, tid);
          return id;
        },
        /*add=*/[&](std::uint64_t) {
          for (const auto& op : tops)
            if (!op.is_remove) index_add(op.key, tid);
        },
        /*drop=*/[&] {
          for (const auto& op : tops)
            if (op.is_remove) index_drop(op.key, tid);
        });
  }

  /// Single-key compare-and-swap, the degenerate transaction: installs
  /// `desired` iff the key is present with value == `expected`.  True on
  /// swap; false (and NO write, NO cell retired) on absent key or value
  /// mismatch.
  bool cas(const K& key, const V& expected, const V& desired, unsigned tid) {
    return run_op<obs::OpKind::kUpdate>(key, 1, tid, [&](Table* t, Effect&) {
      bool swapped = false;
      on_key(t, key, tid, [&](ShardT& s) {
        return s.try_cas(key, expected, desired, tid, swapped);
      });
      return swapped;
    });
  }

  /// Atomic read-modify-write counter bump built on cas(): creates the
  /// key at `delta` when absent, otherwise retries get+cas until one
  /// publishes.  Returns the value this call installed.
  V incr(const K& key, V delta, unsigned tid) {
    for (;;) {
      const std::optional<V> cur = get(key, tid);
      if (!cur.has_value()) {
        if (insert(key, delta, tid)) return delta;
        continue;  // lost the creation race: reload and add
      }
      const V next = static_cast<V>(*cur + delta);
      if (cas(key, *cur, next, tid)) return next;
      // Value moved (or the key vanished) between get and cas: retry.
    }
  }

  // ---- online resharding ----

  /// Migrates every key into a fresh table of `new_shards` (rounded up
  /// to a power of two) shards, concurrently with readers and writers.
  /// Driven by the calling thread, but cooperative: concurrent ops that
  /// hit frozen buckets claim and migrate them too (see the file
  /// header).  Concurrent resizes serialize.  Returns false (no-op)
  /// when the rounded count equals the current one.
  bool resize(std::size_t new_shards, unsigned tid) {
    const std::size_t want =
        ds::round_up_pow2(std::max<std::size_t>(1, new_shards));
    std::lock_guard<std::mutex> lk(resize_mu_);
    return resize_locked(want, tid);
  }

  std::size_t shard_count() const noexcept {
    return table_.load(std::memory_order_acquire)->mask + 1;
  }

  /// Current table's epoch: 1 + number of completed resizes this
  /// lineage; grows monotonically.
  std::uint64_t table_epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Tables currently alive (current + retired-but-still-announced).
  /// 1 means every superseded table has been reclaimed.
  std::size_t live_table_count() const {
    std::lock_guard<std::mutex> lk(resize_mu_);
    return tables_.size();
  }

  /// Net inserts minus net removes (racy relaxed sum): the size signal
  /// the auto-grow trigger uses.
  std::size_t approx_size() const noexcept {
    const std::uint64_t ins = counters_.sum(kNetInserts);
    const std::uint64_t rem = counters_.sum(kNetRemoves);
    return ins > rem ? static_cast<std::size_t>(ins - rem) : 0;
  }

  /// Shard a key routes to in the CURRENT table (distribution tests,
  /// targeted flushes; racy against a concurrent resize).
  std::size_t shard_index(const K& key) const noexcept {
    return shard_index_in(*table_.load(std::memory_order_acquire), key);
  }

  ShardT& shard_at(std::size_t i) noexcept {
    return *table_.load(std::memory_order_acquire)->shards[i];
  }
  const ShardT& shard_at(std::size_t i) const noexcept {
    return *table_.load(std::memory_order_acquire)->shards[i];
  }

  /// Quiescent total size across shards (test/ops helper).
  std::size_t size_unsafe() const noexcept {
    const Table* t = table_.load(std::memory_order_acquire);
    std::size_t n = 0;
    for (const auto& s : t->shards) n += s->size_unsafe();
    return n;
  }

  /// Quiescent iteration over every (key, value) pair, shard by shard.
  template <class Fn>
  void for_each_unsafe(Fn&& fn) const {
    const Table* t = table_.load(std::memory_order_acquire);
    for (const auto& s : t->shards) s->for_each_unsafe(fn);
  }

  /// Hand `tid`'s buffered retire bursts in every shard to the domain
  /// trackers (call before a thread goes idle for a long time).  Also a
  /// table-reclamation point: a superseded table that was still
  /// announced at the end-of-resize scan gets another chance here.
  void flush_retired(unsigned tid) noexcept {
    {
      TableGuard g(*this, tid);
      for (auto& s : g.table->shards) s->flush_retired(tid);
    }
    if (index_) index_->batched.flush(tid);
    collect_retired_tables();  // after the guard: our announce is idle
  }

  /// Frees superseded tables no announcement still covers (no-op when a
  /// resize is in flight — that resize scans on completion anyway).
  void collect_retired_tables() noexcept {
    if (!resize_mu_.try_lock()) return;
    std::lock_guard<std::mutex> lk(resize_mu_, std::adopt_lock);
    scan_tables_locked();
  }

  // ---- durability (no-ops / empty results when persistence is off) ----

  bool persist_enabled() const noexcept { return cfg_.persistence.enabled; }

  /// Barrier: returns once every record appended before the call is
  /// durable on every current shard stream.
  void persist_sync(unsigned tid) {
    TableGuard g(*this, tid);
    for (auto& w : g.table->wals) w->flush_now();
  }

  /// Compaction: fuzzy-dump the store into snap-<id>.dat and truncate
  /// WAL segments the snapshot supersedes.  Serializes with resize (and
  /// other snapshots) on the resize mutex.  False when persistence is
  /// off or the dump/write failed.
  bool snapshot_now(unsigned tid) {
    if constexpr (kPersistable) {
      if (!cfg_.persistence.enabled) return false;
      std::lock_guard<std::mutex> lk(resize_mu_);
      return snapshot_locked(tid);
    } else {
      (void)tid;
      return false;
    }
  }

  /// Test hook: simulated resizer stall.  While a hook is set, every
  /// resize() freezes EVERY source bucket, then calls `fn` on the
  /// resizing thread — holding the resize mutex but NO bucket claim —
  /// before it starts claiming buckets.  While parked inside `fn`, every
  /// op that hits a frozen bucket must complete its migration via
  /// helping; that is the progress property the help suites pin.  An
  /// empty `fn` (`[] {}`) forces ops onto the helping path without the
  /// stall (the stress suites' WFE_TEST_HELP=1 mode).  Set (and clear, by
  /// passing nullptr) only while no resize is in flight.
  void set_resize_park_hook(std::function<void()> fn) {
    resize_park_hook_ = std::move(fn);
  }

  /// Test hook: freeze the durable watermark (no more fsyncs) on every
  /// stream while writes keep flowing — the page-cache window a real
  /// crash exposes.
  void persist_suppress_sync(bool on) {
    std::lock_guard<std::mutex> lk(resize_mu_);
    for (auto& t : tables_)
      for (auto& w : t->wals) w->suppress_sync(on);
  }

  /// Test hook: simulated kill.  Flushers stop without flushing, files
  /// are left exactly as written so far; returns every stream's tail
  /// state (current table's streams first).  The store itself stays
  /// destructible but must take no further traffic.
  std::vector<persist::CrashedTail> persist_crash() {
    std::lock_guard<std::mutex> lk(resize_mu_);
    std::vector<persist::CrashedTail> out;
    const Table* cur = table_.load(std::memory_order_acquire);
    for (auto& w : const_cast<Table*>(cur)->wals) out.push_back(w->crash());
    for (auto& t : tables_)
      if (t.get() != cur)
        for (auto& w : t->wals) out.push_back(w->crash());
    return out;
  }

  KvStats stats() const {
    KvStats st;
    {
      std::lock_guard<std::mutex> lk(resize_mu_);
      const Table* t = table_.load(std::memory_order_acquire);
      st.shards.reserve(t->shards.size());
      for (const auto& s : t->shards) st.shards.push_back(s->stats());
      st.table_epoch = t->epoch;
      st.shard_count = t->mask + 1;
      st.resizes = history_;
    }
    st.resize_epochs = resize_epochs_.load(std::memory_order_relaxed);
    st.migrated_keys = migrated_keys_.load(std::memory_order_relaxed);
    st.forwarded_ops = counters_.sum(kForwarded);
    st.helped_buckets = counters_.sum(kHelpedBuckets);
    st.help_conflicts = counters_.sum(kHelpConflicts);
    if (index_) {
      st.ordered_index = true;
      st.scan_ops = counters_.sum(kScanOps);
      st.scan_keys = counters_.sum(kScanKeys);
      st.scan_restarts = index_->tree.scan_restarts();
      // The index domain's reclamation ledger, in the shape
      // tests/kv_balance.hpp closes: subtracting the BST's construction
      // sentinels leaves exactly kBlocksPerKey blocks per live key.
      ShardStats& ix = st.index;
      ix.allocated =
          index_->tracker.allocated() - OrderedIndex::Bst::kStructuralBlocks;
      ix.freed = index_->tracker.freed();
      ix.retired = index_->tracker.retired();
      ix.unreclaimed = index_->tracker.unreclaimed();
      ix.retire_backlog = index_->tracker.retire_backlog();
      ix.pending_retired = index_->batched.pending_retired();
      ix.batch_flushes = index_->batched.batch_flushes();
      if constexpr (requires(const Tracker& t) { t.slow_path_entries(); })
        ix.slow_path_entries = index_->tracker.slow_path_entries();
    }
    st.persist_enabled = cfg_.persistence.enabled;
    st.snapshots_written = snapshots_written_.load(std::memory_order_relaxed);
    st.txn_commits = counters_.sum(kTxnCommits);
    if (admit_) {
      const admit::AdmitSnapshot a = admit_->snapshot();
      st.admit_enabled = true;
      st.admit_write_rate = a.write_rate;
      st.admit_severity = a.severity;
      st.admit_shed_writes = a.shed_writes;
      st.admit_shed_reads = a.shed_reads;
      st.admit_throttle_waits = a.throttle_waits;
    }
    return st;
  }

  // ---- observability (src/obs/; null when cfg.metrics.enabled is off) ----

  obs::KvMetrics* metrics() noexcept { return metrics_.get(); }
  const obs::KvMetrics* metrics() const noexcept { return metrics_.get(); }

  /// The flight recorder (black box), null unless metrics.flight is on
  /// and the box opened.
  obs::FlightRecorder* flight() noexcept {
    return metrics_ ? metrics_->flight() : nullptr;
  }

  /// The liveness watchdog, null unless metrics.watchdog.enabled.
  obs::Watchdog* watchdog() noexcept {
    return metrics_ ? metrics_->watchdog() : nullptr;
  }

  // ---- admission control (src/admit/; null when admission is off) ----

  admit::AdmissionController* admission() noexcept { return admit_.get(); }
  const admit::AdmissionController* admission() const noexcept {
    return admit_.get();
  }

  /// Serialize a fresh registry snapshot (histogram digests + gauges) to
  /// `path`.  False when metrics are disabled or the write failed.
  bool dump_metrics(const char* path,
                    obs::ExportFormat fmt = obs::ExportFormat::kJson) const {
    if (!metrics_) return false;
    return obs::dump_to_file(
        path, obs::serialize(metrics_->registry.snapshot(), fmt));
  }

  /// Same, to an open file descriptor (e.g. a stats socket or stderr).
  bool dump_metrics_fd(int fd, obs::ExportFormat fmt =
                                   obs::ExportFormat::kJson) const {
    if (!metrics_) return false;
    return obs::dump_to_fd(fd,
                           obs::serialize(metrics_->registry.snapshot(), fmt));
  }

 private:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  struct Table {
    std::uint64_t epoch;
    std::size_t mask;     ///< shard_count - 1
    std::size_t buckets;  ///< per shard
    /// WAL streams, one per shard (empty when persistence is off).
    /// Declared before `shards` so each stream outlives the shard that
    /// points at it, and closes durably after the shard's teardown.
    std::vector<std::unique_ptr<persist::ShardWal>> wals;
    std::vector<std::unique_ptr<ShardT>> shards;
    /// One flag per (shard, bucket): 1 = every live pair of that source
    /// bucket is present in `next`; waiters proceed there.
    std::vector<std::unique_ptr<std::atomic<std::uint8_t>[]>> migrated;
    /// One claim word per (shard, bucket), the help protocol's core:
    /// kUnclaimed -> kClaimed by the CAS that elects the bucket's one
    /// migrator (resizer or helper), kDone after its drain+ledger.
    /// Exactly-once collect/copy/drain and exactly-once ledger merge
    /// both hang off this word.
    std::vector<std::unique_ptr<std::atomic<std::uint8_t>[]>> claim;
    /// This table's OUTBOUND migration ledger, merged atomically from
    /// every thread that claimed one of its buckets; the resizer folds
    /// it into a ResizeRecord once buckets_done covers the table.
    struct MigrationLedger {
      std::atomic<std::uint64_t> migrated_keys{0};
      std::atomic<std::uint64_t> nodes_retired{0};
      std::atomic<std::uint64_t> cells_retired{0};
      std::atomic<std::uint64_t> helped_buckets{0};
      /// Buckets fully migrated (flag set, drained, ledger merged).
      /// The release increment is each bucket's closing bracket; the
      /// resizer's acquire read of == total is the merge barrier.
      std::atomic<std::uint64_t> buckets_done{0};
    } mig;
    std::atomic<Table*> next{nullptr};  ///< forwarding target while/after migration
  };

  static constexpr std::uint8_t kUnclaimed = 0, kClaimed = 1, kDone = 2;
  /// How many buckets the resizer freezes AHEAD of its migrate cursor.
  /// Frozen-but-unclaimed buckets are exactly what ops can help with,
  /// so this is the migration's parallelism window: 1 would recover the
  /// strictly-serial shape (helpers can only ever co-work the one
  /// in-flight bucket), larger values let several ops copy distinct
  /// buckets concurrently with the resizer.
  static constexpr std::size_t kFreezeAhead = 8;

  /// Epoch announcement bracket around every operation: publish the
  /// current epoch (seq_cst), THEN load the table pointer (the HP
  /// publish-validate discipline: a table is retired only after table_
  /// is repointed, so a load that still returns it happened before any
  /// scan that could free it — and that scan sees our announcement).
  struct TableGuard {
    KvStore& store;
    unsigned tid;
    Table* table;

    /// Always inline: called out of line from run_op's large body, the
    /// seq_cst announce made insert-heavy prefill ~8% slower (perfbench
    /// setup, 4-vCPU x86 host).
    [[gnu::always_inline]] TableGuard(KvStore& s, unsigned t)
        : store(s), tid(t) {
      const std::uint64_t e = s.epoch_.load(std::memory_order_acquire);
      s.announce_[t].store(e, std::memory_order_seq_cst);
      table = s.table_.load(std::memory_order_seq_cst);
    }
    ~TableGuard() { store.announce_[tid].store(kIdle, std::memory_order_release); }
  };
  friend struct TableGuard;

  std::unique_ptr<Table> make_table(std::size_t shards, std::uint64_t epoch,
                                    bool wals) {
    auto t = std::make_unique<Table>();
    t->epoch = epoch;
    t->mask = shards - 1;
    t->buckets = cfg_.buckets_per_shard;
    t->shards.reserve(shards);
    t->migrated.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      reclaim::TrackerConfig tc = cfg_.tracker;
      tc.domain_id = static_cast<unsigned>(i);
      t->shards.push_back(std::make_unique<ShardT>(tc, t->buckets));
      auto flags = std::make_unique<std::atomic<std::uint8_t>[]>(t->buckets);
      auto claims = std::make_unique<std::atomic<std::uint8_t>[]>(t->buckets);
      for (std::size_t b = 0; b < t->buckets; ++b) {
        flags[b].store(0, std::memory_order_relaxed);
        claims[b].store(kUnclaimed, std::memory_order_relaxed);
      }
      t->migrated.push_back(std::move(flags));
      t->claim.push_back(std::move(claims));
      if (wals) {
        t->wals.push_back(std::make_unique<persist::ShardWal>(
            cfg_.persistence.dir, epoch, static_cast<unsigned>(i),
            cfg_.persistence));
        t->shards.back()->attach_wal(t->wals.back().get());
        attach_wal_metrics(*t->wals.back(), i);
      }
      attach_tracker_probe(*t->shards.back());
    }
    return t;
  }

  /// WAL latency probes: fsync + commit-wait histograms on a fixed
  /// per-stream lane (the flusher has no kv thread slot).
  void attach_wal_metrics(persist::ShardWal& wal, std::size_t shard) {
    if (!metrics_) return;
    wal.set_metrics(&metrics_->wal_fsync, &metrics_->wal_commit_wait,
                    &metrics_->trace,
                    static_cast<unsigned>(shard) % cfg_.tracker.max_threads,
                    metrics_->watchdog());
  }

  /// The watchdog (null when disabled): kv op entry points arm their
  /// reserved heartbeat slot (index == tid) through this.
  obs::Watchdog* wd() noexcept {
    return metrics_ ? metrics_->watchdog() : nullptr;
  }

  /// WFE-family trackers expose a slow-path latency probe; other
  /// schemes simply don't have the hook.
  void attach_tracker_probe(ShardT& sh) {
    if constexpr (requires {
                    sh.tracker().set_slow_path_probe(
                        static_cast<obs::LatencyHistogram*>(nullptr));
                  }) {
      if (metrics_) sh.tracker().set_slow_path_probe(&metrics_->wfe_slow_path);
    }
  }

  /// End-of-op probe (sampled ops only): one conversion + one relaxed
  /// lane increment in the op kind's histogram; the trace shard is only
  /// hashed on the slow branch.  Out of line on purpose — keeping the
  /// histogram machinery out of get/put keeps the metrics-on icache
  /// footprint flat.
  [[gnu::noinline]] void record_op(obs::OpKind kind, std::uint64_t t0,
                                   unsigned tid, const K& key) {
    using obs::OpKind;
    obs::KvMetrics& m = *metrics_;
    obs::LatencyHistogram& h =
        kind == OpKind::kGet                                ? m.op_get
        : kind == OpKind::kPut || kind == OpKind::kInsert ? m.op_put
        : kind == OpKind::kUpdate                           ? m.op_update
        : kind == OpKind::kRemove                           ? m.op_remove
        : kind == OpKind::kScan                             ? m.op_scan
                                                            : m.op_multi;
    const std::uint64_t ns = obs::ticks_to_ns(obs::now_ticks() - t0);
    h.record_owned(ns, tid);  // tid's lane: this thread is its only writer
    if (ns >= m.opt.slow_op_ns) {
      // The op's own guard is gone, and a resize may free an unannounced
      // table under shard_index_in.
      TableGuard g(*this, tid);
      m.trace.push(kind,
                   static_cast<std::uint32_t>(shard_index_in(*g.table, key)),
                   ns, obs::tls_cause);
    }
  }

  /// Gauge collector for the registry/sampler: one stats() pass fans out
  /// into every gauge (so a snapshot is one resize_mu_ acquisition, not
  /// nineteen).
  void collect_gauges(std::vector<obs::GaugeValue>& out) const {
    const KvStats st = stats();
    const ShardStats t = st.total();
    auto g = [&out](const char* name, double v) {
      out.push_back({name, v});
    };
    g("kv_gets_total", t.gets);
    g("kv_puts_total", t.puts);
    g("kv_removes_total", t.removes);
    g("kv_updates_total", t.updates);
    g("kv_retire_backlog", t.retire_backlog);
    g("kv_pending_retired", t.pending_retired);
    g("kv_unreclaimed", t.unreclaimed);
    g("kv_wal_durable_lag", t.wal_durable_lag);
    g("kv_wal_fsyncs_total", t.wal_fsyncs);
    g("kv_slow_path_entries_total", t.slow_path_entries);
    g("kv_helped_buckets_total", st.helped_buckets);
    g("kv_help_conflicts_total", st.help_conflicts);
    g("kv_forwarded_ops_total", st.forwarded_ops);
    g("kv_table_epoch", st.table_epoch);
    g("kv_shard_count", st.shard_count);
    g("kv_resize_epochs_total", st.resize_epochs);
    g("kv_migrated_keys_total", st.migrated_keys);
    g("kv_snapshots_written_total", st.snapshots_written);
    g("kv_cas_ops_total", t.cas_ops);
    g("kv_txn_ops_total", t.txn_ops);
    g("kv_txn_commits_total", st.txn_commits);
    g("kv_approx_size", approx_size());
    if (st.ordered_index) {
      g("kv_scan_ops_total", st.scan_ops);
      g("kv_scan_keys_total", st.scan_keys);
      g("kv_scan_restarts_total", st.scan_restarts);
      g("kv_index_unreclaimed", st.index.unreclaimed);
      g("kv_index_pending_retired", st.index.pending_retired);
    }
    if (metrics_) {
      // Trace-loss accounting: how much of the event stream attribution
      // is NOT seeing (lapped slots + snapshot-torn skips).
      g("trace_events_overwritten",
        static_cast<double>(metrics_->trace.overwritten()));
      g("trace_snapshot_torn",
        static_cast<double>(metrics_->trace.snapshot_torn()));
      if (const obs::Watchdog* w = metrics_->watchdog(); w != nullptr)
        g("watchdog_stalls_total", static_cast<double>(w->stalls_detected()));
      if (const obs::FlightRecorder* fl = metrics_->flight(); fl != nullptr) {
        g("flight_frames_total", static_cast<double>(fl->frames_recorded()));
        g("flight_dropped_total", static_cast<double>(fl->frames_dropped()));
      }
    }
    if (st.admit_enabled) {
      g("kv_admit_write_rate", st.admit_write_rate);
      g("kv_admit_severity", st.admit_severity);
      g("kv_admit_shed_writes_total", st.admit_shed_writes);
      g("kv_admit_shed_reads_total", st.admit_shed_reads);
      g("kv_admit_throttle_waits_total", st.admit_throttle_waits);
    }
  }

  // ---- the op pipeline ----

  /// What a write did to the key count: the counter stage folds it into
  /// the net insert/remove lanes behind approx_size().
  struct Effect {
    std::size_t inserted = 0, removed = 0;
  };

  /// The index stage of a write that has none.
  struct NoHook {
    void operator()(const auto&...) const noexcept {}
  };

  /// Reads (get, multi_get, scan) run no write stage; everything else
  /// writes.  cas() records as an update, txn_commit() as a multi_put.
  static constexpr bool is_write(obs::OpKind k) noexcept {
    return k != obs::OpKind::kGet && k != obs::OpKind::kMultiGet &&
           k != obs::OpKind::kScan;
  }

  /// The one op runner every entry point goes through.  Stage order:
  ///
  ///   1. op_begin      sampled latency start (metrics on)
  ///   2. BeatScope     arms the thread's watchdog heartbeat slot
  ///   3. admission     reads flag-shed; a write is charged `keys` tokens
  ///   4. index drop    writes: `drop()`, BEFORE the primary erase
  ///   5. TableGuard    `apply(table, fx)` under one epoch announcement;
  ///                    apply forwards per key (on_key) or per shard
  ///                    group (dispatch_grouped)
  ///   6. index add     writes: `add(result)`, AFTER the primary install
  ///   7. counters      writes: net inserts/removes from `fx`
  ///   8. after_write   writes: auto-grow and auto-snapshot cadence
  ///   9. record_op     latency histogram + slow-op trace
  ///
  /// `Kind` is a template argument, so a read compiles to stages 1-3, 5
  /// and 9 only.  A scan takes no guard here: apply() guards each
  /// 128-key chunk itself and never holds an announcement across chunks.
  /// An auto-grow or auto-snapshot a write drives is part of its
  /// observed latency (and tags its trace cause).
  template <obs::OpKind Kind, class Apply, class Add = NoHook,
            class Drop = NoHook>
  auto run_op(const K& trace_key, std::size_t keys, unsigned tid,
              Apply&& apply, Add&& add = {}, Drop&& drop = {}) {
    constexpr bool kWrite = is_write(Kind);
    const std::uint64_t mt0 = metrics_ ? metrics_->op_begin() : 0;
    obs::BeatScope hb(wd(), tid, obs::Site::kKvOp);
    if constexpr (kWrite) {
      gate_write(keys);
      if (index_) drop();
    } else {
      gate_read();
    }
    Effect fx;
    auto out = [&] {
      if constexpr (Kind == obs::OpKind::kScan) {
        return apply();
      } else {
        TableGuard g(*this, tid);
        return apply(g.table, fx);
      }
    }();
    if constexpr (kWrite) {
      if (index_) add(out);
      if (fx.inserted != 0) counters_.inc(kNetInserts, tid, fx.inserted);
      if (fx.removed != 0) counters_.inc(kNetRemoves, tid, fx.removed);
      after_write(tid);
    }
    if (mt0 != 0) record_op(Kind, mt0, tid, trace_key);
    return out;
  }

  /// Admission gates: sit between op_begin() and the table guard, so a
  /// throttle wait lands inside the op's observed latency (and its
  /// trace tag survives — op_begin resets tls_cause first) while a
  /// refusal throws before any store state is touched.  One untaken
  /// branch when admission is off.
  void gate_read() {
    if (admit_ && !admit_->admit_read()) throw Overloaded(false);
  }
  void gate_write(std::size_t n) {
    if (admit_ && !admit_->admit_write(static_cast<std::uint32_t>(
                      std::min<std::size_t>(n, 0xffffffffu))))
      throw Overloaded(true);
  }

  /// The after-write step: one per-thread write tick drives both
  /// maintenance checks, each on its own power-of-two interval.  Both
  /// are off by default, and then no tick is taken.
  void after_write(unsigned tid) {
    const bool grow = cfg_.auto_grow_load_factor > 0.0;
    const bool snap = cfg_.persistence.enabled &&
                      cfg_.persistence.snapshot_every_bytes != 0;
    if (replaying_ || !(grow || snap)) return;
    const unsigned tick = ++write_ticks_[tid];  // owner-thread-only
    if (grow && (tick & (cfg_.auto_grow_check_interval - 1)) == 0)
      auto_grow(tid);
    if (snap && (tick & (cfg_.persistence.snapshot_check_interval - 1)) == 0)
      auto_snapshot(tid);
  }

  // ---- secondary ordered index internals ----

  /// The index is one store-level BST over the key space, in its OWN
  /// tracker domain (same scheme, same tid space as the shards) behind
  /// the same batched-retire facade.  It stores membership only — a
  /// one-byte marker value — and is geometry-independent: resharding
  /// migrates primary pairs between tables and never touches it.
  struct OrderedIndex {
    using Bst = ds::NatarajanBst<std::uint8_t, BatchedTracker<Tracker>>;
    explicit OrderedIndex(const reclaim::TrackerConfig& c)
        : tracker(c), batched(tracker), tree(batched) {}
    Tracker tracker;
    BatchedTracker<Tracker> batched;
    Bst tree;
  };

  static std::uint64_t index_key(const K& key) noexcept {
    return static_cast<std::uint64_t>(key);
  }

  /// Membership hooks, called by run_op's index stages (index on only).
  /// Mutators keep a per-thread program-order contract: put/insert add
  /// the index entry AFTER the primary install (a scan after the call
  /// returns sees the key), remove drops it BEFORE the primary erase (a
  /// scan after the call returns does not).  Dropping it after the
  /// primary remove instead could race a concurrent re-insert's
  /// index_add and delete the LIVE entry.  Cross-thread races on one
  /// key can strand a STALE entry — index key with no primary pair —
  /// which scans skip (primary miss) and which the key's next
  /// insert/remove cycle reuses or drops; stale entries are never
  /// purged from the scan path, because a purge can race a concurrent
  /// re-insert's index_add and delete a live entry.
  void index_add(const K& key, unsigned tid) {
    index_->tree.insert(index_key(key), 1, tid);
  }
  void index_drop(const K& key, unsigned tid) {
    index_->tree.remove(index_key(key), tid);
  }

  /// Scan driver shared by scan() and range_get(); fn returns false to
  /// stop early.  Chunked: up to kScanBatch ascending keys from the
  /// index per round, then per-key primary lookups under one table
  /// guard, then a watchdog beat — the scan holds no reservation and no
  /// announcement across rounds.
  template <class Fn>
  std::size_t scan_bounded(const K& lo, const K& hi, unsigned tid, Fn&& fn) {
    if (!index_ || index_key(lo) > index_key(hi)) return 0;
    return run_op<obs::OpKind::kScan>(lo, 1, tid, [&] {
      static constexpr std::size_t kScanBatch = 128;
      static thread_local std::vector<std::pair<std::uint64_t, std::uint8_t>>
          chunk;
      chunk.resize(kScanBatch);
      std::size_t visited = 0;
      std::uint64_t cursor = index_key(lo);
      const std::uint64_t end = index_key(hi);
      bool more = true;
      while (more) {
        const std::size_t n =
            index_->tree.range_get(cursor, end, chunk.data(), kScanBatch, tid);
        if (n == 0) break;
        {
          TableGuard g(*this, tid);
          for (std::size_t i = 0; i < n && more; ++i) {
            const K k = static_cast<K>(chunk[i].first);
            // Each key restarts from the guarded table: forwarding is
            // per-key (wait_forward only waits on THAT key's bucket), so
            // a table reached by forwarding key A may not hold an
            // un-migrated key B yet.
            const std::optional<V> v = lookup(g.table, k, tid);
            if (v.has_value()) {
              ++visited;
              more = fn(k, *v);
            }
          }
        }
        if (chunk[n - 1].first >= end || n < kScanBatch) break;
        cursor = chunk[n - 1].first + 1;
        // Liveness beat between chunks: restarts the watchdog's stall
        // clock so a legitimately wide scan is not reported as a hang.
        obs::beat();
      }
      counters_.inc(kScanOps, tid);
      counters_.inc(kScanKeys, tid, visited);
      return visited;
    });
  }

  std::size_t shard_index_in(const Table& t, const K& key) const noexcept {
    // High bits of the same hash whose low bits pick the bucket.
    const std::uint64_t h = ds::hash_key(static_cast<std::uint64_t>(key));
    return static_cast<std::size_t>(h >> 32) & t.mask;
  }

  ShardT& shard_in(Table& t, const K& key) noexcept {
    return *t.shards[shard_index_in(t, key)];
  }

  /// The per-key forwarding helper: runs `attempt` (one shard try_* op)
  /// on the key's shard, and while it reports a frozen bucket, helps or
  /// waits out that bucket's migration and retries one table further.
  template <class Attempt>
  void on_key(Table* t, const K& key, unsigned tid, Attempt&& attempt) {
    while (!attempt(shard_in(*t, key))) t = wait_forward(*t, key, tid);
  }

  /// Primary point lookup under the caller's table guard (get, scan).
  std::optional<V> lookup(Table* t, const K& key, unsigned tid) {
    std::optional<V> out;
    on_key(t, key, tid, [&](ShardT& s) { return s.try_get(key, tid, out); });
    return out;
  }

  /// The op observed a frozen bucket: help migrate it (outside any
  /// tracker session) — or back off while another thread does — until
  /// that bucket's live pairs are all present in the next table, then
  /// retry there.
  Table* wait_forward(Table& t, const K& key, unsigned tid) {
    counters_.inc(kForwarded, tid);
    const std::size_t s = shard_index_in(t, key);
    const std::size_t b = t.shards[s]->bucket_index(key);
    wait_bucket(t, s, b, tid);
    return t.next.load(std::memory_order_acquire);
  }

  /// Grouped dispatch for the multi-ops and txn_commit: counting-sorts
  /// batch positions [0, n) by shard (key_of maps a position to its
  /// key), runs `group(shard, idx, count, deferred)` once per non-empty
  /// shard group, then waits for (or helps) every deferred key's bucket
  /// and regroups the remainder against the next table.  Returns the
  /// table the last groups ran on.
  template <class KeyOf, class Group>
  Table* dispatch_grouped(Table* t, std::size_t n, unsigned tid,
                          KeyOf&& key_of, Group&& group) {
    static thread_local ShardPlan plan;  // scratch: reused across calls
    static thread_local std::vector<std::uint32_t> pend, defer;
    pend.resize(n);
    for (std::size_t i = 0; i < n; ++i) pend[i] = static_cast<std::uint32_t>(i);
    for (;;) {
      group_subset(plan, *t, pend, [&](std::uint32_t i) {
        return shard_index_in(*t, key_of(i));
      });
      defer.clear();
      for (std::size_t s = 0; s <= t->mask; ++s) {
        const std::size_t b = s == 0 ? 0 : plan.start[s - 1], e = plan.start[s];
        if (b != e) group(*t->shards[s], plan.order.data() + b, e - b, defer);
      }
      if (defer.empty()) return t;
      // Every deferred key waits on its own bucket; all of them then
      // step one table forward together.
      Table* next = nullptr;
      for (const std::uint32_t i : defer)
        next = wait_forward(*t, key_of(i), tid);
      t = next;
      pend.swap(defer);
    }
  }

  /// Help-or-backoff wait on one bucket's migration: claim it and do
  /// the work ourselves whenever the claim is free; capped exponential
  /// backoff (util::Backoff — never a bare yield spin) only while some
  /// other thread holds it.  Progress never depends on one specific
  /// thread being scheduled.
  void wait_bucket(Table& t, std::size_t s, std::size_t b, unsigned tid) {
    auto& flag = t.migrated[s][b];
    if (flag.load(std::memory_order_acquire) != 0) return;
    // This op is now migration-bound; if we end up winning the claim,
    // migrate_bucket upgrades the tag to help-migration.  stall_note
    // also lands in the heartbeat slot, so a watchdog report on this
    // thread names the frozen shard.
    if (metrics_)
      obs::stall_note(obs::TraceCause::kFrozenWait,
                      static_cast<std::uint32_t>(s));
    util::Backoff backoff;
    bool conflicted = false;
    for (;;) {
      if (migrate_bucket(t, s, b, tid, /*helper=*/true)) return;
      if (flag.load(std::memory_order_acquire) != 0) return;
      if (!conflicted) {  // one conflict per wait episode, not per round
        conflicted = true;
        counters_.inc(kHelpConflicts, tid);
      }
      backoff.pause();
    }
  }

  /// Exactly-once migration of one source bucket, runnable by ANY
  /// thread (resizer or helper) with its own tid: claim-CAS elects the
  /// migrator, which ensures its own freeze walk completed (helpers
  /// re-freeze — idempotent over the resizer's freeze-ahead; the
  /// resizer's cursor already passed the bucket), collects, copies
  /// every live pair into the destination domain, publishes the
  /// migrated flag, drains the source bucket and merges the bucket's
  /// contribution into the table's ledger — each step under the claim,
  /// so nothing is ever double-copied or double-counted.  False when
  /// another thread holds (or finished) the claim.
  bool migrate_bucket(Table& src, std::size_t s, std::size_t b, unsigned tid,
                      bool helper) {
    auto& cl = src.claim[s][b];
    // Test-and-test-and-set: losing waiters (and the resizer skipping
    // helped buckets) stay read-only on the claim line instead of
    // bouncing it against the active copier with failed CASes.
    if (cl.load(std::memory_order_relaxed) != kUnclaimed) return false;
    std::uint8_t expected = kUnclaimed;
    if (!cl.compare_exchange_strong(expected, kClaimed,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire))
      return false;
    const std::uint64_t mt0 = metrics_ ? obs::now_ticks() : 0;
    Table* dst = src.next.load(std::memory_order_acquire);
    ShardT& sh = *src.shards[s];
    static thread_local std::vector<std::pair<K, V>> pairs;
    static thread_local std::vector<bool> node_live;
    pairs.clear();
    node_live.clear();
    // A helper's own freeze walk must complete before the collect walk
    // is a valid pure read (idempotent over whatever the resizer's
    // freeze-ahead already froze).  The resizer only claims buckets its
    // freeze_to cursor passed: its own walk completed.
    if (helper) sh.freeze_bucket(b, tid);
    sh.collect_bucket(b, pairs, node_live);
    for (const auto& [k, v] : pairs)
      dst->shards[shard_index_in(*dst, k)]->migrate_in(k, v, tid);
    src.migrated[s][b].store(1, std::memory_order_release);
    const auto [nodes, cells] = sh.drain_bucket(b, tid, node_live);
    src.mig.migrated_keys.fetch_add(pairs.size(), std::memory_order_relaxed);
    src.mig.nodes_retired.fetch_add(nodes, std::memory_order_relaxed);
    src.mig.cells_retired.fetch_add(cells, std::memory_order_relaxed);
    if (helper) {
      src.mig.helped_buckets.fetch_add(1, std::memory_order_relaxed);
      counters_.inc(kHelpedBuckets, tid);
      // Hand this helper's drained blocks to the cold source domain
      // now: store-level flush_retired only reaches CURRENT-table
      // shards, so a burst left buffered here would sit invisible to
      // the domain's scans until table teardown.
      sh.flush_retired(tid);
    }
    cl.store(kDone, std::memory_order_release);
    // Closing bracket: the ledger adds above happen-before the
    // resizer's acquire read of buckets_done == total.
    src.mig.buckets_done.fetch_add(1, std::memory_order_release);
    if (metrics_) {
      // Per-bucket copy latency (freeze/collect/copy/drain under the
      // claim), helper and resizer alike; the cause tag marks the
      // carrying op as having done migration work.
      metrics_->migrate_bucket.record_owned(
          obs::ticks_to_ns(obs::now_ticks() - mt0), tid);
      obs::stall_note(obs::TraceCause::kHelpMigration,
                      static_cast<std::uint32_t>(s));
    }
    return true;
  }

  /// Counting-sort grouping for multi-ops over an index SUBSET (the
  /// not-yet-completed remainder of a batch).  After the call, shard
  /// s's batch indices sit at order[b .. start[s]) with b = start[s-1]
  /// (0 for shard 0), in their original relative order (stable).
  struct ShardPlan {
    std::vector<std::uint32_t> shard_of, order;
    std::vector<std::size_t> start;
  };

  template <class ShardOf>
  void group_subset(ShardPlan& plan, const Table& t,
                    const std::vector<std::uint32_t>& items,
                    ShardOf&& shard_of) {
    const std::size_t n = items.size();
    plan.shard_of.resize(n);
    plan.order.resize(n);
    plan.start.assign(t.mask + 2, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto s = static_cast<std::uint32_t>(shard_of(items[i]));
      plan.shard_of[i] = s;
      ++plan.start[s + 1];
    }
    for (std::size_t s = 1; s <= t.mask + 1; ++s)
      plan.start[s] += plan.start[s - 1];
    for (std::size_t i = 0; i < n; ++i)
      plan.order[plan.start[plan.shard_of[i]]++] = items[i];
  }

  /// Core migration; caller holds resize_mu_.
  bool resize_locked(std::size_t want, unsigned tid) {
    Table* src = table_.load(std::memory_order_acquire);
    if (src->mask + 1 == want) return false;
    // The resize driver is its own watchdog site: a wedged migration
    // (parked hook, stuck freeze, helper deadlock) reports as
    // resize-driver with the shard the cursor was on, nested inside
    // whatever op drove it (BeatScope restores the outer kKvOp site).
    obs::BeatScope hb(wd(), tid, obs::Site::kResizeDriver, 0);
    // The geometry change is announced DURABLY before the destination
    // epoch's streams exist: recovery that finds epoch e+1 files can
    // rely on having seen this record, and recovery that finds only the
    // record reopens at the announced geometry with nothing to replay
    // there yet.
    if (!src->wals.empty())
      src->wals[0]->log_durable(persist::RecordType::kResizeBegin,
                                persist::pack_shards(src->mask + 1, want),
                                src->epoch + 1);
    tables_.push_back(make_table(want, src->epoch + 1, !src->wals.empty()));
    Table* dst = tables_.back().get();
    src->next.store(dst, std::memory_order_release);

    // Freeze ahead of the migrate cursor: a frozen-but-unclaimed bucket
    // is claimable by any op that hits it, so the window is the
    // migration's parallelism (helpers copy distinct buckets while this
    // thread copies another).  The park hook — test-only — freezes
    // everything up front, then stalls this thread with NO claim held,
    // so every bucket traffic touches must complete via helping (an
    // empty hook forces that helping path without the stall).
    const std::size_t total = (src->mask + 1) * src->buckets;
    const std::size_t ahead = resize_park_hook_ ? total : kFreezeAhead;
    std::size_t frozen = 0;
    const auto freeze_to = [&](std::size_t limit) {
      for (; frozen < limit; ++frozen)
        src->shards[frozen / src->buckets]->freeze_bucket(
            frozen % src->buckets, tid);
    };
    if (resize_park_hook_) {
      freeze_to(total);
      resize_park_hook_();
    }
    for (std::size_t m = 0; m < total; ++m) {
      obs::beat_shard(static_cast<std::uint32_t>(m / src->buckets));
      freeze_to(std::min(total, m + ahead));
      migrate_bucket(*src, m / src->buckets, m % src->buckets, tid,
                     /*helper=*/false);
    }
    // Helpers may still be mid-bucket: wait for every claim to close
    // (bounded — each holder is actively copying one bucket) before
    // reading the merged ledger and promoting.
    util::Backoff backoff;
    while (src->mig.buckets_done.load(std::memory_order_acquire) < total)
      backoff.pause();
    // The source domains go cold: hand them the migrator's buffered
    // retires now so their backlogs can drain before teardown.
    for (std::size_t s = 0; s <= src->mask; ++s)
      src->shards[s]->flush_retired(tid);

    ResizeRecord rec;
    rec.epoch = dst->epoch;
    rec.from_shards = src->mask + 1;
    rec.to_shards = want;
    rec.migrated_keys = src->mig.migrated_keys.load(std::memory_order_relaxed);
    rec.nodes_retired = src->mig.nodes_retired.load(std::memory_order_relaxed);
    rec.cells_retired = src->mig.cells_retired.load(std::memory_order_relaxed);
    rec.helped_buckets =
        src->mig.helped_buckets.load(std::memory_order_relaxed);
    // The per-resize closure must survive concurrent helpers: every
    // bucket contributes exactly once (claim exclusivity), so the
    // identities hold exactly, not just in expectation.
    assert(rec.cells_retired == rec.migrated_keys);
    assert(rec.nodes_retired >= rec.migrated_keys);

    table_.store(dst, std::memory_order_seq_cst);  // promote
    epoch_.store(dst->epoch, std::memory_order_release);
    migrated_keys_.fetch_add(rec.migrated_keys, std::memory_order_relaxed);
    resize_epochs_.fetch_add(1, std::memory_order_relaxed);
    history_.push_back(rec);
    // Informational close bracket (recovery never depends on it: an
    // unfinished migration replays correctly from both epochs' logs).
    if (!dst->wals.empty()) {
      dst->wals[0]->log_durable(persist::RecordType::kResizeEnd,
                                persist::pack_shards(rec.from_shards, want),
                                dst->epoch);
      // Fresh streams restart their byte counts; realign the
      // auto-snapshot trigger's floor.
      snap_bytes_floor_.store(0, std::memory_order_relaxed);
    }
    scan_tables_locked();
    return true;
  }

  /// Frees superseded tables no announcement still covers: a thread
  /// announcing epoch e may traverse the table of epoch e and — by
  /// forwarding — any LATER one, never an earlier one, so a retired
  /// table is reclaimable exactly when every announcement is idle or
  /// strictly newer than its epoch.
  void scan_tables_locked() {
    std::uint64_t min_epoch = kIdle;
    for (unsigned t = 0; t < announce_.size(); ++t)
      min_epoch = std::min(min_epoch, announce_[t].load(std::memory_order_seq_cst));
    const Table* cur = table_.load(std::memory_order_acquire);
    std::erase_if(tables_, [&](const std::unique_ptr<Table>& t) {
      return t.get() != cur && t->epoch < min_epoch;
    });
  }

  /// Load-factor check (after_write, every auto_grow_check_interval-th
  /// write per thread): compares approx_size() with the current table's
  /// capacity and doubles the shard count when it overflows.  The whole
  /// check runs under resize_mu_ (try_lock: a resize already in flight
  /// makes this write's check moot) — the caller's TableGuard is gone
  /// by now, and only the mutex keeps the table scan from freeing the
  /// table this dereferences.  Out of line, like auto_snapshot, so that
  /// after_write stays small enough to inline into every write.
  [[gnu::noinline]] void auto_grow(unsigned tid) {
    if (!resize_mu_.try_lock()) return;
    std::lock_guard<std::mutex> lk(resize_mu_, std::adopt_lock);
    const Table* t = table_.load(std::memory_order_acquire);
    const std::size_t shards = t->mask + 1;
    if (shards >= cfg_.auto_grow_max_shards) return;
    const double capacity =
        static_cast<double>(shards) * static_cast<double>(t->buckets);
    if (static_cast<double>(approx_size()) <=
        cfg_.auto_grow_load_factor * capacity)
      return;
    resize_locked(shards * 2, tid);
  }

  /// Persistence open path: recovery scan -> geometry -> replay through
  /// the ordinary op entry points (streams not yet attached, so nothing
  /// re-logs) -> stream attach -> optional compaction.  Runs in the
  /// constructor on thread slot 0, before any concurrency exists.
  void open_persistent() {
    const persist::Options& po = cfg_.persistence;
    persist::RecoveryPlan plan = persist::plan_recovery(po.dir);
    const std::size_t shards0 =
        plan.shard_count > 0
            ? ds::round_up_pow2(static_cast<std::size_t>(plan.shard_count))
            : cfg_.shards;
    const std::uint64_t epoch0 = std::max<std::uint64_t>(plan.epoch, 1);
    tables_.push_back(make_table(shards0, epoch0, /*wals=*/false));
    table_.store(tables_.back().get(), std::memory_order_release);
    epoch_.store(epoch0, std::memory_order_release);
    // Transaction id resolution before replay: committed ids gate their
    // intent pairs, and the id counter restarts PAST every id ever seen
    // so a fresh commit can never adopt an old crash's orphan intents.
    const persist::TxnResolution txns = persist::resolve_txns(plan);
    txn_seq_.store(txns.max_txn_id, std::memory_order_relaxed);
    replaying_ = true;
    persist::replay(
        plan, txns,
        [&](std::uint64_t k, std::uint64_t v) {
          put(persist::decode<K>(k), persist::decode<V>(v), 0);
        },
        [&](std::uint64_t k) { remove(persist::decode<K>(k), 0); });
    replaying_ = false;
    Table* t = tables_.back().get();
    for (std::size_t i = 0; i <= t->mask; ++i) {
      t->wals.push_back(std::make_unique<persist::ShardWal>(
          po.dir, epoch0, static_cast<unsigned>(i), po));
      t->shards[i]->attach_wal(t->wals.back().get());
      attach_wal_metrics(*t->wals.back(), i);
    }
    snap_seq_ = plan.max_snapshot_id;
    if (po.snapshot_on_open && plan.has_state) {
      std::lock_guard<std::mutex> lk(resize_mu_);
      snapshot_locked(0);
    }
  }

  /// Compaction body; caller holds resize_mu_ and persistence is on.
  /// False on I/O failure — the store keeps running on the untruncated
  /// log, and a later snapshot retries.
  bool snapshot_locked(unsigned tid) {
    Table* t = table_.load(std::memory_order_acquire);
    if (t->wals.empty()) return false;
    // Transaction barrier (file header): no multi-key commit may
    // straddle the mark+dump window.  A fuzzy dump that caught SOME of
    // a not-yet-durable transaction's installs could never be undone by
    // the redo-only log; held exclusive through truncation so intent
    // pairs also never straddle a rotation boundary.
    std::unique_lock<std::shared_mutex> txn_barrier(txn_mu_);
    persist::SnapshotImage img;
    img.id = snap_seq_ + 1;
    img.epoch = t->epoch;
    img.shards = t->mask + 1;
    img.marks.resize(img.shards, 0);
    // Marks first, dump second: every record below a mark was fully
    // applied before the mark existed (apply-then-append), so the dump
    // that follows observes it — persist/snapshot.hpp lays the argument
    // out in full.
    for (std::size_t s = 0; s <= t->mask; ++s)
      img.marks[s] = t->wals[s]->append(persist::RecordType::kSnapshotMark,
                                        img.id, t->epoch);
    bool ok = true;
    for (std::size_t s = 0; s <= t->mask; ++s)
      ok = t->shards[s]->for_each_protected(
               tid,
               [&](const K& k, const V& v) {
                 img.pairs.emplace_back(persist::encode(k), persist::encode(v));
               }) &&
           ok;
    if (!ok) return false;  // freeze bits can't appear under resize_mu_
    if (!persist::write_snapshot(cfg_.persistence.dir, img)) return false;
    ++snap_seq_;
    snapshots_written_.fetch_add(1, std::memory_order_relaxed);
    // Truncation: rotate each stream at its mark so whole closed
    // segments (and whole older epochs) can be deleted.
    for (std::size_t s = 0; s <= t->mask; ++s)
      t->wals[s]->rotate_at(img.marks[s]);
    for (std::size_t s = 0; s <= t->mask; ++s) t->wals[s]->flush_now();
    for (std::size_t s = 0; s <= t->mask; ++s)
      t->wals[s]->truncate_through(img.marks[s]);
    persist::truncate_superseded(cfg_.persistence.dir, t->epoch, img.id);
    std::uint64_t bytes = 0;
    for (const auto& w : t->wals) bytes += w->bytes_appended();
    snap_bytes_floor_.store(bytes, std::memory_order_relaxed);
    return true;
  }

  /// Auto-compaction (after_write, every snapshot_check_interval-th
  /// write per thread), auto_grow's try_lock shape: compares the WAL
  /// bytes appended since the last snapshot with snapshot_every_bytes
  /// and compacts inline.
  [[gnu::noinline]] void auto_snapshot(unsigned tid) {
    if constexpr (kPersistable) {
      if (!resize_mu_.try_lock()) return;
      std::lock_guard<std::mutex> lk(resize_mu_, std::adopt_lock);
      const Table* t = table_.load(std::memory_order_acquire);
      std::uint64_t bytes = 0;
      for (const auto& w : t->wals) bytes += w->bytes_appended();
      if (bytes < snap_bytes_floor_.load(std::memory_order_relaxed) +
                      cfg_.persistence.snapshot_every_bytes)
        return;
      snapshot_locked(tid);
    } else {
      (void)tid;
    }
  }

  KvConfig cfg_;
  /// Declared before tables_ so it is destroyed AFTER them: WAL flushers
  /// record a final fsync latency while their streams close.  Null when
  /// cfg_.metrics.enabled is false — every probe site is one untaken
  /// branch.
  std::unique_ptr<obs::KvMetrics> metrics_;
  /// Admission controller (src/admit/); null when admission is off.
  /// Started after recovery replay, stopped (dtor) before the sampler
  /// its driver polls.
  std::unique_ptr<admit::AdmissionController> admit_;
  std::atomic<Table*> table_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};
  /// Per-thread table-epoch announcements (kIdle when not in an op).
  reclaim::detail::PerThread<std::atomic<std::uint64_t>> announce_;

  /// Secondary ordered index (null unless cfg.ordered_index).  Declared
  /// before tables_ so it outlives the primary table teardown; its
  /// batched facade flushes in its own dtor.
  std::unique_ptr<OrderedIndex> index_;

  mutable std::mutex resize_mu_;  ///< serializes resize; guards tables_, history_
  std::vector<std::unique_ptr<Table>> tables_;  ///< owns current + retired
  std::vector<ResizeRecord> history_;
  /// Test-only resizer stall (see set_resize_park_hook).
  std::function<void()> resize_park_hook_;

  enum Lane : unsigned {
    kForwarded, kNetInserts, kNetRemoves, kHelpedBuckets, kHelpConflicts,
    kTxnCommits, kScanOps, kScanKeys,
    kLanes
  };
  util::PerThreadCounters<kLanes> counters_;
  /// Per-thread write ticks for the after-write cadence (owner-written).
  reclaim::detail::PerThread<unsigned> write_ticks_;
  std::atomic<std::uint64_t> migrated_keys_{0};
  std::atomic<std::uint64_t> resize_epochs_{0};

  // ---- durability state (inert when persistence is off) ----
  std::atomic<std::uint64_t> snapshots_written_{0};
  std::uint64_t snap_seq_ = 0;  ///< last snapshot id (resize_mu_ / ctor)
  std::atomic<std::uint64_t> snap_bytes_floor_{0};

  // ---- transaction state (src/txn/; see the file header) ----
  /// Commits shared, snapshot mark+dump exclusive.  Lock order where
  /// both are held: resize_mu_ then txn_mu_ (snapshot_locked); commits
  /// never take resize_mu_.
  std::shared_mutex txn_mu_;
  /// Last transaction id handed out; seeded past recovery's max id so
  /// orphan intents from a previous crash can never match a fresh
  /// commit (open_persistent).
  std::atomic<std::uint64_t> txn_seq_{0};
  /// Constructor-only: recovery replay runs through the normal op entry
  /// points, which must not auto-grow or auto-snapshot mid-replay.
  bool replaying_ = false;
};

}  // namespace wfe::kv
