#pragma once
// One kv-store shard: an independent reclamation domain (its own tracker
// instance built from a per-shard TrackerConfig) plus a Harris-Michael
// bucket array instantiated over the batched-retire facade.
//
// Domain isolation is the design point: retire lists, era/epoch
// counters, reservation scans and (for WFE) help-request traffic are all
// per-tracker state, so giving each shard its own tracker means
//   * a stalled reader pins garbage only in ITS shard,
//   * retire-side scans are O(threads x slots) over one domain, not the
//     whole store,
//   * era bumps in hot shards don't dilate lifespans in cold ones.
// Cross-shard operations never share tracker state, so shards scale
// embarrassingly until the keyspace itself is contended.
//
// Sessions: the buckets' try_* ops run unbracketed, inside a tracker
// session the shard opens — in_session around each single-key op,
// run_group around a whole multi-op slice.  WAL acks wait until the
// session is closed.
//
// Destruction order matters and is encoded by member order below:
// map_ (deallocs live nodes) -> batched_ (flushes pending bursts into
// tracker_) -> tracker_ (drains its retire lists).  C++ destroys members
// in reverse declaration order, so tracker_ is declared first.
//
// Durability (src/persist/): when the store attaches a WAL stream via
// attach_wal(), every COMPLETED mutation appends one record AFTER its
// memory effect — apply-then-append is what makes the fuzzy snapshot
// consistent (persist/snapshot.hpp).  Reclamation never waits on the
// stream: ShardWal::append copies key and value into its ring, so a
// displaced block goes to the domain tracker on the ordinary retire
// path whatever the durable-LSN watermark says.  The net record set is
// minimal: a value write (put, insert, update, cas) that changed the key
// logs one PUT, a successful remove logs one REMOVE, failed ops and
// migrate_in log nothing (migrated pairs are reconstructed from their
// source epoch's records).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ds/hash_map.hpp"
#include "kv/batch_retire.hpp"
#include "kv/stats.hpp"
#include "persist/group_commit.hpp"
#include "reclaim/tracker.hpp"
#include "util/stats.hpp"

namespace wfe::kv {

template <class K, class V, reclaim::tracker_for Tracker>
class Shard {
 public:
  using Facade = BatchedTracker<Tracker>;
  using Map = ds::BucketArray<K, V, Facade>;
  static constexpr unsigned kSlotsNeeded = Map::kSlotsNeeded;

  Shard(const reclaim::TrackerConfig& cfg, std::size_t buckets)
      : tracker_(cfg),
        batched_(tracker_),
        map_(batched_, buckets),
        ops_(cfg.max_threads) {}

  /// Attaches this shard's WAL stream: completed mutations start
  /// logging to it.  Called before the shard takes traffic (table
  /// construction / end of recovery).
  void attach_wal(persist::ShardWal* wal) noexcept { wal_ = wal; }
  persist::ShardWal* wal() const noexcept { return wal_; }

  // ---- plain ops for a standalone shard (one that never freezes):
  // each wraps its try_* twin, so op counting and WAL logging live in
  // one place. ----

  std::optional<V> get(const K& key, unsigned tid) {
    std::optional<V> out;
    while (!try_get(key, tid, out)) {}
    return out;
  }
  /// Insert-or-replace, in place; true when the key was absent.
  bool put(const K& key, const V& value, unsigned tid) {
    ds::UpsertOutcome out;
    while (!try_upsert<ds::Upsert::kPut>(key, value, tid, out)) {}
    return out.inserted;
  }
  std::optional<V> remove(const K& key, unsigned tid) {
    std::optional<V> out;
    while (!try_remove(key, tid, out)) {}
    return out;
  }

  // ---- freeze-aware variants (kv resharding), each in a session of its
  // own: false = the key's bucket is frozen and NOTHING happened; the
  // store waits for the bucket's migration flag and re-executes against
  // the destination table.  Op counters tick only on completion, so
  // shard stats never double-count a forwarded attempt (the store counts
  // those as forwarded_ops). ----

  bool try_get(const K& key, unsigned tid, std::optional<V>& out) {
    if (!try_probe(key, tid, out)) return false;
    ops_.inc(kGet, tid);
    return true;
  }
  /// try_get without the op count, for lookups the store makes on its
  /// own behalf (the ordered index's remove probe), not a user's.
  bool try_probe(const K& key, unsigned tid, std::optional<V>& out) {
    return in_session(tid, [&] { return map_.try_get(key, tid, out); });
  }
  /// The one value write (ds::Upsert: insert, put, update, or cas with
  /// `expected`).  A completed write counts one op in its mode's lane
  /// (insert and put share the put lane); a swap is exactly one
  /// value-cell retire; a write that changed the key logs one PUT.  A
  /// cas, the degenerate single-key transaction, needs none of the
  /// INTENT/COMMIT machinery: a single record is already atomic on its
  /// stream.  A write that changed nothing logs and retires nothing.
  template <ds::Upsert Mode>
  bool try_upsert(const K& key, const V& value, unsigned tid,
                  ds::UpsertOutcome& out, const V* expected = nullptr) {
    if (!in_session(tid, [&] {
          return map_.template try_upsert<Mode>(key, value, tid, out, expected);
        }))
      return false;
    ops_.inc(Mode == ds::Upsert::kUpdate ? kUpdate
             : Mode == ds::Upsert::kCas  ? kCas
                                         : kPut,
             tid);
    if (out.replaced) ops_.inc(kCellRetire, tid);
    if (out.inserted || out.replaced) ack_log(append_put(key, value));
    return true;
  }
  bool try_remove(const K& key, unsigned tid, std::optional<V>& out) {
    if (!in_session(tid, [&] { return map_.try_remove(key, tid, out); })) return false;
    ops_.inc(kRemove, tid);
    if (out.has_value()) ack_log(append_remove(key));
    return true;
  }

  // ---- shard-local halves of the store's cross-shard multi-ops: the
  // caller hands this shard its slice of the batch (positions `idx` into
  // the caller's arrays); the whole slice runs through run_group, in ONE
  // tracker session, so epoch publishing amortizes over the group.  Keys
  // whose bucket is frozen are appended to `deferred` (their out slot
  // untouched) instead of blocking inside the session — the store
  // re-dispatches them against the destination table. ----

  void multi_get(const K* keys, const std::uint32_t* idx, std::size_t n,
                 std::optional<V>* out, unsigned tid,
                 std::vector<std::uint32_t>& deferred) {
    const std::size_t done = run_group(idx, n, tid, deferred, [&](std::uint32_t j) {
      return map_.try_get(keys[j], tid, out[j]);
    });
    ops_.inc(kGet, tid, done);
  }

  /// In-place upserts for this shard's slice; returns how many keys were
  /// newly inserted (the rest were replaced in place, minus deferrals).
  std::size_t multi_put(const std::pair<K, V>* ops, const std::uint32_t* idx,
                        std::size_t n, unsigned tid,
                        std::vector<std::uint32_t>& deferred) {
    std::size_t inserted = 0;
    std::uint64_t last_lsn = 0;
    const std::size_t done = run_group(idx, n, tid, deferred, [&](std::uint32_t j) {
      const auto& [k, v] = ops[j];
      ds::UpsertOutcome out;
      if (!map_.template try_upsert<ds::Upsert::kPut>(k, v, tid, out)) return false;
      last_lsn = append_put(k, v);
      if (out.inserted) ++inserted;
      return true;
    });
    ack_log(last_lsn);  // one durability wait for the whole group
    ops_.inc(kPut, tid, done);
    ops_.inc(kCellRetire, tid, done - inserted);
    return inserted;
  }

  /// Removes for this shard's slice; out[idx[i]] receives the removed
  /// value (or nullopt).  Returns how many keys were actually present.
  std::size_t multi_remove(const K* keys, const std::uint32_t* idx,
                           std::size_t n, std::optional<V>* out, unsigned tid,
                           std::vector<std::uint32_t>& deferred) {
    std::size_t removed = 0;
    std::uint64_t last_lsn = 0;
    const std::size_t done = run_group(idx, n, tid, deferred, [&](std::uint32_t j) {
      if (!map_.try_remove(keys[j], tid, out[j])) return false;
      if (out[j].has_value()) {
        last_lsn = append_remove(keys[j]);
        ++removed;
      }
      return true;
    });
    ack_log(last_lsn);  // one durability wait for the whole group
    ops_.inc(kRemove, tid, done);
    return removed;
  }

  /// Transactional install for this shard's slice (store txn_commit):
  /// one tracker session over the group, every effect installed via the
  /// bucket's value-cell CAS, and one INTENT pair appended per buffered
  /// op — including a remove that found the key already absent.  The
  /// commit's promise is "this key is gone", and recovery may fold the
  /// txn over a stream prefix where an earlier put survived a singleton
  /// remove that the crash rewound; only an unconditional remove pair
  /// re-erases the key there (replaying it over an absent key is a
  /// no-op, so logging it costs nothing but the record).  `Op`
  /// is any type with .key/.value/.is_remove (txn::TxnOp) — a template
  /// so this header stays independent of src/txn/.  `last_lsn` reports
  /// the newest pair's durability point for the store's commit-time
  /// ack; `deferred` collects frozen-bucket positions for re-dispatch
  /// exactly like multi_put.
  struct TxnSlice {
    std::size_t pairs = 0;     ///< intent pairs appended (= effects)
    std::size_t inserted = 0;  ///< upserts that found the key absent
    std::size_t removed = 0;   ///< removes that found the key present
    std::uint64_t last_lsn = 0;  ///< newest pair's payload LSN (ack point)
  };

  template <class Op>
  TxnSlice txn_apply(const Op* ops, const std::uint32_t* idx, std::size_t n,
                     std::uint64_t txn_id, unsigned tid,
                     std::vector<std::uint32_t>& deferred) {
    TxnSlice r;
    std::size_t replaced = 0;
    r.pairs = run_group(idx, n, tid, deferred, [&](std::uint32_t j) {
      const Op& op = ops[j];
      if (op.is_remove) {
        std::optional<V> v;
        if (!map_.try_remove(op.key, tid, v)) return false;
        if (v.has_value()) ++r.removed;
      } else {
        ds::UpsertOutcome out;
        if (!map_.template try_upsert<ds::Upsert::kPut>(op.key, op.value, tid, out))
          return false;
        if (out.inserted)
          ++r.inserted;
        else
          ++replaced;
      }
      r.last_lsn = append_txn_pair(txn_id, op.is_remove, op.key, op.value);
      return true;
    });
    ops_.inc(kTxnOps, tid, r.pairs);
    ops_.inc(kCellRetire, tid, replaced);
    return r;
  }

  // ---- migration halves (kv resharding) ----

  /// Bucket a key routes to inside this shard (forward-wait addressing).
  std::size_t bucket_index(const K& key) const noexcept {
    return map_.bucket_index(key);
  }

  /// Destination-side copy: allocate the key's node and value cell in
  /// THIS shard's domain.  Not a user op — counted in its own lane, and
  /// the key is always absent here (each key migrates exactly once:
  /// helpers and the resizer are serialized per bucket by the store's
  /// claim word).  Runs under the copier's OWN tracker session in this
  /// destination domain, so a helper never needs the resizer's slots.
  void migrate_in(const K& key, const V& value, unsigned tid) {
    ops_.inc(kMigratedIn, tid);
    map_.insert(key, value, tid);
  }

  /// Source-side: freeze bucket `b` (idempotent; any thread, its own
  /// tracker slots — resizer freeze-ahead and helper re-freeze overlap
  /// harmlessly).
  void freeze_bucket(std::size_t b, unsigned tid) {
    map_.freeze_bucket(b, tid);
  }

  /// Source-side: collect bucket `b`'s live pairs.  Only valid for the
  /// bucket's claim holder, and only after its OWN freeze walk of `b`
  /// completed: a helper calls freeze_bucket first (idempotent even when
  /// another thread froze it), while the resizer's freeze-ahead cursor is
  /// already past `b`.
  void collect_bucket(std::size_t b, std::vector<std::pair<K, V>>& pairs,
                      std::vector<bool>& node_live) const {
    map_.collect_frozen_bucket(b, pairs, node_live);
  }

  /// Source-side: pop the frozen bucket and retire its blocks in this
  /// shard's domain; returns {nodes, cells} retired.
  std::pair<std::size_t, std::size_t> drain_bucket(
      std::size_t b, unsigned tid, const std::vector<bool>& node_live) {
    return map_.drain_frozen(b, tid, node_live);
  }

  std::size_t size_unsafe() const noexcept { return map_.size_unsafe(); }
  std::size_t bucket_count() const noexcept { return map_.bucket_count(); }

  template <class Fn>
  void for_each_unsafe(Fn&& fn) const {
    map_.for_each_unsafe(fn);
  }

  /// Concurrency-safe iteration (snapshot dumps; see BucketArray).
  template <class Fn>
  bool for_each_protected(unsigned tid, Fn&& fn) {
    return map_.for_each_protected(tid, fn);
  }

  /// Hand this thread's buffered retire burst to the domain tracker.
  void flush_retired(unsigned tid) noexcept { batched_.flush(tid); }

  Tracker& tracker() noexcept { return tracker_; }
  const Tracker& tracker() const noexcept { return tracker_; }

  ShardStats stats() const noexcept {
    ShardStats s;
    s.shard = tracker_.config().domain_id;
    s.gets = ops_.sum(kGet);
    s.puts = ops_.sum(kPut);
    s.removes = ops_.sum(kRemove);
    s.updates = ops_.sum(kUpdate);
    s.allocated = tracker_.allocated();
    s.freed = tracker_.freed();
    s.retired = tracker_.retired();
    s.unreclaimed = tracker_.unreclaimed();
    s.cached_blocks = tracker_.cached_blocks();
    s.pending_retired = batched_.pending_retired();
    s.batch_flushes = batched_.batch_flushes();
    if constexpr (requires(const Tracker& t) { t.slow_path_entries(); })
      s.slow_path_entries = tracker_.slow_path_entries();
    s.value_cell_retires = ops_.sum(kCellRetire);
    s.batched_ops = ops_.sum(kBatched);
    s.migrated_in = ops_.sum(kMigratedIn);
    s.cas_ops = ops_.sum(kCas);
    s.txn_ops = ops_.sum(kTxnOps);
    if (wal_ != nullptr) {
      s.wal_appended_lsn = wal_->appended_lsn();
      s.wal_durable_lsn = wal_->durable_lsn();
      // Clamped: the two watermarks are read racily and the flusher may
      // publish durable between the loads.
      s.wal_durable_lag = s.wal_appended_lsn > s.wal_durable_lsn
                              ? s.wal_appended_lsn - s.wal_durable_lsn
                              : 0;
      s.wal_fsyncs = wal_->fsyncs();
      s.wal_backpressure_waits = wal_->backpressure_waits();
    }
    return s;
  }

 private:
  enum OpLane : unsigned {
    kGet, kPut, kRemove, kUpdate, kCellRetire, kBatched, kMigratedIn,
    kCas, kTxnOps, kLanes
  };

  /// The single-key ops' session: one begin_op/end_op around one bucket
  /// op, so forwarding waits and the WAL ack run outside it.
  template <class Op>
  bool in_session(unsigned tid, Op&& op) {
    batched_.begin_op(tid);
    const bool done = op();
    batched_.end_op(tid);
    return done;
  }

  /// The multi-ops' group loop: `step(j)` runs position j's bucket op
  /// inside ONE session for the whole slice and returns false when the
  /// bucket is frozen (nothing happened), which defers j.  Returns how
  /// many positions completed.
  template <class Step>
  std::size_t run_group(const std::uint32_t* idx, std::size_t n, unsigned tid,
                        std::vector<std::uint32_t>& deferred, Step&& step) {
    std::size_t done = 0;
    batched_.begin_op(tid);
    for (std::size_t i = 0; i < n; ++i) {
      if (step(idx[i]))
        ++done;
      else
        deferred.push_back(idx[i]);
    }
    batched_.end_op(tid);
    ops_.inc(kBatched, tid, done);
    return done;
  }

  /// One record per completed mutation, appended AFTER its memory effect
  /// and acked by ack_log only once the tracker session is closed: under
  /// sync=always the ack is a blocking fsync, which inside the session
  /// would stall the whole domain's reclamation (a group acks once, for
  /// its newest record).  The appenders return the record's LSN, 0
  /// without an attached WAL; the if-constexpr keeps non-encodable K/V
  /// instantiable (they simply can't attach a WAL — the store enforces
  /// that at open).
  std::uint64_t append_put(const K& key, const V& value) {
    if constexpr (persist::wal_encodable<K> && persist::wal_encodable<V>) {
      if (wal_ != nullptr)
        return wal_->append(persist::RecordType::kPut, persist::encode(key),
                            persist::encode(value));
    }
    return 0;
  }
  std::uint64_t append_remove(const K& key) {
    if constexpr (persist::wal_encodable<K>) {
      if (wal_ != nullptr)
        return wal_->append(persist::RecordType::kRemove,
                            persist::encode(key), 0);
    }
    return 0;
  }
  void ack_log(std::uint64_t lsn) {
    if (wal_ != nullptr) wal_->ack(lsn);
  }

  /// One INTENT pair (atomically reserved: the TXN_DATA payload sits at
  /// exactly the intent's lsn + 1); `value` is not logged for a remove.
  /// Returns the pair's second LSN, which txn_commit acks.
  std::uint64_t append_txn_pair(std::uint64_t txn_id, bool is_remove,
                                const K& key, const V& value) {
    if constexpr (persist::wal_encodable<K> && persist::wal_encodable<V>) {
      if (wal_ != nullptr)
        return wal_->append2(
            persist::RecordType::kTxnIntent, txn_id,
            is_remove ? persist::kTxnFlagRemove : 0,
            persist::RecordType::kTxnData, persist::encode(key),
            is_remove ? 0 : persist::encode(value));
    }
    return 0;
  }

  Tracker tracker_;  ///< the shard's reclamation domain
  Facade batched_;
  Map map_;
  persist::ShardWal* wal_ = nullptr;  ///< owned by the store's Table
  util::PerThreadCounters<kLanes> ops_;
};

}  // namespace wfe::kv
