#pragma once
// Snapshot stats for the sharded kv store.
//
// Two layers: per-shard (one reclamation domain each) and the aggregate.
// All numbers are racy relaxed reads — consistent enough for dashboards
// and benches, never used for correctness.  Built on
// util::PerThreadCounter (util/stats.hpp) so the hot path stays an
// uncontended relaxed increment.

#include <cstdint>
#include <vector>

#include "util/json.hpp"
#include "util/stats.hpp"

namespace wfe::kv {

/// One shard = one reclamation domain.  `slow_path_entries` is WFE-only
/// (0 for other schemes): how often readers in this domain fell off the
/// wait-free fast path and requested helping (paper §3.3).
struct ShardStats {
  unsigned shard = 0;

  // Operation counts since construction.
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t removes = 0;
  std::uint64_t updates = 0;

  // Reclamation-domain counters (TrackerBase).
  std::uint64_t allocated = 0;
  std::uint64_t freed = 0;
  std::uint64_t retired = 0;
  std::uint64_t unreclaimed = 0;     ///< retired, not yet freed
  std::uint64_t retire_backlog = 0;  ///< queued on the domain's retire lists
  std::uint64_t pending_retired = 0; ///< buffered in the batch adapter
  std::uint64_t batch_flushes = 0;
  std::uint64_t slow_path_entries = 0;  ///< WFE help requests (else 0)
  /// Old value cells retired by in-place upserts (put/update on a
  /// present key); the retire traffic that used to be whole nodes.
  std::uint64_t value_cell_retires = 0;
  /// Operations that arrived through multi_get/multi_put (grouped into
  /// one tracker session per shard).
  std::uint64_t batched_ops = 0;
  /// Keys copied INTO this shard by a resize migration (allocated in
  /// this shard's domain; not user puts).
  std::uint64_t migrated_in = 0;
  /// Single-key compare-and-swap calls resolved in this shard (both
  /// swapped and expectation-mismatch outcomes).
  std::uint64_t cas_ops = 0;
  /// Per-key effects installed here by multi-key transaction commits
  /// (KvStore::txn_commit slices; also counted in batched_ops).
  std::uint64_t txn_ops = 0;

  // ---- durability (0 when persistence is disabled) ----
  std::uint64_t wal_appended_lsn = 0;  ///< last LSN reserved on the stream
  std::uint64_t wal_durable_lsn = 0;   ///< durable watermark
  /// appended − durable (clamped): how far this stream's group commit is
  /// behind its mutators.  In total() this aggregates as the MAX over
  /// shards — the LSN fields themselves are per-stream ordinals and stay
  /// zero there, since a sum of LSNs means nothing.
  std::uint64_t wal_durable_lag = 0;
  std::uint64_t wal_fsyncs = 0;
  /// Appends that found the stream ring full and sat in the capped
  /// backoff of ShardWal::wait_ring_space (one count per episode).
  std::uint64_t wal_backpressure_waits = 0;

  std::uint64_t ops() const noexcept { return gets + puts + removes + updates; }
};

/// Ledger of one completed resize: every source-domain retire of the
/// migration is accounted here.  Since cooperative migration the ledger
/// is merged from EVERY thread that claimed a bucket (resizer and
/// helpers alike) — each bucket contributes exactly once, guarded by
/// its claim word, so the closing identities (asserted by the reshard
/// suites) hold exactly even with concurrent helpers:
/// cells_retired == migrated_keys (exactly the live cells copied) and
/// nodes_retired >= migrated_keys (dead nodes whose removers could not
/// unlink past the freeze are drained too).
struct ResizeRecord {
  std::uint64_t epoch = 0;        ///< table epoch created by this resize
  std::uint64_t from_shards = 0;
  std::uint64_t to_shards = 0;
  std::uint64_t migrated_keys = 0;   ///< live pairs copied to the new table
  std::uint64_t nodes_retired = 0;   ///< source-domain node retires (drain)
  std::uint64_t cells_retired = 0;   ///< source-domain cell retires (drain)
  /// Buckets whose copy+drain ran on a NON-resizer thread (an op that
  /// observed the freeze, claimed the bucket and migrated it itself).
  std::uint64_t helped_buckets = 0;
};

struct KvStats {
  std::vector<ShardStats> shards;  ///< the CURRENT table's shards

  // ---- store-level resharding counters ----
  std::uint64_t table_epoch = 0;     ///< current table's epoch (1 = initial)
  std::uint64_t shard_count = 0;     ///< current table's shard count
  std::uint64_t resize_epochs = 0;   ///< completed resizes
  std::uint64_t migrated_keys = 0;   ///< keys copied across all resizes
  /// Operations that observed a frozen bucket (or a table promoted under
  /// them) and re-executed against a forwarded table.
  std::uint64_t forwarded_ops = 0;
  /// Buckets migrated by helpers (ops that claimed the bucket they were
  /// blocked on and ran the copy+drain themselves), across all resizes.
  std::uint64_t helped_buckets = 0;
  /// Wait episodes that lost the claim race and fell back to capped
  /// backoff while another thread migrated the bucket.
  std::uint64_t help_conflicts = 0;
  std::vector<ResizeRecord> resizes; ///< one ledger entry per resize

  // ---- durability (src/persist/) ----
  bool persist_enabled = false;
  std::uint64_t snapshots_written = 0;  ///< compactions since open

  // ---- transactions (src/txn/) ----
  std::uint64_t txn_commits = 0;  ///< multi-key commits completed

  // ---- ordered index & range scans (zeros when disabled) ----
  bool ordered_index = false;
  std::uint64_t scan_ops = 0;       ///< scan()/range_get() calls completed
  std::uint64_t scan_keys = 0;      ///< keys visited across all scans
  std::uint64_t scan_restarts = 0;  ///< index descents restarted mid-splice
  /// Reclamation ledger of the secondary index's own tracker domain
  /// (op-lane counters stay zero; `allocated` has the index BST's
  /// construction-time sentinel blocks already subtracted, so the
  /// 3-blocks-per-live-key identity of tests/kv_balance.hpp closes on
  /// it directly).
  ShardStats index;

  // ---- admission control (src/admit/; zeros when disabled) ----
  bool admit_enabled = false;
  double admit_write_rate = 0;   ///< current token-bucket rate, ops/s
  double admit_severity = 0;     ///< smoothed overload severity (1.0 = at target)
  std::uint64_t admit_shed_writes = 0;     ///< write ops refused
  std::uint64_t admit_shed_reads = 0;      ///< read ops refused
  std::uint64_t admit_throttle_waits = 0;  ///< writes that waited on the bucket

  ShardStats total() const noexcept {
    ShardStats t;
    for (const ShardStats& s : shards) {
      t.gets += s.gets;
      t.puts += s.puts;
      t.removes += s.removes;
      t.updates += s.updates;
      t.allocated += s.allocated;
      t.freed += s.freed;
      t.retired += s.retired;
      t.unreclaimed += s.unreclaimed;
      t.retire_backlog += s.retire_backlog;
      t.pending_retired += s.pending_retired;
      t.batch_flushes += s.batch_flushes;
      t.slow_path_entries += s.slow_path_entries;
      t.value_cell_retires += s.value_cell_retires;
      t.batched_ops += s.batched_ops;
      t.migrated_in += s.migrated_in;
      t.cas_ops += s.cas_ops;
      t.txn_ops += s.txn_ops;
      if (s.wal_durable_lag > t.wal_durable_lag)
        t.wal_durable_lag = s.wal_durable_lag;
      t.wal_fsyncs += s.wal_fsyncs;
      t.wal_backpressure_waits += s.wal_backpressure_waits;
    }
    return t;
  }
};

/// Serializes one ShardStats as a flat JSON object (shared by the kv
/// bench's BENCH_kv.json and any future stats endpoint).
inline void to_json(util::JsonWriter& j, const ShardStats& s) {
  j.begin_object();
  j.kv("shard", s.shard);
  j.kv("gets", s.gets);
  j.kv("puts", s.puts);
  j.kv("removes", s.removes);
  j.kv("updates", s.updates);
  j.kv("allocated", s.allocated);
  j.kv("freed", s.freed);
  j.kv("retired", s.retired);
  j.kv("unreclaimed", s.unreclaimed);
  j.kv("retire_backlog", s.retire_backlog);
  j.kv("pending_retired", s.pending_retired);
  j.kv("batch_flushes", s.batch_flushes);
  j.kv("slow_path_entries", s.slow_path_entries);
  j.kv("value_cell_retires", s.value_cell_retires);
  j.kv("batched_ops", s.batched_ops);
  j.kv("migrated_in", s.migrated_in);
  j.kv("cas_ops", s.cas_ops);
  j.kv("txn_ops", s.txn_ops);
  j.kv("wal_appended_lsn", s.wal_appended_lsn);
  j.kv("wal_durable_lsn", s.wal_durable_lsn);
  j.kv("wal_durable_lag", s.wal_durable_lag);
  j.kv("wal_fsyncs", s.wal_fsyncs);
  j.kv("wal_backpressure_waits", s.wal_backpressure_waits);
  j.end_object();
}

/// Serializes one resize ledger entry (bench resize sweep rows).
inline void to_json(util::JsonWriter& j, const ResizeRecord& r) {
  j.begin_object();
  j.kv("epoch", r.epoch);
  j.kv("from_shards", r.from_shards);
  j.kv("to_shards", r.to_shards);
  j.kv("migrated_keys", r.migrated_keys);
  j.kv("nodes_retired", r.nodes_retired);
  j.kv("cells_retired", r.cells_retired);
  j.kv("helped_buckets", r.helped_buckets);
  j.end_object();
}

}  // namespace wfe::kv
