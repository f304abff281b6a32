#pragma once
// Batched-retire adapter: wraps any tracker and buffers retire() calls
// per thread, handing blocks to the inner tracker in bursts of
// `retire_batch` (TrackerConfig).
//
// Why this is safe for every scheme: a block sitting in the pending
// buffer is already unlinked (unreachable from the structure) but not
// yet *retired* — its retire_era is stamped only when the burst is
// flushed.  Era/epoch schemes therefore see a LATER retire_era, i.e. a
// longer perceived lifespan, which is strictly conservative; pointer
// schemes (HP) simply scan it later.
//
// A burst amortizes nothing: flush() hands each block to the inner
// tracker's retire(), which ticks the cleanup_freq counter and scans
// exactly as an unbatched retire would, so a domain runs the same number
// of scans at any retire_batch.  The facade's jobs are the WAL free gate
// below and the later retire_era stamp above.  The KV benches and the
// kv example run retire_batch 8, which was never measured against 1
// (every BENCH_kv_pr*.json row that records retire_batch has 8).
//
// The adapter satisfies `tracker_for`, so the Harris-Michael buckets
// instantiate over it unchanged.  Each kv shard owns one inner tracker
// (its reclamation domain) and one BatchedTracker facade over it.
//
// What retire() and flush() write is per thread: the pending burst, its
// length and the flush count live in the thread's padded slot, and the
// stats readers (pending_retired, batch_flushes) sum the slots.
//
// Durability gate (src/persist/): when a shard WAL is attached via
// set_wal(), every retired block is stamped with the stream's
// appended-LSN at unlink time, and a burst hands a block to the inner
// tracker only once the durable-LSN watermark covers its stamp.  The
// retire pipeline thereby becomes the durability barrier the paper's
// domain design composes with: a displaced value cell (or unlinked
// node) cannot be freed — and its memory cannot be recycled into a new
// record — before the write that superseded it is on disk.  The stamp
// is conservative (the whole stream's appended-LSN, not the single
// superseding record), which only ever delays a free.  Teardown
// (flush_all_unsafe) bypasses the gate: by then the WAL has either
// closed durably or simulated a crash, and the process memory is being
// torn down anyway.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "persist/group_commit.hpp"
#include "reclaim/block.hpp"
#include "reclaim/tracker.hpp"
#include "util/cacheline.hpp"

namespace wfe::kv {

template <reclaim::tracker_for Inner>
class BatchedTracker {
 public:
  explicit BatchedTracker(Inner& inner)
      : inner_(inner),
        batch_(inner.config().retire_batch == 0 ? 1
                                                : inner.config().retire_batch),
        pending_(inner.max_threads()) {}

  ~BatchedTracker() { flush_all_unsafe(); }

  BatchedTracker(const BatchedTracker&) = delete;
  BatchedTracker& operator=(const BatchedTracker&) = delete;

  static constexpr const char* name() noexcept { return Inner::name(); }

  Inner& inner() noexcept { return inner_; }
  const Inner& inner() const noexcept { return inner_; }
  unsigned max_threads() const noexcept { return inner_.max_threads(); }
  unsigned retire_batch() const noexcept { return batch_; }

  // ---- pass-through protection API ----
  void begin_op(unsigned tid) noexcept { inner_.begin_op(tid); }
  void end_op(unsigned tid) noexcept { inner_.end_op(tid); }
  void clear_slot(unsigned idx, unsigned tid) noexcept {
    inner_.clear_slot(idx, tid);
  }
  void copy_slot(unsigned from, unsigned to, unsigned tid) noexcept {
    inner_.copy_slot(from, to, tid);
  }
  std::uintptr_t protect_word(const std::atomic<std::uintptr_t>& src,
                              unsigned idx, unsigned tid,
                              const reclaim::Block* parent = nullptr) noexcept {
    return inner_.protect_word(src, idx, tid, parent);
  }

  template <class T, class... Args>
  T* alloc(unsigned tid, Args&&... args) {
    return inner_.template alloc<T>(tid, std::forward<Args>(args)...);
  }

  void dealloc(reclaim::Block* b, unsigned tid) noexcept {
    inner_.dealloc(b, tid);
  }

  /// Attaches the shard's WAL stream: from now on retires are stamped
  /// and their frees gated on the durable-LSN watermark.
  void set_wal(const persist::ShardWal* wal) noexcept { wal_ = wal; }

  // ---- the adapter's reason to exist: the stamp and the gate ----
  void retire(reclaim::Block* b, unsigned tid) noexcept {
    auto& p = pending_[tid];
    // Stamp = the stream's NEXT LSN: a mutation unlinks (and retires)
    // the displaced block BEFORE appending its own record, so the
    // superseding record is the next one this thread reserves — the
    // stamp covers it exactly.  If other appenders race into that
    // window the gate can under-wait by their few interleaved records;
    // that narrows the policy, never crash consistency (recovery reads
    // only the log).  Retires with no subsequent append on the stream
    // (helper unlinks in read-only ops, migration drains) ride until
    // the stream's next append or the teardown bypass.
    b->persist_lsn = wal_ == nullptr ? 0 : wal_->appended_lsn() + 1;
    if (p.head == nullptr) p.oldest_lsn = b->persist_lsn;
    b->retire_next = p.head;
    p.head = b;
    p.count.fetch_add(1, std::memory_order_relaxed);
    // Don't walk the burst while the gate would hold even its oldest
    // block — the watermark has to advance before a flush can help.
    if (p.count.load(std::memory_order_relaxed) >= batch_ &&
        (wal_ == nullptr || wal_->durable_lsn() >= p.oldest_lsn))
      flush(tid);
  }

  /// Hands tid's pending burst to the inner tracker (called when a batch
  /// fills; also useful before a long idle period, since buffered blocks
  /// are invisible to the inner tracker's scans until flushed).  With a
  /// WAL attached, blocks whose stamp the durable watermark has not
  /// reached stay buffered for a later flush.
  void flush(unsigned tid) noexcept {
    auto& p = pending_[tid];
    const std::uint64_t durable =
        wal_ == nullptr ? ~std::uint64_t{0} : wal_->durable_lsn();
    reclaim::Block* b = p.head;
    reclaim::Block* kept_head = nullptr;
    std::uint64_t kept = 0;
    std::uint64_t oldest = ~std::uint64_t{0};
    p.head = nullptr;
    while (b != nullptr) {
      reclaim::Block* next = b->retire_next;
      if (b->persist_lsn <= durable) {
        inner_.retire(b, tid);
      } else {
        b->retire_next = kept_head;
        kept_head = b;
        ++kept;
        oldest = std::min(oldest, b->persist_lsn);
      }
      b = next;
    }
    p.head = kept_head;
    p.oldest_lsn = kept == 0 ? 0 : oldest;
    p.count.store(kept, std::memory_order_relaxed);
    p.flushes.fetch_add(1, std::memory_order_relaxed);
  }

  /// Every thread's buffer, gate bypassed; only valid when no thread is
  /// mid-operation (shard teardown).
  void flush_all_unsafe() noexcept {
    for (unsigned t = 0; t < pending_.size(); ++t) {
      auto& p = pending_[t];
      if (p.head == nullptr) continue;
      reclaim::Block* b = p.head;
      p.head = nullptr;
      p.count.store(0, std::memory_order_relaxed);
      while (b != nullptr) {
        reclaim::Block* next = b->retire_next;
        inner_.retire(b, t);
        b = next;
      }
      p.flushes.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // ---- observability (racy snapshots, same contract as TrackerBase) ----
  /// Unlinked blocks buffered here, not yet handed to the inner tracker.
  std::uint64_t pending_retired() const noexcept {
    std::uint64_t n = 0;
    for (unsigned t = 0; t < pending_.size(); ++t)
      n += pending_[t].count.load(std::memory_order_relaxed);
    return n;
  }
  /// One thread's share of the buffer (tests; the partial batch a thread
  /// must flush before exiting).
  std::uint64_t pending_count(unsigned tid) const noexcept {
    return pending_[tid].count.load(std::memory_order_relaxed);
  }
  /// Bursts handed to the inner tracker, summed over the threads.
  std::uint64_t batch_flushes() const noexcept {
    std::uint64_t n = 0;
    for (unsigned t = 0; t < pending_.size(); ++t)
      n += pending_[t].flushes.load(std::memory_order_relaxed);
    return n;
  }

 private:
  struct Pending {
    reclaim::Block* head{nullptr};
    /// Owner-written, relaxed-readable by stats snapshots.
    std::atomic<std::uint64_t> count{0};
    /// Smallest persist_lsn in the buffer (owner-only; gate fast check).
    std::uint64_t oldest_lsn{0};
    /// Flushes of this buffer.  Counted per thread, on the owner's
    /// padded slot: a facade-wide counter would share a line with the
    /// fields every op of every thread reads.
    std::atomic<std::uint64_t> flushes{0};
  };

  Inner& inner_;
  const persist::ShardWal* wal_ = nullptr;
  unsigned batch_;
  reclaim::detail::PerThread<Pending> pending_;
};

}  // namespace wfe::kv
