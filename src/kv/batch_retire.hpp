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
// of scans at any retire_batch.  The facade's one job is the later
// retire_era stamp above.  Every kv shard and the ordered index run over
// it, and perfbench's kvbench.cpp builds its index rung over it and
// reports retire_batch and pending_retired.  The KV benches and the kv
// example run retire_batch 8, which was never measured against 1 (every
// BENCH_kv_pr*.json row that records retire_batch has 8).
//
// The adapter satisfies `tracker_for`, so the Harris-Michael buckets
// instantiate over it unchanged.  Each kv shard owns one inner tracker
// (its reclamation domain) and one BatchedTracker facade over it.
//
// What retire() and flush() write is per thread: the pending burst, its
// length and the flush count live in the thread's padded slot, and the
// stats readers (pending_retired, batch_flushes) sum the slots.

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

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

  // ---- the adapter's reason to exist: the later retire_era stamp ----
  void retire(reclaim::Block* b, unsigned tid) noexcept {
    auto& p = pending_[tid];
    b->retire_next = p.head;
    p.head = b;
    if (p.count.fetch_add(1, std::memory_order_relaxed) + 1 >= batch_)
      flush(tid);
  }

  /// Hands tid's pending burst to the inner tracker (called when a batch
  /// fills; also useful before a long idle period, since buffered blocks
  /// are invisible to the inner tracker's scans until flushed).
  void flush(unsigned tid) noexcept {
    auto& p = pending_[tid];
    reclaim::Block* b = p.head;
    p.head = nullptr;
    p.count.store(0, std::memory_order_relaxed);
    while (b != nullptr) {
      reclaim::Block* next = b->retire_next;
      inner_.retire(b, tid);
      b = next;
    }
    p.flushes.fetch_add(1, std::memory_order_relaxed);
  }

  /// Every thread's buffer; only valid when no thread is mid-operation
  /// (shard teardown).
  void flush_all_unsafe() noexcept {
    for (unsigned t = 0; t < pending_.size(); ++t)
      if (pending_[t].head != nullptr) flush(t);
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
    /// Flushes of this buffer.  Counted per thread, on the owner's
    /// padded slot: a facade-wide counter would share a line with the
    /// fields every op of every thread reads.
    std::atomic<std::uint64_t> flushes{0};
  };

  Inner& inner_;
  unsigned batch_;
  reclaim::detail::PerThread<Pending> pending_;
};

}  // namespace wfe::kv
