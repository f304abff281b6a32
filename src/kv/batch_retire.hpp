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
// A burst neither amortizes nor concentrates reclamation: every facade
// retire pays one installment of the inner tracker's last cleanup pass
// (reclaim::Reclaimer::installment, at most kJudgeStep blocks), and a
// flush only lists its burst (Reclaimer::list), which counts down to the
// next pass exactly as unbatched retires would.  So a domain runs the
// same passes at any retire_batch, and the put whose burst fills judges
// no more blocks than any other put unless a pass falls due in it.
// Handing the burst to retire() instead pays up to retire_batch
// installments in that one put: at retire_batch 8 such puts were nine in
// ten of perfbench read90's p98-p99.5 writes.  The facade's one job is
// the later retire_era stamp above.  Every kv shard and the ordered
// index run over it, and perfbench's kvbench.cpp builds its index rung
// over it and reports retire_batch and pending_retired.  The KV benches
// and the kv example run retire_batch 8.  Against 1 (kvbench's batch
// set to 1, nothing else changed; 4 alternating 10 s pairs per workload,
// 4-vCPU x86 host), batch 1 read read90 write p99 -3.7% (4 of 4 pairs)
// and throughput +0.5%, and read50 throughput -0.7%, write p50 +0.9% and
// write p99 -0.7%; every other median moved under 1%.  So the facade no
// longer trades the tail write for the median one; whether it stays is
// still open.
//
// The adapter satisfies `tracker_for`, so the Harris-Michael buckets
// instantiate over it unchanged.  Each kv shard owns one inner tracker
// (its reclamation domain) and one BatchedTracker facade over it.
// alloc() and dealloc() pass straight through, so a shard's nodes and
// cells come from, and go back to, the domain's per-thread free lists
// (reclaim/tracker.hpp); a buffered block reaches them only after the
// inner tracker has retired and reclaimed it.
//
// What retire() and flush() write is per thread: the pending burst, its
// length and the flush count live in the thread's padded slot, and the
// stats readers (pending_retired, batch_flushes) sum the slots.  The
// length and the flush count are owned lanes (util::owned_add): only the
// slot's thread writes them, so they take a relaxed load and store, not
// a lock-prefixed RMW.

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "reclaim/block.hpp"
#include "reclaim/tracker.hpp"
#include "util/atomics.hpp"
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
  /// Pays one installment of the inner tracker's last pass, then buffers
  /// b, and hands the burst over when it fills.
  void retire(reclaim::Block* b, unsigned tid) noexcept {
    inner_.installment(tid);
    auto& p = pending_[tid];
    b->retire_next = p.head;
    p.head = b;
    const std::uint64_t n = p.count.load(std::memory_order_relaxed) + 1;
    p.count.store(n, std::memory_order_relaxed);  // owned lane
    if (n >= batch_) flush(tid);
  }

  /// Lists tid's pending burst on the inner tracker, one list() per
  /// block, which runs a pass when one falls due and judges nothing else
  /// (called when a batch fills; also useful before a long idle period,
  /// since buffered blocks are invisible to the inner tracker's scans
  /// until flushed).
  void flush(unsigned tid) noexcept {
    auto& p = pending_[tid];
    reclaim::Block* b = p.head;
    p.head = nullptr;
    p.count.store(0, std::memory_order_relaxed);
    while (b != nullptr) {
      reclaim::Block* next = b->retire_next;
      inner_.list(b, tid);
      b = next;
    }
    util::owned_add(p.flushes);
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
    /// Owned lane, relaxed-readable by stats snapshots.
    std::atomic<std::uint64_t> count{0};
    /// Flushes of this buffer, an owned lane too.  Counted per thread, on
    /// the owner's padded slot: a facade-wide counter would share a line
    /// with the fields every op of every thread reads.
    std::atomic<std::uint64_t> flushes{0};
  };

  Inner& inner_;
  unsigned batch_;
  reclaim::detail::PerThread<Pending> pending_;
};

}  // namespace wfe::kv
