#pragma once
// Tracker policy interface shared by all reclamation schemes.
//
// Data structures are templated over a Tracker type; the `tracker_for`
// concept below documents (and enforces at instantiation time) the duck
// type.  All schemes implement:
//
//   begin_op(tid)   — enter a data-structure operation (EBR/IBR publish a
//                     reservation here; pointer/era schemes no-op)
//   end_op(tid)     — leave the operation; clears all reservations
//   protect_word(...)— hazardous read of a word (HE `get_protected`); WFE
//                     adds the `parent` block argument (paper §3.4).  The
//                     typed read is the free reclaim::protect below, one
//                     cast over protect_word for every scheme
//   clear_slot(...) — drop one reservation
//   copy_slot(...)  — slot `to` takes over what slot `from` protects; a
//                     value `to` already holds may be left unstored: the
//                     slot has one writer, so scanners already see it, and
//                     protect_word publishes and validates on its own.
//                     Direction contract: `to` < `from`, always.  Scans
//                     read each thread's slots from the highest index
//                     down; the copy's store to `to` precedes the owner's
//                     next store to `from`, and both are seq_cst, so a
//                     scan that misses the value in `from` finds it in `to`
//   retire(...)     — unlink-then-retire a block
//   alloc<T>(...)   — allocate a node and stamp its alloc era
//   dealloc(...)    — immediate free for quiescent teardown paths
//
// TrackerBase's destructor frees whatever the retire lists still hold, so
// no scheme writes its own teardown.
//
// Thread identity is an explicit slot id in [0, max_threads), chosen by
// the caller: the harness, benches and examples pass each worker's
// index, and no two concurrent threads may share a slot.

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "reclaim/block.hpp"
#include "util/cacheline.hpp"

namespace wfe::reclaim {

/// Tuning knobs, defaults following the paper's evaluation (§5):
/// era increment frequency ν=150 per thread, retire-scan frequency 30,
/// WFE fast-path attempts 16.
struct TrackerConfig {
  unsigned max_threads = 32;
  unsigned max_hes = 8;              ///< reservation slots per thread
  std::uint64_t era_freq = 150;      ///< allocs between era bumps (per thread)
  std::uint64_t cleanup_freq = 30;   ///< retires between retire-list scans
  unsigned fast_path_attempts = 16;  ///< WFE only
  bool force_slow_path = false;      ///< WFE only: stress knob (paper §5)
  // Domain-local knobs: a tracker instance is one reclamation *domain*
  // (the kv shards give every shard its own).  `domain_id` labels the
  // domain in stats output; `retire_batch` is the number of unlinked
  // blocks a BatchedTracker buffers per thread before handing them to
  // retire() in one burst (1 = unbatched).
  unsigned domain_id = 0;
  unsigned retire_batch = 1;
};

namespace detail {

/// Fixed-size array of per-thread slots, each padded to its own
/// cache-line pair to prevent false sharing of reservation metadata.
template <class T>
class PerThread {
 public:
  explicit PerThread(unsigned n) : n_(n), slots_(new util::Padded<T>[n]) {}

  T& operator[](unsigned i) noexcept { return slots_[i].value; }
  const T& operator[](unsigned i) const noexcept { return slots_[i].value; }
  unsigned size() const noexcept { return n_; }

 private:
  unsigned n_;
  std::unique_ptr<util::Padded<T>[]> slots_;
};

/// Per-thread mutable bookkeeping common to every scheme.
struct ThreadData {
  Block* retire_head{nullptr};
  /// Currently queued on the retire list.  Written only by the owning
  /// thread; atomic (relaxed) so stats snapshots may read it racily.
  std::atomic<std::uint64_t> retire_count{0};
  std::uint64_t retire_since_scan{0}; ///< cleanup_freq counter
  std::uint64_t alloc_since_bump{0};  ///< era_freq counter
  // Stats (relaxed; summed on demand by readers).
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};      ///< all destructions
  std::atomic<std::uint64_t> retires{0};
  std::atomic<std::uint64_t> reclaims{0};   ///< retired-then-freed only
};

}  // namespace detail

/// Base with the allocation/stats plumbing shared by every tracker.
/// Derived classes implement the reservation logic and `scan()`.
class TrackerBase {
 public:
  explicit TrackerBase(const TrackerConfig& cfg)
      : cfg_(cfg), threads_(cfg.max_threads) {}

  TrackerBase(const TrackerBase&) = delete;
  TrackerBase& operator=(const TrackerBase&) = delete;

  unsigned max_threads() const noexcept { return cfg_.max_threads; }
  unsigned max_hes() const noexcept { return cfg_.max_hes; }
  const TrackerConfig& config() const noexcept { return cfg_; }

  /// Total blocks ever allocated through this tracker.
  std::uint64_t allocated() const noexcept { return sum(&detail::ThreadData::allocs); }
  /// Total blocks freed (including teardown).
  std::uint64_t freed() const noexcept { return sum(&detail::ThreadData::frees); }
  /// Total blocks retired.
  std::uint64_t retired() const noexcept { return sum(&detail::ThreadData::retires); }
  /// Retired-but-not-yet-freed count — the paper's "unreclaimed objects"
  /// metric (Figs. 5b/5d and the right-hand panels of Figs. 6-11).
  std::uint64_t unreclaimed() const noexcept {
    const std::uint64_t r = retired();
    const std::uint64_t c = sum(&detail::ThreadData::reclaims);
    return r > c ? r - c : 0;
  }
  /// Allocated-but-not-freed (live + unreclaimed).
  std::uint64_t outstanding() const noexcept {
    const std::uint64_t a = allocated(), f = freed();
    return a > f ? a - f : 0;
  }
  /// Blocks currently queued on retire lists awaiting a scan (racy
  /// snapshot; the kv stats API reports this as the per-domain backlog).
  std::uint64_t retire_backlog() const noexcept {
    return sum(&detail::ThreadData::retire_count);
  }

  /// Immediate destruction for quiescent contexts (data-structure
  /// destructors).  Never call while other threads may hold references.
  void dealloc(Block* b, unsigned tid) noexcept {
    b->deleter(b);
    threads_[tid].frees.fetch_add(1, std::memory_order_relaxed);
  }

 protected:
  /// Quiescent teardown: frees every block still on a retire list.
  ~TrackerBase() { drain_all_unsafe(); }

  void count_alloc(unsigned tid) noexcept {
    threads_[tid].allocs.fetch_add(1, std::memory_order_relaxed);
  }

  void push_retired(Block* b, unsigned tid) noexcept {
    auto& td = threads_[tid];
    b->retire_next = td.retire_head;
    td.retire_head = b;
    td.retire_count.fetch_add(1, std::memory_order_relaxed);
    td.retires.fetch_add(1, std::memory_order_relaxed);
  }

  /// Walks tid's retire list, freeing blocks for which `deletable(blk)`
  /// holds; shared by every scheme's scan.
  template <class Pred>
  void sweep_retired(unsigned tid, Pred&& deletable) noexcept {
    auto& td = threads_[tid];
    Block** link = &td.retire_head;
    while (*link != nullptr) {
      Block* b = *link;
      if (deletable(b)) {
        *link = b->retire_next;
        b->deleter(b);
        td.frees.fetch_add(1, std::memory_order_relaxed);
        td.reclaims.fetch_add(1, std::memory_order_relaxed);
        td.retire_count.fetch_sub(1, std::memory_order_relaxed);
      } else {
        link = &b->retire_next;
      }
    }
  }

  TrackerConfig cfg_;
  detail::PerThread<detail::ThreadData> threads_;

 private:
  /// Frees every block still queued on every retire list.  Only valid when
  /// no thread is active (tracker destructor).
  void drain_all_unsafe() noexcept {
    for (unsigned t = 0; t < threads_.size(); ++t) {
      auto& td = threads_[t];
      Block* b = td.retire_head;
      while (b != nullptr) {
        Block* next = b->retire_next;
        b->deleter(b);
        td.frees.fetch_add(1, std::memory_order_relaxed);
        td.reclaims.fetch_add(1, std::memory_order_relaxed);
        b = next;
      }
      td.retire_head = nullptr;
      td.retire_count.store(0, std::memory_order_relaxed);
    }
  }

  std::uint64_t sum(std::atomic<std::uint64_t> detail::ThreadData::* field) const noexcept {
    std::uint64_t total = 0;
    for (unsigned t = 0; t < threads_.size(); ++t)
      total += (threads_[t].*field).load(std::memory_order_relaxed);
    return total;
  }
};

/// Allocation helper shared by trackers: constructs T (which must derive
/// from Block) and installs its type-erased deleter.
template <class T, class... Args>
T* construct_block(Args&&... args) {
  static_assert(std::is_base_of_v<Block, T>,
                "tracker-managed nodes must derive from reclaim::Block");
  T* node = new T(std::forward<Args>(args)...);
  node->deleter = +[](Block* b) { delete static_cast<T*>(b); };
  return node;
}

/// The Tracker duck type, as a checkable concept.
template <class TR>
concept tracker_for = requires(TR& tr, const std::atomic<std::uintptr_t>& word,
                               Block* blk, unsigned u) {
  { tr.begin_op(u) };
  { tr.end_op(u) };
  { tr.protect_word(word, u, u, static_cast<const Block*>(nullptr)) }
      -> std::same_as<std::uintptr_t>;
  { tr.clear_slot(u, u) };
  { tr.copy_slot(u, u, u) };
  { tr.retire(blk, u) };
  { tr.dealloc(blk, u) };
  { tr.max_threads() } -> std::convertible_to<unsigned>;
  { TR::name() } -> std::convertible_to<const char*>;
};

/// Typed hazardous read for any tracker: protect_word over the pointer's
/// bits.  `parent` is the block holding `src` (nullptr for a root); WFE's
/// helpers pin it (paper §3.4), the other schemes ignore it.
template <class T, tracker_for TR>
T* protect(TR& tracker, const std::atomic<T*>& src, unsigned idx, unsigned tid,
           const Block* parent = nullptr) noexcept {
  return reinterpret_cast<T*>(tracker.protect_word(
      reinterpret_cast<const std::atomic<std::uintptr_t>&>(src), idx, tid, parent));
}

}  // namespace wfe::reclaim
