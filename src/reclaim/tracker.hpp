#pragma once
// The tracker interface shared by all reclamation schemes, and the two
// bases that write its common parts once.
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
//   dealloc(...)    — immediate free of a block no other thread can reach
//
// Two bases write the common parts.  TrackerBase is the memory and the
// counters every tracker keeps, Leak included: every alloc<T> builds
// through make_block, every free goes through one release path, and its
// destructor frees whatever the retire lists still hold, so no scheme
// writes its own teardown.  Reclaimer<Scheme, Snapshot> adds what the
// seven reclaiming schemes share: retire(), flush(), the cleanup pass, its
// installments, each thread's snapshot and the alloc countdown of the
// schemes with a clock.  A scheme supplies read(Snapshot&), which adds
// every reservation it publishes to the cleared snapshot, and where it has
// them its retire stamp (stamp) and the era bump HE and WFE make before a
// pass (before_pass).  Each snapshot type sits with its schemes: the era
// schemes' (HE, WFE, 2GEIBR, WFE-IBR) EraSnapshot of era intervals in
// reclaim/he.hpp, HP's sorted HazardSet in reclaim/hp.hpp, and EBR's and
// QSBR's EpochFloor, the oldest epoch read, in reclaim/ebr.hpp.
//
// Cleanup pass: every cleanup_freq-th retire of a reclaiming scheme runs
// a pass, which reads each reservation once into the thread's snapshot
// and then detaches the thread's retire list; a block stays listed while
// the snapshot pins it (an era scheme's while its [alloc_era, retire_era]
// meets an interval read).  The sweep is paid in installments: each later
// retire judges at most kJudgeStep detached blocks against the snapshot,
// freeing an unpinned one and relisting a pinned one, and the next pass
// first finishes what is left against the same snapshot before it reads
// its own.  flush() runs a pass and judges everything it detached at
// once.  So no retire pays a whole sweep, and a block is freed at most one
// pass later than by a pass that swept its list itself.  retire() is two
// steps a caller may also take apart: list() (stamp, list, count down, and
// the pass when it falls due) and installment().  kv::BatchedTracker does:
// each of its retires pays one installment, and its burst of buffered
// blocks is only listed, so a put whose burst fills pays no more
// installments than any other put.  The papers'
// can_delete() re-reads the reservations for each block; one snapshot
// serves them all because it only ever judges blocks this thread retired
// before it was read: a retire after the pass lists its block for the
// next pass, never with the detached ones.  A per-block check is safe at
// any instant after its block's retire (a reader that can still reach the
// block published a covering reservation before the retire's unlink and
// keeps it until it drops the reference), and the snapshot is every
// block's check run at one such instant, an interleaving the per-block
// reads already admit.
//
// Memory: every free (dealloc, a cleanup pass) keeps the block on the
// freeing thread's free list for its size (kFreeListCap blocks per size),
// so that thread's next alloc of the size reuses it without a trip
// through the allocator.
//
// Counters: every per-thread counter here (allocs, frees, retires,
// reclaims) is an owned lane, written only by the thread whose slot it
// is, so it is updated with a relaxed load and store (util::owned_add)
// rather than a lock-prefixed RMW.
//
// Thread identity is an explicit slot id in [0, max_threads), chosen by
// the caller: the harness, benches and examples pass each worker's
// index, and no two concurrent threads may share a slot.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "reclaim/block.hpp"
#include "util/atomics.hpp"
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
  unsigned fast_path_attempts = 16;  ///< WFE only; 0 forces the slow path
  // Domain-local knobs: a tracker instance is one reclamation *domain*
  // (the kv shards give every shard its own).  `domain_id` labels the
  // domain in stats output; `retire_batch` is the number of unlinked
  // blocks a BatchedTracker buffers per thread before handing them to
  // retire() in one burst (1 = unbatched).
  unsigned domain_id = 0;
  unsigned retire_batch = 1;
};

/// Freed blocks one thread keeps per block size in one domain, for its
/// own next allocations (detail::BlockCache).  Sized when a cleanup
/// pass still swept its whole list in one retire: on perfbench's read50
/// workload (2 threads, cleanup_freq 30, every retired block a 40-byte
/// value cell) a pass freed 32 blocks at the median, 56 at p99 and 58
/// at p99.9 (155,010 passes of one 2 s run, 4-vCPU x86 host), so a list
/// holds two p99 passes; installments now spread those frees over the
/// retires after the pass.  Overflow goes to ::operator delete.  0 under AddressSanitizer, so its
/// quarantine still sees every free and catches a use after reclaim.
inline constexpr unsigned kFreeListCap =
#if defined(__SANITIZE_ADDRESS__)
    0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    0;
#else
    128;
#endif
#else
    128;
#endif

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

/// One row of `width` Ts per thread, in one allocation aligned to
/// kFalseSharingRange, each row rounded up to it: row t starts at
/// t × stride, so no two threads' rows share a cache-line pair whatever
/// the heap held before.  Reservation slots live here (HP, HE, WFE's
/// rows and requests), and a snapshot's storage is one such row
/// (EraSnapshot, HazardSet).  rows[t] is a plain pointer to row t's
/// first element.
template <class T>
class PerThreadRows {
 public:
  static_assert(util::kFalseSharingRange % alignof(T) == 0);

  PerThreadRows() noexcept = default;

  /// Builds every element as T(init...).
  template <class... Args>
  PerThreadRows(unsigned threads, unsigned width, const Args&... init)
      : threads_(threads),
        width_(width),
        stride_((std::size_t{width} * sizeof(T) + util::kFalseSharingRange - 1) /
                util::kFalseSharingRange * util::kFalseSharingRange),
        mem_(static_cast<std::byte*>(::operator new(
            std::size_t{threads} * stride_, std::align_val_t{util::kFalseSharingRange}))) {
    for (unsigned t = 0; t < threads; ++t)
      for (unsigned j = 0; j < width; ++j)
        ::new (mem_ + t * stride_ + j * sizeof(T)) T(init...);
  }

  PerThreadRows(PerThreadRows&& o) noexcept { swap(o); }
  PerThreadRows& operator=(PerThreadRows&& o) noexcept {
    PerThreadRows(std::move(o)).swap(*this);
    return *this;
  }

  ~PerThreadRows() {
    if (mem_ == nullptr) return;
    if constexpr (!std::is_trivially_destructible_v<T>)
      for (unsigned t = 0; t < threads_; ++t)
        for (unsigned j = 0; j < width_; ++j) (*this)[t][j].~T();
    ::operator delete(mem_, std::align_val_t{util::kFalseSharingRange});
  }

  T* operator[](unsigned t) noexcept {
    return std::launder(reinterpret_cast<T*>(mem_ + t * stride_));
  }
  const T* operator[](unsigned t) const noexcept {
    return std::launder(reinterpret_cast<const T*>(mem_ + t * stride_));
  }
  unsigned width() const noexcept { return width_; }
  /// Bytes from one thread's row to the next: a multiple of
  /// kFalseSharingRange.
  std::size_t stride() const noexcept { return stride_; }

 private:
  void swap(PerThreadRows& o) noexcept {
    std::swap(threads_, o.threads_);
    std::swap(width_, o.width_);
    std::swap(stride_, o.stride_);
    std::swap(mem_, o.mem_);
  }

  unsigned threads_ = 0;
  unsigned width_ = 0;
  std::size_t stride_ = 0;
  std::byte* mem_ = nullptr;
};

/// Reclaimed memory one thread keeps for its own next allocations: one
/// LIFO list per block size, at most kSizes sizes (a block of any further
/// size goes straight to ::operator delete).  Each list holds at most
/// kFreeListCap blocks.  Only the owning thread pushes and pops; `count`
/// is atomic so cached_blocks() may read it racily.
class BlockCache {
 public:
  static constexpr unsigned kSizes = 4;

  /// Keeps `mem`, a destroyed block of `size` bytes; false when the list
  /// for that size is full (or no list is left for a new size).
  bool put(void* mem, std::size_t size) noexcept {
    if constexpr (kFreeListCap == 0) return false;
    for (List& l : lists_) {
      if (l.size == 0) l.size = size;  // first block of a new size
      if (l.size != size) continue;
      const std::uint32_t n = l.count.load(std::memory_order_relaxed);
      if (n >= kFreeListCap) return false;
      l.head = ::new (mem) Link{l.head};
      l.count.store(n + 1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Memory for one block of `size` bytes, or nullptr when none is kept.
  void* take(std::size_t size) noexcept {
    for (List& l : lists_) {
      if (l.size != size) continue;
      Link* p = l.head;
      if (p == nullptr) return nullptr;
      l.head = p->next;
      l.count.store(l.count.load(std::memory_order_relaxed) - 1,
                    std::memory_order_relaxed);
      return p;
    }
    return nullptr;
  }

  std::uint64_t blocks() const noexcept {
    std::uint64_t n = 0;
    for (const List& l : lists_) n += l.count.load(std::memory_order_relaxed);
    return n;
  }

  /// Returns every kept block to ::operator delete (domain teardown).
  void clear() noexcept {
    for (List& l : lists_) {
      while (Link* p = l.head) {
        l.head = p->next;
        ::operator delete(static_cast<void*>(p), l.size);
      }
      l.count.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct Link {
    Link* next;
  };
  struct List {
    Link* head{nullptr};
    std::uint32_t size{0};  ///< bytes per block; 0 = unused list
    std::atomic<std::uint32_t> count{0};
  };
  List lists_[kSizes];
};

/// Per-thread mutable bookkeeping common to every scheme.  Every counter
/// here is an owned lane: only the owning thread writes it, with
/// util::owned_add (relaxed load + store), and stats readers sum the
/// lanes with relaxed loads.  The two countdowns are Reclaimer's; they sit
/// on the line every retire and alloc touches anyway: on a line of their
/// own they cost the reclaiming schemes 3-7% of Fig. 7's 4-thread
/// throughput (4 alternating rounds, 4-vCPU x86 host).
struct ThreadData {
  Block* retire_head{nullptr};  ///< retired since the last pass, or relisted
  Block* detached{nullptr};     ///< listed at the last pass, not judged yet
  std::uint64_t until_pass{0};  ///< retires left before the next pass
  std::uint64_t until_tick{1};  ///< allocs left before the next clock move
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};      ///< all destructions
  std::atomic<std::uint64_t> retires{0};
  std::atomic<std::uint64_t> reclaims{0};   ///< retired-then-freed only
  BlockCache cache;  ///< this thread's reclaimed blocks, by size
};

}  // namespace detail

/// The memory and the counters every tracker keeps, Leak included: what
/// `allocated / freed / retired / unreclaimed` count, each thread's
/// retire lists, and the blocks' memory.  The reservations, and when and
/// how a retired block is freed, are the scheme's (Reclaimer below).
///
/// Memory: a block freed by dealloc() or a cleanup pass is destroyed, and
/// its memory goes on the freeing thread's free list for its exact size
/// in this domain (detail::BlockCache); make_block() serves the same
/// thread's next alloc of that size from there before it calls
/// ::operator new(sizeof(T)).  Without the lists, a cleanup pass's frees
/// outran glibc's per-thread cache, so most of them, and the allocations
/// after them, took glibc's locked arena path.  Reuse is safe for the
/// reason a free is: the scheme has proven that no reader can still
/// reach the block.  A cached block counts as freed, so every ledger
/// (allocated == freed + live + unreclaimed) closes as before;
/// cached_blocks() reports how many the lists hold.
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
  /// Total blocks freed (including teardown and blocks now cached).
  std::uint64_t freed() const noexcept { return sum(&detail::ThreadData::frees); }
  /// Total blocks retired.
  std::uint64_t retired() const noexcept { return sum(&detail::ThreadData::retires); }
  /// Retired-but-not-yet-freed count — the paper's "unreclaimed objects"
  /// metric (Figs. 5b/5d and the right-hand panels of Figs. 6-11).  Every
  /// retired block sits on a retire list, listed or detached, until it is
  /// reclaimed, so this is also the retire lists' backlog (admission
  /// reads it from the kv_unreclaimed gauge).
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
  /// Freed blocks the threads' free lists hold for reuse (racy snapshot;
  /// at most kFreeListCap per size per thread).
  std::uint64_t cached_blocks() const noexcept {
    std::uint64_t total = 0;
    for (unsigned t = 0; t < threads_.size(); ++t) total += threads_[t].cache.blocks();
    return total;
  }

  /// Immediate destruction for blocks no other thread can reach: never
  /// published, or quiescent teardown (data-structure destructors).
  void dealloc(Block* b, unsigned tid) noexcept {
    auto& td = threads_[tid];
    release(b, td);
    util::owned_add(td.frees);
  }

 protected:
  /// Quiescent teardown: frees every block still on a retire list.
  ~TrackerBase() { drain_all_unsafe(); }

  /// Builds a T for thread `tid`: in memory from tid's free list for
  /// sizeof(T) when it holds any, else from ::operator new(sizeof(T)),
  /// and installs the destroy-and-report-size deleter.  Every scheme's
  /// alloc<T> allocates here (the era schemes then stamp alloc_era).
  template <class T, class... Args>
  T* make_block(unsigned tid, Args&&... args) {
    static_assert(std::is_base_of_v<Block, T>,
                  "tracker-managed nodes must derive from reclaim::Block");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "free lists hand out ::operator new(size) memory");
    auto& td = threads_[tid];
    void* mem = td.cache.take(sizeof(T));
    if (mem == nullptr) mem = ::operator new(sizeof(T));
    T* node;
    try {
      node = ::new (mem) T(std::forward<Args>(args)...);
    } catch (...) {
      ::operator delete(mem, sizeof(T));
      throw;
    }
    node->deleter = +[](Block* b) -> std::size_t {
      static_cast<T*>(b)->~T();
      return sizeof(T);
    };
    util::owned_add(td.allocs);
    return node;
  }

  /// Lists b on tid's retire list: Leak's whole retire, and a Reclaimer
  /// retire's step after the stamp.
  void push_retired(Block* b, unsigned tid) noexcept {
    auto& td = threads_[tid];
    b->retire_next = td.retire_head;
    td.retire_head = b;
    util::owned_add(td.retires);
  }

  /// Destroys b and keeps its memory on td's free list for its size, or
  /// returns it to ::operator delete when that list is full.
  static void release(Block* b, detail::ThreadData& td) noexcept {
    const std::size_t size = b->deleter(b);
    if (!td.cache.put(b, size)) ::operator delete(static_cast<void*>(b), size);
  }

  TrackerConfig cfg_;
  detail::PerThread<detail::ThreadData> threads_;

 private:
  /// Frees every block still queued on every retire list, listed or
  /// detached, then empties the free lists.  Only valid when no thread
  /// is active (tracker destructor).
  void drain_all_unsafe() noexcept {
    for (unsigned t = 0; t < threads_.size(); ++t) {
      auto& td = threads_[t];
      std::uint64_t n = 0;
      for (Block* list : {td.retire_head, td.detached}) {
        for (Block* b = list; b != nullptr; ++n) {
          Block* next = b->retire_next;
          ::operator delete(static_cast<void*>(b), b->deleter(b));
          b = next;
        }
      }
      td.retire_head = td.detached = nullptr;
      util::owned_add(td.frees, n);
      util::owned_add(td.reclaims, n);
      td.cache.clear();
    }
  }

  std::uint64_t sum(std::atomic<std::uint64_t> detail::ThreadData::* field) const noexcept {
    std::uint64_t total = 0;
    for (unsigned t = 0; t < threads_.size(); ++t)
      total += (threads_[t].*field).load(std::memory_order_relaxed);
    return total;
  }
};

/// retire(), flush() and the cleanup pass of every reclaiming scheme (the
/// header comment above says how a pass works and why it is safe).
/// `Scheme` derives from Reclaimer<Scheme, Snapshot>, befriends it, and
/// supplies:
///  * read(Snapshot&) const — adds every reservation it publishes to the
///    cleared snapshot, each read once;
///  * stamp(Block*) — where it has one, the retire stamp, before b is
///    listed (the default stamps nothing: HP);
///  * before_pass(const Block* b, tid) — where it has one, what runs
///    between the count-down and a pass (HE's and WFE's era bump).
/// A Snapshot has clear(), the adds its scheme's read() makes and
/// pins(const Block*): true while the reservations it holds may still
/// reach the block.  Each thread keeps its own, built once at
/// construction, so a pass never allocates; it judges the pass's detached
/// blocks until the thread's next pass refills it.
template <class Scheme, class Snapshot>
class Reclaimer : public TrackerBase {
 public:
  /// Blocks one installment() judges, at most: what a retire that starts
  /// no cleanup pass pays of the last pass's sweep, and what every retire
  /// through kv::BatchedTracker pays, whether or not its burst fills.
  static constexpr std::uint64_t kJudgeStep = 2;

  /// list() and, unless it ran a pass, one installment: every
  /// cleanup_freq-th retire runs the pass, any other pays one installment
  /// of the last pass's sweep instead.
  void retire(Block* b, unsigned tid) noexcept {
    if (!list(b, tid)) installment(tid);
  }

  /// Stamps and lists b and counts down to tid's next pass; when it is
  /// due, runs before_pass() and the pass and returns true.
  bool list(Block* b, unsigned tid) noexcept {
    scheme().stamp(b);
    push_retired(b, tid);
    detail::ThreadData& td = threads_[tid];
    if (--td.until_pass != 0) return false;
    td.until_pass = cfg_.cleanup_freq;
    scheme().before_pass(b, tid);
    pass(tid);
    return true;
  }

  /// Judges at most kJudgeStep of the blocks tid's last pass detached.
  void installment(unsigned tid) noexcept {
    if (threads_[tid].detached != nullptr) judge(tid, kJudgeStep);
  }

  /// A pass, then every block it detached judged at once.
  void flush(unsigned tid) noexcept {
    pass(tid);
    judge(tid, kAll);
  }

 protected:
  /// Every thread's snapshot is Snapshot(snapshot_args...): room for the
  /// most one pass of the scheme adds.
  template <class... SnapshotArgs>
  explicit Reclaimer(const TrackerConfig& cfg, const SnapshotArgs&... snapshot_args)
      : TrackerBase(cfg), snaps_(cfg.max_threads) {
    for (unsigned t = 0; t < cfg.max_threads; ++t) {
      threads_[t].until_pass = cfg.cleanup_freq;
      snaps_[t] = Snapshot(snapshot_args...);
    }
  }

  /// Asked by the alloc of a scheme with a clock (era or epoch): true on
  /// tid's first alloc and on every era_freq-th after it, the allocs that
  /// move the clock.
  bool clock_due(unsigned tid) noexcept {
    detail::ThreadData& td = threads_[tid];
    if (--td.until_tick != 0) return false;
    td.until_tick = cfg_.era_freq;
    return true;
  }

  /// The hooks of a scheme that does not hide them: no retire stamp, and
  /// nothing between the count-down and a pass.
  static void stamp(Block*) noexcept {}
  void before_pass(const Block*, unsigned) noexcept {}

 private:
  static constexpr std::uint64_t kAll = ~std::uint64_t{0};

  Scheme& scheme() noexcept { return static_cast<Scheme&>(*this); }

  /// One cleanup pass of tid.  It first finishes what the previous pass
  /// detached, against that pass's snapshot.  Then read() refills the
  /// snapshot, reading every reservation once, and the retire list is
  /// detached: the retires after it judge the list against the new
  /// snapshot in installments.  Every block detached here was retired
  /// before read() began.
  void pass(unsigned tid) noexcept {
    detail::ThreadData& td = threads_[tid];
    if (td.detached != nullptr) judge(tid, kAll);
    Snapshot& snap = snaps_[tid];
    snap.clear();
    scheme().read(snap);
    td.detached = td.retire_head;
    td.retire_head = nullptr;
  }

  /// Judges up to `most` of tid's detached blocks by its snapshot: frees
  /// each unpinned one and relists each pinned one for the next pass.
  /// Out of line: retire() is inlined into every structure's unlink path,
  /// and a loop there costs the structures' read paths as well.
  [[gnu::noinline]] void judge(unsigned tid, std::uint64_t most) noexcept {
    detail::ThreadData& td = threads_[tid];
    const Snapshot& snap = snaps_[tid];
    std::uint64_t n = 0;
    Block* b = td.detached;
    for (; b != nullptr && most != 0; --most) {
      Block* next = b->retire_next;
      if (snap.pins(b)) {
        b->retire_next = td.retire_head;
        td.retire_head = b;
      } else {
        release(b, td);
        ++n;
      }
      b = next;
    }
    td.detached = b;
    util::owned_add(td.frees, n);
    util::owned_add(td.reclaims, n);
  }

  detail::PerThread<Snapshot> snaps_;  ///< what each thread's last pass read
};

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
