#pragma once
// Hazard Pointers (HP), Michael 2004 [27].
//
// protect() publishes the pointer itself and validates by re-reading the
// source; the loop is lock-free (a concurrently mutating source can starve
// it — exactly the operation the paper explains cannot be made wait-free
// for pointer-tracking schemes, §6).  A cleanup pass snapshots all
// published hazards into a sorted HazardSet, and unpublished blocks are
// freed against that snapshot in installments (reclaim/tracker.hpp).
//
// Published hazards are stripped of mark bits so that marked re-reads of
// the same node still validate its address.

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "reclaim/tracker.hpp"
#include "util/marked_ptr.hpp"

namespace wfe::reclaim {

/// HP's cleanup-pass snapshot: the hazards the pass read, sorted, in an
/// aligned row of its own with room for every slot of every thread.
class HazardSet {
 public:
  HazardSet() noexcept = default;
  explicit HazardSet(unsigned capacity) : row_(1, capacity) {}

  void clear() noexcept { n_ = 0; }
  /// Adds a published hazard; an empty slot (0) pins nothing.
  void add(std::uintptr_t hazard) noexcept {
    if (hazard != 0) row_[0][n_++] = hazard;
  }
  /// Sorts what was added, for pins() to binary-search.
  void sort() noexcept { std::sort(row_[0], row_[0] + n_); }

  /// True when the pass read a hazard on b.
  bool pins(const Block* b) const noexcept {
    return std::binary_search(row_[0], row_[0] + n_, reinterpret_cast<std::uintptr_t>(b));
  }

 private:
  detail::PerThreadRows<std::uintptr_t> row_;
  unsigned n_ = 0;
};

class HpTracker : public Reclaimer<HpTracker, HazardSet> {
 public:
  explicit HpTracker(const TrackerConfig& cfg)
      : Reclaimer(cfg, cfg.max_threads * cfg.max_hes),
        hp_(cfg.max_threads, cfg.max_hes, std::uintptr_t{0}) {}

  static constexpr const char* name() noexcept { return "HP"; }

  void begin_op(unsigned) noexcept {}

  void end_op(unsigned tid) noexcept {
    for (unsigned j = 0; j < cfg_.max_hes; ++j)
      hp_[tid][j].store(0, std::memory_order_release);
  }

  void clear_slot(unsigned idx, unsigned tid) noexcept {
    hp_[tid][idx].store(0, std::memory_order_release);
  }

  /// Slot `to` takes over protecting whatever `from` protects.  Safe
  /// because `from` stays published throughout, so coverage is continuous.
  /// A hazard `to` already holds is not stored again (scanners already
  /// see it).
  void copy_slot(unsigned from, unsigned to, unsigned tid) noexcept {
    const std::uintptr_t hazard = hp_[tid][from].load(std::memory_order_relaxed);
    if (hp_[tid][to].load(std::memory_order_relaxed) != hazard)
      hp_[tid][to].store(hazard, std::memory_order_seq_cst);
  }

  std::uintptr_t protect_word(const std::atomic<std::uintptr_t>& src, unsigned idx,
                              unsigned tid, const Block* /*parent*/ = nullptr) noexcept {
    std::uintptr_t prev = src.load(std::memory_order_acquire);
    for (;;) {
      // seq_cst publish: the hazard must hit memory before the validating
      // re-read (StoreLoad), or a concurrent scanner may miss it.
      hp_[tid][idx].store(util::strip(prev), std::memory_order_seq_cst);
      const std::uintptr_t cur = src.load(std::memory_order_acquire);
      if (cur == prev) return cur;
      prev = cur;
    }
  }

  template <class T, class... Args>
  T* alloc(unsigned tid, Args&&... args) {
    return make_block<T>(tid, std::forward<Args>(args)...);
  }

 private:
  friend Reclaimer;

  /// Every published hazard, for the pass's detached blocks to be judged
  /// against.  Each thread's slots are read from the highest down, as
  /// copy_slot's direction contract requires (reclaim/tracker.hpp).
  void read(HazardSet& hazards) const noexcept {
    for (unsigned t = 0; t < cfg_.max_threads; ++t)
      for (unsigned j = cfg_.max_hes; j-- != 0;)
        hazards.add(hp_[t][j].load(std::memory_order_seq_cst));
    hazards.sort();
  }

  detail::PerThreadRows<std::atomic<std::uintptr_t>> hp_;  ///< max_hes hazards per thread
};

static_assert(tracker_for<HpTracker>);

}  // namespace wfe::reclaim
