#pragma once
// Hazard Eras (HE), Ramalhete & Correia [33] — the scheme WFE extends.
// Direct implementation of the paper's Figure 1.
//
// protect() publishes the *global era* rather than the pointer; the block
// is pinned while any published era falls within its [alloc_era,
// retire_era] lifespan.  The publish/validate loop is lock-free only: a
// stream of era increments by other threads can retry it forever — the
// exact gap WFE closes.
//
// retire() carries the race-condition fix the paper mentions (§5): the
// era is re-checked against the block's stamped retire_era before the
// increment, so a stale thread does not bump the clock spuriously.

#include <atomic>
#include <cstdint>
#include <memory>

#include "reclaim/tracker.hpp"
#include "util/cacheline.hpp"

namespace wfe::reclaim {

class HeTracker : public TrackerBase {
 public:
  explicit HeTracker(const TrackerConfig& cfg)
      : TrackerBase(cfg), slots_(cfg.max_threads) {
    for (unsigned t = 0; t < cfg.max_threads; ++t) {
      slots_[t].era = std::make_unique<std::atomic<std::uint64_t>[]>(cfg.max_hes);
      for (unsigned j = 0; j < cfg.max_hes; ++j)
        slots_[t].era[j].store(kInfEra, std::memory_order_relaxed);
    }
  }

  static constexpr const char* name() noexcept { return "HE"; }

  void begin_op(unsigned) noexcept {}

  // Fig. 1 clear(): reset every reservation of the calling thread.
  void end_op(unsigned tid) noexcept {
    for (unsigned j = 0; j < cfg_.max_hes; ++j)
      slots_[tid].era[j].store(kInfEra, std::memory_order_release);
  }

  void clear_slot(unsigned idx, unsigned tid) noexcept {
    slots_[tid].era[idx].store(kInfEra, std::memory_order_release);
  }

  /// Slot `to` takes over protecting whatever era `from` holds; an era
  /// `to` already holds is not stored again (scanners already see it).
  void copy_slot(unsigned from, unsigned to, unsigned tid) noexcept {
    const std::uint64_t era = slots_[tid].era[from].load(std::memory_order_relaxed);
    if (slots_[tid].era[to].load(std::memory_order_relaxed) != era)
      slots_[tid].era[to].store(era, std::memory_order_seq_cst);
  }

  // Fig. 1 get_protected(): lock-free era publish + validate.
  std::uintptr_t protect_word(const std::atomic<std::uintptr_t>& src, unsigned idx,
                              unsigned tid, const Block* /*parent*/ = nullptr) noexcept {
    std::uint64_t prev_era = slots_[tid].era[idx].load(std::memory_order_acquire);
    for (;;) {
      const std::uintptr_t ret = src.load(std::memory_order_acquire);
      const std::uint64_t new_era = global_era_.value.load(std::memory_order_seq_cst);
      if (prev_era == new_era) return ret;
      // seq_cst publish before the retry's re-read (StoreLoad).
      slots_[tid].era[idx].store(new_era, std::memory_order_seq_cst);
      prev_era = new_era;
    }
  }

  // Fig. 1 alloc_block().
  template <class T, class... Args>
  T* alloc(unsigned tid, Args&&... args) {
    auto& td = threads_[tid];
    if (td.alloc_since_bump++ % cfg_.era_freq == 0)
      global_era_.value.fetch_add(1, std::memory_order_acq_rel);
    T* node = make_block<T>(tid, std::forward<Args>(args)...);
    node->alloc_era = global_era_.value.load(std::memory_order_acquire);
    return node;
  }

  // Fig. 1 retire().
  void retire(Block* b, unsigned tid) noexcept {
    b->retire_era = global_era_.value.load(std::memory_order_seq_cst);
    push_retired(b, tid);
    auto& td = threads_[tid];
    if (++td.retire_since_scan % cfg_.cleanup_freq == 0) {
      // Race fix: only advance the clock if it still equals the era this
      // block was stamped with.
      if (b->retire_era == global_era_.value.load(std::memory_order_seq_cst))
        global_era_.value.fetch_add(1, std::memory_order_acq_rel);
      scan(tid);
    }
  }

  void flush(unsigned tid) noexcept { scan(tid); }

  std::uint64_t era() const noexcept {
    return global_era_.value.load(std::memory_order_acquire);
  }

 private:
  struct Slots {
    std::unique_ptr<std::atomic<std::uint64_t>[]> era;
  };

  // Fig. 1 cleanup()/can_delete().
  void scan(unsigned tid) noexcept {
    sweep_retired(tid, [this](const Block* b) { return can_delete(b); });
  }

  // Each thread's slots are read from the highest down, as copy_slot's
  // direction contract requires (reclaim/tracker.hpp).
  bool can_delete(const Block* b) const noexcept {
    for (unsigned t = 0; t < cfg_.max_threads; ++t) {
      for (unsigned j = cfg_.max_hes; j-- != 0;) {
        const std::uint64_t e = slots_[t].era[j].load(std::memory_order_seq_cst);
        if (era_overlaps(b, e)) return false;
      }
    }
    return true;
  }

  detail::PerThread<Slots> slots_;
  util::Padded<std::atomic<std::uint64_t>> global_era_{1};
};

static_assert(tracker_for<HeTracker>);

}  // namespace wfe::reclaim
