#pragma once
// Interval-Based Reclamation, 2GE variant (2GEIBR), Wen et al. PPoPP'18
// [39] — one of the paper's comparison schemes (§5) and the IBR flavour
// the paper notes WFE's technique also applies to (§2.4).
//
// Each block records its lifespan interval [alloc_era, retire_era]; each
// thread publishes a *reservation interval* [lower, upper]:
//   begin_op  sets lower = upper = current era,
//   reads     grow upper to the current era (publish + validate loop),
//   end_op    resets the interval to empty (∞, ∞).
// A block is reclaimable when its lifespan overlaps no reservation
// interval.  Scanners snapshot reservation intervals with one 128-bit load
// so they never observe a torn {new lower, old upper} pair.
//
// One deviation from the paper's per-block can_delete(): a cleanup pass
// loads each thread's interval once into HE's EraSnapshot
// (reclaim/he.hpp), and the retire list is judged against it in
// installments (reclaim/tracker.hpp says why one snapshot is as safe).

#include <atomic>
#include <cstdint>

#include "reclaim/he.hpp"
#include "reclaim/tracker.hpp"
#include "util/atomics.hpp"
#include "util/cacheline.hpp"

namespace wfe::reclaim {

class IbrTracker : public Reclaimer<IbrTracker, EraSnapshot> {
 public:
  explicit IbrTracker(const TrackerConfig& cfg)
      : Reclaimer(cfg, cfg.max_threads), resv_(cfg.max_threads) {
    for (unsigned t = 0; t < cfg.max_threads; ++t)
      resv_[t].store_pair({kInfEra, kInfEra}, std::memory_order_relaxed);
  }

  static constexpr const char* name() noexcept { return "2GEIBR"; }

  void begin_op(unsigned tid) noexcept {
    const std::uint64_t e = global_era_.value.load(std::memory_order_seq_cst);
    resv_[tid].store_pair({e, e}, std::memory_order_seq_cst);
  }

  void end_op(unsigned tid) noexcept {
    resv_[tid].store_pair({kInfEra, kInfEra}, std::memory_order_release);
  }

  void clear_slot(unsigned, unsigned) noexcept {
    // Intervals are per-thread, not per-slot; nothing to drop individually.
  }
  void copy_slot(unsigned, unsigned, unsigned) noexcept {}

  /// 2GE read protocol: raise `upper` until the era is stable across the
  /// pointer read (lock-free; same loop shape as HE but one interval per
  /// thread regardless of how many pointers the operation holds).
  std::uintptr_t protect_word(const std::atomic<std::uintptr_t>& src, unsigned /*idx*/,
                              unsigned tid, const Block* /*parent*/ = nullptr) noexcept {
    std::uint64_t prev = resv_[tid].load_b(std::memory_order_acquire);
    for (;;) {
      const std::uintptr_t ret = src.load(std::memory_order_acquire);
      const std::uint64_t e = global_era_.value.load(std::memory_order_seq_cst);
      if (prev == e) return ret;
      resv_[tid].store_b(e, std::memory_order_seq_cst);  // grow upper
      prev = e;
    }
  }

  template <class T, class... Args>
  T* alloc(unsigned tid, Args&&... args) {
    if (clock_due(tid)) global_era_.value.fetch_add(1, std::memory_order_acq_rel);
    T* node = make_block<T>(tid, std::forward<Args>(args)...);
    node->alloc_era = global_era_.value.load(std::memory_order_acquire);  // birth era
    return node;
  }

  std::uint64_t era() const noexcept {
    return global_era_.value.load(std::memory_order_acquire);
  }

 private:
  friend Reclaimer;

  void stamp(Block* b) const noexcept {
    b->retire_era = global_era_.value.load(std::memory_order_seq_cst);
  }

  void read(EraSnapshot& snap) const noexcept {
    for (unsigned t = 0; t < cfg_.max_threads; ++t) {
      // Consistent {lower, upper} snapshot (see header comment).
      const util::Pair iv = resv_[t].load_pair(std::memory_order_seq_cst);
      snap.add(iv.a, iv.b);
    }
  }

  // .a = lower, .b = upper.
  detail::PerThread<util::AtomicPair> resv_;
  util::Padded<std::atomic<std::uint64_t>> global_era_{1};
};

static_assert(tracker_for<IbrTracker>);

}  // namespace wfe::reclaim
