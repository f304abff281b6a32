#pragma once
// Epoch-Based Reclamation (EBR), after Fraser [16] / Hart et al. [19],
// in the min-scan formulation used by the IBR benchmark the paper
// evaluates with.
//
// Each thread publishes the global epoch on begin_op and ∞ on end_op.
// A block retired at epoch e is freed once every published reservation is
// strictly greater than e: any operation that began at epoch r > e started
// after the block was unlinked and therefore cannot hold a reference.
//
// Reads inside an operation are plain loads — EBR's appeal — but a stalled
// thread pins *every* block retired after its published epoch, so memory
// usage is unbounded (the paper's core criticism, §2.1/§2.4; measured by
// bench_stall_bound).  QsbrTracker (qsbr.hpp) runs this code under
// QSBR's name.

#include <atomic>
#include <cstdint>

#include "reclaim/tracker.hpp"
#include "util/cacheline.hpp"

namespace wfe::reclaim {

/// EBR's and QSBR's cleanup-pass snapshot: the oldest reservation the
/// pass read.
class EpochFloor {
 public:
  void clear() noexcept { floor_ = kInfEra; }
  void add(std::uint64_t epoch) noexcept {
    if (epoch < floor_) floor_ = epoch;
  }
  /// True when b was retired at or after that reservation's epoch.
  bool pins(const Block* b) const noexcept { return b->retire_era >= floor_; }

 private:
  std::uint64_t floor_ = kInfEra;
};

class EbrTracker : public Reclaimer<EbrTracker, EpochFloor> {
 public:
  explicit EbrTracker(const TrackerConfig& cfg)
      : Reclaimer(cfg), resv_(cfg.max_threads) {
    for (unsigned t = 0; t < cfg.max_threads; ++t)
      resv_[t].store(kInfEra, std::memory_order_relaxed);
  }

  static constexpr const char* name() noexcept { return "EBR"; }

  void begin_op(unsigned tid) noexcept {
    // seq_cst store: the reservation must be globally visible before any
    // pointer load inside the operation (StoreLoad on x86 needs the fence
    // this order implies).
    resv_[tid].store(global_epoch_.value.load(std::memory_order_seq_cst),
                     std::memory_order_seq_cst);
  }

  void end_op(unsigned tid) noexcept {
    resv_[tid].store(kInfEra, std::memory_order_release);
  }

  void clear_slot(unsigned, unsigned) noexcept {}
  void copy_slot(unsigned, unsigned, unsigned) noexcept {}

  std::uintptr_t protect_word(const std::atomic<std::uintptr_t>& src, unsigned /*idx*/,
                              unsigned /*tid*/, const Block* /*parent*/ = nullptr) noexcept {
    return src.load(std::memory_order_acquire);
  }

  template <class T, class... Args>
  T* alloc(unsigned tid, Args&&... args) {
    if (clock_due(tid)) global_epoch_.value.fetch_add(1, std::memory_order_acq_rel);
    T* node = make_block<T>(tid, std::forward<Args>(args)...);
    node->alloc_era = global_epoch_.value.load(std::memory_order_acquire);
    return node;
  }

  std::uint64_t epoch() const noexcept {
    return global_epoch_.value.load(std::memory_order_acquire);
  }

 private:
  friend Reclaimer;

  void stamp(Block* b) const noexcept {
    b->retire_era = global_epoch_.value.load(std::memory_order_acquire);
  }

  void read(EpochFloor& floor) const noexcept {
    for (unsigned t = 0; t < cfg_.max_threads; ++t)
      floor.add(resv_[t].load(std::memory_order_seq_cst));
  }

  detail::PerThread<std::atomic<std::uint64_t>> resv_;
  util::Padded<std::atomic<std::uint64_t>> global_epoch_{1};
};

static_assert(tracker_for<EbrTracker>);

}  // namespace wfe::reclaim
