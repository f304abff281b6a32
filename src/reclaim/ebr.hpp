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

class EbrTracker : public TrackerBase {
 public:
  explicit EbrTracker(const TrackerConfig& cfg)
      : TrackerBase(cfg), resv_(cfg.max_threads) {
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
    auto& td = threads_[tid];
    if (td.alloc_since_bump++ % cfg_.era_freq == 0)
      global_epoch_.value.fetch_add(1, std::memory_order_acq_rel);
    T* node = make_block<T>(tid, std::forward<Args>(args)...);
    node->alloc_era = global_epoch_.value.load(std::memory_order_acquire);
    return node;
  }

  void retire(Block* b, unsigned tid) noexcept {
    b->retire_era = global_epoch_.value.load(std::memory_order_acquire);
    push_retired(b, tid);
    auto& td = threads_[tid];
    if (++td.retire_since_scan % cfg_.cleanup_freq == 0) scan(tid);
  }

  /// Attempt reclamation of everything queued by `tid`.
  void flush(unsigned tid) noexcept { scan(tid); }

  std::uint64_t epoch() const noexcept {
    return global_epoch_.value.load(std::memory_order_acquire);
  }

 private:
  void scan(unsigned tid) noexcept {
    std::uint64_t min_resv = kInfEra;
    for (unsigned t = 0; t < cfg_.max_threads; ++t) {
      const std::uint64_t r = resv_[t].load(std::memory_order_seq_cst);
      if (r < min_resv) min_resv = r;
    }
    sweep_retired(tid, [min_resv](const Block* b) {
      return b->retire_era < min_resv;
    });
  }

  detail::PerThread<std::atomic<std::uint64_t>> resv_;
  util::Padded<std::atomic<std::uint64_t>> global_epoch_{1};
};

static_assert(tracker_for<EbrTracker>);

}  // namespace wfe::reclaim
