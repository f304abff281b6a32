#pragma once
// Hazard Pointers (HP), Michael 2004 [27].
//
// protect() publishes the pointer itself and validates by re-reading the
// source; the loop is lock-free (a concurrently mutating source can starve
// it — exactly the operation the paper explains cannot be made wait-free
// for pointer-tracking schemes, §6).  retire() scans all published hazards
// and frees unpublished blocks.
//
// Published hazards are stripped of mark bits so that marked re-reads of
// the same node still validate its address.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "reclaim/tracker.hpp"
#include "util/marked_ptr.hpp"

namespace wfe::reclaim {

class HpTracker : public TrackerBase {
 public:
  explicit HpTracker(const TrackerConfig& cfg)
      : TrackerBase(cfg),
        hp_(cfg.max_threads, cfg.max_hes, std::uintptr_t{0}),
        scratch_(cfg.max_threads) {}

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

  void retire(Block* b, unsigned tid) noexcept {
    push_retired(b, tid);
    if (++threads_[tid].retire_since_scan % cfg_.cleanup_freq == 0) scan(tid);
  }

  void flush(unsigned tid) noexcept { scan(tid); }

 private:
  void scan(unsigned tid) noexcept {
    // Snapshot all published hazards, then free retired blocks whose
    // address is absent from the snapshot.  Each thread's slots are read
    // from the highest down, as copy_slot's direction contract requires
    // (reclaim/tracker.hpp).
    auto& hazards = scratch_[tid].addresses;
    hazards.clear();
    for (unsigned t = 0; t < cfg_.max_threads; ++t) {
      for (unsigned j = cfg_.max_hes; j-- != 0;) {
        const std::uintptr_t h = hp_[t][j].load(std::memory_order_seq_cst);
        if (h != 0) hazards.push_back(h);
      }
    }
    std::sort(hazards.begin(), hazards.end());
    sweep_retired(tid, [&hazards](const Block* b) {
      return !std::binary_search(hazards.begin(), hazards.end(),
                                 reinterpret_cast<std::uintptr_t>(b));
    });
  }

  struct Scratch {
    std::vector<std::uintptr_t> addresses;
  };

  detail::PerThreadRows<std::atomic<std::uintptr_t>> hp_;  ///< max_hes hazards per thread
  detail::PerThread<Scratch> scratch_;
};

static_assert(tracker_for<HpTracker>);

}  // namespace wfe::reclaim
