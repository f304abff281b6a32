#pragma once
// "Leak Memory" baseline (paper §5): no reclamation at all.  Retired
// blocks are queued but never freed during the run, so Leak prices a run
// without reservations or scans.  It is not a throughput ceiling: every
// allocation after a retire takes fresh memory, while a reclaiming
// scheme reuses warm blocks from its thread's free list
// (reclaim/tracker.hpp).  With those lists, EBR's 4-thread median in
// Figs. 7 and 8 (4-vCPU x86 host, 6 rounds) was 1.85x and 1.42x Leak's,
// and even freeing through glibc, EBR was ahead of Leak at some points
// of Figs. 6 and 8.  TrackerBase's destructor still drains the queues
// so tests and sanitizers see no real leak.

#include <atomic>
#include <cstdint>

#include "reclaim/tracker.hpp"

namespace wfe::reclaim {

class LeakTracker : public TrackerBase {
 public:
  explicit LeakTracker(const TrackerConfig& cfg) : TrackerBase(cfg) {}

  static constexpr const char* name() noexcept { return "Leak"; }

  void begin_op(unsigned) noexcept {}
  void end_op(unsigned) noexcept {}
  void clear_slot(unsigned, unsigned) noexcept {}
  void copy_slot(unsigned, unsigned, unsigned) noexcept {}

  std::uintptr_t protect_word(const std::atomic<std::uintptr_t>& src, unsigned /*idx*/,
                              unsigned /*tid*/, const Block* /*parent*/ = nullptr) noexcept {
    return src.load(std::memory_order_acquire);
  }

  void retire(Block* b, unsigned tid) noexcept { push_retired(b, tid); }
  /// The split retire a reclaiming scheme's Reclaimer offers
  /// (kv::BatchedTracker lists its bursts and pays installments through
  /// it): listing is the whole retire, no pass ever runs, and there is
  /// no installment to pay.
  bool list(Block* b, unsigned tid) noexcept {
    push_retired(b, tid);
    return false;
  }
  void installment(unsigned) noexcept {}

  template <class T, class... Args>
  T* alloc(unsigned tid, Args&&... args) {
    return make_block<T>(tid, std::forward<Args>(args)...);
  }

  /// No-op: this scheme never reclaims mid-run.
  void flush(unsigned) noexcept {}
};

static_assert(tracker_for<LeakTracker>);

}  // namespace wfe::reclaim
