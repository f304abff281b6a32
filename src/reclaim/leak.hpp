#pragma once
// "Leak Memory" baseline (paper §5): no reclamation at all.  Retired
// blocks are queued but never freed during the run, which upper-bounds the
// throughput any real scheme could reach.  TrackerBase's destructor still
// drains the queues so tests and sanitizers see no real leak.

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

  template <class T, class... Args>
  T* alloc(unsigned tid, Args&&... args) {
    T* node = construct_block<T>(std::forward<Args>(args)...);
    count_alloc(tid);
    return node;
  }

  /// No-op: this scheme never reclaims mid-run.
  void flush(unsigned) noexcept {}
};

static_assert(tracker_for<LeakTracker>);

}  // namespace wfe::reclaim
