#pragma once
// Wait-Free 2GEIBR — the extension the paper explicitly scopes out as
// feasible (§2.4): "our approach is applicable to the 2GEIBR version
// where only hazardous reference accesses need to be made wait-free."
//
// 2GEIBR (reclaim/ibr.hpp) keeps one reservation *interval* [lower,
// upper] per thread; its read protocol grows `upper` with the same
// publish/validate loop as Hazard Eras — and is therefore only
// lock-free.  This tracker runs WFE's own engine (core::WfeCore in
// core/wfe.hpp) over an interval row layout, so the bounded fast path,
// the help request, helping before every era bump, the tag protocol and
// the Lemma 4/5 cleanup order are the code WFE runs.  The layout:
//  * row 0 is `upper` and the thread's one request row: protect() grows
//    it whatever the index, and a helper raises it on the requester's
//    behalf;
//  * rows 1 and 2 are the engine's parent and handover rows;
//  * row 3 is `lower`, private to this layout: begin_op() opens the
//    interval at the current era, end_op() clears both bounds;
//  * add_app_rows() adds each open [lower, upper] to a cleanup pass's
//    snapshot, which the sweep tests with 2GEIBR's interval overlap.
// One request per thread suffices: 2GEIBR has one interval per thread,
// not one reservation per index, and slot copies are no-ops.  Like WFE
// (core/wfe.hpp), and unlike 2GEIBR's per-block can_delete(), a cleanup
// pass reads each interval once, not once per retired block.

#include <atomic>
#include <cstdint>

#include "core/wfe.hpp"

namespace wfe::core {

class WfeIbrTracker : public WfeCore<WfeIbrTracker> {
 public:
  explicit WfeIbrTracker(const TrackerConfig& cfg)
      : WfeCore(cfg, /*requests=*/1, /*private_rows=*/1) {}

  static constexpr const char* name() noexcept { return "WFE-IBR"; }

  void begin_op(unsigned tid) noexcept {
    const std::uint64_t e = global_era_.value.load(std::memory_order_seq_cst);
    resv_[tid][kLower].store_a(e, std::memory_order_seq_cst);
    resv_[tid][kUpper].store_a(e, std::memory_order_seq_cst);
  }

  void end_op(unsigned tid) noexcept {
    resv_[tid][kLower].store_a(kInfEra, std::memory_order_release);
    resv_[tid][kUpper].store_a(kInfEra, std::memory_order_release);
  }

  void clear_slot(unsigned, unsigned) noexcept {}
  void copy_slot(unsigned, unsigned, unsigned) noexcept {}

 private:
  friend WfeCore;

  static constexpr unsigned kUpper = 0;  ///< .a = upper bound, .b = tag
  static constexpr unsigned kLower = 3;  ///< .a = lower bound

  static constexpr unsigned slot_of(unsigned) noexcept { return kUpper; }

  void add_app_rows(reclaim::EraSnapshot& snap) const noexcept {
    for (unsigned t = 0; t < cfg_.max_threads; ++t) {
      const std::uint64_t lo = resv_[t][kLower].load_a(std::memory_order_seq_cst);
      if (lo == kInfEra) continue;
      snap.add(lo, resv_[t][kUpper].load_a(std::memory_order_seq_cst));
    }
  }
};

static_assert(reclaim::tracker_for<WfeIbrTracker>);

}  // namespace wfe::core
