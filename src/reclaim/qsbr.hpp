#pragma once
// Quiescent-State-Based Reclamation (QSBR), Hart et al. [19] / RCU [26] —
// the related-work scheme of the paper's first category (§6).
//
// A thread *announces quiescence* (it holds no references), and a block
// retired at epoch e is reclaimable once every thread has announced
// quiescence since e.  Tied to the tracker's op brackets, as every data
// structure here uses them, that is EBR's reservation: entering an
// operation pins the thread to the entry epoch, and leaving it is the
// quiescent state (∞ published).  So this tracker runs EbrTracker's code
// under QSBR's name and adds only quiesce(), the classic RCU announcement
// for loops that run operations without brackets.  Like EBR the scheme
// is blocking: a thread that stops announcing pins all later garbage.
// Included as a comparator and for API completeness; the paper's argument
// against epoch schemes (§2.1) applies to QSBR with full force.

#include "reclaim/ebr.hpp"

namespace wfe::reclaim {

class QsbrTracker : public EbrTracker {
 public:
  using EbrTracker::EbrTracker;

  static constexpr const char* name() noexcept { return "QSBR"; }

  /// Explicit announcement: the thread holds no references, which is
  /// what leaving an operation says.
  void quiesce(unsigned tid) noexcept { end_op(tid); }
};

static_assert(tracker_for<QsbrTracker>);

}  // namespace wfe::reclaim
