#pragma once
// Data-structure factories shared by the figure benchmarks.

#include <cstdint>
#include <memory>

#include "ds/crturn_queue.hpp"
#include "ds/hash_map.hpp"
#include "ds/hm_list.hpp"
#include "ds/kp_queue.hpp"
#include "ds/natarajan_bst.hpp"
#include "reclaim/leak.hpp"

namespace wfe::bench {

using Key = std::uint64_t;
using Val = std::uint64_t;

struct ListFactory {
  static constexpr bool kIsQueue = false;
  // HmList::kSlotsNeeded: prev + cur + value cell.
  static constexpr unsigned kSlots = 3;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<ds::HmList<Key, Val, TR>>(trk);
  }
};

struct HashMapFactory {
  static constexpr bool kIsQueue = false;
  static constexpr unsigned kSlots = 3;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<ds::HashMap<Key, Val, TR>>(trk);
  }
};

struct BstFactory {
  static constexpr bool kIsQueue = false;
  // Seek record + current node + value cell; the count does not depend
  // on the tracker.
  static constexpr unsigned kSlots =
      ds::NatarajanBst<Val, reclaim::LeakTracker>::kSlotsNeeded;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<ds::NatarajanBst<Val, TR>>(trk);
  }
};

struct KpQueueFactory {
  static constexpr bool kIsQueue = true;
  static constexpr unsigned kSlots = 4;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<ds::KpQueue<Val, TR>>(trk);
  }
};

struct CrTurnQueueFactory {
  static constexpr bool kIsQueue = true;
  static constexpr unsigned kSlots = 3;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<ds::CrTurnQueue<Val, TR>>(trk);
  }
};

}  // namespace wfe::bench
