#pragma once
// Data-structure factories shared by the figure benchmarks.

#include <cstdint>
#include <memory>

#include "ds/crturn_queue.hpp"
#include "ds/hash_map.hpp"
#include "ds/hm_list.hpp"
#include "ds/kp_queue.hpp"
#include "ds/natarajan_bst.hpp"

namespace wfe::bench {

using Key = std::uint64_t;
using Val = std::uint64_t;

struct ListFactory {
  static constexpr bool kIsQueue = false;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<ds::HmList<Key, Val, TR>>(trk);
  }
};

struct HashMapFactory {
  static constexpr bool kIsQueue = false;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<ds::HashMap<Key, Val, TR>>(trk);
  }
};

struct BstFactory {
  static constexpr bool kIsQueue = false;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<ds::NatarajanBst<Val, TR>>(trk);
  }
};

struct KpQueueFactory {
  static constexpr bool kIsQueue = true;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<ds::KpQueue<Val, TR>>(trk);
  }
};

struct CrTurnQueueFactory {
  static constexpr bool kIsQueue = true;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<ds::CrTurnQueue<Val, TR>>(trk);
  }
};

}  // namespace wfe::bench
