#pragma once
// Shared fixtures for tests parameterized over reclamation schemes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "core/wfe.hpp"
#include "core/wfe_ibr.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/he.hpp"
#include "reclaim/hp.hpp"
#include "reclaim/ibr.hpp"
#include "reclaim/leak.hpp"
#include "reclaim/qsbr.hpp"

namespace wfe::test {

/// Every scheme: the paper's comparison set (WFE, HE, HP, EBR, 2GEIBR,
/// Leak) plus this repo's extensions (WFE-IBR per paper §2.4, QSBR from
/// the related-work taxonomy §6).
using AllTrackers =
    ::testing::Types<core::WfeTracker, reclaim::HeTracker, reclaim::HpTracker,
                     reclaim::EbrTracker, reclaim::IbrTracker,
                     reclaim::LeakTracker, core::WfeIbrTracker,
                     reclaim::QsbrTracker>;

/// Schemes that actually reclaim during the run (Leak excluded).
using ReclaimingTrackers =
    ::testing::Types<core::WfeTracker, reclaim::HeTracker, reclaim::HpTracker,
                     reclaim::EbrTracker, reclaim::IbrTracker,
                     core::WfeIbrTracker, reclaim::QsbrTracker>;

/// Schemes with per-block lifespan tracking (bounded under stalls).
using BoundedTrackers =
    ::testing::Types<core::WfeTracker, reclaim::HeTracker, reclaim::HpTracker,
                     reclaim::IbrTracker, core::WfeIbrTracker>;

/// The two trackers that run WFE's Fig. 4 engine (core/wfe.hpp): the
/// same slow path, helping and cleanup order over different row layouts.
using WaitFreeTrackers = ::testing::Types<core::WfeTracker, core::WfeIbrTracker>;

/// A tracked node that counts destructor invocations, to verify that
/// trackers run the type-erased deleter exactly once per block.
struct CountedNode : reclaim::Block {
  explicit CountedNode(std::atomic<int>* counter = nullptr, std::uint64_t v = 0)
      : dtor_counter(counter), value(v) {}
  ~CountedNode() {
    if (dtor_counter != nullptr) dtor_counter->fetch_add(1);
  }
  std::atomic<int>* dtor_counter;
  std::uint64_t value;
};

}  // namespace wfe::test
