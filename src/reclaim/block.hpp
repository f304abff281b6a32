#pragma once
// Common memory-block header for all reclamation schemes.
//
// Every node managed by a tracker embeds this header as its first base
// subobject (the paper's Fig. 2 puts a `block header` first in each stack
// node for the same reason).  Era-based schemes (HE, WFE, 2GEIBR) use the
// two era stamps; every scheme uses the intrusive retire-list link; the
// type-erased deleter lets trackers destroy nodes without knowing their
// concrete type.  Those four words are the whole header: 32 bytes in
// every node of every structure, which the static_assert below pins.

#include <cstdint>

namespace wfe::reclaim {

/// Era clock value that can never be reached ("∞" in the paper).
inline constexpr std::uint64_t kInfEra = ~std::uint64_t{0};

/// Reserved pointer bit-pattern that is never a valid pointer (paper §3.2:
/// the all-ones value, mirroring MAP_FAILED).  nullptr is NOT usable here
/// because data structures legitimately store nullptr.
inline constexpr std::uintptr_t kInvPtr = ~std::uintptr_t{0};

struct Block {
  /// Global-era value at allocation (HE Fig. 1 `alloc_era`).
  std::uint64_t alloc_era{0};
  /// Global-era value at retirement (HE Fig. 1 `retire_era`).
  std::uint64_t retire_era{0};
  /// Intrusive link for the owning thread's retire list.
  Block* retire_next{nullptr};
  /// Destroys the complete node (set by Tracker::alloc).
  void (*deleter)(Block*) {nullptr};

  Block() = default;
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

 protected:
  ~Block() = default;  // deleted only through `deleter` / derived type
};
static_assert(sizeof(Block) == 32,
              "the paper's block header is alloc era, retire era, retire "
              "link and deleter; per-feature state belongs in the node, "
              "not in the header every structure pays for");

/// True when a reservation on `era` pins `b`: the block's lifespan
/// [alloc_era, retire_era] contains the reserved era (HE Fig. 1 lines 56-59).
inline bool era_overlaps(const Block* b, std::uint64_t era) noexcept {
  return era != kInfEra && b->alloc_era <= era && b->retire_era >= era;
}

}  // namespace wfe::reclaim
