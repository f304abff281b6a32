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
//
// The deleter only destroys: it runs the node's destructor and returns
// sizeof the node, and the tracker decides where the memory goes (the
// freeing thread's free list for that size, or ::operator delete; see
// reclaim/tracker.hpp).  The header is the node's first subobject, so the
// block's address is its memory's address.

#include <cstddef>
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
  /// Destroys the complete node and returns its size in bytes, leaving
  /// the memory to the caller (set by TrackerBase::make_block).
  std::size_t (*deleter)(Block*) {nullptr};

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

/// True when a reservation on the era interval [lower, upper] pins `b`:
/// the block's lifespan [alloc_era, retire_era] meets it.  An era point
/// e is the interval [e, e] (HE Fig. 1 lines 56-59); 2GEIBR reserves
/// [lower, upper].  A lower bound of ∞ is no reservation and pins nothing.
inline bool era_overlaps(const Block* b, std::uint64_t lower,
                         std::uint64_t upper) noexcept {
  return lower != kInfEra && b->alloc_era <= upper && b->retire_era >= lower;
}

}  // namespace wfe::reclaim
