#pragma once
// 128-bit wide-CAS (WCAS) support.
//
// The WFE algorithm (paper §3.1) assumes hardware WCAS: an atomic
// compare-and-swap over two *adjacent* 64-bit words.  x86_64 provides
// cmpxchg16b; AArch64 (>= 8.1) provides CASP.  GCC/Clang route 16-byte
// __atomic builtins through libatomic, which dispatches to the native
// instruction at runtime when available.
//
// The algorithm also stores/loads *individual halves* of such pairs with
// plain 64-bit atomics (e.g. `reservations[tid][i].B = tag + 1`, Fig. 4
// line 40).  AtomicPair therefore exposes both views: per-word atomics for
// the halves and 16-byte operations for consistent snapshots and WCAS.
// Mixing the two views is outside the C++ abstract machine but is the
// canonical idiom for this algorithm family on GCC/Clang (the authors'
// reference implementation does the same); both views target the same
// coherent 16 bytes of memory.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if !defined(__SIZEOF_INT128__)
#error "wfe requires a 64-bit target with __int128 (x86_64 / AArch64)"
#endif

namespace wfe::util {

/// A pair of 64-bit words manipulated together by WCAS.
/// Field names follow the paper: `.a` is the era/pointer half ("A"),
/// `.b` is the tag half ("B").
struct Pair {
  std::uint64_t a;
  std::uint64_t b;

  friend bool operator==(const Pair& x, const Pair& y) noexcept {
    return x.a == y.a && x.b == y.b;
  }
};

static_assert(std::is_trivially_copyable_v<Pair> && sizeof(Pair) == 16);

namespace detail {

inline unsigned __int128 to_u128(Pair p) noexcept {
  unsigned __int128 v;
  static_assert(sizeof(v) == sizeof(Pair));
  std::memcpy(&v, &p, sizeof(v));
  return v;
}

inline Pair from_u128(unsigned __int128 v) noexcept {
  Pair p;
  std::memcpy(&p, &v, sizeof(v));
  return p;
}

constexpr int to_builtin_order(std::memory_order mo) noexcept {
  switch (mo) {
    case std::memory_order_relaxed: return __ATOMIC_RELAXED;
    case std::memory_order_consume: return __ATOMIC_CONSUME;
    case std::memory_order_acquire: return __ATOMIC_ACQUIRE;
    case std::memory_order_release: return __ATOMIC_RELEASE;
    case std::memory_order_acq_rel: return __ATOMIC_ACQ_REL;
    default:                        return __ATOMIC_SEQ_CST;
  }
}

}  // namespace detail

/// Two adjacent 64-bit atomics that can additionally be read, written and
/// compare-exchanged as one 128-bit unit.
class alignas(16) AtomicPair {
 public:
  AtomicPair() noexcept = default;
  explicit AtomicPair(Pair init) noexcept : a_(init.a), b_(init.b) {}

  AtomicPair(const AtomicPair&) = delete;
  AtomicPair& operator=(const AtomicPair&) = delete;

  // ---- single-word view (fast path) ----
  std::uint64_t load_a(std::memory_order mo = std::memory_order_seq_cst) const noexcept {
    return a_.load(mo);
  }
  std::uint64_t load_b(std::memory_order mo = std::memory_order_seq_cst) const noexcept {
    return b_.load(mo);
  }
  void store_a(std::uint64_t v, std::memory_order mo = std::memory_order_seq_cst) noexcept {
    a_.store(v, mo);
  }
  void store_b(std::uint64_t v, std::memory_order mo = std::memory_order_seq_cst) noexcept {
    b_.store(v, mo);
  }

  // ---- 128-bit view (slow/help paths) ----
  Pair load_pair(std::memory_order mo = std::memory_order_seq_cst) const noexcept {
    unsigned __int128 v;
    __atomic_load(raw(), &v, detail::to_builtin_order(mo));
    return detail::from_u128(v);
  }

  void store_pair(Pair p, std::memory_order mo = std::memory_order_seq_cst) noexcept {
    unsigned __int128 v = detail::to_u128(p);
    __atomic_store(raw(), &v, detail::to_builtin_order(mo));
  }

  /// WCAS. On failure `expected` is updated with the observed value.
  bool wcas(Pair& expected, Pair desired,
            std::memory_order success = std::memory_order_seq_cst,
            std::memory_order failure = std::memory_order_seq_cst) noexcept {
    unsigned __int128 exp = detail::to_u128(expected);
    unsigned __int128 des = detail::to_u128(desired);
    bool ok = __atomic_compare_exchange(raw(), &exp, &des, /*weak=*/false,
                                        detail::to_builtin_order(success),
                                        detail::to_builtin_order(failure));
    if (!ok) expected = detail::from_u128(exp);
    return ok;
  }

  /// WCAS that discards the observed value on failure.
  bool wcas_discard(Pair expected, Pair desired,
                    std::memory_order success = std::memory_order_seq_cst,
                    std::memory_order failure = std::memory_order_seq_cst) noexcept {
    return wcas(expected, desired, success, failure);
  }

 private:
  unsigned __int128* raw() noexcept {
    return reinterpret_cast<unsigned __int128*>(this);
  }
  const unsigned __int128* raw() const noexcept {
    // __atomic_load's first argument is non-const qualified in its generic
    // form; the load does not modify the object.
    return reinterpret_cast<const unsigned __int128*>(this);
  }

  std::atomic<std::uint64_t> a_{0};
  std::atomic<std::uint64_t> b_{0};
};

static_assert(sizeof(AtomicPair) == 16);
static_assert(alignof(AtomicPair) == 16);
static_assert(std::is_standard_layout_v<AtomicPair>);

/// True when the platform executes 16-byte atomics with a native
/// instruction (libatomic may still fall back to a lock table on ancient
/// CPUs; the algorithms stay correct, only the wait-free bound degrades).
inline bool wcas_is_native() noexcept {
  return __atomic_is_lock_free(16, nullptr);
}

/// Owned-lane update: adds `by` to a counter that only the calling thread
/// writes (its own per-thread slot).  A relaxed load plus a relaxed store
/// replaces the lock-prefixed RMW, so x86 drains no store buffer, and
/// stats readers still load whole values because the lane stays atomic.
/// A lane with a second writer would lose counts: it keeps its fetch_add.
template <class T>
inline void owned_add(std::atomic<T>& lane, std::type_identity_t<T> by = 1) noexcept {
  lane.store(lane.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

}  // namespace wfe::util
