#pragma once
// Workload specification mirroring the paper's evaluation (§5):
//  * write-dominated: 50% insert() / 50% remove(),
//  * read-mostly:     90% get() / 10% put(),
//  * queues:          50% enqueue() / 50% dequeue(),
// keys drawn uniformly from (0, key_range), structures prefilled with
// `prefill` elements before timing starts.

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/random.hpp"

namespace wfe::harness {

enum class OpMix {
  kWrite5050,  ///< 50% insert, 50% remove
  kRead9010,   ///< 90% get, 10% put
  kQueue5050,  ///< 50% enqueue, 50% dequeue
};

inline const char* mix_name(OpMix mix) noexcept {
  switch (mix) {
    case OpMix::kWrite5050: return "50% insert / 50% remove";
    case OpMix::kRead9010: return "90% get / 10% put";
    case OpMix::kQueue5050: return "50% enqueue / 50% dequeue";
  }
  return "?";
}

struct Workload {
  OpMix mix = OpMix::kWrite5050;
  std::uint64_t key_range = 100000;  ///< keys uniform in (0, key_range)
  std::uint64_t prefill = 50000;     ///< elements inserted before timing
};

/// Inserts uniform keys from [1, key_range] into `s` (values: the
/// insertion ordinal, thread slot 0) until `n` distinct keys are in.  The
/// count is clamped to the key range — a prefill larger than the key
/// space fills it instead of spinning forever — and the seed is fixed,
/// so every data point starts from the same contents.
template <class S>
void prefill(S& s, std::uint64_t n, std::uint64_t key_range) {
  util::Xoshiro256 rng(42);
  n = std::min(n, key_range);
  std::uint64_t inserted = 0;
  while (inserted < n)
    inserted += s.insert(rng.next_bounded(key_range) + 1, inserted, 0) ? 1 : 0;
}

/// One operation against a key-value structure (list / hash map / BST).
/// `S` needs insert/remove/get/put taking (key, value, tid) / (key, tid).
template <class S>
void kv_op(S& s, const Workload& w, util::Xoshiro256& rng, unsigned tid) {
  const std::uint64_t key = rng.next_bounded(w.key_range) + 1;
  switch (w.mix) {
    case OpMix::kWrite5050:
      if (rng.percent(50)) {
        s.insert(key, key, tid);
      } else {
        s.remove(key, tid);
      }
      break;
    case OpMix::kRead9010:
      if (rng.percent(90)) {
        s.get(key, tid);
      } else {
        // The paper's read-mostly figures (9-11) measured remove+insert
        // upserts, preserved as put_copy().  The in-place put() that
        // CASes the value cell is priced against it by the KV bench's
        // bst_upsert duel.
        s.put_copy(key, key, tid);
      }
      break;
    case OpMix::kQueue5050:
      break;  // not a KV mix
  }
}

/// One operation against a queue (`enqueue`/`dequeue` taking tid).
template <class Q>
void queue_op(Q& q, const Workload& w, util::Xoshiro256& rng, unsigned tid) {
  if (rng.percent(50)) {
    q.enqueue(rng.next_bounded(w.key_range) + 1, tid);
  } else {
    q.dequeue(tid);
  }
}

}  // namespace wfe::harness
