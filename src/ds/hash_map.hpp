#pragma once
// Michael's lock-free hash map [27] — the paper's hash-map workload
// (Figs. 7 and 10): a fixed array of Harris-Michael list buckets.
//
// Keys are spread over buckets with a splitmix64 finalizer so adjacent
// integer keys (the benchmark's uniform key range) do not share buckets.
//
// The bucket array is `BucketArray`; `HashMap` below is its
// figure-bench-facing name, and the kv shards (src/kv/shard.hpp) wrap
// one BucketArray per reclamation domain.
//
// Layout: the buckets are one contiguous, cache-line-aligned array of
// HmList objects constructed in place, 16 bytes each (tracker reference
// plus head word), four to a line.  A lookup touches one line of that
// array before it reaches the first node.  The alternative, a pointer
// per bucket to a separately allocated list with a padded head, costs
// three lines per lookup (the slot, the list's tracker reference, its
// head) and one aligned allocation per bucket.  The price: neighbouring
// heads share a line, so a CAS on one head invalidates it for the three
// other buckets there.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "ds/hm_list.hpp"
#include "reclaim/tracker.hpp"
#include "util/cacheline.hpp"
#include "util/random.hpp"

namespace wfe::ds {

/// splitmix64-finalized hash shared by bucket routing and (in the kv
/// store) shard routing; exposed so callers can carve independent bit
/// ranges out of the same hash.
inline std::uint64_t hash_key(std::uint64_t key) noexcept {
  std::uint64_t h = key;
  return util::splitmix64_next(h);  // finalizer: h is the evolved state's hash
}

inline std::size_t round_up_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Fixed power-of-two array of Harris-Michael list buckets: the reusable
/// core of the hash map.  Routing uses the LOW bits of hash_key(); the
/// kv store's shard routing uses the high bits, so the two never
/// correlate even though they come from the same hash.
template <class K, class V, reclaim::tracker_for Tracker>
class BucketArray {
 public:
  using Bucket = HmList<K, V, Tracker>;
  static constexpr unsigned kSlotsNeeded = Bucket::kSlotsNeeded;
  static_assert(sizeof(Bucket) == 16,
                "a bucket is a tracker reference plus an unpadded head");

  /// `bucket_count` is rounded up to a power of two.
  explicit BucketArray(Tracker& tracker, std::size_t bucket_count = 16384)
      : mask_(round_up_pow2(bucket_count) - 1),
        buckets_(static_cast<Bucket*>(
            ::operator new(bytes(), std::align_val_t{util::kCacheLine}))) {
    for (std::size_t i = 0; i <= mask_; ++i)
      std::construct_at(&buckets_[i], tracker);
  }

  /// Quiescent teardown: each bucket deallocs its live nodes and cells.
  ~BucketArray() {
    std::destroy_n(buckets_, mask_ + 1);
    ::operator delete(buckets_, bytes(), std::align_val_t{util::kCacheLine});
  }

  BucketArray(const BucketArray&) = delete;
  BucketArray& operator=(const BucketArray&) = delete;

  bool insert(const K& key, const V& value, unsigned tid) {
    return bucket(key).insert(key, value, tid);
  }
  /// Insert-or-replace, in place (atomic value-cell swap on present keys).
  bool put(const K& key, const V& value, unsigned tid) {
    return bucket(key).put(key, value, tid);
  }
  /// Legacy remove+re-insert upsert (node churn baseline; see HmList).
  bool put_copy(const K& key, const V& value, unsigned tid) {
    return bucket(key).put_copy(key, value, tid);
  }
  std::optional<V> remove(const K& key, unsigned tid) {
    return bucket(key).remove(key, tid);
  }
  std::optional<V> get(const K& key, unsigned tid) {
    return bucket(key).get(key, tid);
  }

  // ---- freeze-aware ops (kv resharding), unbracketed: the caller holds
  // one tracker session on the shared tracker around one call or a batch
  // of them, and since all buckets share that tracker, one session covers
  // any key mix.  false = the key's bucket is frozen, no state change
  // happened, re-execute at the migration destination (see HmList). ----
  bool try_get(const K& key, unsigned tid, std::optional<V>& out) {
    return bucket(key).try_get(key, tid, out);
  }
  /// The one value write (insert, put, update or cas; see HmList).
  template <Upsert Mode>
  bool try_upsert(const K& key, const V& value, unsigned tid,
                  UpsertOutcome& out, const V* expected = nullptr) {
    return bucket(key).template try_upsert<Mode>(key, value, tid, out, expected);
  }
  bool try_remove(const K& key, unsigned tid, std::optional<V>& out) {
    return bucket(key).try_remove(key, tid, out);
  }

  // ---- migration primitives, by bucket index (kv resharding; freeze
  // is idempotent and concurrency-safe, collect/drain are exactly-once
  // under the store's per-bucket claim — see HmList for the protocol) ----
  void freeze_bucket(std::size_t i, unsigned tid) {
    buckets_[i].freeze(tid);
  }
  void collect_frozen_bucket(std::size_t i,
                             std::vector<std::pair<K, V>>& pairs,
                             std::vector<bool>& node_live) const {
    buckets_[i].collect_frozen(pairs, node_live);
  }
  std::pair<std::size_t, std::size_t> drain_frozen(
      std::size_t i, unsigned tid, const std::vector<bool>& node_live) {
    return buckets_[i].drain_frozen(tid, node_live);
  }

  std::size_t bucket_count() const noexcept { return mask_ + 1; }

  /// Bucket a key routes to (distribution tests / debugging).
  std::size_t bucket_index(const K& key) const noexcept {
    return static_cast<std::size_t>(hash_key(static_cast<std::uint64_t>(key))) &
           mask_;
  }

  std::size_t size_unsafe() const noexcept {
    std::size_t n = 0;
    for (std::size_t i = 0; i <= mask_; ++i) n += buckets_[i].size_unsafe();
    return n;
  }

  /// Quiescent iteration over every (key, value) pair (bucket order).
  template <class Fn>
  void for_each_unsafe(Fn&& fn) const {
    for (std::size_t i = 0; i <= mask_; ++i) buckets_[i].for_each_unsafe(fn);
  }

  /// Concurrency-safe iteration (fuzzy snapshot dumps — see HmList).
  /// False if any bucket aborted on a freeze bit.
  template <class Fn>
  bool for_each_protected(unsigned tid, Fn&& fn) {
    bool ok = true;
    for (std::size_t i = 0; i <= mask_; ++i)
      ok = buckets_[i].for_each_protected(tid, fn) && ok;
    return ok;
  }

 private:
  std::size_t bytes() const noexcept { return (mask_ + 1) * sizeof(Bucket); }

  Bucket& bucket(const K& key) noexcept { return buckets_[bucket_index(key)]; }

  std::size_t mask_;
  Bucket* buckets_;
};

/// The paper's hash-map workload interface: another name for BucketArray,
/// so figure benches and tests read as the paper does.
template <class K, class V, reclaim::tracker_for Tracker>
using HashMap = BucketArray<K, V, Tracker>;

}  // namespace wfe::ds
