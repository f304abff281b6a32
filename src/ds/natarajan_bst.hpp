#pragma once
// Natarajan-Mittal lock-free external BST [29] — the paper's tree
// workload (Figs. 8 and 11) — with leaf-local value-cell tombstones and
// protection-disciplined ordered scans.
//
// External (leaf-oriented) tree: internal nodes route, leaves store
// keys.  A leaf's value lives in a separately allocated, tracker-managed
// ValueCell (value_cell.hpp) the leaf points to through an atomic word,
// exactly like hm_list.hpp; the cell word's mark bit is the deletion
// tombstone.
//
// ## Tombstone deletion protocol
//
// Deletion has a LOGICAL phase and a PHYSICAL phase:
//
//   logical  — remove() linearizes at a CAS on the leaf's cell word,
//              `cell → cell|MARK`, expecting the word unmarked.  The
//              winner of that CAS owns the displaced cell and retires
//              it; the mark is a permanent tombstone (no CAS ever
//              expects a marked word), so the cell is retired exactly
//              once and can never be resurrected.
//   physical — the classic Natarajan-Mittal edge machinery, demoted to
//              garbage collection: FLAG the parent→leaf edge, TAG the
//              sibling edge, splice ancestor→sibling (Algorithm 5).
//              ANY thread drives it — the tombstone winner until the
//              leaf is unreachable, and every helper (an insert(),
//              put() or update() that finds a tombstoned leaf in its
//              way, or a competing remove()) best-effort.  The winner's
//              first flag + cleanup round runs on the seek record its
//              mark CAS already holds, as Natarajan-Mittal's delete hands
//              its injection record to cleanup; only when that round
//              does not splice the leaf does it re-seek and retry.
//
// "Cell marked" is authoritative over the edge FLAG; the FLAG is now a
// derived, physical-only signal:
//
//   * a FLAG is planted only after re-observing, under a reservation,
//     that the leaf's cell is marked — so a flagged edge always names a
//     logically deleted leaf, and the ABA hazard of helping by node
//     address (leaf freed, address reused by a same-key re-insert)
//     cannot flag a live leaf: the reincarnated leaf's cell is unmarked;
//   * upserts linearize at a cell-word CAS that expects an UNMARKED
//     word.  Mark-then-flag ordering makes lost updates impossible: a
//     successful upsert CAS proves the leaf was not tombstoned at that
//     instant, hence not yet flagged, hence still reachable — under the
//     old edge-flag linearization a leaf-local swap could succeed after
//     the flag landed, an update no linearization order can absorb
//     (which is why this tree used whole-leaf replacement until now;
//     put_copy() keeps that path as the benchmarks' baseline);
//   * readers consult only the cell word: key present ⇔ terminal leaf
//     holds the key AND its cell is unmarked.
//
// Reclamation: the thread whose splice CAS succeeds owns the removed
// chain and retires every internal node on the successor→parent path
// plus each one's flagged leaf — NODES ONLY; each flagged leaf's cell
// was already retired by its tombstone winner.  Ledger identity: a live
// key owns three blocks (leaf + routing internal + cell) on top of the
// five construction-time sentinel blocks (kStructuralBlocks).
//
// Protection: eleven reservation slots.  Slots 0..2 hold the seek
// record's ancestor, successor and parent, 8 its leaf, 9 the node being
// read and 10 the value cell (for WFE the leaf is the cell read's parent
// block, paper §3.4).  Slots 0..7 pin a scan's retained left turns
// (below); a scan never forms a seek record, so the two uses share slots
// 0..2.  Every copy_slot runs from a higher slot to a lower one, as the
// tracker contract requires (reclaim/tracker.hpp): current (9) → leaf
// (8) → a turn, parent, successor or ancestor slot (0..7), parent (2) →
// ancestor (0).
// For era-family trackers (HE, WFE, 2GEIBR, EBR) this is the discipline
// the reference IBR benchmark uses; HP inherits the same link-stability
// validation as that benchmark.
//
// ## Ordered scans
//
// scan(lo, hi, fn) iterates the range in ascending key order by walking
// the leaves in order.  The walk keeps a KEY-valued cursor (one past the
// last leaf it passed) and, pinned in slots 0..7, the deepest left-turn
// ancestors of the current leaf: a bounded TurnStack of eight turns that
// drops its shallowest entry when full.  The next leaf is the leftmost
// leaf of the deepest retained turn's right subtree, so a step costs a
// pop and a short leftward descent (about two edges per leaf, amortized)
// instead of a ~20-level root descent.  A root descent (seek_ceil: the
// search path of the cursor, then the same leftmost step from the
// deepest left turn on it) happens only when the stack is empty, after a
// session fence, or on a restart; scan_descents() counts them.  Eight
// turns make that one descent per chunk of kScanChunk leaves.  A walk
// needs turn T again only when it crosses from T's left subtree into its
// right, and within 64 leaves that means it started among the last 64
// leaves of T's left subtree; in a balanced tree such a leaf has at most
// log2(64) = 6 left turns below T, so T is still among the deepest eight
// when the walk pops it.  A random tree rarely has more (test_bst pins
// both: exactly one descent per window of at most 64 keys of a balanced
// 256-key tree, at most 1.2 per 64-key scan of a random one).  With
// three retained turns that random tree took 6.8 descents per scan.
//
// The visitor runs on unmarked cells only.  range_keys() is the same
// walk without values: it reads each leaf's cell word for its mark bit
// alone (the leaf is protected, so the word is readable), and never
// protects or dereferences the cell.
//
// Every kScanChunk visited leaves the tracker session is fenced
// (end_op/begin_op) and the stack dropped: the cursor is a key, so the
// next root descent resumes from it and nothing is invalidated.  That
// bounds how long any scheme's reservations pin garbage (for EBR/QSBR
// the fence is what lets reclamation advance at all during a wide
// scan).  A step that lands below the cursor (a concurrent splice led
// it astray) is restarted from the cursor and counted in
// scan_restarts().
//
// Why a walk's answer can be trusted — the CLEAN-EDGE discipline:
// unlike seek() (whose callers re-validate with CAS), a scan refuses to
// walk through a dirty edge.  Every child edge of a node is dirtied
// BEFORE the splice that unlinks it — leaf edges are FLAGged by
// injection, kept edges are TAGged by cleanup, and chain interiors were
// dirtied by the stalled deletions that formed the chain — and both
// bits are sticky.  So when protect_word's validating re-read returns a
// CLEAN word, the parent was not yet spliced out (hence reachable) at
// that instant, which makes the published reservation on the child
// sound even for pointer-validating schemes (HP): the child cannot have
// been retired before the reservation existed.  A retained turn is no
// exception: it stayed pinned since its own edge validated, and the
// first edge out of it (its right edge, read when it is popped) is
// validated like any other, so a turn spliced out meanwhile shows a
// dirty edge and is never walked through.  It also keeps the routing
// LIVE: every node on the walk was reachable when stepped through, node
// keys are immutable, and a live internal node's covered key-range only
// widens (splices promote the sibling over the parent's range).  So
// when a clean edge leads to a leaf, that leaf was the one live leaf in
// a range reaching from its key up to its deepest left-turn ancestor's
// key — no key present throughout the scan can lie between them — and
// the leftmost leaf of that turn's right subtree is the next one.
// Breaking/advancing past a leaf's key is therefore authoritative
// whether its cell is marked or not.  A DIRTY edge means some
// deletion's physical phase is in flight right there: the scan helps
// it (help_scan_edge: one flag + cleanup round through a fresh seek)
// and restarts from the cursor with a root descent — counted in
// scan_restarts().

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "ds/value_cell.hpp"
#include "reclaim/tracker.hpp"
#include "util/marked_ptr.hpp"

namespace wfe::ds {

template <class V, reclaim::tracker_for Tracker>
class NatarajanBst {
 public:
  using K = std::uint64_t;

  /// Largest usable key: the top three values are the ∞₀ < ∞₁ < ∞₂
  /// sentinels.
  static constexpr K kMaxKey = std::numeric_limits<K>::max() - 3;
  static constexpr unsigned kSlotsNeeded = 11;
  /// Construction-time blocks (three sentinel leaves + the S and R
  /// internals; sentinels carry no cells), for ledger arithmetic.
  static constexpr std::size_t kStructuralBlocks = 5;
  /// Blocks a live key owns: leaf + routing internal + value cell.
  static constexpr std::size_t kBlocksPerKey = 3;
  /// Visited leaves between scan-session fences (see header).
  static constexpr std::size_t kScanChunk = 64;

  explicit NatarajanBst(Tracker& tracker) : tracker_(tracker) {
    // Sentinel skeleton (Natarajan-Mittal Fig. 1): every real key is
    // smaller than ∞₀ and therefore lives in S's left subtree.
    // Sentinel leaves have no value cell (cell == 0); no operation ever
    // dereferences it because their keys exceed kMaxKey.
    Node* leaf_inf0 = tracker_.template alloc<Node>(0, kInf0);
    Node* leaf_inf1 = tracker_.template alloc<Node>(0, kInf1);
    Node* leaf_inf2 = tracker_.template alloc<Node>(0, kInf2);
    s_ = tracker_.template alloc<Node>(0, kInf1);
    s_->left.store(util::pack_ptr(leaf_inf0), std::memory_order_relaxed);
    s_->right.store(util::pack_ptr(leaf_inf1), std::memory_order_relaxed);
    r_ = tracker_.template alloc<Node>(0, kInf2);
    r_->left.store(util::pack_ptr(s_), std::memory_order_relaxed);
    r_->right.store(util::pack_ptr(leaf_inf2), std::memory_order_relaxed);
  }

  NatarajanBst(const NatarajanBst&) = delete;
  NatarajanBst& operator=(const NatarajanBst&) = delete;

  /// Quiescent teardown.
  ~NatarajanBst() { dealloc_subtree(r_); }

  bool insert(const K& key, const V& value, unsigned tid) {
    tracker_.begin_op(tid);
    const bool ok = upsert_impl<Upsert::kInsert>(key, value, tid).inserted;
    tracker_.end_op(tid);
    return ok;
  }

  /// Insert-or-replace, in place: a present key's cell word is
  /// CAS-swapped and the displaced cell retired — no node unlink, no
  /// re-insert, no momentary absence.  Returns true when the key was
  /// absent.
  bool put(const K& key, const V& value, unsigned tid) {
    tracker_.begin_op(tid);
    const bool was_absent = upsert_impl<Upsert::kPut>(key, value, tid).inserted;
    tracker_.end_op(tid);
    return was_absent;
  }

  /// Replace-if-present; false (no write) when absent.
  bool update(const K& key, const V& value, unsigned tid) {
    tracker_.begin_op(tid);
    const bool updated = upsert_impl<Upsert::kUpdate>(key, value, tid).replaced;
    tracker_.end_op(tid);
    return updated;
  }

  /// Remove+re-insert upsert: the pre-tombstone baseline (momentary
  /// absence is visible to concurrent readers), kept so the figure
  /// benches can price what the in-place path saves.
  bool put_copy(const K& key, const V& value, unsigned tid) {
    tracker_.begin_op(tid);
    bool was_absent = true;
    while (!upsert_impl<Upsert::kInsert>(key, value, tid).inserted) {
      was_absent = false;
      remove_impl(key, tid);
    }
    tracker_.end_op(tid);
    return was_absent;
  }

  std::optional<V> get(const K& key, unsigned tid) {
    assert(key <= kMaxKey);
    tracker_.begin_op(tid);
    SeekRecord sr;
    seek(key, sr, tid);
    std::optional<V> out;
    if (sr.leaf->key == key) {
      const std::uintptr_t cw =
          tracker_.protect_word(sr.leaf->cell, kSlotCell, tid, sr.leaf);
      if (!util::is_marked(cw))
        out = util::unpack_ptr<ValueCell<V>>(cw)->value;
    }
    tracker_.end_op(tid);
    return out;
  }

  bool contains(const K& key, unsigned tid) { return get(key, tid).has_value(); }

  std::optional<V> remove(const K& key, unsigned tid) {
    assert(key <= kMaxKey);
    tracker_.begin_op(tid);
    std::optional<V> out = remove_impl(key, tid);
    tracker_.end_op(tid);
    return out;
  }

  /// Ordered scan of [lo, hi] (inclusive, clamped to kMaxKey): fn(key,
  /// value) runs for every unmarked leaf in the range, ascending, each
  /// key at most once.  Keys present for the whole scan are visited;
  /// keys concurrently inserted/removed may or may not be.  Returns the
  /// number of keys visited.  See the header for the session-fence and
  /// restart semantics.
  template <class Fn>
  std::size_t scan(K lo, K hi, Fn&& fn, unsigned tid) {
    return scan_impl<false>(lo, hi, tid, [&](const K& k, const V& v) {
      fn(k, v);
      return true;
    });
  }

  /// Bounded keys-only collect: at most `max` keys from [lo, hi] into
  /// out[], ascending; returns the count.  The same walk as scan(), but
  /// no value cell is protected or read (a membership set like the KV
  /// index needs only the keys).
  std::size_t range_keys(K lo, K hi, K* out, std::size_t max, unsigned tid) {
    if (max == 0) return 0;
    std::size_t n = 0;
    scan_impl<true>(lo, hi, tid, [&](const K& k) {
      out[n++] = k;
      return n < max;
    });
    return n;
  }

  /// Descents restarted because a concurrent splice led them astray
  /// (monotonic; racy snapshot).
  std::uint64_t scan_restarts() const noexcept {
    return scan_restarts_.load(std::memory_order_relaxed);
  }

  /// Root descents scans made, restarts included (monotonic; racy
  /// snapshot).  Once per kScanChunk leaves when the retained turns
  /// suffice (header).
  std::uint64_t scan_descents() const noexcept {
    return scan_descents_.load(std::memory_order_relaxed);
  }

  /// Quiescent count of live (non-sentinel, unmarked) leaves.
  std::size_t size_unsafe() const noexcept { return count_leaves(r_); }

 private:
  static constexpr K kInf0 = std::numeric_limits<K>::max() - 2;
  static constexpr K kInf1 = std::numeric_limits<K>::max() - 1;
  static constexpr K kInf2 = std::numeric_limits<K>::max();

  // Slot assignment (header: every copy_slot runs downward).
  static constexpr unsigned kSlotAncestor = 0;
  static constexpr unsigned kSlotSuccessor = 1;
  static constexpr unsigned kSlotParent = 2;
  /// A scan's retained left turns (TurnStack) pin slots 0..kTurnSlots-1;
  /// scans never form a seek record, so they share slots 0..2 with it.
  static constexpr unsigned kTurnSlots = 8;
  static constexpr unsigned kSlotLeaf = kTurnSlots;
  static constexpr unsigned kSlotCurrent = kSlotLeaf + 1;
  static constexpr unsigned kSlotCell = kSlotCurrent + 1;
  static_assert(kSlotCell + 1 == kSlotsNeeded);

  struct Node : reclaim::Block {
    explicit Node(K k) : key(k) {}
    const K key;
    std::atomic<std::uintptr_t> left{0};
    std::atomic<std::uintptr_t> right{0};
    /// Leaves only (internal nodes and sentinel leaves keep 0):
    /// ValueCell<V>* | mark.  Marked = key logically deleted (tombstone;
    /// remove()'s linearization point, the cell already retired by the
    /// marking thread).  Every mutating CAS expects the word unmarked,
    /// so a marked word is frozen forever.
    std::atomic<std::uintptr_t> cell{0};
  };

  struct SeekRecord {
    Node* ancestor;
    Node* successor;
    Node* parent;
    Node* leaf;
  };

  /// A scan's deepest left-turn ancestors of its current leaf, deepest on
  /// top, as a ring over kTurnSlots reservation slots: ring position p
  /// is pinned in slot p.  A push onto a full ring evicts the shallowest
  /// turn and reuses its slot.  A popped turn stays pinned only until
  /// the next push reuses its slot.
  struct TurnStack {
    Node* turn[kTurnSlots] = {};
    unsigned base = 0;  ///< ring position of the shallowest turn
    unsigned size = 0;

    bool empty() const noexcept { return size == 0; }
    void clear() noexcept { size = 0; }

    /// `node`, protected in kSlotLeaf, becomes the deepest turn.
    void push(Node* node, Tracker& tracker, unsigned tid) noexcept {
      const unsigned pos = (base + size) % kTurnSlots;  // full: the shallowest's
      if (size == kTurnSlots)
        base = (base + 1) % kTurnSlots;
      else
        ++size;
      turn[pos] = node;
      tracker.copy_slot(kSlotLeaf, pos, tid);
    }

    Node* pop() noexcept {
      assert(size != 0);
      return turn[(base + --size) % kTurnSlots];
    }
  };

  /// Child link of `node` on the search path of `key`.
  static std::atomic<std::uintptr_t>* child_link(Node* node, K key) noexcept {
    return key < node->key ? &node->left : &node->right;
  }

  /// Natarajan-Mittal seek (Algorithm 2): walk to the terminal leaf,
  /// remembering the deepest node whose path edge was untagged
  /// (ancestor) and its path child (successor).
  ///
  /// Reclamation-safety of the walk (the ANCHOR rule): the
  /// ancestor→successor edge doubles as a staleness detector.  Below
  /// it, every path edge was TAGGED when crossed (else the record would
  /// have advanced), and tags are sticky — so any splice that retires a
  /// node of that segment must either CAS the anchor edge itself (it is
  /// the splice's ancestor edge) or first tag it (the anchor edge sits
  /// inside a larger chain).  Both change the word.  Re-reading the
  /// anchor edge AFTER publishing each step's reservation therefore
  /// proves the step's target was not yet retired when the reservation
  /// existed — exactly what pointer-validating schemes (HP) need, since
  /// a retired node's edges are frozen and re-reading them validates
  /// nothing.  On mismatch the walk restarts from the root; sticky
  /// dirty bits make each restart evidence of global progress (some
  /// flag, tag, or splice landed), so lock-freedom is preserved.  The
  /// anchor's owner is pinned by the kSlotAncestor reservation, so the
  /// re-read itself never touches freed memory.
  void seek(K key, SeekRecord& sr, unsigned tid) {
  restart:
    sr.ancestor = r_;
    sr.successor = s_;
    sr.parent = s_;
    // Sentinels r_/s_ are never retired; no reservation needed for them,
    // but the slots must be seeded for the copy chain below.
    tracker_.clear_slot(kSlotAncestor, tid);
    tracker_.clear_slot(kSlotSuccessor, tid);
    tracker_.clear_slot(kSlotParent, tid);
    // The safety anchor runs one edge DEEPER than the record: it must
    // cover the edge into the node about to be dereferenced, while the
    // record by design never incorporates the final parent→leaf edge.
    // r_->left is immutable (s_ is permanent), a trivially valid seed.
    const std::atomic<std::uintptr_t>* anchor_addr = &r_->left;
    std::uintptr_t anchor_word = r_->left.load(std::memory_order_acquire);
    std::uintptr_t parent_field =
        tracker_.protect_word(s_->left, kSlotLeaf, tid, s_);
    sr.leaf = util::unpack_ptr<Node>(parent_field);
    if (!util::is_tagged(parent_field)) {
      anchor_addr = &s_->left;
      anchor_word = parent_field;
    }
    std::uintptr_t current_field =
        tracker_.protect_word(*child_link(sr.leaf, key), kSlotCurrent, tid, sr.leaf);
    if (anchor_addr->load(std::memory_order_acquire) != anchor_word)
      goto restart;
    Node* current = util::unpack_ptr<Node>(current_field);
    while (current != nullptr) {
      if (!util::is_tagged(parent_field)) {
        sr.ancestor = sr.parent;
        tracker_.copy_slot(kSlotParent, kSlotAncestor, tid);
        sr.successor = sr.leaf;
        tracker_.copy_slot(kSlotLeaf, kSlotSuccessor, tid);
      }
      sr.parent = sr.leaf;
      tracker_.copy_slot(kSlotLeaf, kSlotParent, tid);
      sr.leaf = current;
      tracker_.copy_slot(kSlotCurrent, kSlotLeaf, tid);
      parent_field = current_field;
      // sr.parent→sr.leaf is the edge we are about to continue through;
      // fold it into the safety anchor before reading sr.leaf's fields.
      if (!util::is_tagged(parent_field)) {
        anchor_addr = child_link(sr.parent, key);
        anchor_word = parent_field;
      }
      current_field =
          tracker_.protect_word(*child_link(current, key), kSlotCurrent, tid, current);
      if (anchor_addr->load(std::memory_order_acquire) != anchor_word)
        goto restart;
      current = util::unpack_ptr<Node>(current_field);
    }
  }

  /// insert / put / update (the tree has no cas), unified around the
  /// cell protocol.
  template <Upsert Mode>
  UpsertOutcome upsert_impl(K key, const V& value, unsigned tid) {
    static_assert(Mode != Upsert::kCas, "the BST has no cas write");
    assert(key <= kMaxKey);
    Node* new_leaf = nullptr;
    Node* new_internal = nullptr;
    ValueCell<V>* new_cell = nullptr;
    const auto discard = [&] {  // never-published cached blocks
      if (new_leaf != nullptr) tracker_.dealloc(new_leaf, tid);
      if (new_internal != nullptr) tracker_.dealloc(new_internal, tid);
      if (new_cell != nullptr) tracker_.dealloc(new_cell, tid);
    };
    SeekRecord sr;
    for (;;) {
      seek(key, sr, tid);
      if (sr.leaf->key == key) {
        std::uintptr_t cw =
            tracker_.protect_word(sr.leaf->cell, kSlotCell, tid, sr.leaf);
        if (util::is_marked(cw)) {
          // Logically absent behind a tombstone: help the physical
          // splice, then re-evaluate (a fresh same-key leaf needs a
          // fresh insertion).
          help_remove(key, sr, tid);
          if constexpr (Mode == Upsert::kUpdate) {
            discard();
            return {};
          }
          continue;
        }
        if constexpr (Mode == Upsert::kInsert) {
          discard();
          return {};
        }
        if (new_cell == nullptr)
          new_cell = tracker_.template alloc<ValueCell<V>>(tid, value);
        // LINEARIZATION POINT (present-key upsert): swap the cell.
        // Succeeding against an unmarked word proves the leaf was not
        // tombstoned — hence not flagged, hence reachable — at the
        // instant of the swap (mark precedes flag precedes splice).
        if (sr.leaf->cell.compare_exchange_strong(
                cw, util::pack_ptr(new_cell), std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          tracker_.retire(util::unpack_ptr<ValueCell<V>>(cw), tid);
          new_cell = nullptr;  // published
          discard();
          return {.replaced = true};
        }
        continue;  // lost to a concurrent upsert or tombstone: re-resolve
      }
      // Terminal leaf holds a different key: the key is absent.
      if constexpr (Mode == Upsert::kUpdate) {
        discard();
        return {};
      }
      std::atomic<std::uintptr_t>* child_addr = child_link(sr.parent, key);
      if (new_cell == nullptr)
        new_cell = tracker_.template alloc<ValueCell<V>>(tid, value);
      if (new_leaf == nullptr) new_leaf = tracker_.template alloc<Node>(tid, key);
      new_leaf->cell.store(util::pack_ptr(new_cell), std::memory_order_relaxed);
      // The new internal routes between the existing leaf and ours; its
      // key is the larger of the two (external-BST invariant: left < key,
      // right >= key).  Node keys are immutable, so if the colliding leaf
      // changed across retries the cached internal must be rebuilt.
      const K route = key > sr.leaf->key ? key : sr.leaf->key;
      if (new_internal != nullptr && new_internal->key != route) {
        tracker_.dealloc(new_internal, tid);
        new_internal = nullptr;
      }
      if (new_internal == nullptr)
        new_internal = tracker_.template alloc<Node>(tid, route);
      Node* internal = new_internal;
      if (key < sr.leaf->key) {
        internal->left.store(util::pack_ptr(new_leaf), std::memory_order_relaxed);
        internal->right.store(util::pack_ptr(sr.leaf), std::memory_order_relaxed);
      } else {
        internal->left.store(util::pack_ptr(sr.leaf), std::memory_order_relaxed);
        internal->right.store(util::pack_ptr(new_leaf), std::memory_order_relaxed);
      }
      std::uintptr_t expected = util::pack_ptr(sr.leaf);
      if (child_addr->compare_exchange_strong(expected, util::pack_ptr(internal),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        return {.inserted = true};  // leaf, internal and cell all published
      }
      // CAS failed: if the edge still targets our leaf but is flagged or
      // tagged, a deletion is pending at this node — help it finish.
      if (util::unpack_ptr<Node>(expected) == sr.leaf &&
          util::bits_of(expected) != 0) {
        cleanup(key, sr, tid);
      }
    }
  }

  std::optional<V> remove_impl(K key, unsigned tid) {
    SeekRecord sr;
    for (;;) {
      seek(key, sr, tid);
      if (sr.leaf->key != key) return std::nullopt;
      std::uintptr_t cw =
          tracker_.protect_word(sr.leaf->cell, kSlotCell, tid, sr.leaf);
      if (util::is_marked(cw)) {
        // A competing deletion already linearized.  Help its physical
        // phase (its winner also drives it) and report absent.
        help_remove(key, sr, tid);
        return std::nullopt;
      }
      // LINEARIZATION POINT: tombstone the cell.  Winning this CAS is
      // the logical delete; the winner owns the displaced cell (no
      // other CAS can touch a marked word) and retires it exactly once.
      if (sr.leaf->cell.compare_exchange_strong(cw, cw | util::kMarkBit,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        ValueCell<V>* cell = util::unpack_ptr<ValueCell<V>>(cw);
        std::optional<V> out(cell->value);
        tracker_.retire(cell, tid);
        physical_remove(key, sr, tid);
        return out;
      }
      // Lost to a concurrent upsert or deletion: re-resolve from seek.
    }
  }

  /// One best-effort physical-splice attempt for a tombstoned leaf the
  /// caller just observed (cell marked under the caller's reservation).
  /// `key` need not equal sr.leaf->key — it only has to ROUTE to
  /// sr.leaf along the recorded path (seek(key) produced sr), because
  /// help_remove and cleanup consume it solely through `key <
  /// node->key` side picks, which key and sr.leaf->key answer alike on
  /// that path (scan helping relies on this).  Plants the parent→leaf
  /// FLAG if still absent — safe because the mark was re-checked on
  /// THIS leaf, so a reused address can never get a live leaf flagged —
  /// then runs one cleanup round and returns its result (true only for
  /// a splice on `key`'s side).  Callers re-seek and re-evaluate.
  bool help_remove(K key, const SeekRecord& sr, unsigned tid) {
    std::atomic<std::uintptr_t>* child_addr = child_link(sr.parent, key);
    std::uintptr_t expected = util::pack_ptr(sr.leaf);
    child_addr->compare_exchange_strong(
        expected, util::pack_ptr(sr.leaf, util::kMarkBit),
        std::memory_order_acq_rel, std::memory_order_acquire);
    // Flag planted, already present, or the edge moved on — cleanup
    // resolves all three (including helping a sibling-key deletion that
    // tagged our edge).
    return cleanup(key, sr, tid);
  }

  /// Physical phase driven by the tombstone winner: splice until no
  /// tombstoned leaf for `key` is reachable.  The first round runs on
  /// `sr`, the record whose leaf the winner just marked (still pinned in
  /// its slots), so an uncontended delete descends once; every later
  /// round re-seeks.  Helping is key-addressed: if our leaf was already
  /// spliced and the key re-inserted and re-tombstoned, the loop simply
  /// helps the successor deletion, which needs the same work.  A cleanup
  /// round that completed a sibling key's deletion instead moves our
  /// leaf up to the ancestor, still tombstoned, so only a splice on our
  /// own side ends the loop.
  void physical_remove(K key, SeekRecord& sr, unsigned tid) {
    while (!help_remove(key, sr, tid)) {
      seek(key, sr, tid);
      if (sr.leaf->key != key) return;  // unreachable: done
      const std::uintptr_t cw =
          tracker_.protect_word(sr.leaf->cell, kSlotCell, tid, sr.leaf);
      // Unmarked ⇒ a fresh leaf re-inserted this key, which is only
      // possible after ours was spliced (insert helps tombstones out of
      // its way first): done.
      if (!util::is_marked(cw)) return;
    }
  }

  /// Natarajan-Mittal cleanup (Algorithm 5): tag the sibling edge, splice
  /// ancestor→sibling, and retire the removed chain on success.  Returns
  /// true only when this call's splice removed the leaf on `key`'s side;
  /// helping a sibling deletion, finding nothing flagged or losing the
  /// splice CAS returns false.
  bool cleanup(K key, const SeekRecord& sr, unsigned tid) {
    Node* ancestor = sr.ancestor;
    Node* successor = sr.successor;
    Node* parent = sr.parent;
    std::atomic<std::uintptr_t>* successor_addr = child_link(ancestor, key);
    std::atomic<std::uintptr_t>* child_addr;
    std::atomic<std::uintptr_t>* sibling_addr;
    if (key < parent->key) {
      child_addr = &parent->left;
      sibling_addr = &parent->right;
    } else {
      child_addr = &parent->right;
      sibling_addr = &parent->left;
    }
    const bool helping_sibling =
        !util::is_marked(child_addr->load(std::memory_order_acquire));
    if (helping_sibling) {
      // The flag is on the other edge (we are helping a deletion of the
      // sibling key); keep the subtree on our key's side instead.
      sibling_addr = child_addr;
      // Guard against helping a phantom deletion: if neither edge is
      // flagged there is nothing to clean up (possible only after the
      // original deletion fully completed under us).
      if (!util::is_marked(sibling_addr == &parent->left
                               ? parent->right.load(std::memory_order_acquire)
                               : parent->left.load(std::memory_order_acquire))) {
        return false;
      }
    }
    // The edge NOT kept names the leaf removed at `parent`.  Recorded
    // here because flag bits alone cannot identify it after the splice:
    // the kept edge may itself be flagged (its leaf under concurrent
    // deletion) in addition to the tag below.
    std::atomic<std::uintptr_t>* removed_addr =
        sibling_addr == &parent->left ? &parent->right : &parent->left;
    // Tag the kept edge so no insertion can grow it mid-splice.
    const std::uintptr_t sibling_word =
        sibling_addr->fetch_or(util::kTagBit, std::memory_order_acq_rel) |
        util::kTagBit;
    // Splice: ancestor adopts the kept subtree.  The kept edge's FLAG (a
    // concurrent deletion of the sibling leaf) must survive the move; the
    // TAG must not.
    std::uintptr_t expected = util::pack_ptr(successor);
    const std::uintptr_t desired = sibling_word & ~util::kTagBit;
    if (!successor_addr->compare_exchange_strong(expected, desired,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed)) {
      return false;
    }
    Node* removed_leaf = util::unpack_ptr<Node>(
        removed_addr->load(std::memory_order_acquire));
    retire_chain(successor, parent, removed_leaf, tid);
    return !helping_sibling;
  }

  /// Retires the spliced-out chain: internals successor..parent and each
  /// one's flagged leaf.  Only the winning splicer calls this, the chain
  /// is unreachable, and nobody else retires these nodes (stalled
  /// deleters see their leaf vanish on re-seek and give up).  NODES
  /// ONLY: every flagged leaf is tombstoned (flags are planted only on
  /// marked-cell leaves), so its cell was already retired by the thread
  /// that won the mark CAS.
  void retire_chain(Node* successor, Node* parent, Node* removed_leaf,
                    unsigned tid) {
    Node* node = successor;
    while (node != parent) {
      // Intermediate chain node: its flagged edge names a removed leaf
      // (flags only ever target leaves); the other edge — necessarily to
      // an internal node, hence unflaggable — continues the chain.
      const std::uintptr_t lw = node->left.load(std::memory_order_acquire);
      const std::uintptr_t rw = node->right.load(std::memory_order_acquire);
      const std::uintptr_t leaf_w = util::is_marked(lw) ? lw : rw;
      const std::uintptr_t chain_w = util::is_marked(lw) ? rw : lw;
      assert(util::is_marked(leaf_w) && !util::is_marked(chain_w));
      tracker_.retire(util::unpack_ptr<Node>(leaf_w), tid);
      tracker_.retire(node, tid);
      node = util::unpack_ptr<Node>(chain_w);
    }
    tracker_.retire(removed_leaf, tid);
    tracker_.retire(parent, tid);
  }

  /// The scan walk stepped onto a FLAGged or TAGged edge: a deletion's
  /// physical phase is in flight (or stalled) right on k's routing path
  /// (k is the cursor, or the key of the turn being stepped from).
  /// Crossing it would be unsound — a
  /// spliced-out node's edges are frozen dirty forever, so the walk
  /// could ride into memory whose reservation was published after the
  /// retire (the HP use-after-free class) — and so would reading the
  /// dirty edge's target to learn which key to help.  Instead, help by
  /// ROUTE: a fresh seek(k) reaches the same parked deletion (the dirty
  /// edge sits on k's path), and both help_remove and cleanup consume
  /// the key only through `key < node->key` comparisons, which k
  /// answers identically to the stuck leaf's own key along the recorded
  /// path.  A marked terminal gets the full flag+cleanup help; an
  /// unmarked one still runs cleanup, which completes any tagged splice
  /// pinned at sr.parent (its phantom guard makes the clean case a
  /// no-op).  Always returns nullptr: the caller restarts from the
  /// cursor with a root descent (seek() here reused the turn slots).
  Node* help_scan_edge(K k, unsigned tid) {
    SeekRecord sr;
    seek(k, sr, tid);
    const std::uintptr_t cw =
        tracker_.protect_word(sr.leaf->cell, kSlotCell, tid, sr.leaf);
    if (util::is_marked(cw))
      help_remove(k, sr, tid);
    else
      cleanup(k, sr, tid);
    return nullptr;
  }

  /// Root descent for a scan: the least leaf with key >= k (a sentinel
  /// when no real key qualifies), protected in kSlotLeaf, filling the
  /// empty `turns`.  It walks k's search path, pushing every internal node
  /// where the path turns LEFT (k < node->key); if the terminal leaf's
  /// key is below k, the ceiling is next_leaf's step from the deepest of
  /// those turns (no key can live in [k, turn->key) on the other side —
  /// the routing argument in the header).  s_ is always such a turn, so
  /// at least one is retained for that step.
  ///
  /// Unlike seek(), the walk enforces the CLEAN-EDGE discipline (header
  /// doc): a FLAGged/TAGged edge is never crossed — the deletion parked
  /// there is helped and nullptr returned so the caller restarts from
  /// the same cursor.  Every node stepped through was therefore
  /// reachable when its edge validated, which is what makes the routing
  /// argument and the reclamation reservations sound.
  Node* seek_ceil(K k, TurnStack& turns, unsigned tid) {
    assert(turns.empty());
    // k <= kMaxKey < kInf2, so the walk always left-turns at r_ (a
    // permanent sentinel: readable without a reservation, and never
    // worth retaining, since s_ below it is always a deeper left turn;
    // its edges are never dirtied because sentinels are never deleted).
    Node* node = r_;
    std::uintptr_t next_w = tracker_.protect_word(r_->left, kSlotCurrent, tid, r_);
    Node* next = util::unpack_ptr<Node>(next_w);
    while (next != nullptr) {
      if (util::bits_of(next_w) != 0) return help_scan_edge(k, tid);
      node = next;
      tracker_.copy_slot(kSlotCurrent, kSlotLeaf, tid);
      const bool left = k < node->key;
      next_w = tracker_.protect_word(left ? node->left : node->right,
                                     kSlotCurrent, tid, node);
      next = util::unpack_ptr<Node>(next_w);
      // Only internal nodes are turns (a leaf's null edge ends the walk).
      if (left && next != nullptr) turns.push(node, tracker_, tid);
    }
    if (node->key >= k) return node;
    return next_leaf(k, turns, tid);
  }

  /// The in-order step: the leftmost leaf of the deepest retained turn's
  /// right subtree, protected in kSlotLeaf, pushing every internal node
  /// of that leftward path.  nullptr when a dirty edge was helped or the
  /// leaf lies below the cursor `k`; the caller then restarts from k.
  /// The turn was reachable when crossed and is still pinned; if it has
  /// since been spliced, its right edge is dirty and the first step
  /// below refuses it.  A dirty edge here is helped via turn->key, not
  /// k: the leftmost path of turn->right IS turn->key's routing path
  /// (equal keys route right at turn, then strictly left below), so a
  /// fresh seek reaches the parked deletion.
  Node* next_leaf(K k, TurnStack& turns, unsigned tid) {
    Node* node = turns.pop();
    // Read before any push below can reuse the turn's slot: from then on
    // nothing pins the turn (under HP it may already be freed).
    const K turn_key = node->key;
    std::uintptr_t next_w =
        tracker_.protect_word(node->right, kSlotCurrent, tid, node);
    Node* next = util::unpack_ptr<Node>(next_w);
    while (next != nullptr) {
      if (util::bits_of(next_w) != 0) return help_scan_edge(turn_key, tid);
      node = next;
      tracker_.copy_slot(kSlotCurrent, kSlotLeaf, tid);
      next_w = tracker_.protect_word(node->left, kSlotCurrent, tid, node);
      next = util::unpack_ptr<Node>(next_w);
      if (next != nullptr) turns.push(node, tracker_, tid);
    }
    return node->key >= k ? node : nullptr;
  }

  /// Shared scan loop; fn returns false to stop early.  kKeysOnly calls
  /// fn(key) and takes the mark from a plain load of the protected
  /// leaf's cell word; otherwise the cell is protected and fn(key,
  /// value) reads it.
  template <bool kKeysOnly, class Fn>
  std::size_t scan_impl(K lo, K hi, unsigned tid, Fn&& fn) {
    if (hi > kMaxKey) hi = kMaxKey;
    if (lo > hi) return 0;
    std::size_t visited = 0;
    std::size_t chunk = 0;
    std::uint64_t descents = 0;
    K cursor = lo;
    TurnStack turns;
    tracker_.begin_op(tid);
    for (;;) {
      Node* leaf;
      if (turns.empty()) {
        ++descents;
        leaf = seek_ceil(cursor, turns, tid);
      } else {
        leaf = next_leaf(cursor, turns, tid);
      }
      if (leaf == nullptr) {
        // Transient mid-splice view, or a helped edge (helping reuses
        // the turn slots): retry the same cursor from the root.
        scan_restarts_.fetch_add(1, std::memory_order_relaxed);
        turns.clear();
        continue;
      }
      if (leaf->key > hi) break;  // sentinel or past the range: done
      // The clean-edge walk proves `leaf` was reachable, so its key is
      // an authoritative cursor position either way; a marked cell just
      // means the key is logically deleted (tombstoned, splice pending)
      // and is skipped without visiting.
      const std::uintptr_t cw =
          kKeysOnly ? leaf->cell.load(std::memory_order_acquire)
                    : tracker_.protect_word(leaf->cell, kSlotCell, tid, leaf);
      if (!util::is_marked(cw)) {
        ++visited;
        bool more;
        if constexpr (kKeysOnly)
          more = fn(leaf->key);
        else
          more = fn(leaf->key, util::unpack_ptr<ValueCell<V>>(cw)->value);
        if (!more) break;
      }
      if (leaf->key >= hi) break;  // also guards cursor overflow at kMaxKey
      cursor = leaf->key + 1;
      if (++chunk == kScanChunk) {
        chunk = 0;
        // Session fence: dropping every reservation unpins the retained
        // turns, so the stack goes too; the cursor is a key, so the next
        // root descent resumes from it (see header).
        tracker_.end_op(tid);
        tracker_.begin_op(tid);
        turns.clear();
      }
    }
    tracker_.end_op(tid);
    scan_descents_.fetch_add(descents, std::memory_order_relaxed);
    return visited;
  }

  void dealloc_subtree(Node* node) {
    if (node == nullptr) return;
    dealloc_subtree(util::unpack_ptr<Node>(node->left.load(std::memory_order_relaxed)));
    dealloc_subtree(util::unpack_ptr<Node>(node->right.load(std::memory_order_relaxed)));
    // A marked cell was retired by its tombstone winner; an unmarked one
    // is still owned by the (live) leaf.
    const std::uintptr_t cw = node->cell.load(std::memory_order_relaxed);
    if (cw != 0 && !util::is_marked(cw))
      tracker_.dealloc(util::unpack_ptr<ValueCell<V>>(cw), 0);
    tracker_.dealloc(node, 0);
  }

  std::size_t count_leaves(const Node* node) const noexcept {
    if (node == nullptr) return 0;
    const Node* l =
        util::unpack_ptr<Node>(node->left.load(std::memory_order_relaxed));
    if (l == nullptr) {
      if (node->key > kMaxKey) return 0;
      return util::is_marked(node->cell.load(std::memory_order_relaxed)) ? 0 : 1;
    }
    const Node* r =
        util::unpack_ptr<Node>(node->right.load(std::memory_order_relaxed));
    return count_leaves(l) + count_leaves(r);
  }

  Tracker& tracker_;
  Node* r_;  // root sentinel (key ∞₂)
  Node* s_;  // second sentinel (key ∞₁)
  std::atomic<std::uint64_t> scan_restarts_{0};
  std::atomic<std::uint64_t> scan_descents_{0};
};

}  // namespace wfe::ds
