#pragma once
// Harris-Michael sorted linked list [18, 27] — the paper's list workload
// (Figs. 6 and 9) — extended with tracker-reclaimed *value cells* so
// upserts mutate in place instead of replacing whole nodes.
//
// Harris's logical-deletion mark lives in the low bit of each node's
// `next` word; Michael's modification (required for HP-compatible
// reclamation, and therefore for HE/WFE which share HP's API) restarts
// the traversal instead of walking marked chains, so every dereferenced
// node is protected while provably in-list.
//
// Value cells: the value is not stored inline in the node but in a
// separately heap-allocated, tracker-managed ValueCell (value_cell.hpp)
// the node points to.  A put, update or cas on a present key CAS-swaps
// the cell pointer and retires only the displaced cell — no node unlink,
// no re-insert, no momentary absence, and the retire traffic of an
// update-heavy workload shrinks from a full node (key + two links) to
// one small cell.  All four value writes (ds::Upsert) are one function,
// try_upsert<Mode>.
//
// Deletion protocol with cells (the *value-cell reclamation invariant*:
// a cell is retired only by the thread that atomically unlinked its
// pointer — via a cell CAS or the delete mark — so each cell is retired
// exactly once, and always after it became unreachable from the node):
//   1. remove() linearizes by CASing the MARK bit into the CELL word
//      (expecting it unmarked AND unfrozen).  The winner owns the
//      displaced cell: it reads the return value out of it and retires
//      it.  The mark is never cleared, so a marked cell word is a
//      tombstone: readers treat the key as absent, updaters' CAS (which
//      expects an unmarked word) can never succeed against it.  Using a
//      CAS — not a fetch_or — means a mark can never land on a frozen
//      word: frozen cell words are IMMUTABLE, so "marked" is an
//      authoritative liveness verdict at any time after the freeze
//      (the property cooperative migration's repeatable collection
//      walk rests on; see below).
//   2. Only then is the node's `next` marked (Harris's logical delete)
//      and the node unlinked/retired exactly as before.  A cell-marked
//      node therefore always becomes next-marked; the ordering
//      cell-mark -> next-mark is relied on below (next-marked implies
//      cell-marked implies cell already retired, so unlinkers retire the
//      node alone).
//   3. A write finding a cell-marked node helps by marking `next`
//      (finish_remove).  The key is logically absent, so update and cas
//      are done; insert and put retry, since the node must leave the
//      list before the key can be re-inserted, which keeps "at most one
//      next-unmarked node per key" intact.
//
// Protection discipline (3 slots): find() rotates slots 0/1 over
// prev/cur exactly as in Michael 2004 Fig. 9; slot 2 (kCellSlot)
// protects the value cell while a reader dereferences it.  The cell is
// protected via protect_word() on the *cell word inside the protected
// node* — for HP this is publish+validate against the live word, for era
// schemes an era reservation covering the cell's lifespan, and for WFE
// the node itself is the `parent` (paper §3.4) so helpers can pin it.
// A writer needs no protection for the cell it displaces: a successful
// swap CAS (or remove()'s winning mark CAS) transfers ownership
// atomically, and only the owner dereferences or retires it.  Only cas
// reads a cell before displacing it, so only cas protects the cell word.
//
// Sessions: the try_* ops run inside a tracker session their caller
// holds (begin_op/end_op), so a kv shard runs one key or a whole
// multi-op group in one session; the plain entry points open a session
// around a retry loop over them.
//
// Layout: the object is 16 bytes, a tracker reference and the head
// word, and the head is not padded to its own cache line, so
// ds::BucketArray packs four buckets to a line (see hash_map.hpp).
//
// Bucket freeze (kv online resharding, cooperative since the help
// protocol): freeze() fetch_or-s util::kFreezeBit into the head word,
// then walks the list freezing every `next` word BEFORE following it
// and every cell word of each node it passes.  Every mutation CAS in
// this file expects an unfrozen word, so once a link is frozen no
// insert/unlink can succeed against it, and a successful insert can only
// land on a link the freezer has not reached yet — which it then walks
// through.  The walk is built entirely from idempotent fetch_ors, so
// ANY NUMBER of threads may freeze the same bucket concurrently (the kv
// store's resizer freezes ahead of its migrate cursor while helpers
// re-freeze the bucket they claimed): each freezer's own completed walk
// proves the bucket fully frozen, regardless of what the others did.
// After any complete walk the frozen list is structurally immutable —
// pointer bits never change again, and (because remove()'s cell mark is
// a CAS that a freeze bit defeats) cell words never change again either;
// the only residual motion is finish_remove() fetch_or-ing the Harris
// mark into a DEAD node's next word, which changes no liveness verdict.
// collect_frozen() is therefore a pure read walk any claim holder can
// run after its freeze: a node is live iff its cell word is unmarked
// (next-marked implies cell-marked, so the cell word alone decides).
// Every try_* operation that observes a freeze bit aborts with "frozen"
// instead of retrying; the kv store then helps migrate the bucket (or
// backs off while another helper holds the claim) and re-executes
// against the destination table.  After the destination holds all live
// pairs, drain_frozen() — exactly-once, guarded by the store's claim
// word — pops the frozen list node by node — overwriting head and each
// popped node's next word BEFORE retiring, so protect_word validation
// can never re-acquire a retired block — and retires nodes plus the
// cells that were live at freeze time in THIS bucket's (the source
// shard's) domain.  Frozen buckets stay frozen forever; the plain entry
// points below must never run against a freezable bucket (the kv store
// uses try_* only).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ds/value_cell.hpp"
#include "reclaim/tracker.hpp"
#include "util/marked_ptr.hpp"

namespace wfe::ds {

template <class K, class V, reclaim::tracker_for Tracker>
class HmList {
 public:
  /// Reservation slots used per thread (prev + cur + value cell).
  static constexpr unsigned kSlotsNeeded = 3;

  explicit HmList(Tracker& tracker) noexcept : tracker_(tracker) {}

  HmList(const HmList&) = delete;
  HmList& operator=(const HmList&) = delete;

  /// Quiescent teardown.  A marked cell word names a cell that its
  /// remover already retired (invariant step 1); unmarked cells are
  /// still owned by their node and freed here.
  ~HmList() {
    auto w = head_.load(std::memory_order_relaxed);
    while (util::strip(w) != 0) {
      Node* n = util::unpack_ptr<Node>(w);
      const std::uintptr_t cw = n->cell.load(std::memory_order_relaxed);
      if (!util::is_marked(cw)) tracker_.dealloc(util::unpack_ptr<ValueCell<V>>(cw), 0);
      w = n->next.load(std::memory_order_relaxed);
      tracker_.dealloc(n, 0);
    }
  }

  /// Inserts (key, value); fails if the key is present.  Plain entry
  /// points assume a bucket that is never frozen (figure benches).
  bool insert(const K& key, const V& value, unsigned tid) {
    tracker_.begin_op(tid);
    UpsertOutcome out;
    while (!try_upsert<Upsert::kInsert>(key, value, tid, out)) {}
    tracker_.end_op(tid);
    return out.inserted;
  }

  /// Insert-or-replace ("put" in the paper's key-value interface).  A
  /// present key is updated IN PLACE: the fresh value cell is CAS-swapped
  /// into the node and the displaced cell retired — an atomic replace
  /// (no reader ever observes the key absent), retiring one cell instead
  /// of a node.  Returns true when the key was absent.
  bool put(const K& key, const V& value, unsigned tid) {
    tracker_.begin_op(tid);
    UpsertOutcome out;
    while (!try_upsert<Upsert::kPut>(key, value, tid, out)) {}
    tracker_.end_op(tid);
    return out.inserted;
  }

  /// The pre-value-cell upsert (remove + re-insert, replacing the whole
  /// node): kept as the baseline the kv bench compares the in-place path
  /// against, and as the semantics the figure benches historically
  /// measured.  Not an atomic replace — a concurrent reader can observe
  /// the key momentarily absent between unlink and re-insert.
  bool put_copy(const K& key, const V& value, unsigned tid) {
    tracker_.begin_op(tid);
    bool was_absent = true;
    for (;;) {
      UpsertOutcome out;
      while (!try_upsert<Upsert::kInsert>(key, value, tid, out)) {}
      if (out.inserted) break;
      was_absent = false;
      std::optional<V> dropped;
      while (!try_remove(key, tid, dropped)) {}
    }
    tracker_.end_op(tid);
    return was_absent;
  }

  /// Removes key; returns its value if present.
  std::optional<V> remove(const K& key, unsigned tid) {
    tracker_.begin_op(tid);
    std::optional<V> out;
    while (!try_remove(key, tid, out)) {}
    tracker_.end_op(tid);
    return out;
  }

  /// Point lookup.
  std::optional<V> get(const K& key, unsigned tid) {
    tracker_.begin_op(tid);
    std::optional<V> out;
    while (!try_get(key, tid, out)) {}
    tracker_.end_op(tid);
    return out;
  }

  // ---- freeze-aware ops (kv resharding).  Unbracketed: the caller
  // holds the tracker session around one call or a batch of them (kv
  // multi-ops).  Safe for every scheme: EBR/QSBR reservations taken at
  // begin_op stay published (a longer pin, strictly conservative), and
  // pointer/era slots are re-published per call anyway.  Each returns
  // true when the operation completed (result in the out-param) and false
  // when it observed a freeze bit and made NO state change (speculative
  // allocations torn down, out-param untouched): the caller closes its
  // session and re-executes against the bucket's migration destination,
  // so forwarding waits happen outside any reservation. ----

  bool try_get(const K& key, unsigned tid, std::optional<V>& out) {
    Position pos = find(key, tid);
    if (pos.frozen) return false;
    if (!pos.found) {
      out = std::nullopt;
      return true;
    }
    // Protect the cell before dereferencing: a concurrent upsert may
    // CAS it out and retire it at any moment.  The node (parent) is
    // already protected by find()'s slot.
    const std::uintptr_t cw =
        tracker_.protect_word(pos.cur->cell, kCellSlot, tid, pos.cur);
    if (util::is_frozen(cw)) return false;  // never deref a frozen cell
    if (util::is_marked(cw)) {
      out = std::nullopt;  // tombstone: deleted
      return true;
    }
    out = util::unpack_ptr<ValueCell<V>>(cw)->value;
    return true;
  }

  /// The one value write, `Mode` (value_cell.hpp) deciding what it does
  /// with what find() and the cell word show: insert links a node for an
  /// absent key, put also swaps a present key's cell, update only swaps,
  /// and cas swaps only while the present value == *expected (`value`
  /// being the desired one).  The fresh cell, and for a link the node, is
  /// allocated only once the write is about to CAS it in, and kept across
  /// retries; a write that ends without publishing them deallocs them, so
  /// one that changes nothing allocates nothing and retires nothing.  cas
  /// reads the cell it may displace, a cell this thread does not own, so
  /// it protects the cell word as try_get does; when its swap then loses
  /// a race, the reloaded word names a cell that protection does NOT
  /// cover, so cas re-finds where put and update re-classify the reloaded
  /// word.
  template <Upsert Mode>
  bool try_upsert(const K& key, const V& value, unsigned tid,
                  UpsertOutcome& out, const V* expected = nullptr) {
    ValueCell<V>* cell = nullptr;
    Node* node = nullptr;
    const auto unchanged = [&](bool done) {
      if (cell != nullptr) tracker_.dealloc(cell, tid);  // never published
      if (node != nullptr) tracker_.dealloc(node, tid);
      if (done) out = {};
      return done;
    };
    for (;;) {
      Position pos = find(key, tid);
      if (pos.frozen) return unchanged(false);
      std::uintptr_t cw = 0;
      if (pos.found)
        cw = Mode == Upsert::kCas
                 ? tracker_.protect_word(pos.cur->cell, kCellSlot, tid, pos.cur)
                 : pos.cur->cell.load(std::memory_order_acquire);
      // Classify, then swap or link; a lost swap of put or update comes
      // back here with the reloaded word, every other retry re-finds.
      for (;;) {
        if (pos.found) {
          if (util::is_frozen(cw)) return unchanged(false);
          if (util::is_marked(cw)) {
            // Logically deleted: help it leave (invariant step 3).
            finish_remove(pos.cur);
            if constexpr (Mode == Upsert::kUpdate || Mode == Upsert::kCas)
              return unchanged(true);
            break;
          }
          if constexpr (Mode == Upsert::kInsert) return unchanged(true);
          if constexpr (Mode == Upsert::kCas) {
            if (!(util::unpack_ptr<ValueCell<V>>(cw)->value == *expected))
              return unchanged(true);
          }
        } else if constexpr (Mode == Upsert::kUpdate || Mode == Upsert::kCas) {
          return unchanged(true);
        }
        if (cell == nullptr) cell = tracker_.template alloc<ValueCell<V>>(tid, value);
        if (pos.found) {
          if (pos.cur->cell.compare_exchange_strong(cw, util::pack_ptr(cell),
                                                    std::memory_order_acq_rel,
                                                    std::memory_order_acquire)) {
            // We unlinked the old cell; we retire it (the invariant).
            tracker_.retire(util::unpack_ptr<ValueCell<V>>(cw), tid);
            if (node != nullptr) tracker_.dealloc(node, tid);
            out = {.replaced = true};
            return true;
          }
          // CAS reloaded cw: a racing upsert, a tombstone, or a freeze.
          if constexpr (Mode == Upsert::kCas) break;
          continue;
        }
        if (node == nullptr) node = tracker_.template alloc<Node>(tid, key);
        node->cell.store(util::pack_ptr(cell), std::memory_order_relaxed);
        node->next.store(util::pack_ptr(pos.cur), std::memory_order_relaxed);
        std::uintptr_t link = util::pack_ptr(pos.cur);
        if (pos.prev_link->compare_exchange_strong(link, util::pack_ptr(node),
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_relaxed)) {
          out = {.inserted = true};
          return true;
        }
        break;  // lost the link race: re-find
      }
    }
  }

  bool try_remove(const K& key, unsigned tid, std::optional<V>& out) {
    for (;;) {
      Position pos = find(key, tid);
      if (pos.frozen) return false;
      if (!pos.found) {
        out = std::nullopt;
        return true;
      }
      // Linearization: claim the key by CASing the mark bit into the
      // cell word, expecting it unmarked AND unfrozen.  The winner owns
      // the displaced cell (no CAS can succeed against a marked word),
      // so reading and retiring it needs no extra protection.  A CAS —
      // not a fetch_or — so a mark can never land on a frozen word:
      // frozen cell words stay immutable, which is what lets any helper
      // of a cooperative migration re-read liveness verdicts after the
      // freeze (no stray marks to tolerate).
      std::uintptr_t cw = pos.cur->cell.load(std::memory_order_acquire);
      for (;;) {
        if (util::is_frozen(cw)) return false;  // no claim happened: forward
        if (util::is_marked(cw)) {
          finish_remove(pos.cur);  // help the winner's physical deletion
          out = std::nullopt;
          return true;
        }
        if (pos.cur->cell.compare_exchange_weak(cw, cw | util::kMarkBit,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire))
          break;
        // CAS reloaded cw: a racing upsert, a racing remover, or the
        // freeze — loop re-classifies.
      }
      ValueCell<V>* old_cell = util::unpack_ptr<ValueCell<V>>(cw);
      out = old_cell->value;
      tracker_.retire(old_cell, tid);
      // Physical deletion, unchanged from Harris-Michael: mark next
      // (helpers may have done it already), then unlink.  A freeze that
      // lands after the claim only blocks the unlink: the node stays
      // linked and is retired by the migrator's drain (which sees the
      // marked cell and skips the cell we already retired).
      finish_remove(pos.cur);
      const std::uintptr_t next_w = pos.cur->next.load(std::memory_order_acquire);
      std::uintptr_t expected = util::pack_ptr(pos.cur);
      if (pos.prev_link->compare_exchange_strong(
              expected, util::strip(next_w), std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        tracker_.retire(pos.cur, tid);
      } else {
        find(key, tid);  // help unlink (no-op when frozen), then done
      }
      return true;
    }
  }

  /// Concurrency-SAFE iteration over present (key, value) pairs, for
  /// fuzzy snapshot dumps: every node and cell is dereferenced under the
  /// same protection discipline get() uses, so it may run against live
  /// writers.  If an unlink CAS forces a restart, already-emitted pairs
  /// are emitted again — callers must treat the output as a multiset of
  /// point-in-time observations (for a snapshot, any observation of a
  /// key is valid; see persist/snapshot.hpp for why).  Returns false if
  /// a freeze bit was observed (bucket mid-migration): no pair is
  /// missed only when the caller excludes concurrent migration, which
  /// the kv store does by snapshotting under the resize lock.
  template <class Fn>
  bool for_each_protected(unsigned tid, Fn&& fn) {
    tracker_.begin_op(tid);
    bool ok = true;
  restart:
    std::atomic<std::uintptr_t>* prev_link = &head_;
    Node* prev_node = nullptr;
    unsigned cur_slot = 0;
    for (;;) {
      const std::uintptr_t cur_w =
          tracker_.protect_word(*prev_link, cur_slot, tid, prev_node);
      if (util::is_frozen(cur_w)) {
        ok = false;
        break;
      }
      if (util::is_marked(cur_w)) goto restart;  // prev got deleted
      Node* cur = util::unpack_ptr<Node>(cur_w);
      if (cur == nullptr) break;
      const std::uintptr_t next_w = cur->next.load(std::memory_order_acquire);
      if (util::is_frozen(next_w)) {
        ok = false;
        break;
      }
      if (util::is_marked(next_w)) {
        // Logically deleted: help unlink exactly as find() does, so the
        // traversal never walks a marked chain unprotected.
        std::uintptr_t expected = util::pack_ptr(cur);
        if (!prev_link->compare_exchange_strong(expected, util::strip(next_w),
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed))
          goto restart;
        tracker_.retire(cur, tid);
        continue;  // re-read the same link
      }
      const std::uintptr_t cw =
          tracker_.protect_word(cur->cell, kCellSlot, tid, cur);
      if (util::is_frozen(cw)) {
        ok = false;
        break;
      }
      if (!util::is_marked(cw)) fn(cur->key, util::unpack_ptr<ValueCell<V>>(cw)->value);
      prev_link = &cur->next;
      prev_node = cur;
      cur_slot ^= 1u;
    }
    tracker_.end_op(tid);
    return ok;
  }

  // ---- migration primitives (cooperative: see the file header) ----

  /// Migration step 1: freeze the bucket.  Freezes head, then every
  /// node's `next` (BEFORE following it) and cell word.  IDEMPOTENT and
  /// safe to run from any number of threads concurrently — every store
  /// is a fetch_or of one sticky bit — so the kv store's resizer can
  /// freeze ahead while helpers re-freeze the bucket they claimed; each
  /// caller's own completed walk proves the bucket fully frozen.  The
  /// walk runs under the caller's tracker session (its own slots):
  /// links ahead of the freeze front are still live, so a remover may
  /// unlink and retire a node mid-walk — protection keeps the walk off
  /// freed memory exactly as in find() (a stray freeze bit set on an
  /// unlinked-but-protected node's words is harmless: nothing reads
  /// them again).
  void freeze(unsigned tid) {
    tracker_.begin_op(tid);
    head_.fetch_or(util::kFreezeBit, std::memory_order_acq_rel);
    std::atomic<std::uintptr_t>* link = &head_;
    Node* parent = nullptr;
    unsigned slot = 0;
    for (;;) {
      const std::uintptr_t w = tracker_.protect_word(*link, slot, tid, parent);
      Node* n = util::unpack_ptr<Node>(w);
      if (n == nullptr) break;
      n->next.fetch_or(util::kFreezeBit, std::memory_order_acq_rel);
      n->cell.fetch_or(util::kFreezeBit, std::memory_order_acq_rel);
      link = &n->next;
      parent = n;
      slot ^= 1u;
    }
    tracker_.end_op(tid);
  }

  /// Migration step 2: collect the frozen bucket's live pairs, plus one
  /// liveness flag per linked node (order = list order, immutable once
  /// frozen) for drain_frozen's retire ledger.  Caller contract: its
  /// own freeze() walk completed (bucket fully frozen) AND it holds the
  /// bucket's migration claim — so no node or cell here can be retired
  /// before the caller's own drain, making this a pure unprotected read
  /// walk.  Liveness is judged on the cell word alone: next-marked
  /// implies cell-marked (and frozen cell words are immutable, so there
  /// are no stray marks to tolerate), while a dead node's next word may
  /// still collect a benign Harris mark from a late finish_remove.
  /// Repeatable: every walk over a fully frozen bucket yields the same
  /// pairs in the same order.
  void collect_frozen(std::vector<std::pair<K, V>>& pairs,
                      std::vector<bool>& node_live) const {
    std::uintptr_t w = head_.load(std::memory_order_acquire);
    for (Node* n = util::unpack_ptr<Node>(w); n != nullptr;) {
      const std::uintptr_t nw = n->next.load(std::memory_order_acquire);
      const std::uintptr_t cw = n->cell.load(std::memory_order_acquire);
      const bool live = !util::is_marked(cw);
      if (live)
        pairs.emplace_back(n->key, util::unpack_ptr<ValueCell<V>>(cw)->value);
      node_live.push_back(live);
      n = util::unpack_ptr<Node>(nw);
    }
  }

  /// Migration step 3 (after the destination table holds every live pair
  /// and the bucket's migration flag is set): pop the frozen list and
  /// retire its blocks in THIS bucket's domain.  Each pop overwrites the
  /// head AND the popped node's next word (with a frozen tombstone)
  /// before the node — or any successor — is retired, so a reader's
  /// protect_word validation can never succeed on a word that still
  /// names a retired block.  `node_live` is collect_frozen's flag
  /// vector: live nodes retire their cell too (dead nodes' cells were
  /// already retired by the removers that won them).  Returns
  /// {nodes retired, cells retired}.
  std::pair<std::size_t, std::size_t> drain_frozen(
      unsigned tid, const std::vector<bool>& node_live) {
    constexpr std::uintptr_t kFrozenEnd = util::kFreezeBit | util::kMarkBit;
    std::size_t nodes = 0, cells = 0;
    Node* n = util::unpack_ptr<Node>(head_.load(std::memory_order_acquire));
    while (n != nullptr) {
      const std::uintptr_t nw = n->next.load(std::memory_order_acquire);
      const std::uintptr_t cw = n->cell.load(std::memory_order_acquire);
      head_.store(util::strip(nw) | util::kFreezeBit, std::memory_order_release);
      n->next.store(kFrozenEnd, std::memory_order_release);
      if (node_live[nodes]) {
        tracker_.retire(util::unpack_ptr<ValueCell<V>>(cw), tid);
        ++cells;
      }
      tracker_.retire(n, tid);
      ++nodes;
      n = util::unpack_ptr<Node>(nw);
    }
    return {nodes, cells};
  }

  /// Quiescent iteration over present (key, value) pairs in key order.
  /// Like size_unsafe(): a snapshot helper, not linearizable.
  template <class Fn>
  void for_each_unsafe(Fn&& fn) const {
    for (auto w = head_.load(std::memory_order_acquire); util::strip(w) != 0;) {
      const Node* node = util::unpack_ptr<Node>(w);
      const auto next = node->next.load(std::memory_order_acquire);
      const auto cw = node->cell.load(std::memory_order_acquire);
      if (!util::is_marked(next) && !util::is_marked(cw))
        fn(node->key, util::unpack_ptr<ValueCell<V>>(cw)->value);
      w = next;
    }
  }

  /// Quiescent size (test helper; not linearizable under concurrency).
  /// A cell-marked node is logically deleted even before its next is
  /// marked, so presence is judged on the cell word.
  std::size_t size_unsafe() const noexcept {
    std::size_t n = 0;
    for (auto w = head_.load(std::memory_order_acquire); util::strip(w) != 0;) {
      const Node* node = util::unpack_ptr<Node>(w);
      const auto next = node->next.load(std::memory_order_acquire);
      const auto cw = node->cell.load(std::memory_order_acquire);
      if (!util::is_marked(next) && !util::is_marked(cw)) ++n;
      w = next;
    }
    return n;
  }

 private:
  static constexpr unsigned kCellSlot = 2;

  struct Node : reclaim::Block {
    explicit Node(const K& k) : key(k) {}
    const K key;
    /// ValueCell<V>* | mark.  Marked = key logically deleted (tombstone;
    /// remove()'s linearization point).  Unmarked cell pointers are only
    /// ever changed by CAS, marked words never change again.
    std::atomic<std::uintptr_t> cell{0};
    std::atomic<std::uintptr_t> next{0};
  };

  struct Position {
    std::atomic<std::uintptr_t>* prev_link;
    Node* prev_node;  // block containing prev_link; nullptr at head
    Node* cur;        // first node with key >= target (protected), or null
    Node* next;       // cur's successor snapshot (unprotected)
    bool found;
    unsigned cur_slot;  // slot currently protecting cur
    bool frozen;        // a freeze bit was observed: abort, forward
  };

  /// Michael's find(): on return, cur (if non-null) is protected and was
  /// observed next-unmarked and in-list; prev_link is the link that named
  /// it.  `found` does NOT consult the cell word — callers decide how to
  /// treat a cell-marked (logically deleted, not yet unlinked) node.
  /// A freeze bit on any traversed word aborts with pos.frozen set.
  Position find(const K& key, unsigned tid) {
  retry:
    std::atomic<std::uintptr_t>* prev_link = &head_;
    Node* prev_node = nullptr;
    unsigned cur_slot = 0;  // alternates with prev's slot on advance
    for (;;) {
      const std::uintptr_t cur_w =
          tracker_.protect_word(*prev_link, cur_slot, tid, prev_node);
      if (util::is_frozen(cur_w))
        return {nullptr, nullptr, nullptr, nullptr, false, cur_slot, true};
      if (util::is_marked(cur_w)) goto retry;  // prev got deleted
      Node* cur = util::unpack_ptr<Node>(cur_w);
      if (cur == nullptr)
        return {prev_link, prev_node, nullptr, nullptr, false, cur_slot, false};
      const std::uintptr_t next_w = cur->next.load(std::memory_order_acquire);
      if (util::is_frozen(next_w))
        return {nullptr, nullptr, nullptr, nullptr, false, cur_slot, true};
      if (util::is_marked(next_w)) {
        // cur is logically deleted: unlink it before proceeding.  Its
        // cell was retired by the remover that marked the cell word
        // (next-marked implies cell-marked), so only the node is retired
        // here — exactly one thread wins this CAS.
        std::uintptr_t expected = util::pack_ptr(cur);
        if (!prev_link->compare_exchange_strong(expected, util::strip(next_w),
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
          goto retry;
        }
        tracker_.retire(cur, tid);
        continue;  // re-read the same link
      }
      if (!(cur->key < key)) {
        return {prev_link,         prev_node, cur, util::unpack_ptr<Node>(next_w),
                !(key < cur->key), cur_slot,  false};
      }
      prev_link = &cur->next;
      prev_node = cur;
      cur_slot ^= 1u;  // keep (new) prev protected; reuse the other slot
    }
  }

  /// Helps a cell-marked node out of the list: marks `next` so the next
  /// traversal unlinks it.  Unlike the cell mark, this mark elects no
  /// winner (the cell-mark CAS already did), so it is an idempotent
  /// fetch_or — it atomically marks whatever `next` holds, and no CAS
  /// ever succeeds against a marked word afterwards.  It may land on an
  /// already-frozen next word, but only ever on a DEAD node's (its cell
  /// is marked), so no migration liveness verdict changes.
  void finish_remove(Node* node) noexcept {
    node->next.fetch_or(util::kMarkBit, std::memory_order_acq_rel);
  }

  Tracker& tracker_;
  std::atomic<std::uintptr_t> head_{0};
};

}  // namespace wfe::ds
