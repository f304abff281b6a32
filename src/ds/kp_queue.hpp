#pragma once
// Kogan-Petrank wait-free MPMC queue [23] — the paper's first wait-free
// workload (Figs. 5a/5b).  The original targets a garbage-collected
// runtime; the paper's evaluation (and this port) pairs it with manual
// reclamation, "the first wait-free reclamation evaluated under it".
//
// Algorithm: every operation announces an OpDesc (phase, pending,
// enqueue, node) in a per-thread state array and then *helps* every
// pending operation with a phase no newer than its own, so each op
// completes within a bounded number of steps regardless of scheduling.
//
// Deviations from the GC original, required for manual reclamation (all
// standard practice, cf. the ConcurrencyFreaks hazard-pointer port [1]):
//  * state[tid] is replaced with CAS everywhere (the original owner used
//    a plain store); every CAS winner retires the descriptor it removed,
//    so each descriptor is retired exactly once.
//  * the dequeued value is copied INTO the completion descriptor by the
//    helper that created it (while the source node is provably in-queue),
//    so the caller never dereferences a node after its op completed.
//  * operation phases are mirrored in a plain atomic array so maxPhase()
//    does not have to protect n descriptors per operation.
//
// Reservation slots: 0 = head/tail anchor, 1 = next, 2 = descriptor,
// 3 = second anchor (tail while head is held).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "reclaim/tracker.hpp"
#include "util/cacheline.hpp"

namespace wfe::ds {

template <class V, reclaim::tracker_for Tracker>
class KpQueue {
  static_assert(std::is_trivially_copyable_v<V> && sizeof(V) <= 8,
                "values are copied through completion descriptors");

 public:
  static constexpr unsigned kSlotsNeeded = 4;
  static constexpr unsigned kNoThread = ~0u;

  explicit KpQueue(Tracker& tracker)
      : tracker_(tracker),
        n_(tracker.max_threads()),
        state_(n_),
        phase_(n_) {
    Node* sentinel = tracker_.template alloc<Node>(0, V{}, kNoThread);
    head_.store(sentinel, std::memory_order_relaxed);
    tail_.store(sentinel, std::memory_order_relaxed);
    for (unsigned i = 0; i < n_; ++i) {
      // Completed dummy descriptors so helpers always find a valid object.
      OpDesc* d = tracker_.template alloc<OpDesc>(0, /*phase=*/0,
                                                  /*pending=*/false,
                                                  /*enqueue=*/true,
                                                  /*node=*/nullptr);
      state_[i].store(d, std::memory_order_relaxed);
      phase_[i].store(0, std::memory_order_relaxed);
    }
  }

  KpQueue(const KpQueue&) = delete;
  KpQueue& operator=(const KpQueue&) = delete;

  /// Quiescent teardown.
  ~KpQueue() {
    for (unsigned i = 0; i < n_; ++i)
      tracker_.dealloc(state_[i].load(std::memory_order_relaxed), 0);
    Node* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      tracker_.dealloc(n, 0);
      n = next;
    }
  }

  void enqueue(const V& value, unsigned tid) {
    tracker_.begin_op(tid);
    const std::uint64_t phase = max_phase(tid) + 1;
    Node* node = tracker_.template alloc<Node>(tid, value, tid);
    OpDesc* desc = tracker_.template alloc<OpDesc>(tid, phase, true, true, node);
    install_desc(tid, desc);
    help(phase, tid);
    help_finish_enqueue(tid);
    tracker_.end_op(tid);
  }

  std::optional<V> dequeue(unsigned tid) {
    tracker_.begin_op(tid);
    const std::uint64_t phase = max_phase(tid) + 1;
    OpDesc* desc = tracker_.template alloc<OpDesc>(tid, phase, true, false, nullptr);
    install_desc(tid, desc);
    help(phase, tid);
    help_finish_dequeue(tid);
    // Read the completion descriptor: a helper (or this thread) stored
    // the dequeued value into it, or marked the queue empty (node null).
    OpDesc* done = protect_desc(tid, tid);
    std::optional<V> out;
    if (done->node.load(std::memory_order_acquire) != nullptr)
      out = done->value;
    tracker_.end_op(tid);
    return out;
  }

  /// Quiescent length (test helper).
  std::size_t size_unsafe() const noexcept {
    std::size_t count = 0;
    const Node* n = head_.load(std::memory_order_acquire);
    n = n->next.load(std::memory_order_acquire);  // skip sentinel
    while (n != nullptr) {
      ++count;
      n = n->next.load(std::memory_order_acquire);
    }
    return count;
  }

 private:
  struct Node : reclaim::Block {
    Node(const V& v, unsigned etid) : value(v), enq_tid(etid) {}
    V value;
    const unsigned enq_tid;
    std::atomic<unsigned> deq_tid{kNoThread};
    std::atomic<Node*> next{nullptr};
  };

  struct OpDesc : reclaim::Block {
    OpDesc(std::uint64_t ph, bool pend, bool enq, Node* nd)
        : phase(ph), pending(pend), enqueue(enq), node(nd) {}
    const std::uint64_t phase;
    const bool pending;
    const bool enqueue;
    std::atomic<Node*> node;
    V value{};  // dequeue result, written before the descriptor publishes
  };

  static constexpr unsigned kSlotAnchor = 0;
  static constexpr unsigned kSlotNext = 1;
  static constexpr unsigned kSlotDesc = 2;
  static constexpr unsigned kSlotAnchor2 = 3;

  /// Protect-and-load state_[i] (descriptors are retired on replacement,
  /// so raw loads may dangle).
  OpDesc* protect_desc(unsigned i, unsigned tid) noexcept {
    return reclaim::protect(tracker_, state_[i], kSlotDesc, tid, nullptr);
  }

  std::uint64_t max_phase(unsigned) const noexcept {
    std::uint64_t m = 0;
    for (unsigned i = 0; i < n_; ++i) {
      const std::uint64_t p = phase_[i].load(std::memory_order_seq_cst);
      if (p > m) m = p;
    }
    return m;
  }

  /// Publish `desc` as tid's current operation.  CAS (not store) so that
  /// every state_ replacement anywhere in the algorithm has a unique
  /// winner who retires the old descriptor.
  void install_desc(unsigned tid, OpDesc* desc) noexcept {
    phase_[tid].store(desc->phase, std::memory_order_seq_cst);
    for (;;) {
      OpDesc* cur = protect_desc(tid, tid);
      if (state_[tid].compare_exchange_strong(cur, desc, std::memory_order_seq_cst,
                                              std::memory_order_relaxed)) {
        tracker_.retire(cur, tid);
        return;
      }
      // A laggard helper re-completed our previous op; retry with the
      // fresh descriptor (bounded: each helper replaces at most once).
    }
  }

  bool is_still_pending(unsigned i, std::uint64_t phase, unsigned tid) noexcept {
    OpDesc* d = protect_desc(i, tid);
    return d->pending && d->phase <= phase;
  }

  void help(std::uint64_t phase, unsigned tid) {
    for (unsigned i = 0; i < n_; ++i) {
      OpDesc* d = protect_desc(i, tid);
      if (d->pending && d->phase <= phase) {
        if (d->enqueue) {
          help_enqueue(i, phase, tid);
        } else {
          help_dequeue(i, phase, tid);
        }
      }
    }
  }

  void help_enqueue(unsigned i, std::uint64_t phase, unsigned tid) {
    while (is_still_pending(i, phase, tid)) {
      Node* last = reclaim::protect(tracker_, tail_, kSlotAnchor, tid, nullptr);
      Node* next = reclaim::protect(tracker_, last->next, kSlotNext, tid, last);
      if (last != tail_.load(std::memory_order_seq_cst)) continue;
      if (next != nullptr) {
        help_finish_enqueue(tid);  // tail is lagging
        continue;
      }
      if (!is_still_pending(i, phase, tid)) return;
      OpDesc* d = protect_desc(i, tid);
      if (!(d->pending && d->enqueue && d->phase <= phase)) return;
      Node* node = d->node.load(std::memory_order_acquire);
      Node* expected = nullptr;
      if (last->next.compare_exchange_strong(expected, node,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed)) {
        help_finish_enqueue(tid);
        return;
      }
    }
  }

  void help_finish_enqueue(unsigned tid) {
    Node* last = reclaim::protect(tracker_, tail_, kSlotAnchor, tid, nullptr);
    Node* next = reclaim::protect(tracker_, last->next, kSlotNext, tid, last);
    // `next` may be read only while `last` is still the tail: once the
    // tail moves on, `next` can be dequeued and freed before the
    // reservation above was published.
    if (next == nullptr || last != tail_.load(std::memory_order_seq_cst)) return;
    const unsigned etid = next->enq_tid;
    if (etid == kNoThread) {  // initial sentinel: just swing the tail
      tail_.compare_exchange_strong(last, next, std::memory_order_seq_cst,
                                    std::memory_order_relaxed);
      return;
    }
    OpDesc* cur = protect_desc(etid, tid);
    if (last != tail_.load(std::memory_order_seq_cst)) return;
    if (cur->node.load(std::memory_order_acquire) != next) {
      // Stale: the enqueue of `next` already completed; just fix the tail.
      tail_.compare_exchange_strong(last, next, std::memory_order_seq_cst,
                                    std::memory_order_relaxed);
      return;
    }
    OpDesc* done = tracker_.template alloc<OpDesc>(tid, cur->phase, false, true, next);
    OpDesc* expected = cur;
    if (state_[etid].compare_exchange_strong(expected, done, std::memory_order_seq_cst,
                                             std::memory_order_relaxed)) {
      tracker_.retire(cur, tid);
    } else {
      tracker_.dealloc(done, tid);  // never published
    }
    tail_.compare_exchange_strong(last, next, std::memory_order_seq_cst,
                                  std::memory_order_relaxed);
  }

  void help_dequeue(unsigned i, std::uint64_t phase, unsigned tid) {
    while (is_still_pending(i, phase, tid)) {
      Node* first = reclaim::protect(tracker_, head_, kSlotAnchor, tid, nullptr);
      Node* last = reclaim::protect(tracker_, tail_, kSlotAnchor2, tid, nullptr);
      Node* next = reclaim::protect(tracker_, first->next, kSlotNext, tid, first);
      if (first != head_.load(std::memory_order_seq_cst)) continue;
      if (first == last) {
        if (next == nullptr) {
          // Queue looks empty: complete with a null node.
          OpDesc* cur = protect_desc(i, tid);
          if (last != tail_.load(std::memory_order_seq_cst)) continue;
          if (!(cur->pending && !cur->enqueue && cur->phase <= phase)) return;
          OpDesc* done =
              tracker_.template alloc<OpDesc>(tid, cur->phase, false, false, nullptr);
          OpDesc* expected = cur;
          if (state_[i].compare_exchange_strong(expected, done,
                                                std::memory_order_seq_cst,
                                                std::memory_order_relaxed)) {
            tracker_.retire(cur, tid);
          } else {
            tracker_.dealloc(done, tid);
          }
        } else {
          help_finish_enqueue(tid);  // tail is lagging behind
        }
        continue;
      }
      // Non-empty: stake this dequeue's claim on `first`.
      OpDesc* cur = protect_desc(i, tid);
      if (!(cur->pending && !cur->enqueue && cur->phase <= phase)) return;
      if (first != head_.load(std::memory_order_seq_cst)) continue;
      if (cur->node.load(std::memory_order_acquire) != first) {
        OpDesc* fresh =
            tracker_.template alloc<OpDesc>(tid, cur->phase, true, false, first);
        OpDesc* expected = cur;
        if (!state_[i].compare_exchange_strong(expected, fresh,
                                               std::memory_order_seq_cst,
                                               std::memory_order_relaxed)) {
          tracker_.dealloc(fresh, tid);
          continue;
        }
        tracker_.retire(cur, tid);
      }
      unsigned claimant = kNoThread;
      first->deq_tid.compare_exchange_strong(claimant, i, std::memory_order_seq_cst,
                                             std::memory_order_relaxed);
      help_finish_dequeue(tid);
    }
  }

  void help_finish_dequeue(unsigned tid) {
    Node* first = reclaim::protect(tracker_, head_, kSlotAnchor, tid, nullptr);
    Node* next = reclaim::protect(tracker_, first->next, kSlotNext, tid, first);
    const unsigned dtid = first->deq_tid.load(std::memory_order_seq_cst);
    if (dtid == kNoThread) return;
    OpDesc* cur = protect_desc(dtid, tid);
    if (first != head_.load(std::memory_order_seq_cst)) return;
    if (next == nullptr) return;
    // `next` was protected while first == head, so it is in-queue and its
    // payload is safe to copy into the completion descriptor.
    OpDesc* done =
        tracker_.template alloc<OpDesc>(tid, cur->phase, false, false,
                                        cur->node.load(std::memory_order_acquire));
    done->value = next->value;
    OpDesc* expected = cur;
    if (cur->pending && !cur->enqueue &&
        state_[dtid].compare_exchange_strong(expected, done, std::memory_order_seq_cst,
                                             std::memory_order_relaxed)) {
      tracker_.retire(cur, tid);
    } else {
      tracker_.dealloc(done, tid);
    }
    Node* expected_head = first;
    if (head_.compare_exchange_strong(expected_head, next, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      tracker_.retire(first, tid);  // unique winner retires the sentinel
    }
  }

  Tracker& tracker_;
  const unsigned n_;
  reclaim::detail::PerThread<std::atomic<OpDesc*>> state_;
  reclaim::detail::PerThread<std::atomic<std::uint64_t>> phase_;
  alignas(util::kFalseSharingRange) std::atomic<Node*> head_{nullptr};
  alignas(util::kFalseSharingRange) std::atomic<Node*> tail_{nullptr};
};

}  // namespace wfe::ds
