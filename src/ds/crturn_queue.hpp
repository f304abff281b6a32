#pragma once
// CRTurn wait-free MPMC queue, after Ramalhete & Correia [35] — the
// paper's second wait-free workload (Figs. 5c/5d).
//
// This follows the published algorithm step by step: single-width CAS
// only, one allocation per enqueue, and turn-based helping through three
// per-thread request arrays.
//
// Enqueue: thread tid publishes its node in enqueuers_[tid].  Helpers
// read the tail, clear the tail node's own request (step 4 of its
// enqueue), then link the first published request in turn order after
// the tail node's enqueuer (step 2) and swing the tail to it (step 3).
// A request is cleared only once its node is the tail, and nothing is
// linked after a node while its request is still published, so a node
// can never be linked twice.
//
// Dequeue: thread tid has an open request while deqself_[tid] ==
// deqhelp_[tid] (step 1 copies deqhelp into deqself).  Helpers give the
// head's successor to the first open request in turn order after the
// head node's dequeuer (the node's deq_tid CAS, step 2), store the node
// in that thread's deqhelp (step 3) and only then swing the head (step
// 4).  An empty queue rolls the request back; `give_up` then serves any
// node a helper may have promised to it before the rollback.
//
// Deviations from the published code:
//  * values are stored in the nodes (the original stores item pointers
//    and returns nullptr for "empty"); dequeue returns std::optional.
//  * both operations loop until their own request is served instead of
//    running a fixed max_threads iterations.  The paper bounds the loops
//    by max_threads; looping on the request itself keeps a node from
//    being dropped if that bound were ever missed.
//  * every reservation goes through the tracker's validated protect().
//
// Reclamation: the node a thread dequeued stays in deqhelp (and then in
// deqself) as the marker of its next request, so helpers may still
// compare against it.  The thread retires it at the end of the dequeue
// after that, once it has left both arrays; the head has passed it by
// then.  The initial sentinel is nobody's result and is freed by the
// destructor.
//
// Reservation slots: 0 = head/tail, 1 = next, 2 = a helped deqhelp.

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "reclaim/tracker.hpp"
#include "util/cacheline.hpp"

namespace wfe::ds {

template <class V, reclaim::tracker_for Tracker>
class CrTurnQueue {
 public:
  static constexpr unsigned kSlotsNeeded = 3;

  explicit CrTurnQueue(Tracker& tracker)
      : tracker_(tracker),
        n_(tracker.max_threads()),
        enqueuers_(n_),
        deqself_(n_),
        deqhelp_(n_) {
    sentinel_ = tracker_.template alloc<Node>(0, V{}, 0u);
    head_.store(sentinel_, std::memory_order_relaxed);
    tail_.store(sentinel_, std::memory_order_relaxed);
    for (unsigned i = 0; i < n_; ++i) {
      enqueuers_[i].store(nullptr, std::memory_order_relaxed);
      // Distinct dummies: deqself != deqhelp means "no open request".
      deqself_[i].store(tracker_.template alloc<Node>(0, V{}, 0u),
                        std::memory_order_relaxed);
      deqhelp_[i].store(tracker_.template alloc<Node>(0, V{}, 0u),
                        std::memory_order_relaxed);
    }
  }

  CrTurnQueue(const CrTurnQueue&) = delete;
  CrTurnQueue& operator=(const CrTurnQueue&) = delete;

  /// Quiescent teardown: the chain from head_, each thread's two
  /// unretired dequeue results (or dummies) and the initial sentinel.
  /// The head may be some thread's deqhelp and the sentinel may still be
  /// the head, so chain nodes already in `owned` are skipped.
  ~CrTurnQueue() {
    std::vector<Node*> owned;
    for (unsigned i = 0; i < n_; ++i) {
      owned.push_back(deqself_[i].load(std::memory_order_relaxed));
      owned.push_back(deqhelp_[i].load(std::memory_order_relaxed));
    }
    owned.push_back(sentinel_);
    Node* node = head_.load(std::memory_order_relaxed);
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      if (!contains(owned, node)) tracker_.dealloc(node, 0);
      node = next;
    }
    for (Node* p : owned) tracker_.dealloc(p, 0);
  }

  void enqueue(const V& value, unsigned tid) {
    tracker_.begin_op(tid);
    Node* my_node = tracker_.template alloc<Node>(tid, value, tid);
    enqueuers_[tid].store(my_node);  // step 1
    while (enqueuers_[tid].load() != nullptr) {
      Node* ltail = reclaim::protect(tracker_, tail_, kSlotAnchor, tid, nullptr);
      // Step 4 for the tail node, before anything is linked after it.
      Node* served = ltail;
      enqueuers_[ltail->enq_tid].compare_exchange_strong(served, nullptr);
      // Step 2: link the next request in turn order.
      for (unsigned j = 1; j <= n_; ++j) {
        Node* to_help = enqueuers_[(ltail->enq_tid + j) % n_].load();
        if (to_help == nullptr) continue;
        Node* expected = nullptr;
        ltail->next.compare_exchange_strong(expected, to_help);
        break;
      }
      // Step 3.
      Node* lnext = ltail->next.load();
      if (lnext != nullptr) tail_.compare_exchange_strong(ltail, lnext);
    }
    tracker_.end_op(tid);
  }

  std::optional<V> dequeue(unsigned tid) {
    tracker_.begin_op(tid);
    Node* prev_req = deqself_[tid].load();
    Node* my_req = deqhelp_[tid].load();
    deqself_[tid].store(my_req);  // step 1: open the request
    while (deqhelp_[tid].load() == my_req) {
      Node* lhead = reclaim::protect(tracker_, head_, kSlotAnchor, tid, nullptr);
      if (lhead == tail_.load()) {
        // Looks empty: roll the request back, then serve whatever a
        // helper promised it before the rollback.
        deqself_[tid].store(prev_req);
        give_up(my_req, tid);
        if (deqhelp_[tid].load() == my_req) {
          tracker_.end_op(tid);
          return std::nullopt;
        }
        deqself_[tid].store(my_req);
        break;
      }
      Node* lnext = reclaim::protect(tracker_, lhead->next, kSlotNext, tid, lhead);
      if (lhead != head_.load()) continue;
      if (search_next(lhead, lnext) != kNoThread)
        cas_deq_and_head(lhead, lnext, tid);
    }
    Node* my_node = deqhelp_[tid].load();
    // Step 4, in case no helper swung the head past our node yet.
    Node* lhead = reclaim::protect(tracker_, head_, kSlotAnchor, tid, nullptr);
    if (my_node == lhead->next.load())
      head_.compare_exchange_strong(lhead, my_node);
    const V out = my_node->value;
    tracker_.retire(prev_req, tid);
    tracker_.end_op(tid);
    return out;
  }

  /// Quiescent length (test helper).
  std::size_t size_unsafe() const noexcept {
    std::size_t count = 0;
    const Node* n = head_.load(std::memory_order_acquire);
    n = n->next.load(std::memory_order_acquire);
    while (n != nullptr) {
      ++count;
      n = n->next.load(std::memory_order_acquire);
    }
    return count;
  }

 private:
  static constexpr unsigned kNoThread = ~0u;
  static constexpr unsigned kSlotAnchor = 0;
  static constexpr unsigned kSlotNext = 1;
  static constexpr unsigned kSlotDeq = 2;

  struct Node : reclaim::Block {
    Node(const V& v, unsigned etid) : value(v), enq_tid(etid) {}
    V value;
    const unsigned enq_tid;
    std::atomic<unsigned> deq_tid{kNoThread};
    std::atomic<Node*> next{nullptr};
  };

  static bool contains(const std::vector<Node*>& v, Node* p) noexcept {
    for (Node* q : v)
      if (q == p) return true;
    return false;
  }

  /// Step 2: give lnext to the first open request in turn order after
  /// the head node's dequeuer; returns whoever holds lnext now.
  unsigned search_next(Node* lhead, Node* lnext) {
    // The initial sentinel has no dequeuer: kNoThread + j wraps to j - 1,
    // so the scan starts at thread 0.
    const unsigned turn = lhead->deq_tid.load();
    for (unsigned j = 1; j <= n_; ++j) {
      const unsigned id = (turn + j) % n_;
      if (deqself_[id].load() != deqhelp_[id].load()) continue;
      unsigned none = kNoThread;
      lnext->deq_tid.compare_exchange_strong(none, id);
      break;
    }
    return lnext->deq_tid.load();
  }

  /// Steps 3 and 4: hand lnext to its dequeuer, then swing the head.  A
  /// helper protects the deqhelp it replaces, so that node cannot be
  /// freed and come back as the same thread's marker under the CAS.
  void cas_deq_and_head(Node* lhead, Node* lnext, unsigned tid) {
    const unsigned ldeq_tid = lnext->deq_tid.load();
    if (ldeq_tid == tid) {
      deqhelp_[tid].store(lnext);
    } else {
      Node* ldeqhelp =
          reclaim::protect(tracker_, deqhelp_[ldeq_tid], kSlotDeq, tid, nullptr);
      if (ldeqhelp != lnext && lhead == head_.load())
        deqhelp_[ldeq_tid].compare_exchange_strong(ldeqhelp, lnext);
    }
    head_.compare_exchange_strong(lhead, lnext);
  }

  /// Called after the rollback of an apparently empty dequeue.  A helper
  /// may have promised the head's successor to this request before the
  /// rollback; if the queue is no longer empty, hand that node out (to
  /// this thread when nobody else has an open request) and swing the
  /// head, so the promise is kept before the caller answers "empty".
  void give_up(Node* my_req, unsigned tid) {
    Node* lhead = reclaim::protect(tracker_, head_, kSlotAnchor, tid, nullptr);
    if (deqhelp_[tid].load() != my_req || lhead == tail_.load()) return;
    Node* lnext = reclaim::protect(tracker_, lhead->next, kSlotNext, tid, lhead);
    if (lhead != head_.load()) return;
    if (search_next(lhead, lnext) == kNoThread) {
      unsigned none = kNoThread;
      lnext->deq_tid.compare_exchange_strong(none, tid);
    }
    cas_deq_and_head(lhead, lnext, tid);
  }

  Tracker& tracker_;
  const unsigned n_;
  reclaim::detail::PerThread<std::atomic<Node*>> enqueuers_;
  reclaim::detail::PerThread<std::atomic<Node*>> deqself_;
  reclaim::detail::PerThread<std::atomic<Node*>> deqhelp_;
  Node* sentinel_{nullptr};
  alignas(util::kFalseSharingRange) std::atomic<Node*> head_{nullptr};
  alignas(util::kFalseSharingRange) std::atomic<Node*> tail_{nullptr};
};

}  // namespace wfe::ds
