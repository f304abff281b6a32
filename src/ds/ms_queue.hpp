#pragma once
// Michael-Scott lock-free MPMC queue (PODC'96) — the classic baseline the
// wait-free queues of the paper's evaluation (KP [23], CRTurn [35]) are
// measured against in the literature; used here by the queue-progress
// ablation bench and as a further example workload for the trackers.
//
// Standard algorithm: linked list with a consumed sentinel at the head;
// enqueue CASes the tail node's next then swings the tail; dequeue reads
// the value from the head's successor, then swings the head (the
// successor becomes the new sentinel).  Only single-width CAS, lock-free
// (not wait-free): an enqueue or dequeue can starve under contention.
//
// Reservation slots: 0 = head/tail anchor, 1 = next.

#include <atomic>
#include <cstdint>
#include <optional>

#include "reclaim/tracker.hpp"
#include "util/cacheline.hpp"

namespace wfe::ds {

template <class V, reclaim::tracker_for Tracker>
class MsQueue {
 public:
  static constexpr unsigned kSlotsNeeded = 2;

  explicit MsQueue(Tracker& tracker) : tracker_(tracker) {
    Node* sentinel = tracker_.template alloc<Node>(0, V{});
    head_.store(sentinel, std::memory_order_relaxed);
    tail_.store(sentinel, std::memory_order_relaxed);
  }

  MsQueue(const MsQueue&) = delete;
  MsQueue& operator=(const MsQueue&) = delete;

  /// Quiescent teardown.
  ~MsQueue() {
    Node* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      tracker_.dealloc(n, 0);
      n = next;
    }
  }

  void enqueue(const V& value, unsigned tid) {
    tracker_.begin_op(tid);
    Node* node = tracker_.template alloc<Node>(tid, value);
    for (;;) {
      Node* last = reclaim::protect(tracker_, tail_, 0, tid, nullptr);
      if (tail_.load(std::memory_order_seq_cst) != last) continue;
      Node* next = reclaim::protect(tracker_, last->next, 1, tid, last);
      if (tail_.load(std::memory_order_seq_cst) != last) continue;
      if (next != nullptr) {  // help a lagging tail
        tail_.compare_exchange_strong(last, next, std::memory_order_seq_cst,
                                      std::memory_order_relaxed);
        continue;
      }
      Node* expected = nullptr;
      if (last->next.compare_exchange_strong(expected, node,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed)) {
        tail_.compare_exchange_strong(last, node, std::memory_order_seq_cst,
                                      std::memory_order_relaxed);
        break;
      }
    }
    tracker_.end_op(tid);
  }

  std::optional<V> dequeue(unsigned tid) {
    tracker_.begin_op(tid);
    std::optional<V> out;
    for (;;) {
      Node* first = reclaim::protect(tracker_, head_, 0, tid, nullptr);
      if (head_.load(std::memory_order_seq_cst) != first) continue;
      Node* next = reclaim::protect(tracker_, first->next, 1, tid, first);
      if (head_.load(std::memory_order_seq_cst) != first) continue;
      if (next == nullptr) break;  // empty
      Node* last = tail_.load(std::memory_order_seq_cst);
      if (first == last) {  // tail lagging: help before consuming
        tail_.compare_exchange_strong(last, next, std::memory_order_seq_cst,
                                      std::memory_order_relaxed);
        continue;
      }
      // Read the value BEFORE the head swing: `next` is protected and
      // validated in-queue, so the read is safe; after the swing another
      // dequeuer could already be retiring it.
      const V value = next->value;
      if (head_.compare_exchange_strong(first, next, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        out = value;
        tracker_.retire(first, tid);  // unique winner retires the sentinel
        break;
      }
    }
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
  struct Node : reclaim::Block {
    explicit Node(const V& v) : value(v) {}
    V value;
    std::atomic<Node*> next{nullptr};
  };

  Tracker& tracker_;
  alignas(util::kFalseSharingRange) std::atomic<Node*> head_{nullptr};
  alignas(util::kFalseSharingRange) std::atomic<Node*> tail_{nullptr};
};

}  // namespace wfe::ds
