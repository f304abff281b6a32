#pragma once
// Treiber's lock-free stack [37] — the paper's Figure 2 usage example.
//
// The node layout mirrors Fig. 2: a reclamation header (reclaim::Block),
// the next link and the stored value.  pop() protects the top node with
// slot 0 before the CAS; the top-of-stack pointer is a root, so the
// WFE `parent` argument is nullptr.

#include <atomic>
#include <cstdint>
#include <optional>

#include "reclaim/tracker.hpp"

namespace wfe::ds {

template <class T, reclaim::tracker_for Tracker>
class TreiberStack {
 public:
  explicit TreiberStack(Tracker& tracker) : tracker_(tracker) {}

  TreiberStack(const TreiberStack&) = delete;
  TreiberStack& operator=(const TreiberStack&) = delete;

  /// Quiescent teardown: no concurrent access may be in flight.
  ~TreiberStack() {
    Node* n = top_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      tracker_.dealloc(n, 0);
      n = next;
    }
  }

  void push(const T& value, unsigned tid) {
    Node* node = tracker_.template alloc<Node>(tid, value);
    Node* expected = top_.load(std::memory_order_relaxed);
    do {
      node->next.store(expected, std::memory_order_relaxed);
    } while (!top_.compare_exchange_weak(expected, node, std::memory_order_release,
                                         std::memory_order_relaxed));
  }

  std::optional<T> pop(unsigned tid) {
    std::optional<T> out;
    tracker_.begin_op(tid);
    for (;;) {
      Node* node = reclaim::protect(tracker_, top_, 0, tid, /*parent=*/nullptr);
      if (node == nullptr) break;
      Node* next = node->next.load(std::memory_order_acquire);
      if (top_.compare_exchange_strong(node, next, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        out = node->value;
        tracker_.retire(node, tid);
        break;
      }
    }
    tracker_.end_op(tid);
    return out;
  }

  bool empty() const noexcept {
    return top_.load(std::memory_order_acquire) == nullptr;
  }

  /// Reservation slots this structure uses per thread.
  static constexpr unsigned kSlotsNeeded = 1;

 private:
  struct Node : reclaim::Block {
    explicit Node(const T& v) : value(v) {}
    std::atomic<Node*> next{nullptr};
    T value;
  };

  Tracker& tracker_;
  alignas(util::kFalseSharingRange) std::atomic<Node*> top_{nullptr};
};

}  // namespace wfe::ds
