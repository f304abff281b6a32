#pragma once
// Wait-Free Eras (WFE) — the paper's contribution (Figure 4).
//
// WFE runs Hazard Eras unchanged on the fast path.  When protect() fails
// to observe a stable global era within `fast_path_attempts` tries, the
// thread publishes a *help request* and enters the slow path.  The key
// invariant (paper §3.3): alloc() and retire() never advance the global
// era while an unserved help request exists — increment_era() first helps
// every requester (help_thread()), so slow-path loops are bounded by the
// number of in-flight incrementers (Lemmas 1-3) and every operation is
// wait-free bounded (Theorems 1-3).
//
// WfeCore is that algorithm, written once.  The paper's §2.4 notes the
// same technique makes 2GEIBR wait-free; core/wfe_ibr.hpp runs this engine
// with a different row layout.  Data layout (paper §3.2, Fig. 3), as rows
// plus requests:
//  * rows[tid][..]: {era, tag} reservation pairs.  Rows [0, requests) are
//    request rows: protect(idx) publishes into row slot_of(idx), and a
//    helper serving that row's request installs the era there.  The next
//    two rows, "parent" and "handover", are internal to help_thread().
//    Any rows after those are private to the layout.  The tag half
//    numbers a request row's slow-path cycles and increases
//    monotonically, killing delayed (ABA) updates from stale helpers.
//  * requests[tid][0..requests): one slow-path request per request row:
//      result  — {pointer, era} pair; {invptr, tag} while a request is
//                open, {value, era} once served (or {nullptr, ∞} when the
//                owner cancels after succeeding on its own);
//      era     — the parent block's alloc_era, pinning the parent for
//                helpers (Lemma 4);
//      pointer — address of the hazardous std::atomic the helper must read.
//  * counter_start/counter_end — F&A counters; cs != ce means requests may
//    be open, and cs moving means new requesters arrived (used by the
//    cleanup() scanning discipline, Lemma 5 / Theorem 4).
//
// A layout is the tracker deriving from WfeCore<Layout>.  It passes its
// request and private row counts to the constructor and supplies:
//  * slot_of(idx)        — the request row protect(idx) publishes into;
//  * add_app_rows(snap)  — adds every thread's application reservations
//                          to a cleanup pass's EraSnapshot (reclaim/he.hpp),
//                          each row read once;
//  * begin_op / end_op / clear_slot / copy_slot over its application rows.
// WfeTracker's layout is Fig. 3's: max_hes application rows, each its own
// request row (slot_of(idx) == idx), pinning by Hazard Eras' era points.
//
// retire() and flush() are reclaim::Reclaimer's, the ones every
// reclaiming scheme runs; WfeCore supplies Fig. 4's retire stamp, the era
// bump before a pass and cleanup()'s reads (read()).  One deviation from
// Fig. 4: cleanup() reads the rows once per pass into an EraSnapshot,
// where Fig. 4's can_delete() re-reads them for each retired block, and
// the blocks the pass detaches are judged against it in installments by
// the retires that follow (see read() and reclaim/tracker.hpp).
//
// API deviation from HE (paper §3.4): protect() takes the *parent* block
// containing the hazardous reference (nullptr for roots), so helpers can
// pin it while they dereference on the requester's behalf.

#include <atomic>
#include <cstdint>

#include "obs/clock.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "reclaim/block.hpp"
#include "reclaim/he.hpp"
#include "reclaim/tracker.hpp"
#include "util/atomics.hpp"
#include "util/cacheline.hpp"

namespace wfe::core {

using reclaim::Block;
using reclaim::kInfEra;
using reclaim::kInvPtr;
using reclaim::TrackerConfig;

template <class Layout>
class WfeCore : public reclaim::Reclaimer<WfeCore<Layout>, reclaim::EraSnapshot> {
  using Base = reclaim::Reclaimer<WfeCore, reclaim::EraSnapshot>;

 public:
  /// get_protected() — Fig. 4 lines 12-54.  `parent` is the block that
  /// physically contains `src` (nullptr when `src` is a data-structure
  /// root), needed so a helper can pin it via its alloc_era.
  std::uintptr_t protect_word(const std::atomic<std::uintptr_t>& src, unsigned idx,
                              unsigned tid, const Block* parent = nullptr) noexcept {
    const unsigned q = Layout::slot_of(idx);
    util::AtomicPair& rsv = resv_[tid][q];
    std::uint64_t prev_era = rsv.load_a(std::memory_order_acquire);

    // ---- fast path: identical to Hazard Eras (lines 16-24) ----
    unsigned attempts = cfg_.fast_path_attempts;
    while (attempts-- != 0) {
      const std::uintptr_t ret = src.load(std::memory_order_acquire);
      const std::uint64_t new_era = global_era_.value.load(std::memory_order_seq_cst);
      if (prev_era == new_era) return ret;
      rsv.store_a(new_era, std::memory_order_seq_cst);
      prev_era = new_era;
    }

    // ---- slow path: request helping (lines 26-54) ----
    const std::uint64_t probe_t0 =
        slow_path_hist_ != nullptr ? obs::now_ticks() : 0;
    const std::uint64_t parent_era = parent ? parent->alloc_era : kInfEra;
    counter_start_.value.fetch_add(1, std::memory_order_seq_cst);

    Request& st = req_[tid][q];
    st.pointer.store(&src, std::memory_order_relaxed);
    st.era.store(parent_era, std::memory_order_relaxed);
    const std::uint64_t tag = rsv.load_b(std::memory_order_relaxed);
    // Publishing {invptr, tag} opens the request; the seq_cst store
    // releases pointer/era above to helpers.
    st.result.store_pair({kInvPtr, tag}, std::memory_order_seq_cst);

    util::Pair res;  // result observed once produced
    for (;;) {       // bounded by the number of in-flight threads (Lemma 1)
      const std::uintptr_t ret = src.load(std::memory_order_acquire);
      const std::uint64_t new_era = global_era_.value.load(std::memory_order_seq_cst);
      if (prev_era == new_era) {
        // Cancel the request: flip result back to a benign value.
        util::Pair expect{kInvPtr, tag};
        if (st.result.wcas(expect, {0, kInfEra})) {
          rsv.store_b(tag + 1, std::memory_order_seq_cst);  // next cycle
          counter_end_.value.fetch_add(1, std::memory_order_seq_cst);
          finish_slow_probe(probe_t0, tid);
          return ret;
        }
        // WCAS failed: a helper produced the output first — consume it.
      }
      // Keep our era reservation current; failure means a helper already
      // wrote the final {era, tag+1}, which the exit path will honour.
      rsv.wcas_discard({prev_era, tag}, {new_era, tag});
      prev_era = new_era;
      res = st.result.load_pair(std::memory_order_seq_cst);
      if (res.a != kInvPtr) break;
    }

    // A helper served us: adopt its {pointer, era} output (lines 50-54).
    // The helper may have installed the reservation already; writing the
    // same era again is harmless.
    rsv.store_a(res.b, std::memory_order_seq_cst);
    rsv.store_b(tag + 1, std::memory_order_seq_cst);
    counter_end_.value.fetch_add(1, std::memory_order_seq_cst);
    finish_slow_probe(probe_t0, tid);
    return static_cast<std::uintptr_t>(res.a);
  }

  /// alloc_block() — Fig. 4 lines 69-75.
  template <class T, class... Args>
  T* alloc(unsigned tid, Args&&... args) {
    if (this->clock_due(tid)) increment_era(tid);
    T* node = this->template make_block<T>(tid, std::forward<Args>(args)...);
    node->alloc_era = global_era_.value.load(std::memory_order_seq_cst);
    return node;
  }

  std::uint64_t era() const noexcept {
    return global_era_.value.load(std::memory_order_acquire);
  }

  // Observability for tests/benches: how many slow-path entries/exits.
  std::uint64_t slow_path_entries() const noexcept {
    return counter_start_.value.load(std::memory_order_relaxed);
  }
  std::uint64_t slow_path_exits() const noexcept {
    return counter_end_.value.load(std::memory_order_relaxed);
  }

  /// Attaches a latency histogram to the slow path (src/obs/): each
  /// request-helping episode records its duration on the caller's lane,
  /// making the paper's fast-path/help contrast visible per-op.  The
  /// slow path is rare by construction, so the probe's clock reads cost
  /// nothing on the HE-speed fast path.
  void set_slow_path_probe(obs::LatencyHistogram* h) noexcept {
    slow_path_hist_ = h;
  }

 protected:
  /// Every thread gets `requests` request rows, the parent and handover
  /// rows, then `private_rows` rows of the layout's own.  A cleanup pass
  /// reads each row at most twice, which sizes its snapshot.
  WfeCore(const TrackerConfig& cfg, unsigned requests, unsigned private_rows)
      : Base(cfg, cfg.max_threads * 2 * (requests + 2 + private_rows)),
        resv_(cfg.max_threads, requests + 2 + private_rows, util::Pair{kInfEra, 0}),
        req_(cfg.max_threads, requests),
        requests_(requests) {}

  using Base::cfg_;

  struct Request {
    util::AtomicPair result{util::Pair{0, kInfEra}};  // {nullptr, ∞}
    std::atomic<std::uint64_t> era{kInfEra};
    std::atomic<const std::atomic<std::uintptr_t>*> pointer{nullptr};
  };

  // The clock and each counter sit on padded lines of their own, and each
  // thread's rows, and its requests, start on a cache-line pair of their
  // own (detail::PerThreadRows).
  reclaim::detail::PerThreadRows<util::AtomicPair> resv_;  ///< requests + 2 + private rows
  reclaim::detail::PerThreadRows<Request> req_;            ///< `requests` entries
  util::Padded<std::atomic<std::uint64_t>> global_era_{1};
  util::Padded<std::atomic<std::uint64_t>> counter_start_{0};
  util::Padded<std::atomic<std::uint64_t>> counter_end_{0};
  obs::LatencyHistogram* slow_path_hist_ = nullptr;  ///< null = unprobed
  const unsigned requests_;  ///< request rows per thread; parent row next

 private:
  friend Base;

  const Layout& layout() const noexcept { return static_cast<const Layout&>(*this); }

  /// increment_era() — Fig. 4 lines 87-98: help every open request, then
  /// (and only then) advance the clock.
  void increment_era(unsigned tid) noexcept {
    const std::uint64_t ce = counter_end_.value.load(std::memory_order_seq_cst);
    const std::uint64_t cs = counter_start_.value.load(std::memory_order_seq_cst);
    if (cs != ce) {
      for (unsigned i = 0; i < cfg_.max_threads; ++i) {
        for (unsigned q = 0; q < requests_; ++q) {
          if (req_[i][q].result.load_a(std::memory_order_seq_cst) == kInvPtr)
            help_thread(i, q, tid);
        }
      }
    }
    global_era_.value.fetch_add(1, std::memory_order_seq_cst);
  }

  /// help_thread() — Fig. 4 lines 100-134: dereference the requester's
  /// hazardous pointer on its behalf and hand over a reservation.
  void help_thread(unsigned i, unsigned q, unsigned tid) noexcept {
    Request& st = req_[i][q];
    util::Pair res = st.result.load_pair(std::memory_order_seq_cst);
    if (res.a != kInvPtr) return;

    // Pin the requester's parent block before touching its interior
    // pointer (Lemma 4; first internal reservation).
    const std::uint64_t parent_era = st.era.load(std::memory_order_acquire);
    util::AtomicPair& parent_rsv = resv_[tid][requests_];
    parent_rsv.store_a(parent_era, std::memory_order_seq_cst);

    const std::atomic<std::uintptr_t>* ptr = st.pointer.load(std::memory_order_acquire);
    util::AtomicPair& req_rsv = resv_[i][q];
    const std::uint64_t tag = req_rsv.load_b(std::memory_order_seq_cst);
    if (tag == res.b) {
      // All state fields were read consistently; serve the request.
      util::AtomicPair& handover_rsv = resv_[tid][requests_ + 1];
      std::uint64_t prev_era = global_era_.value.load(std::memory_order_seq_cst);
      do {  // bounded by the number of in-flight threads (Lemma 2)
        // Second internal reservation: keeps the dereferenced block alive
        // through the handover to the requester (Lemma 5).
        handover_rsv.store_a(prev_era, std::memory_order_seq_cst);
        const std::uintptr_t ret = ptr->load(std::memory_order_acquire);
        const std::uint64_t new_era = global_era_.value.load(std::memory_order_seq_cst);
        if (prev_era == new_era) {
          util::Pair expect = res;
          if (st.result.wcas(expect, {ret, new_era})) {
            // Install the reservation on the requester's behalf; at most
            // two iterations (Lemma 3).  A tag change means the requester
            // already moved on — leave its reservation alone.
            for (;;) {
              util::Pair old = req_rsv.load_pair(std::memory_order_seq_cst);
              if (old.b != tag) break;
              if (req_rsv.wcas(old, {new_era, tag + 1})) break;
            }
          }
          break;
        }
        prev_era = new_era;
      } while (st.result.load_pair(std::memory_order_seq_cst) == res);
      handover_rsv.store_a(kInfEra, std::memory_order_seq_cst);
    }
    parent_rsv.store_a(kInfEra, std::memory_order_seq_cst);
  }

  /// retire() — Fig. 4 lines 77-85, run by Reclaimer::retire: this stamp,
  /// then the list and the count-down, then before_pass() and the pass.
  void stamp(Block* b) const noexcept {
    b->retire_era = global_era_.value.load(std::memory_order_seq_cst);
  }

  void before_pass(const Block* b, unsigned tid) noexcept {
    if (b->retire_era == global_era_.value.load(std::memory_order_seq_cst))
      increment_era(tid);
  }

  /// cleanup() — Fig. 4 lines 56-67, implementing the scanning discipline of
  /// Lemmas 4/5 once per pass: counter_end, the application rows, the parent
  /// rows, counter_start, and — unless no helper can be active (ce == cs) —
  /// the handover rows followed by the application rows *again* (opposite
  /// order), all into one EraSnapshot.  The pass then detaches the retire
  /// list, and every block on it is tested against that snapshot: up to two
  /// per later retire, the rest at the start of the next pass, all of them
  /// at once by flush() (reclaim::Reclaimer).  Fig. 4 runs that sequence per
  /// block; running it once is every block's check at one instant after all
  /// of their retires, which the per-block code already admits, and the
  /// snapshot never tests a block retired after it was read
  /// (reclaim/tracker.hpp).  retire()'s era bump still comes before the
  /// pass.  add_app_rows() may read one thread's rows from the highest index
  /// down (WfeTracker does, for copy_slot's hand-offs); that order lies
  /// inside one read of the rows, so the reads still meet each reservation
  /// in Lemma 5's order: a block handed from a helper's parent or handover
  /// row to a requester's row is caught by the order of the reads, one
  /// handed between two application rows by the order within a read.
  void read(reclaim::EraSnapshot& snap) const noexcept {
    const std::uint64_t ce = counter_end_.value.load(std::memory_order_seq_cst);
    layout().add_app_rows(snap);
    add_internal_rows(snap, requests_);  // parent
    if (ce == counter_start_.value.load(std::memory_order_seq_cst)) return;
    add_internal_rows(snap, requests_ + 1);  // handover
    layout().add_app_rows(snap);
  }

  /// Adds every thread's internal row r (parent or handover).
  void add_internal_rows(reclaim::EraSnapshot& snap, unsigned r) const noexcept {
    for (unsigned t = 0; t < cfg_.max_threads; ++t)
      snap.add(resv_[t][r].load_a(std::memory_order_seq_cst));
  }

  /// Both slow-path exits funnel here: record the episode's duration and
  /// tag the thread's current op for slow-op trace attribution.
  void finish_slow_probe(std::uint64_t t0, unsigned tid) noexcept {
    if (slow_path_hist_ == nullptr) return;
    obs::tls_cause = obs::TraceCause::kSlowPath;
    slow_path_hist_->record_owned(obs::ticks_to_ns(obs::now_ticks() - t0), tid);
  }
};

class WfeTracker : public WfeCore<WfeTracker> {
 public:
  explicit WfeTracker(const TrackerConfig& cfg)
      : WfeCore(cfg, cfg.max_hes, /*private_rows=*/0) {}

  static constexpr const char* name() noexcept { return "WFE"; }

  void begin_op(unsigned) noexcept {}

  /// clear(): reset all application reservations; tags (the .B halves)
  /// must survive — they number slow-path cycles across operations.
  void end_op(unsigned tid) noexcept {
    for (unsigned j = 0; j < cfg_.max_hes; ++j)
      resv_[tid][j].store_a(kInfEra, std::memory_order_release);
  }

  void clear_slot(unsigned idx, unsigned tid) noexcept {
    resv_[tid][idx].store_a(kInfEra, std::memory_order_release);
  }

  /// Slot `to` takes over protecting the era slot `from` holds.  Only the
  /// era half is copied — the tag half numbers `to`'s own slow-path
  /// cycles and must not be disturbed.  An era `to` already holds is not
  /// stored again: the skip protect() makes when the era is unchanged
  /// (lines 16-24), since scanners already see it.
  void copy_slot(unsigned from, unsigned to, unsigned tid) noexcept {
    const std::uint64_t era = resv_[tid][from].load_a(std::memory_order_relaxed);
    if (resv_[tid][to].load_a(std::memory_order_relaxed) != era)
      resv_[tid][to].store_a(era, std::memory_order_seq_cst);
  }

 private:
  friend WfeCore;

  static constexpr unsigned slot_of(unsigned idx) noexcept { return idx; }

  /// HE's era points over the application rows, each thread's read
  /// from the highest slot down, as copy_slot's direction contract
  /// requires (reclaim/tracker.hpp).
  void add_app_rows(reclaim::EraSnapshot& snap) const noexcept {
    for (unsigned t = 0; t < cfg_.max_threads; ++t)
      for (unsigned j = cfg_.max_hes; j-- != 0;)
        snap.add(resv_[t][j].load_a(std::memory_order_seq_cst));
  }
};

static_assert(reclaim::tracker_for<WfeTracker>);

}  // namespace wfe::core
