// Sharded kv-store throughput sweep: threads x shard counts x read
// ratios x multi-op batch widths x reclamation schemes, emitting
// BENCH_kv.json for the perf trajectory (util/json.hpp's shared row
// format).
//
// This is the ROADMAP's production-workload probe: unlike the figure
// benches (one structure, one domain) it exercises per-shard
// reclamation domains, batched retirement, in-place value-cell upserts
// and cross-shard multi-op sessions under mixed traffic.  The store
// upserts in place only ("upsert":"inplace" in every op row); the
// remove+re-insert baseline is priced on the bare BST (mode
// "bst_upsert" below).
//
// Every mode follows the paper's §5 method through one driver: build
// and prefill the store (make_store; the bst_upsert duel builds a bare
// BST), run every thread for a fixed window (window, the file's one
// harness::run_timed call), report Mop/s and the average number of
// unreclaimed objects.  Only the saturation sweep's open-loop paced
// window runs its own workers.
//
// Environment knobs (shared names with the figure harness where the
// meaning coincides):
//   WFE_BENCH_SECONDS      seconds per data point        (default 0.3)
//   WFE_BENCH_REPEATS      repeats per data point        (default 1)
//   WFE_BENCH_THREAD_LIST  comma list                    (default "1,2,4,8")
//   WFE_BENCH_PREFILL      keys prefilled                (default 20000)
//   WFE_BENCH_KEY_RANGE    key range                     (default 40000)
//   WFE_KV_SHARD_LIST      comma list of shard counts    (default "1,4,16")
//   WFE_KV_READ_LIST       comma list of read percents   (default "50,90")
//   WFE_KV_MBATCH_LIST     comma list of multi-op widths (default "1,16")
//                          1 = single ops; >1 = multi_get/multi_put spans
//   WFE_KV_RESIZE          0 disables the resize sweep   (default 1)
//   WFE_KV_OBS             0 disables the metrics-overhead sweep (default 1)
//                          one "mode":"obs_overhead" row per tracker x
//                          thread count: the 50%-update mix with metrics
//                          off vs on, overhead = 1 - on/off
//   WFE_KV_PERSIST         0 disables the durability sweep (default 1)
//   WFE_KV_SYNC_LIST       comma list of WAL sync modes  (default
//                          "none,batched,always"); rows carry
//                          "mode":"persist" and the per-mode wal stats
//   WFE_KV_PERSIST_DIR     scratch dir for the WAL sweep (default
//                          "bench_wal", wiped per data point)
//   WFE_KV_TXN             0 disables the transaction sweep (default 1)
//   WFE_KV_TXN_WIDTH_LIST  comma list of txn widths      (default "2,8")
//   WFE_KV_TXN_CONFLICT_LIST  comma list of conflict percents (default
//                          "0,50"): chance each txn key is drawn from a
//                          64-key hot set shared by all threads instead
//                          of the full range
//   WFE_KV_SCAN            0 disables the ordered-scan sweep (default 1)
//   WFE_KV_SCAN_WIDTH_LIST comma list of scan widths in keys (default
//                          "64,1024")
//   WFE_KV_SCAN_UPD_LIST   comma list of update percents (default
//                          "0,50"): that share of the threads becomes
//                          dedicated writers hammering the scanned
//                          range; rows carry "mode":"scan" with
//                          keys/s (total and per scanner thread) plus
//                          the store's scan_restarts counter — the
//                          gate compares per-scanner keys/s under
//                          write load against the upd=0 baseline
//   WFE_KV_BST             0 disables the raw-BST upsert duel (default 1)
//   WFE_KV_BST_THREAD_LIST comma list                    (default "4")
//                          "mode":"bst_upsert" rows: the 50%-update
//                          mix on a bare NatarajanBst, one row per
//                          tracker x upsert path — the in-place
//                          value-cell CAS must beat remove+insert on
//                          every tracker (tools/bench_diff.py gates it)
//   WFE_KV_SAT             0 disables the saturation sweep (default 1)
//   WFE_KV_SAT_SECONDS     seconds per saturation window (default
//                          max(1, WFE_BENCH_SECONDS): the admission
//                          law needs a few sampler periods to converge)
//   WFE_KV_SAT_SLO_MS      goodput latency SLO in ms     (default 50)
//   WFE_KV_SAT_THREAD_LIST comma list                    (default "4")
//   WFE_KV_SAT_RATIO_LIST  write-stream offered load as PERCENT of the
//                          measured capacity's write share (default
//                          "50,100,150,200,300"; reads ride along at a
//                          constant 10% of capacity in every window)
//   WFE_KV_SAT_TRACKERS    comma list of tracker names   (default all)
//   WFE_KV_SAT_REPEATS     windows per (ratio, controller) point; the
//                          best repeat (max goodput) is kept (default
//                          1).  On a shared 1-vCPU host a single
//                          window measures scheduler luck as much as
//                          the store — a descheduled worker set reads
//                          as a goodput dip the gate cannot tell from
//                          a real collapse.  Each repeat gets a fresh
//                          store so heap growth (Leak) cannot
//                          compound across repeats.
//   WFE_KV_JSON            output path                   (default BENCH_kv.json)
//
// Fixed (every committed BENCH_kv_pr*.json ran at these values): the
// per-thread retire burst is 8 (kRetireBatch, the "retire_batch"
// column) and the resize sweep grows 4 -> 16 shards (kResizeFrom,
// kResizeTo).
//
// The transaction sweep ("mode":"txn" rows) drives multi-key
// txn_commit batches — width keys per commit, mostly puts with a
// sprinkle of removes — on a persistent 4-shard store, once per WAL
// sync mode in the sync list (minus "none").  Under sync=always the
// commit acks block until the COMMIT record is durable, so those rows'
// commit_wait percentiles price the group-commit wait a caller pays
// per transaction; batched rows measure the fire-and-forget path.
//
// The resize sweep measures the dip-and-recovery profile of one online
// resize under load, per tracker and thread count: `pre` (steady state
// at 4 shards), `during` (worker 0 triggers resize(16) a third of the
// way into the window and drives the migration, with the other
// workers helping cooperatively whenever they hit a frozen bucket —
// rows carry helped_buckets / help_conflicts), `post` (steady state on
// the migrated store), and `fresh` (a control store CONSTRUCTED at 16
// shards) — post vs fresh is the recovery headline.
//
// The saturation sweep ("mode":"saturation" rows) is the admission-
// control acceptance probe: a persistent sync=batched store with a
// deliberately small WAL ring is first measured closed-loop (its
// capacity), then driven OPEN-loop at a ramp of offered WRITE loads
// (reads ride along at a constant 10% of capacity, so the
// read-priority contract shows up as flat read goodput while writes
// shed) — each worker follows an intended-arrival schedule at the
// offered rate and never resets it, so queueing delay is charged to
// the op like a real client would experience it (YCSB's "intended"
// latency); a refused slot backs off a few intended arrivals, like a
// rejected client, with the skipped arrivals counted as shed.
// Goodput counts only ops that complete within WFE_KV_SAT_SLO_MS of
// their scheduled arrival.  Every point runs twice, controller off vs
// on (KvConfig::admission): without admission, past the knee the
// schedule falls behind without bound and goodput collapses to ~0
// even though raw throughput stays flat; with admission the excess is
// shed at the front door (kv::Overloaded, counted in shed_rate) and
// the admitted ops keep meeting the SLO.  tools/bench_diff.py gates
// on exactly that: controller-on goodput at >=2x capacity must hold
// near its at-capacity-and-beyond peak while controller-off collapses.
//
// The non-read half of the mix is ALWAYS an upsert over the full key
// range, so at the default prefill (half the range) a write replaces a
// present key about half the time: read_pct=50 is the "50%-update mix"
// the in-place path must win on.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ds/natarajan_bst.hpp"
#include "harness/figure_bench.hpp"
#include "harness/runner.hpp"
#include "kv/kv_store.hpp"
#include "obs/registry.hpp"
#include "txn/txn.hpp"
#include "util/cacheline.hpp"
#include "util/json.hpp"

namespace {

using namespace wfe;

constexpr unsigned kRetireBatch = 8;  // per-thread retire burst
constexpr unsigned kResizeFrom = 4;   // resize sweep: shards before ...
constexpr unsigned kResizeTo = 16;    // ... and after the online resize

template <class TR>
using Store = kv::KvStore<std::uint64_t, std::uint64_t, TR>;

/// True when `word` appears as a comma-separated token of env `name`
/// (absent env means every word is on — the default sweep is full).
bool env_has_word(const char* name, const char* word) {
  const char* env = std::getenv(name);
  if (env == nullptr) return true;
  const std::size_t wlen = std::strlen(word);
  for (const char* p = env; *p != '\0';) {
    const char* end = p;
    while (*end != '\0' && *end != ',') ++end;
    if (static_cast<std::size_t>(end - p) == wlen && std::memcmp(p, word, wlen) == 0)
      return true;
    p = *end == ',' ? end + 1 : end;
  }
  return false;
}

struct SyncPick {
  persist::SyncMode mode;
  const char* name;
};

struct Params {
  double seconds;
  unsigned repeats;
  std::uint64_t prefill;
  std::uint64_t key_range;
  bool resize, obs_overhead, persist, txn, sat, scan, bst;
  double sat_seconds, sat_slo_ms;
  unsigned sat_repeats;
  std::string persist_dir;
  std::vector<SyncPick> syncs;  ///< WFE_KV_SYNC_LIST, none/batched/always order
  std::vector<unsigned> threads, shards, read_pcts, mbatch;
  std::vector<unsigned> txn_widths, txn_conflicts;
  std::vector<unsigned> sat_threads, sat_ratios;
  std::vector<unsigned> scan_widths, scan_upds, bst_threads;
};

/// What a mode's store differs in; make_store sets everything else.
enum class Obs { kOff, kMetrics, kFull };
struct Shape {
  unsigned shards = 4;
  std::optional<persist::SyncMode> sync = std::nullopt;  ///< set: WAL-attached
  std::uint32_t wal_ring = 0;   ///< WAL ring slots; 0 = the default
  bool ordered_index = false;
  Obs obs = Obs::kMetrics;
  double admit_write_rate = 0;  ///< > 0: admission on, token rate capped here
};

/// Prefill adapter: a single-thread prefill can outrun a freshly
/// started admission law, so a refused insert waits a millisecond and
/// counts as a miss (the next draw is a fresh key).
template <class S>
struct PatientInsert {
  S& s;
  bool insert(std::uint64_t k, std::uint64_t v, unsigned tid) {
    try {
      return s.insert(k, v, tid);
    } catch (const kv::Overloaded&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return false;
    }
  }
};

/// The bench's one store builder: the config every mode shares, the
/// mode's `shape`, a wiped scratch dir under a persistent store, and
/// the prefill.  At most one persistent store may be alive at a time
/// (they share the scratch dir).
template <class TR>
std::unique_ptr<Store<TR>> make_store(const Params& pp, unsigned threads,
                                      const Shape& shape) {
  kv::KvConfig cfg;
  cfg.shards = shape.shards;
  // Hold total bucket count roughly constant across shard counts
  // so the sweep isolates domain partitioning, not table size.
  cfg.buckets_per_shard =
      std::max<std::size_t>(64, 4096 / std::max(1u, shape.shards));
  cfg.tracker.max_threads = threads;
  cfg.tracker.max_hes = Store<TR>::kSlotsNeeded;
  cfg.tracker.retire_batch = kRetireBatch;
  // Latency columns come from the obs layer; the background sampler is
  // off so the only cost in the window is the per-op probe itself.
  cfg.metrics.enabled = shape.obs != Obs::kOff;
  cfg.metrics.sampler = false;
  if (shape.obs == Obs::kFull) {
    // The A/A gate must price the FULL obs stack: flight recorder
    // (explicit path — no persist dir here) and watchdog included.
    // Heartbeats are episode-counter stores, traces only tee on slow
    // ops, so "on" staying within budget is exactly the claim.
    cfg.metrics.flight = true;
    cfg.metrics.flight_path = "BENCH_flight.bin";
    cfg.metrics.watchdog.enabled = true;
  }
  cfg.ordered_index = shape.ordered_index;
  if (shape.sync) {
    // A fresh scratch dir per store, so recovery replay never pollutes
    // the timing.
    std::filesystem::remove_all(pp.persist_dir);
    cfg.persistence.enabled = true;
    cfg.persistence.dir = pp.persist_dir;
    cfg.persistence.sync = *shape.sync;
    if (shape.wal_ring != 0) cfg.persistence.ring_capacity = shape.wal_ring;
  }
  if (shape.admit_write_rate > 0) {
    cfg.admission.enabled = true;  // flips the sampler back on
    cfg.metrics.sample_interval_ms = 20;  // the law needs a live feed
    cfg.admission.max_write_rate = shape.admit_write_rate;
    // Burst sized to ride through a scheduler stall: on a 1-vCPU
    // host all workers can be off-CPU for 100ms+ at a time, and with
    // a small bucket every token refilled after it clamps full is
    // lost — which reads as a goodput dip the gate can't tell from a
    // real collapse.  A quarter-second bucket absorbs the stall and
    // the behind-schedule workers drain it on wakeup, inside the SLO.
    cfg.admission.burst_seconds = 0.25;
    // Mild: the static cap provides the headroom; the law underneath
    // only trims on a genuinely backed-up ring.
    cfg.admission.wal_lag_target = 384;  // vs the sweep's 512-slot ring
    // The retire backlog is NOT a signal in this sweep: the Leak
    // baseline never reclaims, so its backlog grows without bound by
    // design and would pin severity at max regardless of load.
    cfg.admission.retire_backlog_target = 1e12;
    // Emergency brakes only — the severity law stays live underneath
    // the static cap for transients (a mispredicted probe, a stalled
    // flusher), but routine overload must be absorbed by the bucket.
    cfg.admission.shed_write_severity = 8.0;
    cfg.admission.shed_read_severity = 32.0;
    // This sweep's callers pace themselves; a dry bucket should shed
    // instantly, not park the worker for the default wait.
    cfg.admission.max_wait_us = 0;
  }
  auto store = std::make_unique<Store<TR>>(cfg);
  PatientInsert<Store<TR>> patient{*store};
  harness::prefill(patient, pp.prefill, pp.key_range);
  return store;
}

/// The bench's one timed window: `op(rng, tid)` on `threads` threads
/// for `seconds`, `repeats` times, sampling the paper's memory metric
/// on `s` — a store's domains plus its batch buffers, or a bare
/// tracker's count — unless `sample` is off (the paired obs windows,
/// the capacity probe and the role-split scan windows keep the
/// coordinator's stats walk out of the measurement).
template <class S, class Op>
harness::RunResult window(const S& s, unsigned threads, double seconds, Op&& op,
                          unsigned repeats = 1, bool sample = true) {
  harness::RunConfig rc;
  rc.threads = threads;
  rc.seconds = seconds;
  rc.repeats = repeats;
  return harness::run_timed(rc, op, [&] {
    std::uint64_t u = 0;
    if (!sample) return u;
    if constexpr (requires { s.stats(); }) {
      for (const auto& sh : s.stats().shards) u += sh.unreclaimed + sh.pending_retired;
    } else {
      u = s.unreclaimed();
    }
    return u;
  });
}

/// One op of the get/upsert mix over uniform keys: a get with
/// probability read_pct%, else an in-place upsert.
template <class S>
void mix_op(S& s, const Params& pp, util::Xoshiro256& rng, unsigned tid,
            unsigned read_pct = 50) {
  const std::uint64_t k = rng.next_bounded(pp.key_range) + 1;
  if (rng.percent(read_pct))
    s.get(k, tid);
  else
    s.put(k, k, tid);
}

/// One multi-op slot: `width` uniform keys through one multi_get (with
/// probability read_pm / 10000) or one multi_put.
template <class S>
void multi_slot(S& s, const Params& pp, util::Xoshiro256& rng, unsigned tid,
                unsigned width, unsigned read_pm) {
  static thread_local std::vector<std::uint64_t> kbuf;
  static thread_local std::vector<std::optional<std::uint64_t>> obuf;
  static thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> pbuf;
  if (rng.next_bounded(10000) < read_pm) {
    kbuf.resize(width);
    obuf.resize(width);
    for (std::uint64_t& k : kbuf) k = rng.next_bounded(pp.key_range) + 1;
    s.multi_get(kbuf.data(), width, obuf.data(), tid);
  } else {
    pbuf.resize(width);
    for (auto& kv : pbuf) {
      const std::uint64_t k = rng.next_bounded(pp.key_range) + 1;
      kv = {k, k};
    }
    s.multi_put(pbuf.data(), width, tid);
  }
}

/// Opens a row with the columns every mode starts with; op rows carry
/// no "mode".  The caller closes it.
void row_head(util::JsonWriter& j, const char* tracker, const char* mode,
              unsigned threads) {
  j.begin_object();
  j.kv("tracker", tracker);
  if (mode != nullptr) j.kv("mode", mode);
  j.kv("threads", threads);
}

/// The window's headline columns; `scale` converts lambda calls to
/// key-ops where one call covers several keys.
void window_cols(util::JsonWriter& j, const harness::RunResult& r,
                 double scale = 1.0) {
  j.kv("mops", r.mops * scale);
  j.kv("mops_stddev", r.mops_stddev * scale);
  j.kv("avg_unreclaimed", r.avg_unreclaimed);
}

/// Store counters every store-backed row carries (zeros where a mode
/// has no WAL).
void store_cols(util::JsonWriter& j, const kv::ShardStats& tot) {
  j.kv("ops", tot.ops());
  j.kv("retired", tot.retired);
  // Retire backlog at the end of the window: queued on the domains'
  // retire lists (unreclaimed) vs still buffered in the batch adapters.
  j.kv("retire_backlog", tot.unreclaimed);
  j.kv("pending_retired", tot.pending_retired);
  // Max-over-streams appended-durable gap.
  j.kv("wal_durable_lag", tot.wal_durable_lag);
  j.kv("wal_fsyncs", tot.wal_fsyncs);
}

/// Emits `<prefix>_{p50,p99,p999,max}_ns` columns for each named
/// histogram of `snap` (zeros when a histogram never recorded).
void latency_cols(
    util::JsonWriter& j, const obs::RegistrySnapshot& snap,
    std::initializer_list<std::pair<const char*, const char*>> hists) {
  for (const auto& [hist_name, prefix] : hists) {
    const auto it = std::find_if(
        snap.histograms.begin(), snap.histograms.end(),
        [&](const obs::HistogramSummary& h) { return h.name == hist_name; });
    const obs::HistogramSummary* s = it == snap.histograms.end() ? nullptr : &*it;
    const std::string p(prefix);
    j.kv((p + "_p50_ns").c_str(), s ? s->p50_ns : 0);
    j.kv((p + "_p99_ns").c_str(), s ? s->p99_ns : 0);
    j.kv((p + "_p999_ns").c_str(), s ? s->p999_ns : 0);
    j.kv((p + "_max_ns").c_str(), s ? s->max_ns : 0);
  }
}

/// The get/upsert mix at `read_pct` on one store.  Op rows sweep shard
/// count x read ratio x multi-op width (single ops or `mbatch`-key
/// spans) in memory; persist rows (`sync` set) run the single-op 50/50
/// mix on a WAL-attached 4-shard store, one row per sync mode.
template <class TR>
void run_mix(const Params& pp, util::JsonWriter& j, unsigned nshards,
             unsigned read_pct, unsigned nthreads, unsigned mbatch,
             const SyncPick* sync = nullptr) {
  Shape shape{.shards = nshards};
  if (sync != nullptr) shape.sync = sync->mode;
  auto store = make_store<TR>(pp, nthreads, shape);
  const harness::RunResult r = window(
      *store, nthreads, pp.seconds,
      [&](util::Xoshiro256& rng, unsigned tid) {
        // Multi-op mode: one harness "op" is a whole span of mbatch
        // keys routed through the cross-shard batching API.
        if (mbatch <= 1)
          mix_op(*store, pp, rng, tid, read_pct);
        else
          multi_slot(*store, pp, rng, tid, mbatch, read_pct * 100);
      },
      pp.repeats);

  const kv::ShardStats tot = store->stats().total();
  std::printf(
      "%-8s %-7s shards=%-3zu read=%u%% threads=%-3u mbatch=%-3u "
      "%8.3f Mops/s  unreclaimed(avg)=%.0f cell_retires=%llu "
      "wal_lag(max)=%llu fsyncs=%llu\n",
      TR::name(), sync != nullptr ? sync->name : "", store->shard_count(),
      read_pct, nthreads, mbatch, r.mops * mbatch, r.avg_unreclaimed,
      static_cast<unsigned long long>(tot.value_cell_retires),
      static_cast<unsigned long long>(tot.wal_durable_lag),
      static_cast<unsigned long long>(tot.wal_fsyncs));

  row_head(j, TR::name(), sync != nullptr ? "persist" : nullptr, nthreads);
  if (sync != nullptr) j.kv("sync", sync->name);
  // The effective (power-of-two-rounded) shard count, not the requested one.
  j.kv("shards", static_cast<std::uint64_t>(store->shard_count()));
  j.kv("read_pct", read_pct);
  j.kv("retire_batch", kRetireBatch);
  j.kv("upsert", "inplace");
  window_cols(j, r, mbatch);  // one lambda call covers mbatch key-ops
  store_cols(j, tot);
  if (sync == nullptr) {
    j.kv("mbatch", mbatch);
    j.kv("batch_flushes", tot.batch_flushes);
    j.kv("slow_path_entries", tot.slow_path_entries);
    j.kv("value_cell_retires", tot.value_cell_retires);
    j.kv("batched_ops", tot.batched_ops);
  }
  // End-to-end per-op latency percentiles (prefill included in the
  // put/get counts but dwarfed by the measured window); one multi
  // record covers a whole mbatch-key span.
  const obs::RegistrySnapshot snap = store->metrics()->registry.snapshot();
  if (sync != nullptr)
    latency_cols(j, snap,
                 {{"kv_op_get_ns", "get"},
                  {"kv_op_put_ns", "put"},
                  {"kv_wal_fsync_ns", "fsync"},
                  {"kv_wal_commit_wait_ns", "commit_wait"}});
  else if (mbatch <= 1)
    latency_cols(j, snap, {{"kv_op_get_ns", "get"}, {"kv_op_put_ns", "put"}});
  else
    latency_cols(j, snap, {{"kv_op_multi_ns", "multi"}});
  j.end_object();
}

/// Transaction sweep: each harness op builds and commits one
/// `width`-key transaction (7/8 puts, 1/8 removes) on a persistent
/// 4-shard store.  `conflict_pct` is the chance a key comes from a
/// 64-key hot set every thread shares — cross-thread collisions on the
/// same value cells — instead of the full key range.  One row per
/// (width, conflict, sync mode); see the file header for how the sync
/// mode shapes the commit_wait columns.
template <class TR>
void run_txn(const Params& pp, util::JsonWriter& j, unsigned nthreads,
             unsigned width, unsigned conflict_pct, const SyncPick& sync) {
  auto store = make_store<TR>(pp, nthreads, {.sync = sync.mode});
  const harness::RunResult r = window(
      *store, nthreads, pp.seconds,
      [&](util::Xoshiro256& rng, unsigned tid) {
        static thread_local txn::Txn<std::uint64_t, std::uint64_t> t;
        t.clear();
        for (unsigned i = 0; i < width; ++i) {
          const std::uint64_t k = rng.percent(conflict_pct)
                                      ? rng.next_bounded(64) + 1
                                      : rng.next_bounded(pp.key_range) + 1;
          if (rng.percent(12))
            t.remove(k);
          else
            t.put(k, k);
        }
        store->txn_commit(t, tid);
      },
      pp.repeats);

  // run_timed counts commits; key-ops scale with the width.
  const kv::KvStats st = store->stats();
  const kv::ShardStats tot = st.total();
  std::printf(
      "%-8s TXN     sync=%-7s threads=%-3u width=%-2u conflict=%u%%  "
      "%8.3f Mcommits/s (%8.3f Mkeyops/s)  wal_lag(max)=%llu\n",
      TR::name(), sync.name, nthreads, width, conflict_pct, r.mops,
      r.mops * width, static_cast<unsigned long long>(tot.wal_durable_lag));

  row_head(j, TR::name(), "txn", nthreads);
  j.kv("sync", sync.name);
  j.kv("txn_width", width);
  j.kv("conflict_pct", conflict_pct);
  j.kv("shards", static_cast<std::uint64_t>(store->shard_count()));
  j.kv("retire_batch", kRetireBatch);
  window_cols(j, r);
  j.kv("key_mops", r.mops * width);
  j.kv("txn_commits", st.txn_commits);
  j.kv("txn_ops", tot.txn_ops);
  store_cols(j, tot);
  // txn_commit records end-to-end into the multi-op histogram.
  latency_cols(j, store->metrics()->registry.snapshot(),
               {{"kv_op_multi_ns", "commit"},
                {"kv_wal_commit_wait_ns", "commit_wait"},
                {"kv_wal_fsync_ns", "fsync"}});
  j.end_object();
}

/// Metrics-overhead probe: the 50%-update mix on identical stores with
/// metrics off vs on (all eight probes live: op histograms, trace ring,
/// WFE slow-path hook), same thread count and shard layout.  Emits a
/// "mode":"obs_overhead" row carrying both throughputs and the ratio;
/// the acceptance budget compares within the row (same run, same host),
/// not across PRs.
template <class TR>
void run_obs_overhead(const Params& pp, util::JsonWriter& j, unsigned nthreads) {
  // Three long-lived stores in strictly alternating windows: metrics
  // off, metrics on, and a SECOND metrics-off control.  Scheduler and
  // frequency drift land on every side equally, and the control's
  // off2/off ratio is the same-run A/A noise floor — on a 1-CPU host the
  // floor routinely exceeds the probe's true cost (~3ns/op sampled at
  // 1/16, microbenched), so the gate judges on_off against aa, not
  // against 1.0.  The first (discarded) round warms all three up.
  auto store_off = make_store<TR>(pp, nthreads, {.obs = Obs::kOff});
  auto store_on = make_store<TR>(pp, nthreads, {.obs = Obs::kFull});
  auto store_off2 = make_store<TR>(pp, nthreads, {.obs = Obs::kOff});
  const auto mops = [&](Store<TR>& s) {
    return window(
               s, nthreads, pp.seconds,
               [&](util::Xoshiro256& rng, unsigned tid) { mix_op(s, pp, rng, tid); },
               1, /*sample=*/false)
        .mops;
  };
  for (Store<TR>* s : {store_off.get(), store_on.get(), store_off2.get()})
    (void)mops(*s);
  // Median of per-round paired ratios: each round's windows are
  // temporally adjacent, and the median sheds the windows an IRQ burst
  // landed on.
  const unsigned rounds = std::max(pp.repeats, 7u);
  std::vector<double> ratios, aa_ratios;
  double off = 0, on = 0;
  for (unsigned i = 0; i < rounds; ++i) {
    const double o = mops(*store_off);
    const double n = mops(*store_on);
    const double o2 = mops(*store_off2);
    off += o;
    on += n;
    ratios.push_back(o > 0 ? n / o : 1.0);
    aa_ratios.push_back(o > 0 ? o2 / o : 1.0);
  }
  off /= rounds;
  on /= rounds;
  std::sort(ratios.begin(), ratios.end());
  std::sort(aa_ratios.begin(), aa_ratios.end());
  const double ratio = ratios[ratios.size() / 2];
  const double aa = aa_ratios[aa_ratios.size() / 2];
  std::printf(
      "%-8s OBS     threads=%-3u off=%7.3f on=%7.3f Mops/s  ratio=%.4f "
      "aa=%.4f (overhead %.2f%%, noise floor %.2f%%)\n",
      TR::name(), nthreads, off, on, ratio, aa, (1.0 - ratio) * 100.0,
      std::abs(1.0 - aa) * 100.0);

  row_head(j, TR::name(), "obs_overhead", nthreads);
  j.kv("read_pct", 50);
  j.kv("shards", static_cast<std::uint64_t>(store_on->shard_count()));
  j.kv("mops_metrics_off", off);
  j.kv("mops_metrics_on", on);
  j.kv("on_off_ratio", ratio);
  j.kv("aa_ratio", aa);
  j.end_object();
}

/// Dip-and-recovery profile of one online resize (see file header).
/// The stores run without metrics.
template <class TR>
void run_resize(const Params& pp, util::JsonWriter& j, unsigned nthreads) {
  // One window of the 50/50 mix; with `grow_to` set, worker 0 triggers
  // resize(grow_to) a third of the way through and runs the migration
  // inline.
  const auto mops = [&](Store<TR>& s, unsigned grow_to) {
    std::atomic<bool> resized{false};
    const auto trigger = std::chrono::steady_clock::now() +
                         std::chrono::duration<double>(pp.seconds / 3.0);
    return window(s, nthreads, pp.seconds,
                  [&](util::Xoshiro256& rng, unsigned tid) {
                    if (grow_to != 0 && tid == 0 &&
                        !resized.load(std::memory_order_relaxed) &&
                        std::chrono::steady_clock::now() >= trigger) {
                      resized.store(true, std::memory_order_relaxed);
                      s.resize(grow_to, tid);
                      return;
                    }
                    mix_op(s, pp, rng, tid);
                  })
        .mops;
  };
  auto store =
      make_store<TR>(pp, nthreads, {.shards = kResizeFrom, .obs = Obs::kOff});
  const double pre = mops(*store, 0);
  const double during = mops(*store, kResizeTo);
  const double post = mops(*store, 0);
  auto control =
      make_store<TR>(pp, nthreads, {.shards = kResizeTo, .obs = Obs::kOff});
  const double fresh = mops(*control, 0);

  const kv::KvStats st = store->stats();
  std::printf(
      "%-8s RESIZE %u->%u threads=%-3u pre=%7.3f during=%7.3f post=%7.3f "
      "fresh=%7.3f Mops/s  migrated=%llu forwarded=%llu helped=%llu "
      "conflicts=%llu\n",
      TR::name(), kResizeFrom, kResizeTo, nthreads, pre, during, post, fresh,
      static_cast<unsigned long long>(st.migrated_keys),
      static_cast<unsigned long long>(st.forwarded_ops),
      static_cast<unsigned long long>(st.helped_buckets),
      static_cast<unsigned long long>(st.help_conflicts));

  row_head(j, TR::name(), "resize", nthreads);
  j.kv("read_pct", 50);
  j.kv("from_shards", static_cast<std::uint64_t>(
                          st.resizes.empty() ? kResizeFrom
                                             : st.resizes[0].from_shards));
  j.kv("to_shards", static_cast<std::uint64_t>(st.shard_count));
  j.kv("pre_mops", pre);
  j.kv("during_mops", during);
  j.kv("post_mops", post);
  j.kv("fresh_mops", fresh);
  j.kv("migrated_keys", st.migrated_keys);
  j.kv("forwarded_ops", st.forwarded_ops);
  j.kv("helped_buckets", st.helped_buckets);
  j.kv("help_conflicts", st.help_conflicts);
  j.kv("resize_epochs", st.resize_epochs);
  j.key("resizes").begin_array();
  for (const auto& r : st.resizes) to_json(j, r);
  j.end_array();
  j.end_object();
}

/// Saturation sweep (see file header): measured capacity, then an
/// open-loop offered-load ramp with the admission controller off vs on.
template <class TR>
void run_saturation(const Params& pp, util::JsonWriter& j, unsigned nthreads) {
  constexpr unsigned kBatch = 16;    // keys per slot (multi-op span)
  constexpr unsigned kReadPct = 10;  // write-heavy: overload feeds the WAL
  const double window_s = pp.sat_seconds;
  const double slo_ns = pp.sat_slo_ms * 1e6;
  // A WAL-attached store with a small ring, so saturation is reachable
  // inside a short window; the controller-off rows then carry real
  // wait_ring_space episodes (wal_backpressure_waits).
  const Shape sat{.sync = persist::SyncMode::kBatched, .wal_ring = 512};

  // Closed-loop capacity probe (controller off): the knee the ramp is
  // scaled against.  Slots = lambda calls.
  double cap_slots = 1.0;
  {
    auto store = make_store<TR>(pp, nthreads, sat);
    const harness::RunResult r = window(
        *store, nthreads, window_s,
        [&](util::Xoshiro256& rng, unsigned tid) {
          multi_slot(*store, pp, rng, tid, kBatch, kReadPct * 100);
        },
        1, /*sample=*/false);
    cap_slots = std::max(1.0, r.mops * 1e6);
  }
  const double capacity_mops = cap_slots * kBatch / 1e6;
  // Controller on: cap the token rate at half the write-token share of
  // the probed capacity (a write slot costs kBatch tokens): the smooth
  // per-op bucket, not the all-or-nothing shed flag, is then the binding
  // mechanism at every overload ratio.  Half, not "just under", because
  // an overloaded open-loop worker must burn through its backlog of
  // scheduled slots faster than they arrive — each admitted slot costs
  // full service time, so keeping the schedule live at ratio R needs a
  // shed fraction >= 1 - 1/R plus real headroom (R=3 with this mix needs
  // >2/3 shed).  In production this cap is the provisioned rate; here
  // the probe measured it.
  Shape admitted = sat;
  admitted.admit_write_rate =
      std::max(1e4, 0.5 * cap_slots * (100 - kReadPct) / 100.0 * kBatch);

  struct SatCounts {
    std::uint64_t good = 0, late = 0, shed_w = 0, shed_r = 0;
  };

  // Open-loop window: each worker owns an intended-arrival schedule at
  // the offered rate and NEVER resets it — when the store can't keep
  // up the schedule runs ahead and every completion is charged the
  // queueing delay a real client would see.  The RAMP scales only the
  // write stream; reads ride along at a constant 10% of capacity in
  // every window, so the read-priority contract shows up as flat read
  // goodput while writes shed.  A refused slot backs off
  // kShedBackoff intended arrivals (a rejected client retries after a
  // backoff, it does not hammer the front door every period — and
  // concurrent exception unwinds serialize in the runtime, so
  // per-arrival rejection would throttle the *client*, not the store);
  // the skipped arrivals count as shed.
  const auto paced = [&](Store<TR>& store, double offered_slots,
                         unsigned read_pm) {
    // Each refusal costs an exception unwind, and concurrent unwinds
    // serialize in the runtime — on a 1-vCPU host a too-eager retry
    // cadence at 3x overload steals whole cores' worth of time from
    // the store and the WAL flusher.  32 periods is still < 1ms at
    // these rates, and the quarter-second bucket means no token
    // refilled during the skip is ever lost.
    constexpr std::uint64_t kShedBackoff = 32;
    std::vector<SatCounts> counts(nthreads);
    const auto t0 = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(10);  // common start line
    const auto tend =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(window_s));
    const double per_thread = std::max(1.0, offered_slots / nthreads);
    const auto period = std::chrono::nanoseconds(
        static_cast<std::int64_t>(std::llround(1e9 / per_thread)));
    std::vector<std::thread> workers;
    workers.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t)
      workers.emplace_back([&, t] {
        util::Xoshiro256 rng(0x5a70000 + 77 * t);
        SatCounts& c = counts[t];
        auto next = t0 + (period * t) / nthreads;  // stagger arrivals
        while (std::chrono::steady_clock::now() < tend) {
          if (next > std::chrono::steady_clock::now())
            std::this_thread::sleep_until(next);
          try {
            multi_slot(store, pp, rng, t, kBatch, read_pm);
          } catch (const kv::Overloaded& o) {
            // Shed: back off, charging the refused slot and the
            // skipped arrivals to the stream that was refused.
            (o.write ? c.shed_w : c.shed_r) += kShedBackoff;
            next += period * kShedBackoff;
            continue;
          }
          const auto lat = std::chrono::steady_clock::now() - next;
          if (std::chrono::duration<double, std::nano>(lat).count() <= slo_ns)
            ++c.good;
          else
            ++c.late;
          next += period;
        }
      });
    for (auto& w : workers) w.join();
    SatCounts tot;
    for (const SatCounts& c : counts) {
      tot.good += c.good;
      tot.late += c.late;
      tot.shed_w += c.shed_w;
      tot.shed_r += c.shed_r;
    }
    return tot;
  };

  for (unsigned ratio_pct : pp.sat_ratios) {
    const double ratio = ratio_pct / 100.0;
    // The offered load: write stream scaled by the ratio, constant
    // background reads.
    const double read_slots = cap_slots * kReadPct / 100.0;
    const double offered_slots =
        cap_slots * (100 - kReadPct) / 100.0 * ratio + read_slots;
    const unsigned read_pm = static_cast<unsigned>(
        10000.0 * read_slots / std::max(1.0, offered_slots));
    for (int admit_on = 0; admit_on <= 1; ++admit_on) {
      // Best of sat_repeats independent windows, fresh store each time:
      // the max goodput estimates the stall-free value of the point.
      SatCounts c;
      kv::KvStats st;
      obs::RegistrySnapshot snap;
      for (unsigned rep = 0; rep < pp.sat_repeats; ++rep) {
        auto store = make_store<TR>(pp, nthreads, admit_on ? admitted : sat);
        const SatCounts cr = paced(*store, offered_slots, read_pm);
        if (rep == 0 || cr.good > c.good) {
          c = cr;
          st = store->stats();
          snap = store->metrics()->registry.snapshot();
        }
      }
      const std::uint64_t attempted = c.good + c.late + c.shed_w + c.shed_r;
      const double goodput_mops = c.good * kBatch / window_s / 1e6;
      const double shed_rate =
          attempted == 0
              ? 0.0
              : static_cast<double>(c.shed_w + c.shed_r) / attempted;
      const kv::ShardStats tot = st.total();
      std::printf(
          "%-8s SAT     threads=%-3u ctrl=%-3s ratio=%.2f offered=%7.3f "
          "good=%7.3f Mkeyops/s  shed=%4.1f%% late=%llu wal_bp=%llu\n",
          TR::name(), nthreads, admit_on ? "on" : "off", ratio,
          offered_slots * kBatch / 1e6, goodput_mops, shed_rate * 100.0,
          static_cast<unsigned long long>(c.late),
          static_cast<unsigned long long>(tot.wal_backpressure_waits));

      row_head(j, TR::name(), "saturation", nthreads);
      j.kv("controller", admit_on ? "on" : "off");
      j.kv("sync", "batched");
      j.kv("batch", kBatch);
      j.kv("read_pct", kReadPct);
      j.kv("slo_ms", pp.sat_slo_ms);
      j.kv("capacity_mops", capacity_mops);
      j.kv("offered_ratio", ratio);
      j.kv("offered_mops", offered_slots * kBatch / 1e6);
      j.kv("goodput_mops", goodput_mops);
      j.kv("attempted_mops", attempted * kBatch / window_s / 1e6);
      j.kv("late_mops", c.late * kBatch / window_s / 1e6);
      j.kv("shed_rate", shed_rate);
      j.kv("good_slots", c.good);
      j.kv("late_slots", c.late);
      j.kv("shed_write_slots", c.shed_w);
      j.kv("shed_read_slots", c.shed_r);
      store_cols(j, tot);
      j.kv("wal_backpressure_waits", tot.wal_backpressure_waits);
      j.kv("admit_write_rate", st.admit_write_rate);
      j.kv("admit_severity", st.admit_severity);
      j.kv("admit_shed_writes", st.admit_shed_writes);
      j.kv("admit_shed_reads", st.admit_shed_reads);
      j.kv("admit_throttle_waits", st.admit_throttle_waits);
      latency_cols(j, snap, {{"kv_op_multi_ns", "multi"}});
      j.end_object();
    }
  }
}

/// Ordered-scan sweep: a 4-shard store with the secondary index on,
/// the threads split into dedicated writers (`upd_pct` percent of
/// them, at least one once upd_pct > 0) and scanners.  Scanners loop
/// bounded range scans of `width` keys from random starting points;
/// writers hammer put/remove over the same range, forcing tombstone
/// helping and index churn under the scans.  The row's headline is
/// visited keys/s per scanner thread — tools/bench_diff.py compares
/// the under-write-load points against the upd=0 baseline of the same
/// (tracker, width, threads) cell.
template <class TR>
void run_scan(const Params& pp, util::JsonWriter& j, unsigned nthreads,
              unsigned width, unsigned upd_pct) {
  const unsigned writers =
      upd_pct == 0 ? 0
                   : std::min(nthreads - 1,
                              std::max(1u, nthreads * upd_pct / 100));
  const unsigned scanners = nthreads - writers;
  // A loaded point needs at least one of each role; threads=1 can only
  // produce the baseline row.
  if (scanners == 0 || (upd_pct > 0 && writers == 0) || width == 0 ||
      width >= pp.key_range)
    return;
  auto store = make_store<TR>(pp, nthreads, {.ordered_index = true});

  // Role by thread slot: the first `writers` slots write, the rest scan.
  struct Tally {
    std::uint64_t keys = 0, scans = 0, writes = 0;
  };
  std::vector<util::Padded<Tally>> tally(nthreads);
  const harness::RunResult r = window(
      *store, nthreads, pp.seconds,
      [&](util::Xoshiro256& rng, unsigned tid) {
        Tally& t = *tally[tid];
        if (tid < writers) {
          const std::uint64_t k = rng.next_bounded(pp.key_range) + 1;
          if (rng.percent(50))
            store->put(k, k, tid);
          else
            store->remove(k, tid);
          ++t.writes;
        } else {
          const std::uint64_t lo = rng.next_bounded(pp.key_range - width) + 1;
          t.keys += store->scan(
              lo, lo + width - 1,
              [](std::uint64_t, const std::uint64_t&) { return true; }, tid);
          ++t.scans;
        }
      },
      1, /*sample=*/false);

  Tally sum;
  for (const auto& t : tally) {
    sum.keys += t->keys;
    sum.scans += t->scans;
    sum.writes += t->writes;
  }
  const double keys_per_sec = sum.keys / r.seconds;
  const double keys_per_scanner = keys_per_sec / scanners;
  const double writer_mops = sum.writes / r.seconds / 1e6;
  const kv::KvStats st = store->stats();
  std::printf(
      "%-8s SCAN    threads=%-3u width=%-5u upd=%u%% (%uw/%us)  "
      "%10.0f keys/s (%10.0f /scanner)  scans=%llu restarts=%llu "
      "writer_mops=%.3f\n",
      TR::name(), nthreads, width, upd_pct, writers, scanners, keys_per_sec,
      keys_per_scanner, static_cast<unsigned long long>(sum.scans),
      static_cast<unsigned long long>(st.scan_restarts), writer_mops);

  row_head(j, TR::name(), "scan", nthreads);
  j.kv("scan_width", width);
  j.kv("upd_pct", upd_pct);
  j.kv("writers", writers);
  j.kv("scanners", scanners);
  j.kv("keys_per_sec", keys_per_sec);
  j.kv("keys_per_scanner_sec", keys_per_scanner);
  j.kv("scans_per_sec", sum.scans / r.seconds);
  j.kv("scan_ops", st.scan_ops);
  j.kv("scan_keys", st.scan_keys);
  j.kv("scan_restarts", st.scan_restarts);
  j.kv("writer_mops", writer_mops);
  latency_cols(j, store->metrics()->registry.snapshot(),
               {{"kv_op_scan_ns", "scan"}});
  j.end_object();
}

/// Raw-BST upsert duel: the 50%-update mix straight on a NatarajanBst
/// (no store, no shards), one row per upsert path.  Encodes the
/// tombstone refactor's acceptance: the in-place value-cell CAS must
/// beat whole-leaf remove+insert for every tracker.
template <class TR>
void run_bst_upsert(const Params& pp, util::JsonWriter& j, unsigned nthreads,
                    bool inplace) {
  using Bst = ds::NatarajanBst<std::uint64_t, TR>;
  reclaim::TrackerConfig tcfg;
  tcfg.max_threads = nthreads;
  tcfg.max_hes = Bst::kSlotsNeeded;
  tcfg.retire_batch = kRetireBatch;
  TR tracker(tcfg);
  Bst bst(tracker);
  harness::prefill(bst, pp.prefill, pp.key_range);
  const harness::RunResult r = window(
      tracker, nthreads, pp.seconds,
      [&](util::Xoshiro256& rng, unsigned tid) {
        const std::uint64_t k = rng.next_bounded(pp.key_range) + 1;
        if (rng.percent(50))
          bst.get(k, tid);
        else if (inplace)
          bst.put(k, k, tid);
        else
          bst.put_copy(k, k, tid);
      },
      pp.repeats);

  std::printf("%-8s BST     threads=%-3u upsert=%-7s %8.3f Mops/s  "
              "unreclaimed(avg)=%.0f\n",
              TR::name(), nthreads, inplace ? "inplace" : "copy", r.mops,
              r.avg_unreclaimed);
  row_head(j, TR::name(), "bst_upsert", nthreads);
  j.kv("read_pct", 50);
  j.kv("upsert", inplace ? "inplace" : "copy");
  window_cols(j, r);
  j.end_object();
}

template <class TR>
void run_tracker(const Params& pp, util::JsonWriter& j) {
  for (unsigned nshards : pp.shards)
    for (unsigned read_pct : pp.read_pcts)
      for (unsigned nthreads : pp.threads)
        for (unsigned mb : pp.mbatch)
          run_mix<TR>(pp, j, nshards, read_pct, nthreads, mb);
  if (pp.obs_overhead)
    for (unsigned nthreads : pp.threads) run_obs_overhead<TR>(pp, j, nthreads);
  if (pp.resize)
    for (unsigned nthreads : pp.threads) run_resize<TR>(pp, j, nthreads);
  if (pp.persist)
    for (unsigned nthreads : pp.threads)
      for (const SyncPick& s : pp.syncs)
        run_mix<TR>(pp, j, 4, 50, nthreads, 1, &s);
  if (pp.txn)
    for (unsigned nthreads : pp.threads)
      for (unsigned w : pp.txn_widths)
        for (unsigned c : pp.txn_conflicts)
          for (const SyncPick& s : pp.syncs)
            if (s.mode != persist::SyncMode::kNone)
              run_txn<TR>(pp, j, nthreads, w, c, s);
  if (pp.scan)
    for (unsigned nthreads : pp.threads)
      for (unsigned w : pp.scan_widths)
        for (unsigned upd : pp.scan_upds) run_scan<TR>(pp, j, nthreads, w, upd);
  if (pp.bst)
    for (unsigned nthreads : pp.bst_threads) {
      run_bst_upsert<TR>(pp, j, nthreads, /*inplace=*/true);
      run_bst_upsert<TR>(pp, j, nthreads, /*inplace=*/false);
    }
  if (pp.sat && env_has_word("WFE_KV_SAT_TRACKERS", TR::name()))
    for (unsigned nthreads : pp.sat_threads)
      run_saturation<TR>(pp, j, nthreads);
}

}  // namespace

int main() {
  using harness::env_list;
  Params pp;
  pp.seconds = harness::env_double("WFE_BENCH_SECONDS", 0.3);
  pp.repeats = static_cast<unsigned>(harness::env_long("WFE_BENCH_REPEATS", 1));
  pp.prefill =
      static_cast<std::uint64_t>(harness::env_long("WFE_BENCH_PREFILL", 20000));
  pp.key_range = static_cast<std::uint64_t>(
      harness::env_long("WFE_BENCH_KEY_RANGE", 40000));
  pp.threads = env_list("WFE_BENCH_THREAD_LIST", {1, 2, 4, 8});
  pp.shards = env_list("WFE_KV_SHARD_LIST", {1, 4, 16});
  pp.read_pcts = env_list("WFE_KV_READ_LIST", {50, 90});
  pp.mbatch = env_list("WFE_KV_MBATCH_LIST", {1, 16});
  pp.resize = harness::env_long("WFE_KV_RESIZE", 1) != 0;
  pp.obs_overhead = harness::env_long("WFE_KV_OBS", 1) != 0;
  pp.persist = harness::env_long("WFE_KV_PERSIST", 1) != 0;
  for (const SyncPick& s : {SyncPick{persist::SyncMode::kNone, "none"},
                            SyncPick{persist::SyncMode::kBatched, "batched"},
                            SyncPick{persist::SyncMode::kAlways, "always"}})
    if (env_has_word("WFE_KV_SYNC_LIST", s.name)) pp.syncs.push_back(s);
  pp.txn = harness::env_long("WFE_KV_TXN", 1) != 0;
  pp.txn_widths = env_list("WFE_KV_TXN_WIDTH_LIST", {2, 8});
  pp.txn_conflicts = env_list("WFE_KV_TXN_CONFLICT_LIST", {0, 50});
  pp.scan = harness::env_long("WFE_KV_SCAN", 1) != 0;
  pp.scan_widths = env_list("WFE_KV_SCAN_WIDTH_LIST", {64, 1024});
  pp.scan_upds = env_list("WFE_KV_SCAN_UPD_LIST", {50});
  // The upd=0 baseline every scan gate compares against is always in
  // the sweep, listed or not.
  if (std::find(pp.scan_upds.begin(), pp.scan_upds.end(), 0u) ==
      pp.scan_upds.end())
    pp.scan_upds.insert(pp.scan_upds.begin(), 0u);
  pp.bst = harness::env_long("WFE_KV_BST", 1) != 0;
  pp.bst_threads = env_list("WFE_KV_BST_THREAD_LIST", {4});
  pp.sat = harness::env_long("WFE_KV_SAT", 1) != 0;
  pp.sat_seconds =
      harness::env_double("WFE_KV_SAT_SECONDS", std::max(1.0, pp.seconds));
  pp.sat_slo_ms = harness::env_double("WFE_KV_SAT_SLO_MS", 50.0);
  pp.sat_repeats = static_cast<unsigned>(
      std::max<long>(1, harness::env_long("WFE_KV_SAT_REPEATS", 1)));
  pp.sat_threads = env_list("WFE_KV_SAT_THREAD_LIST", {4});
  pp.sat_ratios = env_list("WFE_KV_SAT_RATIO_LIST", {50, 100, 150, 200, 300});
  const char* pdir = std::getenv("WFE_KV_PERSIST_DIR");
  pp.persist_dir = pdir == nullptr ? "bench_wal" : pdir;
  const char* out_path = std::getenv("WFE_KV_JSON");
  if (out_path == nullptr) out_path = "BENCH_kv.json";

  std::printf(
      "=== kv throughput — shards x read-ratio x threads x mbatch ===\n");
  std::printf("prefill=%llu key_range=%llu seconds=%.2f repeats=%u batch=%u\n",
              static_cast<unsigned long long>(pp.prefill),
              static_cast<unsigned long long>(pp.key_range), pp.seconds,
              pp.repeats, kRetireBatch);

  util::JsonWriter j;
  j.begin_object();
  j.kv("bench", "kv_throughput");
  j.kv("prefill", pp.prefill);
  j.kv("key_range", pp.key_range);
  j.kv("seconds", pp.seconds);
  j.kv("repeats", pp.repeats);
  j.key("results").begin_array();
  harness::for_each_tracker([&]<class TR>() { run_tracker<TR>(pp, j); });
  j.end_array();
  j.end_object();
  std::filesystem::remove_all(pp.persist_dir);

  if (!j.write_file(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
