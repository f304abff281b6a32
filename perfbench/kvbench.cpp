// Closed-loop benchmark of the sharded KvStore on Wait-Free Eras (WFE)
// reclamation, with a layer-by-layer cost ladder.
//
//   kvbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//           [--trace-out FILE]
//
// The traffic is bench/bench_kv_throughput.cpp's: keys 1..40000 with 20000
// prefilled, kThreads client threads, and either a read/upsert mix over
// the whole key range (its read_pct 90 and 50 points) or its "scan" mode
// (one writer putting and removing over the range, one 64-key scanner).
// Each client issues its next op as soon as the previous one returns.
//
// Checks: a value encodes its key, the writing thread and that thread's
// write counter, and every thread keeps the last value it wrote per key.
// A read that returns the reader's own value must return its latest one;
// a key the reader knows is present must be found; a put must report an
// insert exactly when it should (exactly, for a single writer); scans
// must come back ascending, in range and self-consistent.  After the run
// every stored pair must be its writer's latest value, the key count must
// match, and the block ledger of every tracker domain must close.
//
// Every timing is scaled to a reference host speed measured beside it
// (see Reference), so that drift in the host's speed cancels.
//
// --trace 0 (end to end): in each of kPhases phases (after one unmeasured
//   warm-up phase), set up the store kSetupsPerPhase times (construct +
//   prefill; the median of all is setup_s), warm up, then measure
//   kWindowS-long windows; report the median over all windows of
//   throughput and of the p50/p99 latency of every 8th op (every scan),
//   reads (gets, scans) and writes (puts, removes) apart: in a 50/50 mix
//   the overall p50 would fall between the two latency modes.
// --trace 1 (ladder): build one structure per layer and run the same op
//   stream on each, rung after rung, in interleaved rounds; a rung's cost
//   is its median thread-ns per op.  Scans are 64 point gets on every
//   rung, so each rung adds exactly one subsystem; what a scan costs
//   through the ordered index is measured apart on the index rung.
//   Sampled ops are recorded as spans (parent: the rung window that ran
//   them) and written to FILE when the run ends.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (name -> {value, unit}).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/wfe.hpp"
#include "ds/hash_map.hpp"
#include "ds/natarajan_bst.hpp"
#include "kv/kv_store.hpp"
#include "kv/shard.hpp"

namespace {

using namespace wfe;
using Clock = std::chrono::steady_clock;
using Tracker = core::WfeTracker;
using K = std::uint64_t;
using V = std::uint64_t;
using Store = kv::KvStore<K, V, Tracker>;
/// The store's ordered index tree (for its per-key block count).
using IndexTree = ds::NatarajanBst<std::uint8_t, kv::BatchedTracker<Tracker>>;

// Geometry of bench/bench_kv_throughput.cpp's defaults, at one point of
// its thread (1,2,4,8) and shard (1,4,16) sweeps.
constexpr unsigned kThreads = 2;               // client threads
constexpr std::uint64_t kKeyRange = 40000;     // keys 1..kKeyRange
constexpr std::uint64_t kPrefill = 20000;      // distinct keys before the run
constexpr std::size_t kShards = 4;
constexpr std::size_t kBuckets = 4096;         // total, at every layer
constexpr unsigned kRetireBatch = 8;
constexpr unsigned kScanWidth = 64;            // keys per scan range
constexpr unsigned kPhases = 20;               // end-to-end: a fresh store each, after a warm-up phase
constexpr unsigned kSetupsPerPhase = 2;        // setup_s: median of all setups
constexpr double kWindowS = 0.05;              // one window, then a reference slice
constexpr unsigned kRounds = 5;                // ladder rounds
constexpr unsigned kIndexScans = 2000;         // index scans timed per round
constexpr std::uint64_t kLatencyMask = 7;      // time every 8th op, every scan
constexpr std::uint64_t kSpanMask = 1023;      // span every 1024th ladder op
// Host-speed reference (see Reference): ops per slice, table size, and the
// reference op cost every figure is scaled to -- about what a reference op
// costs on the 2.1 GHz Xeon the benchmark was tuned on, so scaled figures
// stay near raw ones.
constexpr unsigned kRefOps = 10000;
constexpr unsigned kRefBits = 16;              // 2^16 16-byte slots, 40000 used
constexpr double kRefNs = 16.0;

/// One client thread's op mix, in percent; scans take the rest.
struct Mix {
  unsigned get_pct, put_pct, remove_pct;
  unsigned write_pct() const { return put_pct + remove_pct; }
  bool scans() const { return get_pct + write_pct() < 100; }
};

/// Removes only appear with a single writer, whose view is then exact.
struct Workload {
  const char* name;
  Mix mix[kThreads];
  bool scans() const {
    for (const Mix& m : mix)
      if (m.scans()) return true;
    return false;
  }
  unsigned writers() const {
    unsigned n = 0;
    for (const Mix& m : mix) n += m.write_pct() > 0;
    return n;
  }
  bool removes() const {
    for (const Mix& m : mix)
      if (m.remove_pct > 0) return true;
    return false;
  }
};

constexpr Workload kWorkloads[] = {
    {"read90", {{90, 10, 0}, {90, 10, 0}}},
    {"read50", {{50, 50, 0}, {50, 50, 0}}},
    {"scan64", {{0, 50, 50}, {0, 0, 0}}},
};

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
};

/// Block ledger of one tracker domain: allocated == freed + per_key *
/// live + pending + unreclaimed must hold when no op is running.
struct Ledger {
  std::uint64_t allocated = 0, freed = 0, retired = 0;
  std::uint64_t pending = 0, unreclaimed = 0;
  unsigned per_key = 2;  // node + value cell
  bool closes(std::uint64_t live) const {
    return allocated == freed + per_key * live + pending + unreclaimed;
  }
  std::uint64_t retained() const { return pending + unreclaimed; }
};

Ledger ledger_of(const kv::ShardStats& s, unsigned per_key = 2) {
  return {s.allocated, s.freed, s.retired, s.pending_retired, s.unreclaimed,
          per_key};
}

reclaim::TrackerConfig tracker_config(unsigned slots) {
  reclaim::TrackerConfig c;
  c.max_threads = kThreads;
  c.max_hes = slots;
  c.retire_batch = kRetireBatch;
  return c;
}

/// A scan as point gets: every key in range, ascending.
template <class Layer, class Fn>
void probe_scan(Layer& l, K lo, K hi, unsigned tid, Fn&& fn) {
  for (K k = lo; k <= hi; ++k) {
    if (const std::optional<V> v = l.get(k, tid)) fn(k, *v);
  }
}

// ---- the ladder's layers, each with the same op surface ----

/// L1: the paper's hash map on one raw WFE domain.
class RawMapLayer {
 public:
  using Map = ds::BucketArray<K, V, Tracker>;
  RawMapLayer() : tracker_(tracker_config(Map::kSlotsNeeded)), map_(tracker_, kBuckets) {}
  std::optional<V> get(K k, unsigned tid) { return map_.get(k, tid); }
  bool put(K k, V v, unsigned tid) { return map_.put(k, v, tid); }
  std::optional<V> remove(K k, unsigned tid) { return map_.remove(k, tid); }
  template <class Fn>
  void scan(K lo, K hi, unsigned tid, Fn&& fn) { probe_scan(*this, lo, hi, tid, fn); }
  template <class Fn>
  void for_each(Fn&& fn) const { map_.for_each_unsafe(fn); }
  std::vector<Ledger> ledgers() const {
    return {{tracker_.allocated(), tracker_.freed(), tracker_.retired(), 0,
             tracker_.unreclaimed(), 2}};
  }

 private:
  Tracker tracker_;  // declared first: destroyed after the map
  Map map_;
};

/// L2: one kv::Shard (batched retire + stats lanes) holding every key.
class ShardLayer {
 public:
  using ShardT = kv::Shard<K, V, Tracker>;
  ShardLayer() : shard_(tracker_config(ShardT::kSlotsNeeded), kBuckets) {}
  std::optional<V> get(K k, unsigned tid) { return shard_.get(k, tid); }
  bool put(K k, V v, unsigned tid) { return shard_.put(k, v, tid); }
  std::optional<V> remove(K k, unsigned tid) { return shard_.remove(k, tid); }
  template <class Fn>
  void scan(K lo, K hi, unsigned tid, Fn&& fn) { probe_scan(*this, lo, hi, tid, fn); }
  template <class Fn>
  void for_each(Fn&& fn) const { shard_.for_each_unsafe(fn); }
  std::vector<Ledger> ledgers() const { return {ledger_of(shard_.stats())}; }

 private:
  ShardT shard_;
};

enum class Level { kStore, kObs, kIndex, kWal };

/// L3..L6: the KvStore, each level adding one subsystem to the one below.
/// Scans go through the ordered index only when `index_scans` is set.
class StoreLayer {
 public:
  StoreLayer(Level level, const std::string& scratch, const char* tag,
             bool index_scans)
      : store_(config(level, scratch, tag)), index_scans_(index_scans) {}
  std::optional<V> get(K k, unsigned tid) { return store_.get(k, tid); }
  bool put(K k, V v, unsigned tid) { return store_.put(k, v, tid); }
  std::optional<V> remove(K k, unsigned tid) { return store_.remove(k, tid); }
  template <class Fn>
  void scan(K lo, K hi, unsigned tid, Fn&& fn) {
    if (index_scans_)
      store_.scan(lo, hi, fn, tid);
    else
      probe_scan(*this, lo, hi, tid, fn);
  }
  template <class Fn>
  void index_scan(K lo, K hi, unsigned tid, Fn&& fn) { store_.scan(lo, hi, fn, tid); }
  template <class Fn>
  void for_each(Fn&& fn) const { store_.for_each_unsafe(fn); }
  std::vector<Ledger> ledgers() const {
    const kv::KvStats st = store_.stats();
    std::vector<Ledger> out{ledger_of(st.total())};
    if (st.ordered_index)
      out.push_back(ledger_of(st.index, IndexTree::kBlocksPerKey));
    return out;
  }

 private:
  static kv::KvConfig config(Level level, const std::string& scratch,
                             const char* tag) {
    kv::KvConfig c;
    c.shards = kShards;
    c.buckets_per_shard = kBuckets / kShards;
    c.tracker = tracker_config(Store::kSlotsNeeded);
    if (level >= Level::kObs) {
      c.metrics.enabled = true;
      c.metrics.watchdog.enabled = true;
      c.metrics.flight = true;
      c.metrics.flight_path = scratch + "/flight-" + tag + ".bin";
    }
    c.ordered_index = level >= Level::kIndex;
    if (level >= Level::kWal) {
      c.persistence.enabled = true;
      c.persistence.dir = scratch + "/wal-" + tag;
      c.persistence.sync = persist::SyncMode::kNone;
    }
    return c;
  }

  Store store_;
  bool index_scans_;
};

// ---- the op stream and its checks ----

struct Span {
  std::uint64_t id, parent;
  const char* name;
  std::uint64_t start_ns, end_ns;
};

struct alignas(64) Client {
  Rng rng{0};
  std::uint64_t version = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<V> last;  // key -> the last value this thread wrote, 0 = none
};

const Clock::time_point kEpoch = Clock::now();
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kEpoch)
          .count());
}

enum OpKind : unsigned { kGet, kPut, kRemove, kScan };
constexpr const char* kOpName[] = {"get", "put", "remove", "scan"};
bool is_write(OpKind k) { return k == kPut || k == kRemove; }

/// Checks one scan's output: ascending, in [lo, hi], values encoding
/// their keys.
class ScanCheck {
 public:
  ScanCheck(K lo, K hi) : lo_(lo), hi_(hi), prev_(0) {}
  void operator()(K k, V v) {
    if (k <= prev_ || k < lo_ || k > hi_ || (v >> 32) != k) ++bad;
    prev_ = k;
    ++seen;
  }
  std::uint64_t bad = 0, seen = 0;

 private:
  K lo_, hi_, prev_;
};

/// Every client's op stream against one layer, plus the per-thread write
/// records that check it.  Clients persist across windows.
template <class Layer>
class Stream {
 public:
  Stream(Layer& layer, const Workload& w, std::uint64_t seed)
      : layer_(layer), w_(w), seed_(seed), exact_(w.writers() == 1),
        removes_(w.removes()), prefilled_(kKeyRange + 1, 0), clients_(kThreads) {
    for (unsigned t = 0; t < kThreads; ++t) {
      clients_[t].rng.s = seed * 0x100000001b3ull + t;
      clients_[t].last.assign(kKeyRange + 1, 0);
    }
  }

  /// Single-threaded: kPrefill distinct random keys, inserted in random
  /// order (the ordered index is an unbalanced tree) and recorded as
  /// thread 0's writes.
  void prefill(std::uint64_t seed) {
    Rng r{seed ^ 0x5bd1e995u};
    Client& c = clients_[0];
    for (std::uint64_t n = 0; n < kPrefill;) {
      const K k = 1 + r.below(kKeyRange);
      if (prefilled_[k]) continue;
      const V v = value_of(k, 0, ++c.version);
      if (!layer_.put(k, v, 0)) ++c.failed;
      prefilled_[k] = 1;
      c.last[k] = v;
      ++n;
    }
  }

  OpKind op(unsigned tid) {
    Client& c = clients_[tid];
    const Mix& m = w_.mix[tid];
    ++c.ops;
    const std::uint64_t r = c.rng.below(100);
    if (r < m.get_pct) {
      const K k = 1 + c.rng.below(kKeyRange);
      const std::optional<V> v = layer_.get(k, tid);
      if (v ? (*v >> 32) != k || (writer_of(*v) == tid && *v != c.last[k])
            : known_present(c, k))
        ++c.failed;
      return kGet;
    }
    if (r < m.get_pct + m.put_pct) {
      const K k = 1 + c.rng.below(kKeyRange);
      const V v = value_of(k, tid, ++c.version);
      const bool inserted = layer_.put(k, v, tid);
      if (exact_ ? inserted != (c.last[k] == 0) : inserted && known_present(c, k))
        ++c.failed;
      c.last[k] = v;
      return kPut;
    }
    if (r < m.get_pct + m.write_pct()) {
      const K k = 1 + c.rng.below(kKeyRange);
      if (layer_.remove(k, tid).value_or(0) != c.last[k]) ++c.failed;
      c.last[k] = 0;
      return kRemove;
    }
    const K lo = 1 + c.rng.below(kKeyRange - kScanWidth + 1);
    ScanCheck check(lo, lo + kScanWidth - 1);
    layer_.scan(lo, lo + kScanWidth - 1, tid, [&](K k, V v) { check(k, v); });
    if (check.bad != 0) ++c.failed;
    return kScan;
  }

  /// Quiescent: every stored pair is its writer's latest value, every key
  /// anyone wrote is there, and every domain's block ledger closes.
  bool verify() const {
    std::uint64_t seen = 0, wrong = 0, live = 0;
    layer_.for_each([&](const K& k, const V& v) {
      ++seen;
      if (k < 1 || k > kKeyRange || (v >> 32) != k ||
          clients_[writer_of(v)].last[k] != v)
        ++wrong;
    });
    for (K k = 1; k <= kKeyRange; ++k) {
      bool written = false;
      for (const Client& c : clients_) written = written || c.last[k] != 0;
      live += written;
    }
    if (wrong != 0 || seen != live) {
      std::fprintf(stderr, "kvbench: contents differ: %llu wrong, %llu held, %llu expected\n",
                   static_cast<unsigned long long>(wrong),
                   static_cast<unsigned long long>(seen),
                   static_cast<unsigned long long>(live));
      return false;
    }
    for (const Ledger& l : layer_.ledgers())
      if (!l.closes(live)) {
        std::fprintf(stderr, "kvbench: ledger open: allocated=%llu freed=%llu live=%llu pending=%llu unreclaimed=%llu\n",
                     static_cast<unsigned long long>(l.allocated),
                     static_cast<unsigned long long>(l.freed),
                     static_cast<unsigned long long>(live),
                     static_cast<unsigned long long>(l.pending),
                     static_cast<unsigned long long>(l.unreclaimed));
        return false;
      }
    return true;
  }

  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const Client& c : clients_) n += c.ops;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const Client& c : clients_) n += c.failed;
    return n;
  }
  const Workload& workload() const { return w_; }
  std::uint64_t seed() const { return seed_; }

 private:
  static V value_of(K k, unsigned tid, std::uint64_t version) {
    return (k << 32) | (V{tid} << 31) | (version & 0x7fffffffu);
  }
  static unsigned writer_of(V v) { return static_cast<unsigned>((v >> 31) & 1); }
  /// Present for sure: this thread wrote it last, or nobody removes and
  /// it was prefilled.
  bool known_present(const Client& c, K k) const {
    return c.last[k] != 0 || (!removes_ && prefilled_[k] != 0);
  }

  Layer& layer_;
  const Workload& w_;
  std::uint64_t seed_;
  bool exact_;    // one writer: its records are the store's exact contents
  bool removes_;
  std::vector<std::uint8_t> prefilled_;
  std::vector<Client> clients_;
};

/// Host-speed reference.  On a shared host the speed of the client
/// threads drifts by 20% and more between runs (other tenants' threads,
/// memory traffic), which swamps any change worth measuring.  Every
/// client thread therefore runs a slice of this reference between
/// windows: lookups in a private, preallocated open-addressing table
/// holding every key, writing the value on the thread's write share of
/// ops, each op preceded by a seq_cst store as the engine's reclamation
/// publishes a protection.  The table is allocated once and read through
/// in full, untimed, before each timed slice, so neither the engine's heap
/// nor what it left in the caches changes the reference's time; only the
/// host's speed does.  Scaling a window's figures by kRefNs / (reference
/// ns per op) divides drift out while engine changes stay.
class Reference {
 public:
  Reference(unsigned write_pct, std::uint64_t seed)
      : write_pct_(write_pct), rng_{seed}, slots_(std::size_t{1} << kRefBits) {
    for (K k = 1; k <= kKeyRange; ++k) find(k).key = k;
  }

  /// Runs one slice; returns its ns per op.
  double slice() {
    for (const Slot& s : slots_) sink_ += s.key;
    const Clock::time_point t0 = Clock::now();
    for (unsigned i = 0; i < kRefOps; ++i) {
      const K k = 1 + rng_.below(kKeyRange);
      const bool write = rng_.below(100) < write_pct_;
      guard_.store(k, std::memory_order_seq_cst);
      Slot& s = find(k);
      if (write)
        s.value = i;
      else
        sink_ += s.value;
    }
    const double ns = secs(Clock::now() - t0) * 1e9 / kRefOps;
    g_ref_sink.store(sink_, std::memory_order_relaxed);  // keeps the reads
    return ns;
  }

 private:
  struct Slot {
    K key = 0;
    V value = 0;
  };
  /// The slot holding `k`, or the empty one it would take.
  Slot& find(K k) {
    constexpr std::size_t kMask = (std::size_t{1} << kRefBits) - 1;
    std::size_t i = static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ull) >> (64 - kRefBits));
    while (slots_[i].key != k && slots_[i].key != 0) i = (i + 1) & kMask;
    return slots_[i];
  }

  static inline std::atomic<std::uint64_t> g_ref_sink{0};
  unsigned write_pct_;
  Rng rng_;
  std::vector<Slot> slots_;
  std::atomic<K> guard_{0};
  std::uint64_t sink_ = 0;
};

/// What one timed window observed.  `ops` and the latencies are scaled to
/// the reference host speed: each client thread's ops count `slowdown`
/// times and its latencies 1/`slowdown` times, where `slowdown` is the
/// mean of the thread's reference ns/op just before and just after the
/// window over kRefNs.
struct Window {
  double ops = 0;
  double raw_ops = 0;             // unscaled, for diagnostics
  double ref_ns = 0;              // mean over threads of the reference ns/op
  double seconds = 0;             // wall time, not scaled
  std::vector<float> read_ns;     // sampled gets and scans
  std::vector<float> write_ns;    // sampled puts and removes
};

struct WindowPlan {
  double warmup_s = 0;
  unsigned windows = 1;                  // each kWindowS long
  bool time_ops = false;                 // sample latencies into the windows
  std::vector<Span>* spans = nullptr;    // sample op spans (ladder)
  std::uint64_t parent_span = 0;
};

/// Runs every client for a warm-up and then `windows` windows; after the
/// warm-up and after each window every client thread runs one reference
/// slice.  Threads start and join inside the call.  `sample` runs on the
/// calling thread every 20ms while the clients run.
template <class Layer, class Sample>
std::vector<Window> run_windows(Stream<Layer>& s, const WindowPlan& p,
                                Sample&& sample) {
  constexpr unsigned kStop = ~0u;
  constexpr unsigned kRefBit = 1u << 30;  // window | kRefBit: run a slice
  std::atomic<unsigned> window{0};
  std::atomic<unsigned> ready{0};
  std::atomic<unsigned> slices{0};
  const unsigned nw = p.windows + 1;  // slot 0 is the warm-up
  struct Lat {
    std::vector<std::uint32_t> read, write;
  };
  std::vector<std::vector<std::uint64_t>> counts(kThreads);
  std::vector<std::vector<double>> ref_ns(kThreads, std::vector<double>(nw, 0));
  std::vector<std::vector<Lat>> lat(kThreads, std::vector<Lat>(nw));
  std::vector<std::vector<Span>> spans(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      const Mix& mix = s.workload().mix[t];
      Reference ref(mix.write_pct(), s.seed() + t);
      // Scans take tens of microseconds: timing only every 8th would leave
      // under ten samples beyond a window's p99.
      const std::uint64_t latency_mask = mix.scans() ? 0 : kLatencyMask;
      ready.fetch_add(1);
      while (ready.load() < kThreads + 1) std::this_thread::yield();
      std::vector<std::uint64_t> done(nw, 0);  // thread-local: no false sharing
      std::uint64_t tick = 0;
      unsigned sliced = 0;
      for (;;) {
        const unsigned w = window.load(std::memory_order_relaxed);
        if (w == kStop) break;
        if ((w & kRefBit) != 0) {
          if (w != sliced) {
            sliced = w;
            ref_ns[t][w & ~kRefBit] = ref.slice();
            slices.fetch_add(1);
          }
          std::this_thread::yield();
          continue;
        }
        ++tick;
        if (p.time_ops && (tick & latency_mask) == 0) {
          const Clock::time_point t0 = Clock::now();
          const OpKind kind = s.op(t);
          const auto ns = std::min<std::int64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                  .count(),
              0xffffffff);
          (is_write(kind) ? lat[t][w].write : lat[t][w].read)
              .push_back(static_cast<std::uint32_t>(ns));
        } else if (p.spans != nullptr && (tick & kSpanMask) == 0) {
          const std::uint64_t t0 = now_ns();
          const OpKind kind = s.op(t);
          spans[t].push_back({0, p.parent_span, kOpName[kind], t0, now_ns()});
        } else {
          s.op(t);
        }
        ++done[w];
      }
      counts[t] = std::move(done);
    });
  ready.fetch_add(1);
  while (ready.load() < kThreads + 1) std::this_thread::yield();

  auto run_until = [&](Clock::time_point deadline) {
    for (Clock::time_point n = Clock::now(); n < deadline; n = Clock::now()) {
      std::this_thread::sleep_for(
          std::min<Clock::duration>(deadline - n, std::chrono::milliseconds(20)));
      sample();
    }
  };
  auto slice = [&](unsigned w) {
    window.store(w | kRefBit, std::memory_order_relaxed);
    while (slices.load() < kThreads * (w + 1)) std::this_thread::yield();
  };
  run_until(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(p.warmup_s)));
  slice(0);
  std::vector<Window> out(p.windows);
  for (unsigned w = 1; w < nw; ++w) {
    const Clock::time_point begin = Clock::now();
    window.store(w, std::memory_order_relaxed);
    run_until(begin + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(kWindowS)));
    out[w - 1].seconds = secs(Clock::now() - begin);
    slice(w);
  }
  window.store(kStop, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();

  for (unsigned w = 1; w < nw; ++w) {
    Window& o = out[w - 1];
    for (unsigned t = 0; t < kThreads; ++t) {
      const double ref = (ref_ns[t][w - 1] + ref_ns[t][w]) / 2;
      const double slowdown = ref / kRefNs;
      o.ref_ns += ref / kThreads;
      o.raw_ops += static_cast<double>(counts[t][w]);
      o.ops += static_cast<double>(counts[t][w]) * slowdown;
      for (const std::uint32_t ns : lat[t][w].read)
        o.read_ns.push_back(static_cast<float>(ns / slowdown));
      for (const std::uint32_t ns : lat[t][w].write)
        o.write_ns.push_back(static_cast<float>(ns / slowdown));
    }
  }
  if (p.spans != nullptr)
    for (const auto& v : spans) p.spans->insert(p.spans->end(), v.begin(), v.end());
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linearly interpolated quantile of an unsorted sample.
double quantile(std::vector<float>& v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  const double b = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  std::printf("}}\n");
}

// ---- end to end ----

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                   const std::string& scratch) {
  // The production configuration: observability on, the ordered index
  // only when the workload scans.
  const Level level = w.scans() ? Level::kIndex : Level::kObs;
  Reference ref(w.mix[0].write_pct(), seed);
  std::vector<double> setup, mops, raw_mops, ref_ns;
  std::vector<double> read_p50, read_p99, write_p50, write_p99, read_n, write_n;
  std::uint64_t attempted = 0, failed = 0;
  bool ok = true;
  // Each phase measures a fresh store built from its own seed: speed
  // depends on where the heap happens to place the nodes -- scan latency
  // by 20% and more from one store to the next -- and the median over many
  // short phases averages that luck out.  Phase 0 runs the same way but is
  // only checked, not measured: the first store of a process grows the
  // heap from fresh pages and runs unlike the rest.
  for (unsigned phase = 0; phase <= kPhases; ++phase) {
    const std::uint64_t phase_seed = seed * (kPhases + 1) + phase;
    std::unique_ptr<StoreLayer> layer;
    std::unique_ptr<Stream<StoreLayer>> stream;
    for (unsigned i = 0; i < kSetupsPerPhase; ++i) {
      stream.reset();
      layer.reset();
      const Clock::time_point t0 = Clock::now();
      layer = std::make_unique<StoreLayer>(level, scratch, "e2e", true);
      stream = std::make_unique<Stream<StoreLayer>>(*layer, w, phase_seed);
      stream->prefill(phase_seed);
      const double s = secs(Clock::now() - t0) * kRefNs / ref.slice();
      if (phase > 0) setup.push_back(s);
    }

    WindowPlan p;
    p.warmup_s = 0.2;
    p.windows = std::max(1u, static_cast<unsigned>(seconds / kPhases / kWindowS));
    p.time_ops = true;
    for (Window& x : run_windows(*stream, p, [] {})) {
      if (phase == 0) break;
      mops.push_back(x.ops / x.seconds / 1e6);
      raw_mops.push_back(x.raw_ops / x.seconds / 1e6);
      ref_ns.push_back(x.ref_ns);
      if (x.read_ns.empty() || x.write_ns.empty()) continue;
      read_n.push_back(static_cast<double>(x.read_ns.size()));
      write_n.push_back(static_cast<double>(x.write_ns.size()));
      read_p50.push_back(quantile(x.read_ns, 0.50) / 1e3);
      read_p99.push_back(quantile(x.read_ns, 0.99) / 1e3);
      write_p50.push_back(quantile(x.write_ns, 0.50) / 1e3);
      write_p99.push_back(quantile(x.write_ns, 0.99) / 1e3);
    }
    ok = stream->verify() && ok;
    attempted += stream->ops();
    failed += stream->failed();
  }
  ok = ok && !read_p50.empty();
  if (ok)
    std::fprintf(stderr, "kvbench: raw throughput %.4f Mop/s, reference %.3f ns/op, "
                 "%.0f read and %.0f write latency samples (medians over %zu windows)\n",
                 median(raw_mops), median(ref_ns), median(read_n), median(write_n),
                 mops.size());
  print_result(ok && failed == 0, attempted, failed,
               {{"throughput_mops", median(mops), "Mop/s"},
                {"read_p50_us", ok ? median(read_p50) : 0, "us"},
                {"read_p99_us", ok ? median(read_p99) : 0, "us"},
                {"write_p50_us", ok ? median(write_p50) : 0, "us"},
                {"write_p99_us", ok ? median(write_p99) : 0, "us"},
                {"setup_s", median(setup), "s"}});
  return 0;
}

// ---- ladder ----

class Rung {
 public:
  virtual ~Rung() = default;
  virtual const char* name() const = 0;
  /// A warm-up plus `seconds` of windows; returns the median over windows
  /// of thread-ns per op, scaled to the reference host speed.
  virtual double window(double seconds, std::vector<Span>& spans,
                        std::uint64_t span_id, std::vector<double>* retained) = 0;
  virtual bool verify() const = 0;
  virtual std::uint64_t ops() const = 0;
  virtual std::uint64_t failed() const = 0;
  virtual std::uint64_t retired() const = 0;
};

template <class Layer>
class RungOf final : public Rung {
 public:
  template <class... Args>
  RungOf(const char* name, const Workload& w, std::uint64_t seed, Args&&... args)
      : name_(name), layer_(std::forward<Args>(args)...), stream_(layer_, w, seed) {
    stream_.prefill(seed);
    retired0_ = retired();
  }
  const char* name() const override { return name_; }
  double window(double seconds, std::vector<Span>& spans, std::uint64_t span_id,
                std::vector<double>* retained) override {
    WindowPlan p;
    p.warmup_s = 0.05;
    p.windows = std::max(1u, static_cast<unsigned>(seconds / kWindowS));
    p.spans = &spans;
    p.parent_span = span_id;
    const std::vector<Window> ws = run_windows(stream_, p, [&] {
      if (retained == nullptr) return;
      std::uint64_t r = 0;
      for (const Ledger& l : layer_.ledgers()) r += l.retained();
      retained->push_back(static_cast<double>(r));
    });
    std::vector<double> ns;
    for (const Window& x : ws)
      ns.push_back(x.seconds * 1e9 * kThreads / std::max(1.0, x.ops));
    return median(ns);
  }
  bool verify() const override { return stream_.verify(); }
  std::uint64_t ops() const override { return stream_.ops(); }
  std::uint64_t failed() const override { return stream_.failed(); }
  std::uint64_t retired() const override {
    std::uint64_t r = 0;
    for (const Ledger& l : layer_.ledgers()) r += l.retired;
    return r;
  }
  std::uint64_t retired_since_prefill() const { return retired() - retired0_; }
  Layer& layer() { return layer_; }

 private:
  const char* name_;
  Layer layer_;
  Stream<Layer> stream_;
  std::uint64_t retired0_ = 0;
};

/// Times kIndexScans scans through the ordered index while no client runs;
/// returns ns per visited key, scaled to the reference host speed.
/// Scans that come back malformed count into `failed`.
double index_scan_ns_per_key(StoreLayer& l, Rng& rng, Reference& ref,
                             std::uint64_t& failed) {
  std::uint64_t keys = 0;
  const Clock::time_point t0 = Clock::now();
  for (unsigned i = 0; i < kIndexScans; ++i) {
    const K lo = 1 + rng.below(kKeyRange - kScanWidth + 1);
    ScanCheck check(lo, lo + kScanWidth - 1);
    l.index_scan(lo, lo + kScanWidth - 1, 0, [&](K k, V v) { check(k, v); });
    failed += check.bad != 0;
    keys += check.seen;
  }
  const double ns = secs(Clock::now() - t0) * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, keys));
  return ns * kRefNs / ref.slice();
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i)
    std::fprintf(f, "%s{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu}",
                 i ? ",\n" : "", static_cast<unsigned long long>(spans[i].id),
                 static_cast<unsigned long long>(spans[i].parent), spans[i].name,
                 static_cast<unsigned long long>(spans[i].start_ns),
                 static_cast<unsigned long long>(spans[i].end_ns));
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

int run_ladder(const Workload& w, std::uint64_t seed, double seconds,
               const std::string& scratch, const std::string& trace_path) {
  std::vector<std::unique_ptr<Rung>> rungs;
  rungs.push_back(std::make_unique<RungOf<RawMapLayer>>("l1_raw_map", w, seed));
  rungs.push_back(std::make_unique<RungOf<ShardLayer>>("l2_shard", w, seed));
  rungs.push_back(std::make_unique<RungOf<StoreLayer>>("l3_store", w, seed,
                                                       Level::kStore, scratch, "l3", false));
  rungs.push_back(std::make_unique<RungOf<StoreLayer>>("l4_obs", w, seed,
                                                       Level::kObs, scratch, "l4", false));
  rungs.push_back(std::make_unique<RungOf<StoreLayer>>("l5_index", w, seed,
                                                       Level::kIndex, scratch, "l5", false));
  rungs.push_back(std::make_unique<RungOf<StoreLayer>>("l6_wal", w, seed,
                                                       Level::kWal, scratch, "l6", false));
  // The end-to-end configuration's rung carries the reclamation counters.
  const std::size_t e2e = w.scans() ? 4 : 3;
  auto* index_rung = static_cast<RungOf<StoreLayer>*>(rungs[4].get());

  std::vector<Span> spans;
  std::uint64_t next_id = 1;
  std::vector<std::vector<double>> ns(rungs.size());
  std::vector<double> retained, scan_ns;
  std::uint64_t failed = 0;
  Rng scan_rng{seed ^ 0x243f6a8885a308d3ull};
  Reference ref(0, seed);
  const double window_s = seconds / (kRounds * rungs.size());
  for (unsigned r = 0; r < kRounds; ++r) {
    const std::uint64_t round_id = next_id++;
    const std::uint64_t round_start = now_ns();
    // Alternate the rung order so drift over the run cancels.
    for (std::size_t j = 0; j < rungs.size(); ++j) {
      const std::size_t i = r % 2 == 0 ? j : rungs.size() - 1 - j;
      const std::uint64_t id = next_id++;
      const std::uint64_t start = now_ns();
      ns[i].push_back(rungs[i]->window(window_s, spans, id,
                                       i == e2e ? &retained : nullptr));
      spans.push_back({id, round_id, rungs[i]->name(), start, now_ns()});
    }
    const std::uint64_t id = next_id++;
    const std::uint64_t start = now_ns();
    scan_ns.push_back(index_scan_ns_per_key(index_rung->layer(), scan_rng, ref, failed));
    spans.push_back({id, round_id, "index_scans", start, now_ns()});
    spans.push_back({round_id, 0, "round", round_start, now_ns()});
  }
  for (Span& s : spans)
    if (s.id == 0) s.id = next_id++;

  bool ok = !retained.empty();
  std::uint64_t attempted = kRounds * kIndexScans;
  std::vector<Metric> metrics;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    ok = rungs[i]->verify() && ok;
    attempted += rungs[i]->ops();
    failed += rungs[i]->failed();
    metrics.push_back({std::string(rungs[i]->name()) + "_ns_per_op", median(ns[i]), "ns"});
  }
  metrics.push_back({"index_scan_ns_per_key", median(scan_ns), "ns"});
  const auto* top = static_cast<const RungOf<StoreLayer>*>(rungs[e2e].get());
  metrics.push_back({"blocks_retired_per_op",
                     static_cast<double>(top->retired_since_prefill()) /
                         static_cast<double>(std::max<std::uint64_t>(1, top->ops())),
                     "count"});
  metrics.push_back({"retained_blocks", ok ? median(retained) : 0, "count"});
  if (!trace_path.empty() && !write_spans(trace_path, spans))
    std::fprintf(stderr, "kvbench: cannot write %s\n", trace_path.c_str());
  print_result(ok && failed == 0, attempted, failed, metrics);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: kvbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scratch, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  if (argc % 2 == 0) return usage();  // every flag takes a value
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(v.c_str());
    else if (a == "--trace") trace = std::atoi(v.c_str());
    else if (a == "--scratch") scratch = v;
    else if (a == "--trace-out") trace_out = v;
    else return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& x : kWorkloads)
    if (workload == x.name) w = &x;
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1) || scratch.empty())
    return usage();
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const int rc = trace == 0 ? run_end_to_end(*w, seed, seconds, scratch)
                            : run_ladder(*w, seed, seconds, scratch, trace_out);
  std::filesystem::remove_all(scratch);
  return rc;
}
