// Observability layer (src/obs/) tests.
//
//   * histogram bucket contract: exact below the linear cutoff, bounded
//     relative width above it, clamped at the top octave;
//   * percentiles vs an exact sorted oracle: every reported percentile
//     must land within one bucket of the oracle sample (the advertised
//     bounded-relative-error contract), across distributions;
//   * per-lane merge: counts/sums/maxes recorded on distinct lanes (and
//     via both record() and record_owned()) aggregate exactly;
//   * trace ring: concurrent pushers + a racing reader, seq-validated
//     snapshots, lapping behavior;
//   * registry + exporters: the JSON export round-trips through an
//     in-test JSON parser, the Prometheus text carries the summary
//     series, file/fd dumps land on disk;
//   * KvStats wal_durable_lag aggregates as max (never a sum of LSNs);
//   * end-to-end, typed over every tracker: a persistent store with
//     metrics enabled (sample_shift=0, slow_op_ns=0 so every op records
//     and traces), driven through every instrumented op plus a resize,
//     with the background sampler live — then the histograms, gauges,
//     trace causes and dump_metrics outputs must all line up;
//   * sampler vs live resize/persist traffic (WFE_TEST_OPS shrinks it
//     for the TSan/ASan jobs);
//   * metrics disabled: null accessor, failing dumps, zero overhead
//     branches still correct.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hpp"
#include "kv/kv_store.hpp"
#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "tracker_types.hpp"
#include "util/random.hpp"

namespace {

using namespace wfe;

unsigned env_unsigned(const char* name, unsigned fallback) {
  return static_cast<unsigned>(
      harness::env_long(name, static_cast<long>(fallback)));
}

// On a loaded 1-CPU host (sanitizer CI) the sampler thread may not have
// completed its first interval by the time the workload joins; poll with
// a generous bound instead of asserting instantaneous progress.
bool wait_for_samples(const obs::Sampler& sampler, std::uint64_t at_least,
                      unsigned timeout_ms = 5000) {
  for (unsigned waited = 0; waited < timeout_ms; ++waited) {
    if (sampler.samples_taken() >= at_least) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return sampler.samples_taken() >= at_least;
}

// ---------------------------------------------------------------------
// Minimal JSON parser for exporter round-trips: parses the full value
// grammar the exporter emits (objects, arrays, strings, numbers) and
// exposes flat lookup by path ("histograms", "gauges.kv_gets_total").
// Failing to parse any byte of the export is a test failure.
// ---------------------------------------------------------------------
struct MiniJson {
  enum class Kind { kObject, kArray, kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  double num = 0;
  std::string str;
  bool boolean = false;
  std::map<std::string, MiniJson> members;  // kObject
  std::vector<MiniJson> items;              // kArray
};

class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : s_(text) {}

  std::optional<MiniJson> parse() {
    MiniJson v;
    if (!value(v)) return std::nullopt;
    ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  bool lit(const char* w, std::size_t n) {
    if (s_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    return true;
  }

  bool value(MiniJson& out) {
    ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out.kind = MiniJson::Kind::kString; return string(out.str);
      case 't':
        out.kind = MiniJson::Kind::kBool;
        out.boolean = true;
        return lit("true", 4);
      case 'f':
        out.kind = MiniJson::Kind::kBool;
        out.boolean = false;
        return lit("false", 5);
      case 'n': out.kind = MiniJson::Kind::kNull; return lit("null", 4);
      default: return number(out);
    }
  }

  bool object(MiniJson& out) {
    out.kind = MiniJson::Kind::kObject;
    ++pos_;  // '{'
    ws();
    if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
    for (;;) {
      ws();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !string(key)) return false;
      ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      MiniJson v;
      if (!value(v)) return false;
      out.members.emplace(std::move(key), std::move(v));
      ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array(MiniJson& out) {
    out.kind = MiniJson::Kind::kArray;
    ++pos_;  // '['
    ws();
    if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
    for (;;) {
      MiniJson v;
      if (!value(v)) return false;
      out.items.push_back(std::move(v));
      ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (++pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: out += s_[pos_]; break;  // good enough for our output
        }
        ++pos_;
      } else {
        out += s_[pos_++];
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }

  bool number(MiniJson& out) {
    out.kind = MiniJson::Kind::kNumber;
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+'))
      ++pos_;
    if (pos_ == start) return false;
    out.num = std::stod(s_.substr(start, pos_ - start));
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

const MiniJson* find_histogram(const MiniJson& root, const std::string& hname) {
  auto it = root.members.find("histograms");
  if (it == root.members.end()) return nullptr;
  for (const MiniJson& h : it->second.items) {
    auto n = h.members.find("name");
    if (n != h.members.end() && n->second.str == hname) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Histogram bucket contract
// ---------------------------------------------------------------------

TEST(ObsHistogram, BucketIndexContract) {
  using H = obs::LatencyHistogram;
  // Linear region: exact.
  for (std::uint64_t v = 0; v < H::kSubBuckets; ++v)
    EXPECT_EQ(H::bucket_index(v), v);
  // Monotone non-decreasing across a wide sample of values; lower bound
  // of the mapped bucket never exceeds the value; relative bucket width
  // bounded by 2^-kSubBits in the octave region.
  unsigned prev = 0;
  for (std::uint64_t v = 1; v < (1ull << 42); v = v + 1 + v / 3) {
    const unsigned idx = H::bucket_index(v);
    EXPECT_GE(idx, prev);
    EXPECT_LT(idx, H::kBuckets);
    prev = idx;
    if (v >= (1ull << H::kMaxExp)) continue;  // clamp region
    EXPECT_LE(H::bucket_lo(idx), v);
    if (v >= H::kSubBuckets) {
      const std::uint64_t lo = H::bucket_lo(idx);
      const std::uint64_t width =
          H::bucket_lo(idx + 1) > lo ? H::bucket_lo(idx + 1) - lo : 1;
      EXPECT_LE(width, std::max<std::uint64_t>(1, lo >> (H::kSubBits - 1)))
          << "bucket too wide at v=" << v;
    }
  }
  // Clamp: everything at or past 2^kMaxExp lands in the last bucket.
  EXPECT_EQ(H::bucket_index(1ull << H::kMaxExp), H::kBuckets - 1);
  EXPECT_EQ(H::bucket_index(~std::uint64_t{0}), H::kBuckets - 1);
}

TEST(ObsHistogram, PercentileMatchesExactOracle) {
  obs::LatencyHistogram h(1);
  util::Xoshiro256 rng(7);
  std::vector<std::uint64_t> samples;
  // Mixed distribution: dense low-latency mass plus a long tail, the
  // shape op latencies actually have.
  for (int i = 0; i < 60000; ++i) {
    std::uint64_t v;
    const std::uint64_t pick = rng.next_bounded(100);
    if (pick < 70)
      v = 80 + rng.next_bounded(400);           // fast path cluster
    else if (pick < 95)
      v = 2'000 + rng.next_bounded(30'000);     // mid
    else
      v = 1'000'000 + rng.next_bounded(50'000'000);  // tail
    samples.push_back(v);
    h.record(v, 0);
  }
  std::sort(samples.begin(), samples.end());
  const obs::HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.count, samples.size());
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    // Nearest-rank oracle, same convention as the snapshot.
    std::size_t rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(samples.size()));
    if (static_cast<double>(rank) < p / 100.0 * samples.size()) ++rank;
    if (rank == 0) rank = 1;
    const std::uint64_t exact = samples[rank - 1];
    const std::uint64_t got = h.snapshot().percentile(p);
    // The reported value is the midpoint of the bucket holding the
    // oracle sample: within one bucket index either way.
    const unsigned bi_exact = obs::LatencyHistogram::bucket_index(exact);
    const unsigned bi_got = obs::LatencyHistogram::bucket_index(got);
    EXPECT_LE(bi_got >= bi_exact ? bi_got - bi_exact : bi_exact - bi_got, 1u)
        << "p=" << p << " exact=" << exact << " got=" << got;
  }
  EXPECT_EQ(s.percentile(100.0), samples.back());
  EXPECT_EQ(s.max, samples.back());
  // Mean within the bucketing's relative error.
  double exact_mean = 0;
  for (std::uint64_t v : samples) exact_mean += static_cast<double>(v);
  exact_mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(s.mean(), exact_mean, exact_mean * 0.001 + 1);
}

TEST(ObsHistogram, LaneMergeAndOwnedRecord) {
  obs::LatencyHistogram h(4);
  // Distinct values per lane, half through record(), half through the
  // single-writer record_owned() — the snapshot must not care.
  std::uint64_t sum = 0, max = 0, count = 0;
  for (unsigned lane = 0; lane < 4; ++lane) {
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const std::uint64_t v = lane * 1'000'000 + i * 17 + 1;
      if (lane % 2 == 0)
        h.record(v, lane);
      else
        h.record_owned(v, lane);
      sum += v;
      max = std::max(max, v);
      ++count;
    }
  }
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, count);
  EXPECT_EQ(s.sum, sum);
  EXPECT_EQ(s.max, max);
  EXPECT_EQ(s.mean(), static_cast<double>(sum) / static_cast<double>(count));
}

TEST(ObsHistogram, EmptySnapshot) {
  obs::LatencyHistogram h(2);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.percentile(50), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

// ---------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------

TEST(ObsTrace, PushSnapshotOrder) {
  obs::TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 5; ++i)
    ring.push(obs::OpKind::kGet, static_cast<std::uint32_t>(i), i * 100,
              obs::TraceCause::kNone);
  auto evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 5u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].seq, i + 1);
    EXPECT_EQ(evs[i].shard, i);
    EXPECT_EQ(evs[i].ns, i * 100);
  }
  // Lap the ring: only the newest `capacity` events remain.
  for (std::uint64_t i = 5; i < 20; ++i)
    ring.push(obs::OpKind::kPut, 0, i * 100, obs::TraceCause::kSlowPath);
  evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 8u);
  EXPECT_EQ(evs.front().seq, 13u);
  EXPECT_EQ(evs.back().seq, 20u);
  EXPECT_EQ(ring.total_pushed(), 20u);
}

TEST(ObsTrace, ConcurrentPushAndSnapshot) {
  const unsigned pushers = 4;
  const std::uint64_t per_thread = env_unsigned("WFE_TEST_OPS", 20000) / 4 + 512;
  obs::TraceRing ring(256);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto evs = ring.snapshot();
      // Seqs strictly increasing and every decoded event well-formed.
      std::uint64_t prev = 0;
      for (const auto& e : evs) {
        EXPECT_GT(e.seq, prev);
        prev = e.seq;
        EXPECT_LT(static_cast<unsigned>(e.op), obs::kOpKindCount);
        EXPECT_LT(static_cast<unsigned>(e.cause), obs::kTraceCauseCount);
      }
    }
  });
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < pushers; ++t)
    ts.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < per_thread; ++i)
        ring.push(static_cast<obs::OpKind>(t % 8), t, i,
                  static_cast<obs::TraceCause>(i % 5));
    });
  for (auto& th : ts) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ring.total_pushed(), pushers * per_thread);
  auto evs = ring.snapshot();
  EXPECT_LE(evs.size(), ring.capacity());
  EXPECT_GT(evs.size(), 0u);
}

// Loss accounting: overwritten() counts exactly what lapping destroyed,
// snapshot_torn() counts slots a racing snapshot had to skip.  Trace
// attribution consumers read both to know how much of the event stream
// they are NOT seeing.
TEST(ObsTrace, LossAccounting) {
  obs::TraceRing ring(8);
  EXPECT_EQ(ring.overwritten(), 0u);
  EXPECT_EQ(ring.snapshot_torn(), 0u);
  for (std::uint64_t i = 0; i < 8; ++i)
    ring.push(obs::OpKind::kGet, 0, i, obs::TraceCause::kNone);
  EXPECT_EQ(ring.overwritten(), 0u);  // exactly full: nothing lost yet
  for (std::uint64_t i = 0; i < 5; ++i)
    ring.push(obs::OpKind::kGet, 0, i, obs::TraceCause::kNone);
  EXPECT_EQ(ring.overwritten(), 5u);  // 13 pushed - 8 readable
  EXPECT_EQ(ring.total_pushed() - ring.overwritten(), ring.capacity());
  // Quiescent snapshots never count torn slots.
  (void)ring.snapshot();
  (void)ring.snapshot();
  EXPECT_EQ(ring.snapshot_torn(), 0u);
  // Racing snapshots against pushers may tear; the counter only grows
  // and every reported tear corresponds to a skipped slot.
  std::atomic<bool> stop{false};
  std::thread pusher([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire))
      ring.push(obs::OpKind::kPut, 1, ++i, obs::TraceCause::kNone);
  });
  for (int i = 0; i < 200; ++i) (void)ring.snapshot();
  stop.store(true, std::memory_order_release);
  pusher.join();
  const std::uint64_t torn = ring.snapshot_torn();
  (void)ring.snapshot();  // quiescent again: the counter must not move
  EXPECT_EQ(ring.snapshot_torn(), torn);
}

// ---------------------------------------------------------------------
// Registry + exporters
// ---------------------------------------------------------------------

TEST(ObsRegistry, SnapshotAndExportRoundTrip) {
  obs::MetricsRegistry reg;
  obs::LatencyHistogram& h = reg.add_histogram("test_op_ns", 2);
  for (std::uint64_t i = 1; i <= 1000; ++i) h.record(i, i % 2);
  reg.add_collector([](std::vector<obs::GaugeValue>& out) {
    out.push_back({"test_gauge", 42.5});
    out.push_back({"test_count", 7});
  });
  const obs::RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1000u);
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_GT(snap.at_ns, 0u);

  // JSON round-trip through the in-test parser.
  const std::string js = obs::to_json_string(snap);
  auto parsed = MiniJsonParser(js).parse();
  ASSERT_TRUE(parsed.has_value()) << js;
  const MiniJson* th = find_histogram(*parsed, "test_op_ns");
  ASSERT_NE(th, nullptr);
  EXPECT_EQ(th->members.at("count").num, 1000.0);
  EXPECT_EQ(th->members.at("max_ns").num, 1000.0);
  EXPECT_GT(th->members.at("p50_ns").num, 400.0);
  EXPECT_LT(th->members.at("p50_ns").num, 600.0);
  const auto& gauges = parsed->members.at("gauges");
  EXPECT_EQ(gauges.members.at("test_gauge").num, 42.5);
  EXPECT_EQ(gauges.members.at("test_count").num, 7.0);

  // Prometheus text: summary series + auxiliary max + typed gauges.
  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(prom.find("# TYPE test_op_ns summary"), std::string::npos);
  EXPECT_NE(prom.find("test_op_ns{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(prom.find("test_op_ns{quantile=\"0.999\"}"), std::string::npos);
  EXPECT_NE(prom.find("test_op_ns_count 1000"), std::string::npos);
  EXPECT_NE(prom.find("test_op_ns_max 1000"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_gauge gauge"), std::string::npos);
  EXPECT_NE(prom.find("test_gauge 42.5"), std::string::npos);

  // serialize() dispatches on format.
  EXPECT_EQ(obs::serialize(snap, obs::ExportFormat::kJson), js);
  EXPECT_EQ(obs::serialize(snap, obs::ExportFormat::kPrometheus), prom);
}

// The _sum series must be the histogram's EXACT accumulated sum.  The
// old exporter reconstructed it as uint64(mean * count), whose double
// rounding drifted for large sums; the registry now carries the exact
// integer through (HistogramSummary::sum_ns) and the exporter prints it
// verbatim.  # HELP lines ride along for every series.
TEST(ObsRegistry, PrometheusExactSumAndHelp) {
  obs::MetricsRegistry reg;
  obs::LatencyHistogram& h = reg.add_histogram("sum_exact_ns", 1);
  // Values chosen so sum is NOT representable as (count * round(mean)):
  // a double carries 53 mantissa bits; this sum needs all 64.
  std::uint64_t want_sum = 0;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t v = (std::uint64_t{1} << 62) + 1 + i;
    h.record(v, 0);
    want_sum += v;
  }
  const obs::RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].sum_ns, want_sum);
  char exact[64];
  std::snprintf(exact, sizeof exact, "sum_exact_ns_sum %llu\n",
                static_cast<unsigned long long>(want_sum));
  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(prom.find(exact), std::string::npos) << prom;
  EXPECT_NE(prom.find("# HELP sum_exact_ns "), std::string::npos);
  EXPECT_NE(prom.find("# TYPE sum_exact_ns summary"), std::string::npos);
  EXPECT_NE(prom.find("# HELP sum_exact_ns_max "), std::string::npos);
  // JSON carries the same exact integer.
  const std::string js = obs::to_json_string(snap);
  char jexact[64];
  std::snprintf(jexact, sizeof jexact, "\"sum_ns\":%llu",
                static_cast<unsigned long long>(want_sum));
  EXPECT_NE(js.find(jexact), std::string::npos) << js;
}

// Metric names with characters outside [a-zA-Z0-9_:] would produce
// unscrapable exposition lines; the registry escapes them at
// registration (histograms) and snapshot time (gauges).
TEST(ObsRegistry, InvalidMetricNamesAreSanitized) {
  EXPECT_EQ(obs::sanitize_metric_name("ok_name:x9"), "ok_name:x9");
  EXPECT_EQ(obs::sanitize_metric_name("bad name-with.dots"),
            "bad_name_with_dots");
  EXPECT_EQ(obs::sanitize_metric_name("9leading"), "_9leading");
  EXPECT_EQ(obs::sanitize_metric_name(""), "_");
  obs::MetricsRegistry reg;
  obs::LatencyHistogram& h = reg.add_histogram("kv op/latency{ns}", 1);
  h.record(5, 0);
  reg.add_collector([](std::vector<obs::GaugeValue>& out) {
    out.push_back({"weird gauge\"name", 1.0});
  });
  const obs::RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "kv_op_latency_ns_");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "weird_gauge_name");
  const std::string prom = obs::to_prometheus(snap);
  for (char c : prom) {
    if (c == '{') break;  // quantile labels are quoted, stop at first
    EXPECT_TRUE(c == '_' || c == ':' || c == ' ' || c == '\n' || c == '#' ||
                std::isalnum(static_cast<unsigned char>(c)))
        << "bad char '" << c << "' in metric name region";
  }
}

// dump_to_file is crash-atomic: the content lands via tmp + fsync +
// rename, so a reader at `path` sees the old dump or the new one —
// never a torn mix — and no .tmp residue survives success.
TEST(ObsRegistry, DumpToFileIsAtomicRename) {
  obs::MetricsRegistry reg;
  obs::LatencyHistogram& h = reg.add_histogram("atomic_dump_ns", 1);
  h.record(123, 0);
  const std::string path = "obs_atomic_dump.json";
  const std::string tmp = path + ".tmp";
  std::filesystem::remove(path);
  std::filesystem::remove(tmp);
  // First dump creates the file; overwrite replaces it in one rename.
  ASSERT_TRUE(obs::dump_to_file(path.c_str(),
                                obs::serialize(reg.snapshot(),
                                               obs::ExportFormat::kJson)));
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(tmp)) << "tmp residue after dump";
  h.record(456, 0);
  ASSERT_TRUE(obs::dump_to_file(path.c_str(),
                                obs::serialize(reg.snapshot(),
                                               obs::ExportFormat::kJson)));
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back())))
    text.pop_back();
  auto parsed = MiniJsonParser(text).parse();
  ASSERT_TRUE(parsed.has_value()) << text;
  const MiniJson* hist = find_histogram(*parsed, "atomic_dump_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->members.at("count").num, 2.0);  // the SECOND dump won
  // Unwritable target: fails cleanly, leaves no tmp anywhere visible.
  EXPECT_FALSE(obs::dump_to_file("/nonexistent_dir_obs/x.json", text));
  std::filesystem::remove(path);
}

TEST(ObsRegistry, SamplerFillsRing) {
  obs::MetricsRegistry reg;
  obs::LatencyHistogram& h = reg.add_histogram("sampled_ns", 1);
  obs::Sampler sampler(reg, /*interval_ms=*/1, /*capacity=*/4);
  sampler.start();
  EXPECT_TRUE(sampler.running());
  for (int i = 0; i < 200; ++i) {
    h.record(100, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (sampler.samples_taken() >= 6) break;
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.samples_taken(), 2u);
  const auto hist = sampler.history();
  EXPECT_LE(hist.size(), 4u);  // ring bounded
  ASSERT_FALSE(hist.empty());
  // Snapshots are oldest-to-newest and monotone in time.
  for (std::size_t i = 1; i < hist.size(); ++i)
    EXPECT_GE(hist[i].at_ns, hist[i - 1].at_ns);
  EXPECT_EQ(sampler.latest().at_ns, hist.back().at_ns);
}

// A stopped sampler must restart cleanly on the same instance (stop_
// resets on start), keep appending to the same ring, and its counters
// must be monotone across the cycles.
TEST(ObsRegistry, SamplerStopStartReuse) {
  obs::MetricsRegistry reg;
  obs::LatencyHistogram& h = reg.add_histogram("reuse_ns", 1);
  obs::Sampler sampler(reg, /*interval_ms=*/1, /*capacity=*/128);
  std::uint64_t taken_before = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    h.record(100 + cycle, 0);
    sampler.start();
    EXPECT_TRUE(sampler.running());
    sampler.start();  // idempotent while running
    ASSERT_TRUE(wait_for_samples(sampler, taken_before + 2));
    sampler.stop();
    EXPECT_FALSE(sampler.running());
    sampler.stop();  // idempotent while stopped
    const std::uint64_t taken = sampler.samples_taken();
    EXPECT_GT(taken, taken_before) << "cycle " << cycle;
    taken_before = taken;
  }
  // History accumulated across all three cycles, oldest-to-newest.
  const auto hist = sampler.history();
  ASSERT_GE(hist.size(), 6u);
  for (std::size_t i = 1; i < hist.size(); ++i)
    EXPECT_GE(hist[i].at_ns, hist[i - 1].at_ns);
}

// After the ring evicts (capacity exceeded), latest() must still be the
// newest retained snapshot — identical to history().back() — and the
// window stays exactly `capacity` deep.
TEST(ObsRegistry, SamplerLatestConsistentAfterEviction) {
  obs::MetricsRegistry reg;
  reg.add_histogram("evict_ns", 1);
  const std::size_t cap = 4;
  obs::Sampler sampler(reg, /*interval_ms=*/1, cap);
  sampler.start();
  // Far more samples than the ring holds: eviction must have happened.
  ASSERT_TRUE(wait_for_samples(sampler, 4 * cap));
  sampler.stop();
  const auto hist = sampler.history();
  ASSERT_EQ(hist.size(), cap);
  EXPECT_GT(sampler.samples_taken(), cap);  // proof of eviction
  const obs::RegistrySnapshot last = sampler.latest();
  EXPECT_EQ(last.at_ns, hist.back().at_ns);
  for (std::size_t i = 1; i < hist.size(); ++i)
    EXPECT_GE(hist[i].at_ns, hist[i - 1].at_ns);
  // Everything retained is the NEWEST tail of the series: each retained
  // snapshot is newer than the eviction horizon implies possible for
  // dropped ones (monotone at_ns is the observable proxy).
  EXPECT_LT(hist.front().at_ns, last.at_ns);
}

// Regression: the sampler must hold an absolute cadence.  The old loop
// waited a RELATIVE interval after each snapshot, so the real period
// was interval + collector cost and the ring's time series drifted —
// with a 30ms collector on a 40ms interval it ticked every ~70ms,
// starving anything pacing off the ring (the admission controller's
// trend terms).  Absolute deadlines keep the period at ~interval as
// long as the snapshot fits inside it.
TEST(ObsRegistry, SamplerHoldsCadenceUnderSlowCollector) {
  obs::MetricsRegistry reg;
  reg.add_collector([](std::vector<obs::GaugeValue>& out) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    out.push_back({"slow_gauge", 1.0});
  });
  obs::Sampler sampler(reg, /*interval_ms=*/40, /*capacity=*/64);
  sampler.start();
  ASSERT_TRUE(wait_for_samples(sampler, 8, 10000));
  sampler.stop();
  const auto hist = sampler.history();
  ASSERT_GE(hist.size(), 8u);
  const double span_ms =
      static_cast<double>(hist.back().at_ns - hist.front().at_ns) / 1e6;
  const double period_ms = span_ms / static_cast<double>(hist.size() - 1);
  // Generous bound for loaded sanitizer hosts; the old relative-wait
  // loop cannot beat interval + collector cost (~70ms) even unloaded.
  EXPECT_LT(period_ms, 55.0)
      << "sampler cadence drifted to " << period_ms << " ms per tick";
}

// ---------------------------------------------------------------------
// KvStats durable-lag aggregation (the fixed satellite)
// ---------------------------------------------------------------------

TEST(ObsStats, WalDurableLagAggregatesAsMax) {
  kv::KvStats st;
  for (unsigned i = 0; i < 3; ++i) {
    kv::ShardStats s;
    s.shard = i;
    s.wal_appended_lsn = 1000 * (i + 1);
    s.wal_durable_lsn = 1000 * (i + 1) - (i * 50);  // lags: 0, 50, 100
    s.wal_durable_lag = i * 50;
    s.wal_fsyncs = 10;
    st.shards.push_back(s);
  }
  const kv::ShardStats tot = st.total();
  // Max over shards, and the per-stream LSN ordinals must NOT be summed.
  EXPECT_EQ(tot.wal_durable_lag, 100u);
  EXPECT_EQ(tot.wal_appended_lsn, 0u);
  EXPECT_EQ(tot.wal_durable_lsn, 0u);
  EXPECT_EQ(tot.wal_fsyncs, 30u);
}

// ---------------------------------------------------------------------
// End-to-end over every tracker
// ---------------------------------------------------------------------

template <class TR>
class ObsKvTest : public ::testing::Test {};
TYPED_TEST_SUITE(ObsKvTest, test::AllTrackers);

TYPED_TEST(ObsKvTest, EndToEndMetricsPipeline) {
  using Store = kv::KvStore<std::uint64_t, std::uint64_t, TypeParam>;
  const std::string dir =
      "obs_e2e_" + std::string(TypeParam::name()) + "_wal";
  std::filesystem::remove_all(dir);
  kv::KvConfig cfg;
  cfg.shards = 4;
  cfg.buckets_per_shard = 64;
  cfg.tracker.max_threads = 4;
  cfg.tracker.max_hes = Store::kSlotsNeeded;
  cfg.tracker.fast_path_attempts = 0;  // WFE-family: exercise the probe
  cfg.persistence.enabled = true;
  cfg.persistence.dir = dir;
  cfg.persistence.sync = persist::SyncMode::kAlways;  // fsync histogram
  cfg.metrics.enabled = true;
  cfg.metrics.sample_shift = 0;  // record every op
  cfg.metrics.slow_op_ns = 0;    // trace every op
  cfg.metrics.sampler = true;
  cfg.metrics.sample_interval_ms = 1;
  {
    Store store(cfg);
    ASSERT_NE(store.metrics(), nullptr);

    // Prefill, then resize FIRST: migration copies populated buckets
    // (feeding kv_migrate_bucket_copy_ns), and the op-count gauges below
    // read the CURRENT table's shard counters — which start fresh on the
    // post-resize table — so the workload must run after the resize.
    for (std::uint64_t k = 1; k <= 500; ++k) store.put(k, k, 0);
    ASSERT_TRUE(store.resize(8, 0));

    const unsigned ops = env_unsigned("WFE_TEST_OPS", 20000) / 10 + 200;
    std::vector<std::thread> workers_e2e;
    for (unsigned tid = 0; tid < 3; ++tid)
      workers_e2e.emplace_back([&, tid] {
        util::Xoshiro256 rng(77 + tid);
        for (unsigned i = 0; i < ops; ++i) {
          const std::uint64_t k = rng.next_bounded(2000) + 1;
          switch (rng.next_bounded(6)) {
            case 0: store.get(k, tid); break;
            case 1: store.put(k, k, tid); break;
            case 2: store.update(k, k + 1, tid); break;
            case 3: store.remove(k, tid); break;
            case 4: {
              std::uint64_t keys[4] = {k, k + 1, k + 2, k + 3};
              std::optional<std::uint64_t> out[4];
              store.multi_get(keys, 4, out, tid);
              break;
            }
            default: {
              std::pair<std::uint64_t, std::uint64_t> ps[4] = {
                  {k, 1}, {k + 1, 2}, {k + 2, 3}, {k + 3, 4}};
              store.multi_put(ps, 4, tid);
              break;
            }
          }
        }
      });
    for (auto& th : workers_e2e) th.join();

    const obs::RegistrySnapshot snap = store.metrics()->registry.snapshot();
    const auto count_of = [&](const char* hname) -> std::uint64_t {
      for (const auto& h : snap.histograms)
        if (h.name == hname) return h.count;
      ADD_FAILURE() << "missing histogram " << hname;
      return 0;
    };
    EXPECT_GT(count_of("kv_op_get_ns"), 0u);
    EXPECT_GT(count_of("kv_op_put_ns"), 0u);
    EXPECT_GT(count_of("kv_op_update_ns"), 0u);
    EXPECT_GT(count_of("kv_op_remove_ns"), 0u);
    EXPECT_GT(count_of("kv_op_multi_ns"), 0u);
    EXPECT_GT(count_of("kv_wal_fsync_ns"), 0u);          // kAlways sync
    EXPECT_GT(count_of("kv_migrate_bucket_copy_ns"), 0u);  // the resize
    if (std::string(TypeParam::name()).find("WFE") == 0) {
      EXPECT_GT(count_of("kv_wfe_slow_path_ns"), 0u);  // forced slow path
    }

    // Gauges: fed by one stats() pass through the collector.
    const auto gauge_of = [&](const char* gname) -> double {
      for (const auto& g : snap.gauges)
        if (g.name == gname) return g.value;
      ADD_FAILURE() << "missing gauge " << gname;
      return -1;
    };
    EXPECT_GT(gauge_of("kv_gets_total"), 0.0);
    EXPECT_GT(gauge_of("kv_puts_total"), 0.0);
    EXPECT_EQ(gauge_of("kv_shard_count"), 8.0);
    EXPECT_GE(gauge_of("kv_resize_epochs_total"), 1.0);
    EXPECT_GE(gauge_of("kv_migrated_keys_total"), 0.0);
    EXPECT_GE(gauge_of("kv_wal_durable_lag"), 0.0);
    // Loss accounting rides the gauge collector: with slow_op_ns=0 every
    // op traced, so far more than kTraceCapacity events were pushed and
    // the overwritten count must say exactly how many fell off.
    const double overwritten = gauge_of("trace_events_overwritten");
    EXPECT_GE(overwritten, 0.0);
    EXPECT_EQ(overwritten,
              static_cast<double>(store.metrics()->trace.overwritten()));
    EXPECT_GE(gauge_of("trace_snapshot_torn"), 0.0);

    // Trace: slow_op_ns=0 means every op traced; cause tags well-formed,
    // and the forced-slow-path runs must attribute kSlowPath somewhere.
    const auto evs = store.metrics()->trace.snapshot();
    ASSERT_GT(evs.size(), 0u);
    EXPECT_GT(store.metrics()->trace.total_pushed(), 0u);
    for (const auto& e : evs)
      EXPECT_LT(static_cast<unsigned>(e.cause), obs::kTraceCauseCount);
    if (std::string(TypeParam::name()).find("WFE") == 0) {
      const bool saw_slow_path =
          std::any_of(evs.begin(), evs.end(), [](const obs::TraceEvent& e) {
            return e.cause == obs::TraceCause::kSlowPath;
          });
      EXPECT_TRUE(saw_slow_path);
    }

    // Sampler ran against live traffic.
    ASSERT_NE(store.metrics()->sampler(), nullptr);
    EXPECT_TRUE(wait_for_samples(*store.metrics()->sampler(), 1));

    // dump_metrics: file (JSON parses; has every op histogram) and fd.
    const std::string jpath = dir + "/metrics.json";
    const std::string ppath = dir + "/metrics.prom";
    ASSERT_TRUE(store.dump_metrics(jpath.c_str(), obs::ExportFormat::kJson));
    ASSERT_TRUE(
        store.dump_metrics(ppath.c_str(), obs::ExportFormat::kPrometheus));
    // Both dumps are read back whole and must parse as one JSON value
    // holding the op histograms.
    const auto read_back = [](std::FILE* f) {
      std::string text;
      char buf[4096];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
      std::fclose(f);
      while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())))
        text.pop_back();
      return text;
    };
    const auto expect_metrics_json = [](const std::string& text, const char* what) {
      const auto parsed = MiniJsonParser(text).parse();
      ASSERT_TRUE(parsed.has_value()) << what;
      EXPECT_NE(find_histogram(*parsed, "kv_op_get_ns"), nullptr) << what;
      EXPECT_NE(find_histogram(*parsed, "kv_wal_fsync_ns"), nullptr) << what;
    };
    std::FILE* f = std::fopen(jpath.c_str(), "r");
    ASSERT_NE(f, nullptr);
    expect_metrics_json(read_back(f), "dump_metrics");
    f = std::fopen(ppath.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    // The fd path writes through util::write_all; an anonymous temp file
    // exercises it without touching the filesystem namespace.
    std::FILE* tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    EXPECT_TRUE(store.dump_metrics_fd(::fileno(tmp)));
    std::rewind(tmp);
    expect_metrics_json(read_back(tmp), "dump_metrics_fd");
  }
  std::filesystem::remove_all(dir);
}

TYPED_TEST(ObsKvTest, MetricsDisabledIsNullObject) {
  using Store = kv::KvStore<std::uint64_t, std::uint64_t, TypeParam>;
  kv::KvConfig cfg;
  cfg.shards = 2;
  cfg.buckets_per_shard = 64;
  cfg.tracker.max_threads = 2;
  cfg.tracker.max_hes = Store::kSlotsNeeded;
  Store store(cfg);  // metrics.enabled defaults to false
  EXPECT_EQ(store.metrics(), nullptr);
  EXPECT_FALSE(store.dump_metrics("/tmp/should_not_exist_obs.json"));
  EXPECT_FALSE(store.dump_metrics_fd(2));
  // Ops still work with every probe compiled to an untaken branch.
  EXPECT_TRUE(store.put(1, 2, 0));
  EXPECT_EQ(store.get(1, 0), std::optional<std::uint64_t>(2));
  store.resize(4, 0);
  EXPECT_EQ(store.get(1, 0), std::optional<std::uint64_t>(2));
}

// Every WFE domain records its slow-path episodes: each shard's and the
// ordered index's.  With the slow path forced, the histogram holds one
// episode per slow-path entry of either kind, and the entries gauge
// counts both.
TEST(ObsKvWfe, SlowPathProbeCoversTheIndexDomain) {
  using Store = kv::KvStore<std::uint64_t, std::uint64_t, core::WfeTracker>;
  kv::KvConfig cfg;
  cfg.shards = 2;
  cfg.buckets_per_shard = 64;
  cfg.tracker.max_threads = 2;
  cfg.tracker.max_hes = Store::kSlotsNeeded;
  cfg.tracker.fast_path_attempts = 0;  // every protect takes the slow path
  cfg.ordered_index = true;
  cfg.metrics.enabled = true;
  cfg.metrics.sampler = false;
  Store store(cfg);
  for (std::uint64_t k = 1; k <= 200; ++k) store.put(k, k, 0);
  for (std::uint64_t k = 1; k <= 200; k += 2) store.remove(k, 0);
  std::uint64_t scanned = 0;
  store.scan(1, 200, [&](std::uint64_t, std::uint64_t) { ++scanned; }, 0);
  EXPECT_EQ(scanned, 100u);

  const kv::KvStats st = store.stats();
  const std::uint64_t shard_entries = st.total().slow_path_entries;
  const std::uint64_t index_entries = st.index.slow_path_entries;
  EXPECT_GT(shard_entries, 0u);
  EXPECT_GT(index_entries, 0u);
  const obs::RegistrySnapshot snap = store.metrics()->registry.snapshot();
  const auto hist = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const obs::HistogramSummary& h) { return h.name == "kv_wfe_slow_path_ns"; });
  ASSERT_NE(hist, snap.histograms.end());
  EXPECT_EQ(hist->count, shard_entries + index_entries);
  const auto gauge = std::find_if(
      snap.gauges.begin(), snap.gauges.end(), [](const obs::GaugeValue& g) {
        return g.name == "kv_slow_path_entries_total";
      });
  ASSERT_NE(gauge, snap.gauges.end());
  EXPECT_EQ(gauge->value, static_cast<double>(shard_entries + index_entries));
}

// ---------------------------------------------------------------------
// Sampler vs live resize + persist traffic (the TSan/ASan target)
// ---------------------------------------------------------------------

TEST(ObsStress, SamplerVsResizeAndPersist) {
  using Store = kv::KvStore<std::uint64_t, std::uint64_t, core::WfeTracker>;
  const std::string dir = "obs_stress_wal";
  std::filesystem::remove_all(dir);
  const unsigned workers = 3;
  const unsigned control_tid = workers;
  kv::KvConfig cfg;
  cfg.shards = 2;
  cfg.buckets_per_shard = 64;
  cfg.tracker.max_threads = workers + 1;
  cfg.tracker.max_hes = Store::kSlotsNeeded;
  cfg.persistence.enabled = true;
  cfg.persistence.dir = dir;
  cfg.persistence.sync = persist::SyncMode::kBatched;
  cfg.metrics.enabled = true;
  cfg.metrics.sample_shift = 0;
  cfg.metrics.slow_op_ns = 10'000;  // only genuinely slow ops trace
  cfg.metrics.sampler = true;
  cfg.metrics.sample_interval_ms = 1;  // hammer the snapshot path
  {
    Store store(cfg);
    const unsigned ops = env_unsigned("WFE_TEST_OPS", 20000) / 2 + 500;
    const unsigned resizes = env_unsigned("WFE_TEST_RESIZES", 6);
    std::atomic<bool> done{false};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < workers; ++t)
      ts.emplace_back([&, t] {
        util::Xoshiro256 rng(100 + t);
        for (unsigned i = 0; i < ops; ++i) {
          const std::uint64_t k = rng.next_bounded(4000) + 1;
          switch (rng.next_bounded(4)) {
            case 0: store.get(k, t); break;
            case 1: store.put(k, i, t); break;
            case 2: store.update(k, i, t); break;
            default: store.remove(k, t); break;
          }
        }
      });
    std::thread control([&] {
      // Grow and shrink while workers run; every cycle forces bucket
      // migrations the sampler's gauge collector must observe safely.
      unsigned shards = 2;
      for (unsigned i = 0; i < resizes && !done.load(); ++i) {
        shards = shards == 2 ? 8 : 2;
        store.resize(shards, control_tid);
      }
    });
    for (auto& th : ts) th.join();
    done.store(true);
    control.join();
    // The sampler observed live traffic and its history stays bounded.
    ASSERT_NE(store.metrics(), nullptr);
    ASSERT_NE(store.metrics()->sampler(), nullptr);
    ASSERT_TRUE(wait_for_samples(*store.metrics()->sampler(), 1));
    EXPECT_LE(store.metrics()->sampler()->history().size(),
              cfg.metrics.sample_ring);
    const obs::RegistrySnapshot last = store.metrics()->sampler()->latest();
    // One histogram per op lane (get/put/remove/insert/multi/scan) plus
    // the wal fsync/commit-wait/append and slow-path lanes.
    EXPECT_EQ(last.histograms.size(), 10u);
    EXPECT_FALSE(last.gauges.empty());
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
