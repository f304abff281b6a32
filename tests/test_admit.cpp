// Admission-controller contracts (src/admit/): the control law is a
// pure state machine (observe() and refill() driven directly, with
// explicit signals and timestamps), so ramp-down, recovery,
// slope-triggered throttling, the shed ladder and the bucket's refill
// arithmetic are all deterministic here; the store-level tests then pin
// the wiring — null object when disabled, kv::Overloaded on a refused
// write, reads never token-gated, the law fed by the live sampler, and
// no thread of the controller's own.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

#include "admit/controller.hpp"
#include "core/wfe.hpp"
#include "kv/kv_store.hpp"
#include "txn/txn.hpp"
#include "util/barrier.hpp"

namespace {

using namespace wfe;

using Store = kv::KvStore<std::uint64_t, std::uint64_t, core::WfeTracker>;

admit::AdmitOptions law_opts() {
  admit::AdmitOptions o;
  o.enabled = true;
  o.max_write_rate = 1e6;
  o.min_write_rate = 100;
  o.severity_alpha = 1.0;  // no smoothing: single-step deterministic law
  return o;
}

TEST(AdmitLaw, RateRampsDownUnderLagAndRecoversAfterDrain) {
  admit::AdmitOptions o = law_opts();
  o.wal_lag_target = 100;
  admit::AdmissionController c(o);
  EXPECT_DOUBLE_EQ(c.write_rate(), o.max_write_rate);

  admit::Signals s;
  s.wal_lag = 400;  // 4x over target
  c.observe(s);
  EXPECT_NEAR(c.severity(), 4.0, 1e-9);
  EXPECT_NEAR(c.write_rate(), o.max_write_rate / 4, 1.0);

  // Sustained overload: multiplicative decrease reaches the floor but
  // never parks the store below it.
  for (int i = 0; i < 50; ++i) c.observe(s);
  EXPECT_NEAR(c.write_rate(), o.min_write_rate, 1e-6);

  // Drained: multiplicative recovery reopens to the ceiling.
  s.wal_lag = 0;
  for (int i = 0; i < 80; ++i) c.observe(s);
  EXPECT_NEAR(c.write_rate(), o.max_write_rate, 1e-6);
  EXPECT_FALSE(c.snapshot().shedding_writes);
}

TEST(AdmitLaw, CommitWaitSlopeActsBeforeTheTarget) {
  admit::AdmitOptions o = law_opts();
  o.commit_wait_p99_target_ns = 1000;
  admit::AdmissionController c(o);
  admit::Signals s;
  s.commit_wait_p99_ns = 600;  // below target, but rising from 0
  c.observe(s);
  // Projected one step ahead (600 + 600 = 1200 > target): the law
  // throttles on the slope, before the level crosses the target.
  EXPECT_GT(c.severity(), 1.0);
  // Flat at 600 afterwards: the projection collapses back to the level.
  c.observe(s);
  EXPECT_LT(c.severity(), 1.0);
}

TEST(AdmitLaw, WritesShedBeforeReads) {
  admit::AdmitOptions o = law_opts();
  o.wal_lag_target = 1;
  o.shed_write_severity = 2.0;
  o.shed_read_severity = 8.0;
  admit::AdmissionController c(o);

  admit::Signals s;
  s.wal_lag = 4;  // severity 4: writes shed, reads still flow
  c.observe(s);
  EXPECT_FALSE(c.admit_write());
  EXPECT_TRUE(c.admit_read());

  s.wal_lag = 16;  // severity 16: the store is drowning, reads shed too
  c.observe(s);
  EXPECT_FALSE(c.admit_read());
  const admit::AdmitSnapshot snap = c.snapshot();
  EXPECT_TRUE(snap.shedding_writes);
  EXPECT_TRUE(snap.shedding_reads);
  EXPECT_GE(snap.shed_writes, 1u);
  EXPECT_GE(snap.shed_reads, 1u);

  s.wal_lag = 0;  // drained: both gates reopen
  c.observe(s);
  EXPECT_TRUE(c.admit_write());
  EXPECT_TRUE(c.admit_read());
}

// extract() maps a registry snapshot onto the law's three inputs by
// name: the retire backlog is the kv_unreclaimed gauge, the WAL lag the
// kv_wal_durable_lag gauge and the commit wait the p99 of the
// kv_wal_commit_wait_ns summary; every other entry is ignored.
TEST(AdmitLaw, ExtractReadsTheStoreSignalsByName) {
  obs::RegistrySnapshot snap;
  snap.gauges = {{"kv_puts_total", 9},
                 {"kv_unreclaimed", 700},
                 {"kv_pending_retired", 5},
                 {"kv_wal_durable_lag", 33}};
  obs::HistogramSummary put;
  put.name = "kv_op_put_ns";
  put.p99_ns = 123;
  obs::HistogramSummary wait;
  wait.name = "kv_wal_commit_wait_ns";
  wait.p50_ns = 100;
  wait.p99_ns = 4000;
  wait.p999_ns = 9000;
  snap.histograms = {put, wait};

  const admit::Signals s = admit::AdmissionController::extract(snap);
  EXPECT_DOUBLE_EQ(s.retire_backlog, 700);
  EXPECT_DOUBLE_EQ(s.wal_lag, 33);
  EXPECT_DOUBLE_EQ(s.commit_wait_p99_ns, 4000);
}

constexpr std::uint64_t kSecond = 1'000'000'000;

// Refills here come from explicit timestamps.  At 1 op/s the wall
// clock's next token is a second away, so the refill a dry admit_write
// runs itself credits nothing and every count below is exact.
TEST(AdmitBucket, TokenBucketBoundsBurstAndRefills) {
  admit::AdmitOptions o = law_opts();
  o.max_write_rate = 1;
  o.burst_seconds = 100;  // bucket capacity: 100 tokens
  o.max_wait_us = 0;      // a dry bucket refuses after one refill
  admit::AdmissionController c(o);
  const std::uint64_t t0 = obs::now_ns();  // within a second of its stamp

  EXPECT_TRUE(c.admit_write(60));
  EXPECT_TRUE(c.admit_write(40));  // exactly drains the bucket
  EXPECT_FALSE(c.admit_write(1));  // dry: refused and counted
  EXPECT_GE(c.snapshot().throttle_waits, 1u);
  EXPECT_GE(c.snapshot().shed_writes, 1u);

  c.refill(t0 + 50 * kSecond);  // +50 tokens at 1 op/s
  EXPECT_TRUE(c.admit_write(50));
  EXPECT_FALSE(c.admit_write(1));

  c.refill(t0 + 10'000 * kSecond);  // clamps at the 100-token cap
  EXPECT_EQ(c.tokens(), 100);
  // An over-bucket batch costs the whole bucket but is never
  // permanently unadmittable.
  EXPECT_TRUE(c.admit_write(100000));
  EXPECT_EQ(c.tokens(), 0);
}

// Writers that find the bucket dry refill it themselves, racing on the
// same clock.  The CAS on the last-refill stamp must credit each
// interval once and carry fractions of a token over, so four threads
// refilling over the same timestamps add floor(rate x elapsed) tokens
// in all, clamped to the capacity.
TEST(AdmitBucket, ConcurrentRefillsCreditEachIntervalOnce) {
  admit::AdmitOptions o = law_opts();
  o.max_write_rate = 1000;  // one token per millisecond
  o.burst_seconds = 1e4;    // capacity: 10^7 tokens
  admit::AdmissionController c(o);
  ASSERT_TRUE(c.admit_write(10'000'000));  // drains the bucket
  // The base refill leaves the stamp less than one token short of
  // `base`, so a race spanning whole tokens from `base` earns exactly
  // that many.
  const std::uint64_t base = obs::now_ns() + kSecond;
  c.refill(base);
  const auto race = [&c](std::uint64_t from, std::uint64_t step,
                         unsigned steps) {
    util::SpinBarrier start(4);
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t)
      ts.emplace_back([&c, &start, from, step, steps] {
        start.arrive_and_wait();
        for (unsigned k = 1; k <= steps; ++k) c.refill(from + k * step);
      });
    for (std::thread& th : ts) th.join();
  };
  // Four million steps of 3/8 of a token each, long enough for the
  // threads to overlap: 1.5 million tokens, most of them earned across a
  // step boundary.
  const std::int64_t before = c.tokens();
  race(base, 375'000, 4'000'000);
  EXPECT_EQ(c.tokens() - before, 1'500'000);
  // 20 steps of a million tokens: twice the capacity, clamped to it.
  race(base + 1500 * kSecond, 1000 * kSecond, 20);
  EXPECT_EQ(c.tokens(), 10'000'000);
}

kv::KvConfig store_cfg() {
  kv::KvConfig cfg;
  cfg.shards = 2;
  cfg.buckets_per_shard = 64;
  cfg.tracker.max_threads = 2;
  cfg.tracker.max_hes = Store::kSlotsNeeded;
  return cfg;
}

TEST(AdmitStore, DisabledIsANullObject) {
  Store store(store_cfg());
  EXPECT_EQ(store.admission(), nullptr);
  store.put(1, 10, 0);
  EXPECT_EQ(store.get(1, 0), std::optional<std::uint64_t>(10));
  EXPECT_FALSE(store.stats().admit_enabled);
  EXPECT_EQ(store.stats().admit_shed_writes, 0u);
}

TEST(AdmitStore, DryBucketShedsWritesButNeverReads) {
  kv::KvConfig cfg = store_cfg();
  cfg.admission.enabled = true;
  cfg.admission.max_write_rate = 1;  // one token, refilled at 1 op/s
  cfg.admission.burst_seconds = 1e-4;
  cfg.admission.max_wait_us = 0;
  Store store(cfg);
  ASSERT_NE(store.admission(), nullptr);
  EXPECT_TRUE(store.stats().admit_enabled);

  store.put(1, 10, 0);  // takes the only token
  bool shed = false;
  try {
    for (int i = 0; i < 100; ++i) store.put(2, 2, 0);
  } catch (const kv::Overloaded& o) {
    shed = true;
    EXPECT_TRUE(o.write);
  }
  EXPECT_TRUE(shed) << "a 1-token bucket admitted 100 writes";

  // Reads are never token-gated: they keep flowing while writes shed.
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(store.get(1, 0), std::optional<std::uint64_t>(10));
  const kv::KvStats st = store.stats();
  EXPECT_GE(st.admit_shed_writes, 1u);
  EXPECT_EQ(st.admit_shed_reads, 0u);
}

TEST(AdmitStore, GenerousLimitsAdmitEverything) {
  kv::KvConfig cfg = store_cfg();
  cfg.admission.enabled = true;
  cfg.admission.max_write_rate = 1e12;
  cfg.admission.wal_lag_target = 1e12;
  cfg.admission.retire_backlog_target = 1e12;
  cfg.admission.commit_wait_p99_target_ns = 1e15;
  Store store(cfg);

  // Single ops, multi ops and txn commits all pass the gates.
  for (std::uint64_t i = 1; i <= 2000; ++i) store.put(i, i, 0);
  std::uint64_t keys[4] = {1, 2, 3, 4};
  std::optional<std::uint64_t> out[4];
  store.multi_get(keys, 4, out, 0);
  EXPECT_EQ(out[0], std::optional<std::uint64_t>(1));
  std::pair<std::uint64_t, std::uint64_t> puts[4] = {
      {1, 11}, {2, 22}, {3, 33}, {4, 44}};
  store.multi_put(puts, 4, 0);
  txn::Txn<std::uint64_t, std::uint64_t> t;
  t.put(5, 55);
  t.remove(6);
  store.txn_commit(t, 0);
  EXPECT_EQ(store.get(5, 0), std::optional<std::uint64_t>(55));

  const kv::KvStats st = store.stats();
  EXPECT_EQ(st.admit_shed_writes, 0u);
  EXPECT_EQ(st.admit_shed_reads, 0u);
  EXPECT_GT(st.admit_write_rate, 0.0);
}

// The law runs on the live sampler's snapshots; nothing here hands it
// Signals.  Replacing puts leave retired value cells waiting on the
// retire lists (kv_unreclaimed), far above a backlog target of 0.01
// blocks, so within a few sampler ticks severity passes the write-shed
// threshold and writes throw kv::Overloaded.
TEST(AdmitStore, LawRunsOnLiveSamplerSnapshots) {
  kv::KvConfig cfg = store_cfg();
  cfg.admission.enabled = true;
  cfg.admission.retire_backlog_target = 0.01;
  cfg.metrics.sample_interval_ms = 2;
  Store store(cfg);
  bool shed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (std::uint64_t i = 0;
       !shed && std::chrono::steady_clock::now() < deadline; ++i) {
    try {
      store.put(i % 64, i, 0);
    } catch (const kv::Overloaded& o) {
      shed = true;
      EXPECT_TRUE(o.write);
    }
  }
  EXPECT_TRUE(shed) << "the sampler never drove the law to shed writes";
  const kv::KvStats st = store.stats();
  EXPECT_GE(st.admit_severity, cfg.admission.shed_write_severity);
  EXPECT_GE(st.admit_shed_writes, 1u);
}

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

// The controller has no thread: a store with metrics, sampler and
// watchdog on starts the same two background threads (the sampler and
// the watchdog's scan) with admission on as with it off.
TEST(AdmitStore, AdmissionStartsNoThread) {
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  kv::KvConfig cfg = store_cfg();
  cfg.shards = 4;
  cfg.metrics.enabled = true;
  cfg.metrics.watchdog.enabled = true;
  // Threads an earlier test joined can linger in /proc for a moment.
  std::size_t base = 0;
  do {
    base = thread_count();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (thread_count() != base);
  Store off(cfg);
  const std::size_t with_off = thread_count();
  cfg.admission.enabled = true;
  Store on(cfg);
  ASSERT_NE(on.admission(), nullptr);
  const std::size_t with_on = thread_count();
  EXPECT_EQ(with_off - base, 2u);
  EXPECT_EQ(with_on - with_off, with_off - base);
}

}  // namespace
