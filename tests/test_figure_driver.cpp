// End-to-end test of the figure benchmark driver: a miniature Fig-6-style
// run (tiny prefill/duration via env) across every scheme, exercising
// for_each_tracker, prefill, the timed runner and the table printer.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <memory>

#include "ds/hm_list.hpp"
#include "ds/kp_queue.hpp"
#include "harness/figure_bench.hpp"

namespace {

using namespace wfe;

template <class TR>
using TinyList = ds::HmList<std::uint64_t, std::uint64_t, TR>;
// Every tracker must size its reservation slots for the list (fewer
// slots than the list uses is an out-of-bounds slot write).
constexpr unsigned kListSlots = TinyList<core::WfeTracker>::kSlotsNeeded;

struct TinyListFactory {
  static constexpr bool kIsQueue = false;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<TinyList<TR>>(trk);
  }
};

struct TinyQueueFactory {
  static constexpr bool kIsQueue = true;
  template <class TR>
  auto operator()(TR& trk) const {
    return std::make_unique<ds::KpQueue<std::uint64_t, TR>>(trk);
  }
};

class FigureDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::setenv("WFE_BENCH_SECONDS", "0.02", 1);
    ::setenv("WFE_BENCH_REPEATS", "1", 1);
    ::setenv("WFE_BENCH_THREAD_LIST", "1,2", 1);
    ::setenv("WFE_BENCH_PREFILL", "64", 1);
    ::setenv("WFE_BENCH_KEY_RANGE", "256", 1);
  }
  void TearDown() override {
    for (const char* var :
         {"WFE_BENCH_SECONDS", "WFE_BENCH_REPEATS", "WFE_BENCH_THREAD_LIST",
          "WFE_BENCH_PREFILL", "WFE_BENCH_KEY_RANGE"}) {
      ::unsetenv(var);
    }
  }
};

TEST_F(FigureDriverTest, KvFigureRunsAllSchemes) {
  harness::FigureSpec spec{"Fig T1", "Tiny List",
                           {harness::OpMix::kWrite5050, 256, 64},
                           /*is_queue=*/false,
                           /*slots_needed=*/kListSlots};
  EXPECT_EQ(harness::run_figure(spec, TinyListFactory{}), 0);
}

TEST_F(FigureDriverTest, ReadMostlyMixRuns) {
  harness::FigureSpec spec{"Fig T2", "Tiny List",
                           {harness::OpMix::kRead9010, 256, 64},
                           false, kListSlots};
  EXPECT_EQ(harness::run_figure(spec, TinyListFactory{}), 0);
}

TEST_F(FigureDriverTest, QueueFigureRunsAllSchemes) {
  harness::FigureSpec spec{"Fig T3", "Tiny Queue",
                           {harness::OpMix::kQueue5050, 256, 64},
                           /*is_queue=*/true,
                           /*slots_needed=*/4};
  EXPECT_EQ(harness::run_figure(spec, TinyQueueFactory{}), 0);
}

// A prefill larger than the key range must fill the key space and stop,
// not spin forever looking for distinct keys that do not exist.
TEST_F(FigureDriverTest, PrefillAboveKeyRangeTerminates) {
  ::setenv("WFE_BENCH_PREFILL", "512", 1);
  ::setenv("WFE_BENCH_THREAD_LIST", "1", 1);
  harness::FigureSpec spec{"Fig T4", "Tiny List",
                           {harness::OpMix::kWrite5050, 256, 512},
                           false, kListSlots};
  EXPECT_EQ(harness::run_figure(spec, TinyListFactory{}), 0);

  reclaim::TrackerConfig cfg;
  cfg.max_threads = 1;
  cfg.max_hes = kListSlots;
  core::WfeTracker tracker(cfg);
  TinyList<core::WfeTracker> list(tracker);
  harness::prefill(list, 512, 256);
  EXPECT_EQ(list.size_unsafe(), 256u);
  for (std::uint64_t k = 1; k <= 256; ++k) EXPECT_TRUE(list.get(k, 0)) << k;
}

// Each point runs in a forked child: one that dies before reporting
// fails the run, and run_figure itself survives to print the table.
struct DyingFactory {
  static constexpr bool kIsQueue = false;
  template <class TR>
  std::unique_ptr<TinyList<TR>> operator()(TR&) const {
    ::_exit(3);
  }
};

TEST_F(FigureDriverTest, DeadPointChildFailsTheRun) {
  ::setenv("WFE_BENCH_THREAD_LIST", "1", 1);
  harness::FigureSpec spec{"Fig T5", "Tiny List",
                           {harness::OpMix::kWrite5050, 256, 64},
                           false, kListSlots};
  EXPECT_EQ(harness::run_figure(spec, DyingFactory{}), 1);
}

TEST(FigureDriverDefaults, MixNamesAreStable) {
  EXPECT_STREQ(mix_name(harness::OpMix::kWrite5050), "50% insert / 50% remove");
  EXPECT_STREQ(mix_name(harness::OpMix::kRead9010), "90% get / 10% put");
  EXPECT_STREQ(mix_name(harness::OpMix::kQueue5050), "50% enqueue / 50% dequeue");
}

}  // namespace
