// Operation-level microbenchmarks (google-benchmark): the per-call cost
// of protect / retire+alloc / begin+end brackets for every scheme, plus
// the WCAS-vs-CAS hardware cost WFE's design leans on (paper §2.2) and
// the WFE slow path taken unconditionally (paper §5's stress mode).

#include <benchmark/benchmark.h>

#include <atomic>

#include "core/wfe.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/he.hpp"
#include "reclaim/hp.hpp"
#include "reclaim/ibr.hpp"
#include "reclaim/leak.hpp"
#include "util/atomics.hpp"

namespace {

using namespace wfe;

struct TestNode : reclaim::Block {
  std::uint64_t payload{0};
};

template <class TR>
void BM_protect(benchmark::State& state) {
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 1;
  TR tracker(cfg);
  TestNode* node = tracker.template alloc<TestNode>(0);
  std::atomic<std::uintptr_t> root{reinterpret_cast<std::uintptr_t>(node)};
  for (auto _ : state) {
    tracker.begin_op(0);
    benchmark::DoNotOptimize(tracker.protect_word(root, 0, 0, nullptr));
    tracker.end_op(0);
  }
  tracker.dealloc(node, 0);
}

template <class TR>
void BM_alloc_retire(benchmark::State& state) {
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 1;
  TR tracker(cfg);
  for (auto _ : state) {
    TestNode* node = tracker.template alloc<TestNode>(0);
    tracker.retire(node, 0);
  }
}

void BM_wfe_slow_path(benchmark::State& state) {
  reclaim::TrackerConfig cfg;
  cfg.max_threads = 1;
  cfg.fast_path_attempts = 0;  // every protect takes the slow path
  core::WfeTracker tracker(cfg);
  TestNode* node = tracker.alloc<TestNode>(0);
  std::atomic<std::uintptr_t> root{reinterpret_cast<std::uintptr_t>(node)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.protect_word(root, 0, 0, nullptr));
    tracker.end_op(0);
  }
  tracker.dealloc(node, 0);
}

void BM_cas64(benchmark::State& state) {
  alignas(16) std::atomic<std::uint64_t> word{0};
  std::uint64_t expected = 0;
  for (auto _ : state) {
    word.compare_exchange_strong(expected, expected + 1,
                                 std::memory_order_seq_cst);
    benchmark::DoNotOptimize(expected);
  }
}

void BM_wcas128(benchmark::State& state) {
  util::AtomicPair pair(util::Pair{0, 0});
  util::Pair expected{0, 0};
  for (auto _ : state) {
    pair.wcas(expected, {expected.a + 1, expected.b + 1});
    benchmark::DoNotOptimize(expected);
  }
}

void BM_fetch_add(benchmark::State& state) {
  std::atomic<std::uint64_t> word{0};
  for (auto _ : state) benchmark::DoNotOptimize(word.fetch_add(1));
}

}  // namespace

BENCHMARK(BM_protect<core::WfeTracker>)->Name("protect/WFE");
BENCHMARK(BM_protect<reclaim::HeTracker>)->Name("protect/HE");
BENCHMARK(BM_protect<reclaim::HpTracker>)->Name("protect/HP");
BENCHMARK(BM_protect<reclaim::EbrTracker>)->Name("protect/EBR");
BENCHMARK(BM_protect<reclaim::IbrTracker>)->Name("protect/2GEIBR");
BENCHMARK(BM_protect<reclaim::LeakTracker>)->Name("protect/Leak");
BENCHMARK(BM_alloc_retire<core::WfeTracker>)->Name("alloc_retire/WFE");
BENCHMARK(BM_alloc_retire<reclaim::HeTracker>)->Name("alloc_retire/HE");
BENCHMARK(BM_alloc_retire<reclaim::HpTracker>)->Name("alloc_retire/HP");
BENCHMARK(BM_alloc_retire<reclaim::EbrTracker>)->Name("alloc_retire/EBR");
BENCHMARK(BM_alloc_retire<reclaim::IbrTracker>)->Name("alloc_retire/2GEIBR");
BENCHMARK(BM_wfe_slow_path)->Name("protect/WFE-forced-slow-path");
BENCHMARK(BM_cas64);
BENCHMARK(BM_wcas128);
BENCHMARK(BM_fetch_add);

BENCHMARK_MAIN();
