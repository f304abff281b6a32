#pragma once
// Shared driver for the per-figure benchmark binaries (bench/bench_fig*).
//
// Each binary names a figure from the paper, a data-structure factory and
// an operation mix; this header sweeps thread counts x reclamation
// schemes and prints the two series every figure in §5 reports:
// throughput (Mops/s) and average unreclaimed objects.  Each (scheme,
// threads) point runs in a forked child that builds its own tracker and
// structure and sends its two numbers back over a pipe, so no point runs
// on the heap the points before it left (Leak's, say, which frees nothing
// mid-run).  run_figure itself starts no thread, so none is alive at a
// fork.
//
// Environment knobs:
//   WFE_BENCH_SECONDS      run duration per data point (default 0.5; paper: 10)
//   WFE_BENCH_REPEATS      repeats per data point       (default 1; paper: 5)
//   WFE_BENCH_THREAD_LIST  comma list, e.g. "1,8,16,24" (default: pow2 sweep)
//   WFE_BENCH_PREFILL      prefill elements             (default 50000, as paper)
//   WFE_BENCH_KEY_RANGE    key range                    (default 100000, as paper)
//   WFE_BENCH_JSON         if set: also write the series to this path as
//                          JSON (same row format as BENCH_kv.json, so all
//                          benches feed one perf trajectory)

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/wfe.hpp"
#include "core/wfe_ibr.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/he.hpp"
#include "reclaim/hp.hpp"
#include "reclaim/ibr.hpp"
#include "reclaim/leak.hpp"
#include "reclaim/qsbr.hpp"
#include "util/json.hpp"

namespace wfe::harness {

/// Applies `fn.operator()<Tracker>()` to every scheme: the paper's
/// comparison set in the paper's legend order, then this repo's two
/// extensions (WFE-IBR, QSBR).
template <class Fn>
void for_each_tracker(Fn&& fn) {
  fn.template operator()<core::WfeTracker>();
  fn.template operator()<reclaim::EbrTracker>();
  fn.template operator()<reclaim::HeTracker>();
  fn.template operator()<reclaim::HpTracker>();
  fn.template operator()<reclaim::IbrTracker>();
  fn.template operator()<reclaim::LeakTracker>();
  fn.template operator()<core::WfeIbrTracker>();
  fn.template operator()<reclaim::QsbrTracker>();
}

struct FigureSpec {
  const char* figure;   ///< e.g. "Fig 6"
  const char* ds_name;  ///< e.g. "Linked List"
  Workload workload;
};

namespace detail {

struct Series {
  std::vector<double> mops;
  std::vector<double> unreclaimed;
};

/// Runs `measure()` (returning a RunResult) in a forked child and stores
/// the child's Mop/s and average unreclaimed in `out`; false when the
/// fork fails or the child dies before reporting.
template <class Measure>
bool run_isolated(Measure&& measure, RunResult& out) {
  int fd[2];
  if (::pipe(fd) != 0) return false;
  std::fflush(nullptr);  // the child must not repeat buffered output
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fd[0]);
    ::close(fd[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fd[0]);
    // noexcept: an exception terminates the child (naming it on stderr)
    // instead of unwinding it into the sweep loop, which would then run
    // the rest of the sweep a second time.
    const RunResult r = [&]() noexcept { return measure(); }();
    const double msg[2] = {r.mops, r.avg_unreclaimed};
    const bool sent = ::write(fd[1], msg, sizeof msg) == sizeof msg;
    ::_exit(sent ? 0 : 1);  // no atexit handlers, no parent destructors
  }
  ::close(fd[1]);
  double msg[2];
  std::size_t got = 0;
  while (got < sizeof msg) {
    const ssize_t n = ::read(fd[0], reinterpret_cast<char*>(msg) + got, sizeof msg - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fd[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof msg || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  out.mops = msg[0];
  out.avg_unreclaimed = msg[1];
  return true;
}

inline void print_table(const char* title, const std::vector<unsigned>& threads,
                        const std::vector<std::string>& schemes,
                        const std::map<std::string, Series>& data, bool second) {
  std::printf("%s\n", title);
  std::printf("%8s", "threads");
  for (const auto& s : schemes) std::printf("%12s", s.c_str());
  std::printf("\n");
  for (std::size_t row = 0; row < threads.size(); ++row) {
    std::printf("%8u", threads[row]);
    for (const auto& s : schemes) {
      const Series& ser = data.at(s);
      const double v = second ? ser.unreclaimed[row] : ser.mops[row];
      std::printf(second ? "%12.1f" : "%12.3f", v);
    }
    std::printf("\n");
  }
}

}  // namespace detail

/// `Factory::operator()<TR>(TR&) -> std::unique_ptr<DS>` builds the
/// structure under test; prefill and per-op dispatch are chosen by
/// `Factory::kIsQueue`, and every tracker gets `DS::kSlotsNeeded`
/// reservation slots.
template <class Factory>
int run_figure(const FigureSpec& spec, Factory&& factory) {
  Workload w = spec.workload;
  w.prefill = static_cast<std::uint64_t>(
      env_long("WFE_BENCH_PREFILL", static_cast<long>(w.prefill)));
  w.key_range = static_cast<std::uint64_t>(
      env_long("WFE_BENCH_KEY_RANGE", static_cast<long>(w.key_range)));

  RunConfig rc;
  rc.seconds = env_double("WFE_BENCH_SECONDS", 0.5);
  rc.repeats = static_cast<unsigned>(env_long("WFE_BENCH_REPEATS", 1));

  const std::vector<unsigned> threads = thread_sweep();
  std::vector<std::string> schemes;
  std::map<std::string, detail::Series> data;
  bool all_ran = true;

  for_each_tracker([&]<class TR>() {
    schemes.emplace_back(TR::name());
    detail::Series series;
    for (unsigned t : threads) {
      RunResult r;
      const bool ran = detail::run_isolated([&] {
        using DS = typename decltype(factory.template operator()<TR>(
            std::declval<TR&>()))::element_type;
        reclaim::TrackerConfig cfg;
        cfg.max_threads = t;
        cfg.max_hes = DS::kSlotsNeeded;
        TR tracker(cfg);
        auto ds = factory.template operator()<TR>(tracker);
        // Prefill (paper: 50K elements before each measurement).
        if constexpr (Factory::kIsQueue) {
          util::Xoshiro256 rng(42);
          for (std::uint64_t i = 0; i < w.prefill; ++i)
            ds->enqueue(rng.next_bounded(w.key_range) + 1, 0);
        } else {
          prefill(*ds, w.prefill, w.key_range);
        }
        rc.threads = t;
        return run_timed(
            rc,
            [&](util::Xoshiro256& g, unsigned tid) {
              if constexpr (Factory::kIsQueue) {
                queue_op(*ds, w, g, tid);
              } else {
                kv_op(*ds, w, g, tid);
              }
            },
            [&] { return tracker.unreclaimed(); });
      }, r);
      if (!ran) {
        std::fprintf(stderr, "%s at %u threads: the point's child failed\n",
                     TR::name(), t);
        all_ran = false;
      }
      series.mops.push_back(r.mops);
      series.unreclaimed.push_back(r.avg_unreclaimed);
    }
    data.emplace(TR::name(), std::move(series));
  });

  std::printf("=== %s — %s (%s) ===\n", spec.figure, spec.ds_name,
              mix_name(w.mix));
  std::printf("prefill=%llu key_range=%llu seconds=%.2f repeats=%u\n",
              static_cast<unsigned long long>(w.prefill),
              static_cast<unsigned long long>(w.key_range), rc.seconds,
              rc.repeats);
  detail::print_table("throughput (Mops/s):", threads, schemes, data, false);
  detail::print_table("avg unreclaimed objects:", threads, schemes, data, true);
  std::printf("\n");

  if (const char* json_path = std::getenv("WFE_BENCH_JSON")) {
    util::JsonWriter j;
    j.begin_object();
    j.kv("bench", spec.figure);
    j.kv("ds", spec.ds_name);
    j.kv("mix", mix_name(w.mix));
    j.kv("prefill", w.prefill);
    j.kv("key_range", w.key_range);
    j.kv("seconds", rc.seconds);
    j.kv("repeats", rc.repeats);
    j.key("results").begin_array();
    for (const auto& s : schemes) {
      const detail::Series& ser = data.at(s);
      for (std::size_t row = 0; row < threads.size(); ++row) {
        j.begin_object();
        j.kv("tracker", s.c_str());
        j.kv("threads", threads[row]);
        j.kv("mops", ser.mops[row]);
        j.kv("avg_unreclaimed", ser.unreclaimed[row]);
        j.end_object();
      }
    }
    j.end_array();
    j.end_object();
    if (!j.write_file(json_path))
      std::fprintf(stderr, "WFE_BENCH_JSON: cannot write %s\n", json_path);
  }
  return all_ran ? 0 : 1;
}

}  // namespace wfe::harness
