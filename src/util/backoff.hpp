#pragma once
// Capped exponential backoff with a cpu-relax pause.
//
// Two consumers, one shape: threads waiting on another thread's bounded
// step (a bucket-migration claim holder mid-copy, the resizer waiting
// for in-flight helpers).  A bare std::this_thread::yield() loop
// livelocks badly on oversubscribed hosts — on the 1-CPU CI runner the
// TSan scheduler can bounce two yielding waiters off each other for a
// whole quantum before the claim holder runs — while pure pause-spinning
// never cedes the core at all.  Backoff therefore escalates: pause-spin
// with exponentially growing bursts (cheap, keeps the waiter off the
// bus), and once the cap is reached fold in a yield per round so the
// thread actually doing the work is guaranteed scheduling on a single
// CPU.

#include <thread>

namespace wfe::util {

/// One architectural pause: tells the core this is a spin-wait (x86
/// PAUSE / AArch64 YIELD), cheaper and politer than a scheduler yield.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // No relax hint on this target; the Backoff cap still yields.
#endif
}

/// Per-wait-episode state: construct fresh, call pause() each failed
/// check.  Bursts double from kMinSpins to kMaxSpins; at the cap every
/// round also yields to the scheduler.
class Backoff {
 public:
  void pause() noexcept {
    for (unsigned i = 0; i < spins_; ++i) cpu_relax();
    if (spins_ < kMaxSpins) {
      spins_ <<= 1;
    } else {
      std::this_thread::yield();
    }
  }

 private:
  static constexpr unsigned kMinSpins = 4;
  static constexpr unsigned kMaxSpins = 1024;
  unsigned spins_ = kMinSpins;
};

}  // namespace wfe::util
