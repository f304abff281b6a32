// Regenerates Fig 5a/5b of the paper: Kogan-Petrank queue, Queue5050.
#include "factories.hpp"
#include "harness/figure_bench.hpp"

int main() {
  using namespace wfe;
  harness::FigureSpec spec{"Fig 5a/5b", "Kogan-Petrank queue",
                           {harness::OpMix::kQueue5050, 100000, 50000}};
  return harness::run_figure(spec, bench::KpQueueFactory{});
}
