// Regenerates Fig 5c/5d of the paper: CRTurn queue, Queue5050.
#include "factories.hpp"
#include "harness/figure_bench.hpp"

int main() {
  using namespace wfe;
  harness::FigureSpec spec{"Fig 5c/5d", "CRTurn queue",
                           {harness::OpMix::kQueue5050, 100000, 50000}};
  return harness::run_figure(spec, bench::CrTurnQueueFactory{});
}
