// Regenerates Fig 9 of the paper: Linked List, Read9010.
#include "factories.hpp"
#include "harness/figure_bench.hpp"

int main() {
  using namespace wfe;
  harness::FigureSpec spec{"Fig 9", "Linked List",
                           {harness::OpMix::kRead9010, 100000, 50000}};
  return harness::run_figure(spec, bench::ListFactory{});
}
