// Regenerates Fig 6 of the paper: Linked List, Write5050.
#include "factories.hpp"
#include "harness/figure_bench.hpp"

int main() {
  using namespace wfe;
  harness::FigureSpec spec{"Fig 6", "Linked List",
                           {harness::OpMix::kWrite5050, 100000, 50000}};
  return harness::run_figure(spec, bench::ListFactory{});
}
