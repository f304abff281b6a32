// Regenerates Fig 11 of the paper: Natarajan BST, Read9010.
#include "factories.hpp"
#include "harness/figure_bench.hpp"

int main() {
  using namespace wfe;
  harness::FigureSpec spec{"Fig 11", "Natarajan BST",
                           {harness::OpMix::kRead9010, 100000, 50000}};
  return harness::run_figure(spec, bench::BstFactory{});
}
