// Regenerates Fig 8 of the paper: Natarajan BST, Write5050.
#include "factories.hpp"
#include "harness/figure_bench.hpp"

int main() {
  using namespace wfe;
  harness::FigureSpec spec{"Fig 8", "Natarajan BST",
                           {harness::OpMix::kWrite5050, 100000, 50000}};
  return harness::run_figure(spec, bench::BstFactory{});
}
