// Regenerates Fig 10 of the paper: Hash Map, Read9010.
#include "factories.hpp"
#include "harness/figure_bench.hpp"

int main() {
  using namespace wfe;
  harness::FigureSpec spec{"Fig 10", "Hash Map",
                           {harness::OpMix::kRead9010, 100000, 50000}};
  return harness::run_figure(spec, bench::HashMapFactory{});
}
