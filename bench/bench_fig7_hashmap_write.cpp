// Regenerates Fig 7 of the paper: Hash Map, Write5050.
#include "factories.hpp"
#include "harness/figure_bench.hpp"

int main() {
  using namespace wfe;
  harness::FigureSpec spec{"Fig 7", "Hash Map",
                           {harness::OpMix::kWrite5050, 100000, 50000}};
  return harness::run_figure(spec, bench::HashMapFactory{});
}
