// Figure 6(a): query time vs graph scale for BDJ and BSDJ on Power graphs.
#include "series.h"

namespace relgraph {
namespace bench {
namespace {

void Run() {
  Banner("Figure 6(a)", "query time vs |V|, Power graphs, BDJ vs BSDJ",
         "both grow roughly linearly; BSDJ ~1/3 the time of BDJ");
  std::printf("%10s %10s %10s %10s\n", "nodes", "BDJ_s", "BSDJ_s", "ratio");
  for (const Fig6aPoint& p : RunFig6a(GetEnv())) {
    std::printf("%10lld %10.3f %10.3f %10.2f\n",
                static_cast<long long>(p.nodes), p.bdj.time_s, p.bsdj.time_s,
                p.bsdj.time_s > 0 ? p.bdj.time_s / p.bsdj.time_s : 0.0);
  }
}

}  // namespace
}  // namespace bench
}  // namespace relgraph

int main() { relgraph::bench::Run(); }
