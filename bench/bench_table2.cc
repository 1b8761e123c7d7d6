// Table 2: number of expansions and time for DJ / BDJ / BSDJ on Power
// graphs. The paper runs 20k-100k nodes and reports DJ only at 20k (the
// larger runs exceeded its 600 s budget); we scale the series down to
// 2k-10k nodes and likewise run DJ only on the smallest graph.
#include "bench_common.h"

namespace relgraph {
namespace bench {
namespace {

void Run() {
  Banner("Table 2",
         "Exps (# expansions) and Time per query, Power graphs, DJ/BDJ/BSDJ",
         "DJ exps ~50x BDJ, ~140x BSDJ; BSDJ time ~1/2-1/3 of BDJ; DJ "
         "orders of magnitude slower than both");
  BenchEnv env = GetEnv();
  std::printf("%10s %12s %10s %12s %10s %12s %10s\n", "nodes", "DJ_exps",
              "DJ_s", "BDJ_exps", "BDJ_s", "BSDJ_exps", "BSDJ_s");

  const int64_t bases[] = {2000, 4000, 6000, 8000, 10000};
  for (size_t i = 0; i < 5; i++) {
    int64_t n = Scaled(bases[i]);
    EdgeList list = GenerateBarabasiAlbert(n, 2, WeightRange{1, 100}, 100 + i);
    auto pairs = MakeQueryPairs(n, env.queries, 9000 + i);

    SharedGraph sg = SharedGraph::Make(list);
    double dj_exps = -1, dj_time = -1;
    if (i == 0) {  // DJ only on the smallest graph, as in the paper
      auto dj = sg.Finder(Algorithm::kDJ);
      auto pairs_dj = MakeQueryPairs(n, std::min(env.queries, 3), 9000 + i);
      AvgResult r = RunQueries(dj.get(), pairs_dj);
      dj_exps = r.expansions;
      dj_time = r.time_s;
    }
    auto bdj = sg.Finder(Algorithm::kBDJ);
    AvgResult rb = RunQueries(bdj.get(), pairs);
    auto bsdj = sg.Finder(Algorithm::kBSDJ);
    AvgResult rs = RunQueries(bsdj.get(), pairs);

    if (dj_exps >= 0) {
      std::printf("%10lld %12.0f %10.3f %12.0f %10.3f %12.0f %10.3f\n",
                  static_cast<long long>(n), dj_exps, dj_time, rb.expansions,
                  rb.time_s, rs.expansions, rs.time_s);
    } else {
      std::printf("%10lld %12s %10s %12.0f %10.3f %12.0f %10.3f\n",
                  static_cast<long long>(n), ">budget", ">budget",
                  rb.expansions, rb.time_s, rs.expansions, rs.time_s);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace relgraph

int main() { relgraph::bench::Run(); }
