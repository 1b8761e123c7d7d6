// Ablation: the Theorem-1 bi-directional pruning rule
// (dist + cost + l_opposite < minCost in the E-operator). The paper claims
// it shrinks the search space once a first s-t path is known; this bench
// removes only that predicate and measures the cost.
#include "bench_common.h"

namespace relgraph {
namespace bench {
namespace {

void Run() {
  Banner("Ablation: Theorem-1 pruning",
         "BSDJ and BSEG(20) with the pruning predicate removed, Power",
         "pruning reduces visited rows and expansions, never changes "
         "distances");
  BenchEnv env = GetEnv();
  std::printf("%10s %8s | %10s %8s | %10s %8s %9s\n", "algo", "nodes",
              "pruned_s", "vst", "ablated_s", "vst", "vst_ratio");
  const int64_t bases[] = {10000, 20000};
  for (size_t i = 0; i < 2; i++) {
    int64_t n = Scaled(bases[i]);
    EdgeList list =
        GenerateBarabasiAlbert(n, 2, WeightRange{1, 100}, 1400 + i);
    auto pairs = MakeQueryPairs(n, env.queries, 10400 + i);
    SharedGraph sg = SharedGraph::Make(list);
    for (Algorithm algo : {Algorithm::kBSDJ, Algorithm::kBSEG}) {
      AvgResult on, off;
      {
        auto finder = sg.Finder(algo, 20);
        on = RunQueries(finder.get(), pairs);
      }
      {
        SegTable* seg = nullptr;
        if (algo == Algorithm::kBSEG) seg = sg.segtables.back().get();
        PathFinderOptions popts;
        popts.algorithm = algo;
        popts.disable_pruning = true;
        std::unique_ptr<PathFinder> finder;
        Check(PathFinder::Create(sg.graph.get(), popts, &finder, seg),
              "ablated finder");
        off = RunQueries(finder.get(), pairs);
      }
      std::printf("%10s %8lld | %10.4f %8.0f | %10.4f %8.0f %8.2fx\n",
                  AlgorithmName(algo), static_cast<long long>(n), on.time_s,
                  on.visited, off.time_s, off.visited,
                  on.visited > 0 ? off.visited / on.visited : 0.0);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace relgraph

int main() { relgraph::bench::Run(); }
