// SegTable tuning tool: sweeps the index threshold lthd on a user-chosen
// graph and reports construction cost, index size, and query latency —
// the workflow §5.2 / Figure 7(c,d) implies a DBA would follow (the paper
// leaves "how to find an optimal lthd" as future work; this tool measures
// it empirically).
//
//   $ ./example_segtable_tuning [nodes] [lthd1 lthd2 ...]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/common/rng.h"
#include "src/core/path_finder.h"
#include "src/core/segtable.h"
#include "src/graph/generators.h"

using namespace relgraph;

namespace {
void Fatal(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}
}  // namespace

int main(int argc, char** argv) {
  int64_t nodes = argc > 1 ? std::atoll(argv[1]) : 20000;
  if (nodes < 100 || nodes > 5000000) {
    std::fprintf(stderr, "usage: %s [node count, 100..5000000]\n", argv[0]);
    return 2;
  }
  std::vector<weight_t> lthds;
  for (int i = 2; i < argc; i++) lthds.push_back(std::atoll(argv[i]));
  if (lthds.empty()) lthds = {5, 10, 20, 40};

  EdgeList list = GenerateBarabasiAlbert(nodes, 3, WeightRange{1, 100}, 1);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  Fatal(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph), "graph");

  // Fixed query mix shared across thresholds.
  Rng rng(42);
  std::vector<std::pair<node_id_t, node_id_t>> queries;
  for (int i = 0; i < 10; i++) {
    queries.emplace_back(rng.NextInt(0, nodes - 1), rng.NextInt(0, nodes - 1));
  }

  // Baseline: BSDJ without any index.
  double bsdj_ms = 0;
  {
    std::unique_ptr<PathFinder> finder;
    PathFinderOptions opts;
    opts.algorithm = Algorithm::kBSDJ;
    Fatal(PathFinder::Create(graph.get(), opts, &finder), "bsdj");
    for (auto [s, t] : queries) {
      PathQueryResult r;
      Fatal(finder->Find(s, t, &r), "query");
      bsdj_ms += r.stats.total_us / 1000.0;
    }
    bsdj_ms /= queries.size();
  }
  std::printf("%8s %12s %12s %12s %12s\n", "lthd", "build_s", "entries",
              "query_ms", "vs_BSDJ");
  std::printf("%8s %12s %12s %12.2f %12s\n", "(none)", "-", "-", bsdj_ms,
              "1.00x");

  int idx = 0;
  for (weight_t lthd : lthds) {
    SegTableOptions sopts;
    sopts.lthd = lthd;
    sopts.prefix = "seg" + std::to_string(idx++) + "_";
    std::unique_ptr<SegTable> segtable;
    SegTableBuildStats stats;
    Fatal(SegTable::Build(&db, graph.get(), sopts, &segtable, &stats),
          "segtable");
    std::unique_ptr<PathFinder> finder;
    PathFinderOptions opts;
    opts.algorithm = Algorithm::kBSEG;
    Fatal(PathFinder::Create(graph.get(), opts, &finder, segtable.get()),
          "bseg");
    double ms = 0;
    for (auto [s, t] : queries) {
      PathQueryResult r;
      Fatal(finder->Find(s, t, &r), "query");
      ms += r.stats.total_us / 1000.0;
    }
    ms /= queries.size();
    std::printf("%8lld %12.2f %12lld %12.2f %11.2fx\n",
                static_cast<long long>(lthd), stats.build_us / 1e6,
                static_cast<long long>(stats.out_entries + stats.in_entries),
                ms, bsdj_ms / ms);
  }
  std::printf(
      "\npick the lthd with the best query speedup the index budget "
      "allows. The optimum depends on per-statement overhead (paper Fig "
      "7(c)): embedded engines favour small lthd, client/server "
      "deployments mid-range lthd.\n");
  return 0;
}
