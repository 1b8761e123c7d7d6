#include "bench_common.h"

#include <algorithm>
#include <cstdlib>

namespace relgraph {
namespace bench {

BenchEnv GetEnv() {
  BenchEnv env;
  if (const char* q = std::getenv("RELGRAPH_QUERIES")) {
    env.queries = std::max(1, std::atoi(q));
  }
  if (const char* s = std::getenv("RELGRAPH_SCALE")) {
    env.scale = std::max(0.01, std::atof(s));
  }
  return env;
}

int64_t Scaled(int64_t base_nodes, const BenchEnv& env) {
  return static_cast<int64_t>(base_nodes * env.scale);
}

std::vector<std::pair<node_id_t, node_id_t>> MakeQueryPairs(int64_t num_nodes,
                                                            int n,
                                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<node_id_t, node_id_t>> pairs;
  pairs.reserve(n);
  while (static_cast<int>(pairs.size()) < n) {
    node_id_t s = rng.NextInt(0, num_nodes - 1);
    node_id_t t = rng.NextInt(0, num_nodes - 1);
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

AvgResult RunQueries(
    PathFinder* finder,
    const std::vector<std::pair<node_id_t, node_id_t>>& pairs) {
  AvgResult avg;
  for (auto [s, t] : pairs) {
    PathQueryResult result;
    Check(finder->Find(s, t, &result), "query");
    const QueryStats& qs = result.stats;
    avg.time_s += qs.total_us / 1e6;
    avg.expansions += static_cast<double>(qs.expansions);
    avg.visited += static_cast<double>(qs.visited_rows);
    avg.statements += static_cast<double>(qs.statements);
    avg.pe_s += qs.path_expansion_us / 1e6;
    avg.sc_s += qs.stat_collection_us / 1e6;
    avg.fpr_s += qs.path_recovery_us / 1e6;
    avg.f_s += qs.f_operator_us / 1e6;
    avg.e_s += qs.e_operator_us / 1e6;
    avg.m_s += qs.m_operator_us / 1e6;
    avg.buffer_misses += static_cast<double>(qs.buffer_misses);
    if (result.found) avg.found++;
    avg.total++;
  }
  int n = std::max(avg.total, 1);
  avg.time_s /= n;
  avg.expansions /= n;
  avg.visited /= n;
  avg.statements /= n;
  avg.pe_s /= n;
  avg.sc_s /= n;
  avg.fpr_s /= n;
  avg.f_s /= n;
  avg.e_s /= n;
  avg.m_s /= n;
  avg.buffer_misses /= n;
  return avg;
}

Workbench Workbench::Make(const EdgeList& list, Algorithm algorithm,
                          weight_t lthd, SqlMode sql_mode,
                          IndexStrategy strategy, DatabaseOptions dopts) {
  Workbench wb;
  wb.db = std::make_unique<Database>(dopts);
  GraphStoreOptions gopts;
  gopts.strategy = strategy;
  Check(GraphStore::Create(wb.db.get(), list, gopts, &wb.graph),
        "graph store");
  if (algorithm == Algorithm::kBSEG) {
    SegTableOptions sopts;
    sopts.lthd = lthd;
    sopts.sql_mode = sql_mode;
    Check(SegTable::Build(wb.db.get(), wb.graph.get(), sopts, &wb.segtable,
                          &wb.seg_stats),
          "segtable build");
  }
  PathFinderOptions popts;
  popts.algorithm = algorithm;
  popts.sql_mode = sql_mode;
  Check(PathFinder::Create(wb.graph.get(), popts, &wb.finder,
                           wb.segtable.get()),
        "path finder");
  return wb;
}

SharedGraph SharedGraph::Make(const EdgeList& list, IndexStrategy strategy,
                              DatabaseOptions dopts) {
  SharedGraph sg;
  sg.db = std::make_unique<Database>(dopts);
  GraphStoreOptions gopts;
  gopts.strategy = strategy;
  Check(GraphStore::Create(sg.db.get(), list, gopts, &sg.graph),
        "graph store");
  return sg;
}

std::unique_ptr<PathFinder> SharedGraph::Finder(Algorithm algorithm,
                                                weight_t lthd,
                                                SqlMode sql_mode,
                                                SegTableBuildStats* stats) {
  SegTable* seg = nullptr;
  if (algorithm == Algorithm::kBSEG) {
    SegTableOptions sopts;
    sopts.lthd = lthd;
    sopts.sql_mode = sql_mode;
    sopts.prefix = "seg" + std::to_string(next_seg++) + "_";
    std::unique_ptr<SegTable> built;
    Check(SegTable::Build(db.get(), graph.get(), sopts, &built, stats),
          "segtable build");
    seg = built.get();
    segtables.push_back(std::move(built));
  }
  PathFinderOptions popts;
  popts.algorithm = algorithm;
  popts.sql_mode = sql_mode;
  std::unique_ptr<PathFinder> finder;
  Check(PathFinder::Create(graph.get(), popts, &finder, seg), "path finder");
  return finder;
}

void Banner(const char* experiment, const char* caption,
            const char* paper_shape) {
  std::printf("##\n## %s — %s\n", experiment, caption);
  std::printf("## paper shape: %s\n", paper_shape);
  BenchEnv env = GetEnv();
  std::printf("## queries/point=%d scale=%.2f (the paper's graphs, scaled "
              "down: README, \"Running examples and benchmarks\")\n##\n",
              env.queries, env.scale);
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace bench
}  // namespace relgraph
