// Extension bench (no paper counterpart): the SQL-text client
// (SqlPathFinder, every statement template prepared once in Create(), each
// iteration only binding fresh parameters) versus the native
// operator-level client (PathFinder) running the same BSDJ algorithm on
// the same graphs. The gap is what remains of the SQL surface (the
// planner's plans, result materialization, statement accounting).
// Statement counts are identical by construction.
#include "bench_common.h"
#include "src/core/sql_path_finder.h"

namespace relgraph {
namespace bench {
namespace {

AvgResult RunSqlQueries(
    SqlPathFinder* finder,
    const std::vector<std::pair<node_id_t, node_id_t>>& pairs) {
  AvgResult avg;
  for (const auto& [s, t] : pairs) {
    PathQueryResult r;
    Check(finder->Find(s, t, &r), "SqlPathFinder::Find");
    avg.time_s += static_cast<double>(r.stats.total_us) / 1e6;
    avg.statements += static_cast<double>(r.stats.statements);
    avg.expansions += static_cast<double>(r.stats.expansions);
    if (r.found) avg.found++;
    avg.total++;
  }
  avg.time_s /= avg.total;
  avg.statements /= avg.total;
  avg.expansions /= avg.total;
  return avg;
}

void Run() {
  Banner("SQL-client overhead (extension)",
         "BSDJ: native plans vs prepared SQL, Power graphs",
         "same expansions, distances, and statement counts; prepared adds "
         "only bind+execute per statement");
  BenchEnv env = GetEnv();
  std::printf("%10s %12s %12s %10s %12s\n", "nodes", "native_s",
              "prepared_s", "prep_x", "stmt");
  const int64_t bases[] = {2000, 4000, 8000};
  for (size_t i = 0; i < 3; i++) {
    int64_t n = Scaled(bases[i]);
    EdgeList list = GenerateBarabasiAlbert(n, 2, WeightRange{1, 100}, 300 + i);
    auto pairs = MakeQueryPairs(n, env.queries, 9300 + i);
    SharedGraph sg = SharedGraph::Make(list);

    auto native = sg.Finder(Algorithm::kBSDJ);
    AvgResult rn = RunQueries(native.get(), pairs);

    SqlPathFinderOptions opts;
    opts.algorithm = Algorithm::kBSDJ;
    std::unique_ptr<SqlPathFinder> finder;
    Check(SqlPathFinder::Create(sg.graph.get(), opts, &finder),
          "SqlPathFinder::Create");
    int64_t prepares_before = sg.graph->db()->stats().prepares;
    AvgResult rp = RunSqlQueries(finder.get(), pairs);
    int64_t prepares_during = sg.graph->db()->stats().prepares -
                              prepares_before;  // must be 0: bind-only

    std::printf(
        "%10lld %12.4f %12.4f %10.2f %12.1f%s\n", static_cast<long long>(n),
        rn.time_s, rp.time_s, rn.time_s > 0 ? rp.time_s / rn.time_s : 0.0,
        rp.statements,
        prepares_during == 0 ? "" : "  [WARN: prepared mode re-planned!]");
  }
}

}  // namespace
}  // namespace bench
}  // namespace relgraph

int main() { relgraph::bench::Run(); }
