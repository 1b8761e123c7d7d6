// Extension bench (no paper counterpart): the SQL-text client
// (SqlPathFinder) versus the native operator-level client (PathFinder)
// running the same BSDJ algorithm on the same graphs — in both SQL
// regimes:
//
//   sql_text     — every statement re-parses and re-plans (plan cache
//                  disabled), the paper's literal JDBC regime;
//   sql_prepared — all statement templates prepared once in Create(),
//                  each iteration only binds fresh parameters (the
//                  parse-once / bind-many API this engine now defaults to).
//
// The text-vs-prepared gap isolates exactly what parse+plan costs per
// statement; the prepared-vs-native gap is what remains of the SQL
// surface (result materialization, statement accounting). Statement
// counts are identical across all three by construction.
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
         "BSDJ: native plans vs prepared SQL vs re-parsed SQL text, "
         "Power graphs",
         "same expansions, distances, and statement counts; text adds "
         "parse+plan per statement, prepared adds only bind+execute");
  BenchEnv env = GetEnv();
  std::printf("%10s %12s %12s %12s %10s %10s %12s\n", "nodes", "native_s",
              "prepared_s", "text_s", "prep_x", "text_x", "stmt");
  const int64_t bases[] = {2000, 4000, 8000};
  for (size_t i = 0; i < 3; i++) {
    int64_t n = Scaled(bases[i]);
    EdgeList list = GenerateBarabasiAlbert(n, 2, WeightRange{1, 100}, 300 + i);
    auto pairs = MakeQueryPairs(n, env.queries, 9300 + i);
    SharedGraph sg = SharedGraph::Make(list);

    auto native = sg.Finder(Algorithm::kBSDJ);
    AvgResult rn = RunQueries(native.get(), pairs);

    auto make_sql = [&](bool prepared) {
      SqlPathFinderOptions opts;
      opts.algorithm = Algorithm::kBSDJ;
      opts.use_prepared = prepared;
      opts.visited_table = prepared ? "SqlTVisitedPrep" : "SqlTVisitedText";
      std::unique_ptr<SqlPathFinder> finder;
      Check(SqlPathFinder::Create(sg.graph.get(), opts, &finder),
            "SqlPathFinder::Create");
      return finder;
    };

    auto prepared_finder = make_sql(/*prepared=*/true);
    int64_t prepares_before = sg.graph->db()->stats().prepares;
    AvgResult rp = RunSqlQueries(prepared_finder.get(), pairs);
    int64_t prepares_during = sg.graph->db()->stats().prepares -
                              prepares_before;  // must be 0: bind-only

    auto text_finder = make_sql(/*prepared=*/false);
    AvgResult rt = RunSqlQueries(text_finder.get(), pairs);

    std::printf(
        "%10lld %12.4f %12.4f %12.4f %10.2f %10.2f %12.1f%s\n",
        static_cast<long long>(n), rn.time_s, rp.time_s, rt.time_s,
        rn.time_s > 0 ? rp.time_s / rn.time_s : 0.0,
        rn.time_s > 0 ? rt.time_s / rn.time_s : 0.0, rp.statements,
        prepares_during == 0 ? "" : "  [WARN: prepared mode re-planned!]");
    if (rp.statements != rt.statements) {
      std::printf("  WARN: statement counts diverge between modes "
                  "(%g vs %g)\n",
                  rp.statements, rt.statements);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace relgraph

int main() { relgraph::bench::Run(); }
