// Golden counters of the bench series: each test replays one series of
// bench/series.h exactly as its bench runs it, at RELGRAPH_QUERIES=4 and
// RELGRAPH_SCALE=0.2, and pins its deterministic counters — the paper's
// statements, expansions ("Exps") and visited rows ("Vst"), rows shipped
// by the distributed coordinator, label rows, executor output rows, and
// the coordinator's resilience counters. Any change is a behaviour
// change, and the failure names the record.
//
// Per-query series are pinned as totals over their 4 queries (the mean
// the bench prints × 4), so every golden is an integer. When a change
// moves a counter on purpose, update the golden here and say why in
// CHANGES.md.

#include <gtest/gtest.h>

#include <iterator>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/series.h"

namespace relgraph {
namespace bench {
namespace {

constexpr int kQueries = 4;
const BenchEnv kEnv{kQueries, 0.2};

/// FEM counters of one per-query series, totalled over its queries.
struct FemTotals {
  int64_t statements = 0;
  int64_t expansions = 0;
  int64_t visited = 0;
  int found = 0;
  int total = 0;
  bool operator==(const FemTotals&) const = default;
};

void PrintTo(const FemTotals& c, std::ostream* os) {
  *os << "{statements " << c.statements << ", expansions " << c.expansions
      << ", visited " << c.visited << ", found " << c.found << "/"
      << c.total << "}";
}

FemTotals Totals(const AvgResult& a) {
  return {static_cast<int64_t>(a.statements * kQueries),
          static_cast<int64_t>(a.expansions * kQueries),
          static_cast<int64_t>(a.visited * kQueries), a.found, a.total};
}

/// Distributed counters of one per-query series, totalled over its
/// queries (for multi-client points: per client; found/total summed over
/// the clients).
struct DistTotals {
  int64_t statements = 0;  // shard + coordinator
  int64_t rows_shipped = 0;
  int found = 0;
  int total = 0;
  bool operator==(const DistTotals&) const = default;
};

void PrintTo(const DistTotals& c, std::ostream* os) {
  *os << "{statements " << c.statements << ", rows_shipped "
      << c.rows_shipped << ", found " << c.found << "/" << c.total << "}";
}

DistTotals Totals(const DistAvg& a) {
  return {static_cast<int64_t>(a.statements * kQueries),
          static_cast<int64_t>(a.rows_shipped * kQueries), a.found, a.total};
}

/// A healthy in-process or loopback fleet never retries, fails, trips a
/// breaker, fails over, hedges or sheds.
void ExpectHealthy(const ResilienceCounters& rc, const std::string& record) {
  EXPECT_EQ(std::make_tuple(rc.retries, rc.failures, rc.breaker_opens,
                            rc.failovers, rc.hedges, rc.sheds),
            std::make_tuple(0, 0, 0, 0, 0, 0))
      << record
      << " (retries, failures, breaker_opens, failovers, hedges, sheds)";
}

void ExpectDist(const DistAvg& got, const DistTotals& want,
                const std::string& record) {
  EXPECT_EQ(Totals(got), want) << record;
  ExpectHealthy(got.resilience, record);
}

// Figure 6(a): BDJ and BSDJ, NSQL, CluIndex, Power graphs.
TEST(GoldenCountersTest, Fig6a) {
  struct Point {
    int64_t nodes;
    FemTotals bdj, bsdj;
  };
  const Point kGolden[] = {
      {400, {1793, 250, 493, 4, 4}, {633, 118, 417, 4, 4}},
      {800, {2147, 300, 799, 4, 4}, {817, 154, 623, 4, 4}},
      {1200, {2377, 334, 1067, 4, 4}, {570, 106, 565, 4, 4}},
      {1600, {2207, 309, 900, 4, 4}, {624, 116, 776, 4, 4}},
      {2000, {2096, 294, 700, 4, 4}, {639, 120, 808, 4, 4}},
  };
  std::vector<Fig6aPoint> points = RunFig6a(kEnv);
  ASSERT_EQ(points.size(), std::size(kGolden));
  for (size_t i = 0; i < points.size(); i++) {
    const std::string at = " nodes=" + std::to_string(kGolden[i].nodes);
    EXPECT_EQ(points[i].nodes, kGolden[i].nodes);
    EXPECT_EQ(Totals(points[i].bdj), kGolden[i].bdj) << "BDJ/NSQL" << at;
    EXPECT_EQ(Totals(points[i].bsdj), kGolden[i].bsdj) << "BSDJ/NSQL" << at;
  }
}

// Executor micro series: rows out of the selection-vector filter stack per
// selectivity, and groups out of the vectorized hash aggregate.
TEST(GoldenCountersTest, MicroExec) {
  const std::vector<Tuple> rows = MakeSelRows(kSelRows);
  ASSERT_EQ(rows.size(), 40000u);
  const std::pair<int64_t, int64_t> kSelectivityRows[] = {
      {1, 240}, {10, 2080}, {50, 10080}, {100, 20000}};
  for (const auto& [pct, want] : kSelectivityRows) {
    ExecRef plan = MakeSelPlan(rows, pct);
    ASSERT_TRUE(plan->Init().ok());
    EXPECT_EQ(DrainFold(plan.get()), want)
        << "filter_project:selvec selectivity=" << pct;
  }
  for (int64_t groups : {64, 65536}) {
    const std::vector<Tuple> agg_rows = MakeAggRows(kAggRows, groups);
    ASSERT_EQ(agg_rows.size(), 100000u);
    EXPECT_EQ(VectorizedAgg(agg_rows), groups)
        << "hash_agg:vectorized groups=" << groups;
  }
}

// Distributed BSDJ: 1-8 shards × NoIndex/CluIndex × serial/threaded
// coordinator, then 1-8 concurrent sessions over 4 CluIndex shards.
// Statements grow with the shard count, and so do rows shipped: each shard
// combines only its own rows, so a node reached from frontier nodes on k
// shards ships up to k rows.
TEST(GoldenCountersTest, Dist) {
  const Workload w = DistWorkload(kEnv);
  struct Point {
    int shards;
    int64_t statements;
    int64_t rows_shipped;
  };
  const Point kGolden[] = {
      {1, 795, 1258}, {2, 837, 1270}, {4, 880, 1280}, {8, 903, 1287}};
  for (IndexStrategy strategy :
       {IndexStrategy::kNoIndex, IndexStrategy::kCluIndex}) {
    std::vector<DistShardPoint> points = RunDistShardSweep(w, strategy);
    ASSERT_EQ(points.size(), std::size(kGolden));
    for (size_t i = 0; i < points.size(); i++) {
      const Point& g = kGolden[i];
      ASSERT_EQ(points[i].shards, g.shards);
      const std::string label =
          std::string("dist/") + IndexStrategyName(strategy) + "/";
      const std::string at = " shards=" + std::to_string(g.shards);
      const DistTotals want{g.statements, g.rows_shipped, 4, 4};
      ExpectDist(points[i].serial, want, label + "serial" + at);
      ExpectDist(points[i].threaded, want, label + "threaded" + at);
    }
  }

  std::vector<DistClientPoint> clients = RunDistMultiClient(w, 4);
  const int kClients[] = {1, 2, 4, 8};
  ASSERT_EQ(clients.size(), std::size(kClients));
  for (size_t i = 0; i < clients.size(); i++) {
    const int n = kClients[i];
    ASSERT_EQ(clients[i].clients, n);
    ExpectDist(clients[i].combined, {880, 1280, 4 * n, 4 * n},
               "dist/multiclient shards=4 clients=" + std::to_string(n));
  }
}

// Networked transport: the same counters in-process, over loopback TCP,
// through two replicas per shard and under 4 oversubscribed sessions; then
// the restart series' re-ingested edges and verified snapshot pages.
TEST(GoldenCountersTest, DistNet) {
  const Workload w = DistNetWorkload(kEnv);
  struct Point {
    int shards;
    int64_t statements;
    int64_t rows_shipped;
    int64_t snapshot_pages;
  };
  const Point kGolden[] = {{2, 853, 855, 200}, {4, 887, 861, 210}};
  for (const Point& g : kGolden) {
    DistNetPoint p = RunDistNetPoint(w, g.shards);
    const std::string at = " shards=" + std::to_string(g.shards);
    const DistTotals want{g.statements, g.rows_shipped, 4, 4};
    ExpectDist(p.local, want, "dist_net/local" + at);
    ExpectDist(p.loopback, want, "dist_net/loopback" + at);
    ExpectDist(p.replicated, want, "dist_net/replicated" + at);
    ExpectDist(p.overload, want, "dist_net/overload" + at);
    EXPECT_EQ(p.restart_ingest.rows_shipped, 9588)
        << "dist_net/restart_ingest edges" << at;
    EXPECT_EQ(p.restart_snapshot.rows_shipped, g.snapshot_pages)
        << "dist_net/restart_snapshot pages" << at;
  }
}

// Hub labels: build statements and label rows, the FEM fallback's
// counters, one statement per served distance, and the stale fallback.
TEST(GoldenCountersTest, Labels) {
  struct Point {
    int64_t base_nodes;
    int64_t build_statements, build_entries;
    FemTotals fem, serve, stale;
  };
  const Point kGolden[] = {
      {2000, 68545, 8444,
       {468, 72, 340, 4, 4}, {4, 0, 0, 4, 4}, {468, 0, 0, 4, 4}},
      {4000, 148553, 21458,
       {694, 109, 656, 4, 4}, {4, 0, 0, 4, 4}, {694, 0, 0, 4, 4}},
  };
  for (const Point& g : kGolden) {
    LabelsPoint p = RunLabelsPoint(g.base_nodes, kEnv);
    const std::string at = " nodes=" + std::to_string(p.nodes);
    EXPECT_EQ(p.build.statements, g.build_statements)
        << "labels/build statements" << at;
    EXPECT_EQ(p.build.entries, g.build_entries)
        << "labels/build entries" << at;
    EXPECT_EQ(Totals(p.fem), g.fem) << "labels/fem" << at;
    EXPECT_EQ(Totals(p.serve), g.serve) << "labels/serve" << at;
    EXPECT_EQ(Totals(p.stale), g.stale) << "labels/stale" << at;
  }
}

}  // namespace
}  // namespace bench
}  // namespace relgraph
