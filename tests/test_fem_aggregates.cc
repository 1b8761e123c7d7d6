// VisitedTable's auxiliary reads (the least open row, min d2s+d2t) and
// PickMid's pick must match values recomputed from scratch after any mixed
// sequence of seeds, frontier updates, and merges — across all three index
// strategies and both SQL modes. The table's access counters pin what the
// auxiliary statements read: MinCost no TVisited row at all, and
// MinOpenDistance at most one open-tree entry under Index/CluIndex, one
// filtered full scan under NoIndex. Under Index/CluIndex the open trees
// must also read exactly what a filtered full scan reads, after every
// mutation.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/fem.h"
#include "src/core/visited_table.h"
#include "src/graph/generators.h"

namespace relgraph {
namespace {

/// A row's locator, the open trees' tie-break: its cluster key, which is
/// also scan order; or its RID, which a heap reusing freed pages does not
/// keep in scan order.
int64_t Locator(const Table& table, const RowRef& ref) {
  return table.options().storage == TableStorage::kClustered
             ? ref.key.key
             : (int64_t{ref.rid.page_id} << 16) | ref.rid.slot;
}

struct Recomputed {
  weight_t min_open = kInfinity;
  weight_t min_cost = kInfinity;
  node_id_t pick = kInvalidNode;  // PickMid's row
};

/// The from-scratch oracle: one full scan per direction. The pick is the
/// open row with the least dist, ties going to the least locator when the
/// open tree serves the read (`by_locator`), else to the first in scan
/// order.
Recomputed Recompute(VisitedTable* vt, const DirCols& dir, bool by_locator) {
  const Schema& schema = vt->table()->schema();
  const size_t nid_idx = schema.IndexOf("nid");
  const size_t dist_idx = schema.IndexOf(dir.dist);
  const size_t flag_idx = schema.IndexOf(dir.flag);
  const size_t d2s_idx = schema.IndexOf("d2s");
  const size_t d2t_idx = schema.IndexOf("d2t");
  Recomputed r;
  int64_t pick_order = 0;
  int64_t scan_pos = 0;
  auto it = vt->table()->Scan();
  Tuple t;
  RowRef ref;
  while (it.Next(&t, &ref)) {
    weight_t dist = t.value(dist_idx).AsInt();
    const int64_t order = by_locator ? Locator(*vt->table(), ref) : scan_pos;
    scan_pos++;
    if (t.value(flag_idx).AsInt() == 0 && dist < kInfinity &&
        std::make_pair(dist, order) < std::make_pair(r.min_open, pick_order)) {
      r.min_open = dist;
      pick_order = order;
      r.pick = t.value(nid_idx).AsInt();
    }
    r.min_cost = std::min(
        r.min_cost, t.value(d2s_idx).AsInt() + t.value(d2t_idx).AsInt());
  }
  EXPECT_TRUE(it.status().ok());
  return r;
}

void ExpectAggregatesExact(FemEngine* fem, bool by_locator,
                           const char* where) {
  VisitedTable* vt = fem->visited();
  for (const DirCols& dir :
       {VisitedTable::ForwardCols(), VisitedTable::BackwardCols()}) {
    Recomputed r = Recompute(vt, dir, by_locator);
    weight_t least;
    node_id_t least_nid;
    ASSERT_TRUE(vt->open(dir)->Least(&least, &least_nid).ok());
    EXPECT_EQ(least, r.min_open) << where << " dir=" << dir.dist;
    EXPECT_EQ(vt->MinPathCost(), r.min_cost) << where << " dir=" << dir.dist;
    node_id_t mid;
    bool found;
    ASSERT_TRUE(fem->PickMid(dir, &mid, &found).ok());
    EXPECT_EQ(found, r.min_open < kInfinity) << where << " dir=" << dir.dist;
    if (found) {
      EXPECT_EQ(mid, r.pick) << where << " dir=" << dir.dist;
    }
  }
}

/// Index-vs-scan oracle for the open trees: per direction and flag, the
/// rows the two-column ScanRange reads over [0, kInfinity) through the
/// direction's open tree must be the filtered full scan's rows, in the
/// tree's order: dist, then the row's locator.
void ExpectOpenTreesMatchScan(VisitedTable* vt, const char* where) {
  Table* table = vt->table();
  const Schema& schema = table->schema();
  const size_t nid_idx = schema.IndexOf("nid");
  for (const DirCols& dir :
       {VisitedTable::ForwardCols(), VisitedTable::BackwardCols()}) {
    const size_t dist_idx = schema.IndexOf(dir.dist);
    const size_t flag_idx = schema.IndexOf(dir.flag);
    for (int64_t flag = 0; flag <= 2; flag++) {
      std::vector<std::tuple<weight_t, int64_t, node_id_t>> want;
      auto scan = table->Scan();
      Tuple t;
      RowRef ref;
      while (scan.Next(&t, &ref)) {
        const weight_t dist = t.value(dist_idx).AsInt();
        if (t.value(flag_idx).AsInt() == flag && dist < kInfinity) {
          want.emplace_back(dist, Locator(*table, ref),
                            t.value(nid_idx).AsInt());
        }
      }
      ASSERT_TRUE(scan.status().ok());
      std::sort(want.begin(), want.end());

      const int64_t full_before = table->access_stats().full_scan_rows;
      Table::Iterator it;
      ASSERT_TRUE(table
                      ->ScanRange(dir.flag, flag, dir.dist, 0, kInfinity - 1,
                                  &it)
                      .ok());
      std::vector<std::tuple<weight_t, int64_t, node_id_t>> got;
      while (it.Next(&t, &ref)) {
        got.emplace_back(t.value(dist_idx).AsInt(), Locator(*table, ref),
                         t.value(nid_idx).AsInt());
      }
      ASSERT_TRUE(it.status().ok());
      EXPECT_EQ(table->access_stats().full_scan_rows, full_before)
          << where << ": " << dir.flag << " range not served by its tree";
      EXPECT_EQ(got, want) << where << ": " << dir.flag << " = " << flag;
    }
  }
}

class FemAggregateTest
    : public ::testing::TestWithParam<std::tuple<IndexStrategy, SqlMode>> {};

TEST_P(FemAggregateTest, MatchRecomputeAfterMixedMergeUpdateSequences) {
  const auto& [strategy, mode] = GetParam();
  EdgeList list = GenerateBarabasiAlbert(60, 3, WeightRange{1, 30}, 17);
  Database db{DatabaseOptions{}};
  GraphStoreOptions gopts;
  gopts.strategy = strategy;
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, gopts, &graph).ok());
  std::unique_ptr<VisitedTable> vt;
  ASSERT_TRUE(VisitedTable::Create(&db, strategy, "TVagg", &vt).ok());
  FemEngine fem(&db, vt.get(), mode);

  const DirCols fwd = VisitedTable::ForwardCols();
  const DirCols bwd = VisitedTable::BackwardCols();
  // Aggregates always; the open trees under the strategies that have them.
  auto expect_exact = [&](const char* where) {
    ExpectAggregatesExact(&fem, strategy != IndexStrategy::kNoIndex, where);
    if (strategy != IndexStrategy::kNoIndex) {
      ExpectOpenTreesMatchScan(vt.get(), where);
    }
  };
  Rng rng(5);
  for (int query = 0; query < 3; query++) {
    ASSERT_TRUE(vt->Reset().ok());
    expect_exact("after reset");
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    ASSERT_TRUE(vt->InsertSourceAndTarget(s, t).ok());
    expect_exact("after seed");

    // A dozen rounds of the real FEM statement mix, alternating direction
    // and frontier shape; verify the aggregates after every mutation.
    for (int round = 0; round < 12; round++) {
      const bool forward = rng.NextInt(0, 1) == 0;
      const DirCols& dir = forward ? fwd : bwd;
      weight_t m;
      ASSERT_TRUE(fem.MinOpenDistance(dir, &m).ok());
      if (m >= kInfinity) break;
      FrontierSpec spec = rng.NextInt(0, 1) == 0
                              ? FrontierSpec::DistEq(m)
                              : FrontierSpec::DistOr(m + 5, m);
      int64_t marked;
      ASSERT_TRUE(fem.MarkFrontier(dir, spec, &marked).ok());
      expect_exact("after mark");
      int64_t affected;
      ASSERT_TRUE(fem.ExpandAndMerge(dir,
                                     forward ? graph->Forward()
                                             : graph->Backward(),
                                     0, kInfinity, &affected)
                      .ok());
      expect_exact("after merge");
      ASSERT_TRUE(fem.FinalizeFrontier(dir).ok());
      expect_exact("after finalize");
    }
  }
}

TEST_P(FemAggregateTest, AuxiliaryStatementReadsArePinned) {
  const auto& [strategy, mode] = GetParam();
  EdgeList list = GenerateBarabasiAlbert(50, 2, WeightRange{1, 20}, 23);
  Database db{DatabaseOptions{}};
  GraphStoreOptions gopts;
  gopts.strategy = strategy;
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, gopts, &graph).ok());
  std::unique_ptr<VisitedTable> vt;
  ASSERT_TRUE(VisitedTable::Create(&db, strategy, "TVscan", &vt).ok());
  FemEngine fem(&db, vt.get(), mode);

  const DirCols fwd = VisitedTable::ForwardCols();
  ASSERT_TRUE(vt->InsertSourceAndTarget(0, 40).ok());
  // Warm up: a couple of real expansions so TVisited has rows in every
  // flag state.
  for (int round = 0; round < 2; round++) {
    weight_t m;
    ASSERT_TRUE(fem.MinOpenDistance(fwd, &m).ok());
    ASSERT_LT(m, kInfinity);
    int64_t marked, affected;
    ASSERT_TRUE(fem.MarkFrontier(fwd, FrontierSpec::DistEq(m), &marked).ok());
    ASSERT_TRUE(
        fem.ExpandAndMerge(fwd, graph->Forward(), 0, kInfinity, &affected)
            .ok());
    ASSERT_TRUE(fem.FinalizeFrontier(fwd).ok());
  }

  // The two auxiliary probes, one SQL statement each. MinCost reads no
  // TVisited row of any kind. MinOpenDistance reads the least open row: at
  // most one open-tree entry under Index/CluIndex, one filtered full scan
  // under NoIndex.
  vt->table()->ResetAccessStats();
  const int64_t stmt_before = db.stats().statements;
  weight_t m, mc;
  ASSERT_TRUE(fem.MinCost(&mc).ok());
  const TableAccessStats& stats = vt->table()->access_stats();
  EXPECT_EQ(stats.full_scan_rows, 0);
  EXPECT_EQ(stats.index_scan_rows, 0);
  EXPECT_EQ(stats.point_lookups, 0);
  ASSERT_TRUE(fem.MinOpenDistance(fwd, &m).ok());
  EXPECT_EQ(db.stats().statements - stmt_before, 2);
  if (strategy == IndexStrategy::kNoIndex) {
    EXPECT_EQ(stats.full_scan_rows, vt->num_rows());
    EXPECT_EQ(stats.index_scan_rows, 0);
  } else {
    EXPECT_EQ(stats.full_scan_rows, 0);
    EXPECT_LE(stats.index_scan_rows, 1);
  }
  EXPECT_EQ(stats.point_lookups, 0);

  // Under the indexed strategies the F-operator must not full-scan either:
  // marking and finalizing a frontier goes through index probes only.
  if (strategy != IndexStrategy::kNoIndex) {
    vt->table()->ResetAccessStats();
    ASSERT_TRUE(fem.MinOpenDistance(fwd, &m).ok());
    if (m < kInfinity) {
      int64_t marked;
      ASSERT_TRUE(
          fem.MarkFrontier(fwd, FrontierSpec::DistEq(m), &marked).ok());
      ASSERT_TRUE(fem.FinalizeFrontier(fwd).ok());
      EXPECT_EQ(vt->table()->access_stats().full_scan_rows, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndModes, FemAggregateTest,
    ::testing::Combine(::testing::Values(IndexStrategy::kNoIndex,
                                         IndexStrategy::kIndex,
                                         IndexStrategy::kCluIndex),
                       ::testing::Values(SqlMode::kNsql, SqlMode::kTsql)),
    [](const auto& info) {
      return std::string(IndexStrategyName(std::get<0>(info.param))) + "_" +
             SqlModeName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace relgraph
