#include "src/core/fem.h"

#include <gtest/gtest.h>

#include "src/core/visited_table.h"
#include "src/graph/generators.h"

namespace relgraph {
namespace {

EdgeList Chain() {
  // 0 -(2)-> 1 -(3)-> 2 -(4)-> 3, plus a costly shortcut 0 -(100)-> 2.
  EdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {0, 2, 100}};
  return list;
}

class FemTest : public ::testing::Test {
 protected:
  FemTest() : db_(DatabaseOptions{}) {
    EXPECT_TRUE(
        GraphStore::Create(&db_, Chain(), GraphStoreOptions{}, &graph_).ok());
    EXPECT_TRUE(VisitedTable::Create(&db_, graph_->strategy(), "TV", &vt_)
                    .ok());
    fem_ = std::make_unique<FemEngine>(&db_, vt_.get(), SqlMode::kNsql);
  }

  Tuple Row(node_id_t nid) {
    Tuple t;
    EXPECT_TRUE(vt_->GetRow(nid, &t).ok());
    return t;
  }
  int64_t Field(node_id_t nid, const char* col) {
    return Row(nid).value(vt_->table()->schema().IndexOf(col)).AsInt();
  }

  Database db_;
  std::unique_ptr<GraphStore> graph_;
  std::unique_ptr<VisitedTable> vt_;
  std::unique_ptr<FemEngine> fem_;
};

TEST_F(FemTest, InsertSourceSeedsForwardState) {
  ASSERT_TRUE(vt_->InsertSource(0).ok());
  EXPECT_EQ(Field(0, "d2s"), 0);
  EXPECT_EQ(Field(0, "f"), 0);
  EXPECT_EQ(Field(0, "d2t"), kInfinity);
}

TEST_F(FemTest, PickMidSelectsMinimalOpenNode) {
  ASSERT_TRUE(vt_->InsertSource(0).ok());
  auto fwd = VisitedTable::ForwardCols();
  node_id_t mid;
  bool found;
  ASSERT_TRUE(fem_->PickMid(fwd, &mid, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(mid, 0);
}

TEST_F(FemTest, ExpandAndMergeVisitsNeighbors) {
  ASSERT_TRUE(vt_->InsertSource(0).ok());
  auto fwd = VisitedTable::ForwardCols();
  int64_t marked, affected;
  ASSERT_TRUE(fem_->MarkFrontier(fwd, FrontierSpec::Node(0), &marked).ok());
  EXPECT_EQ(marked, 1);
  ASSERT_TRUE(
      fem_->ExpandAndMerge(fwd, graph_->Forward(), 0, kInfinity, &affected)
          .ok());
  EXPECT_EQ(affected, 2);  // nodes 1 and 2
  EXPECT_EQ(Field(1, "d2s"), 2);
  EXPECT_EQ(Field(1, "p2s"), 0);
  EXPECT_EQ(Field(2, "d2s"), 100);  // via the shortcut for now
  ASSERT_TRUE(fem_->FinalizeFrontier(fwd).ok());
  EXPECT_EQ(Field(0, "f"), 1);
}

TEST_F(FemTest, MergeImprovesDistanceAndReopens) {
  ASSERT_TRUE(vt_->InsertSource(0).ok());
  auto fwd = VisitedTable::ForwardCols();
  int64_t marked, affected;
  ASSERT_TRUE(fem_->MarkFrontier(fwd, FrontierSpec::Node(0), &marked).ok());
  ASSERT_TRUE(
      fem_->ExpandAndMerge(fwd, graph_->Forward(), 0, kInfinity, &affected)
          .ok());
  ASSERT_TRUE(fem_->FinalizeFrontier(fwd).ok());
  // Expand node 1: reaches node 2 at cost 5 < 100, reopening it.
  ASSERT_TRUE(fem_->MarkFrontier(fwd, FrontierSpec::Node(1), &marked).ok());
  ASSERT_TRUE(
      fem_->ExpandAndMerge(fwd, graph_->Forward(), 0, kInfinity, &affected)
          .ok());
  EXPECT_EQ(affected, 1);
  EXPECT_EQ(Field(2, "d2s"), 5);
  EXPECT_EQ(Field(2, "p2s"), 1);
  EXPECT_EQ(Field(2, "f"), 0);
}

TEST_F(FemTest, PruningRuleSuppressesHopelessExpansions) {
  ASSERT_TRUE(vt_->InsertSource(0).ok());
  auto fwd = VisitedTable::ForwardCols();
  int64_t marked, affected;
  ASSERT_TRUE(fem_->MarkFrontier(fwd, FrontierSpec::Node(0), &marked).ok());
  // Theorem 1 with min_cost=50, lb=0: the shortcut edge (0->2, cost 100)
  // must be pruned; the cheap edge (0->1, cost 2) survives.
  ASSERT_TRUE(fem_->ExpandAndMerge(fwd, graph_->Forward(), /*opposite_l=*/0,
                                   /*min_cost=*/50, &affected)
                  .ok());
  EXPECT_EQ(affected, 1);
  Tuple t;
  EXPECT_TRUE(vt_->GetRow(2, &t).IsNotFound());
  EXPECT_TRUE(vt_->GetRow(1, &t).ok());
}

TEST_F(FemTest, MinOpenDistanceAndMinCost) {
  ASSERT_TRUE(vt_->InsertSourceAndTarget(0, 3).ok());
  auto fwd = VisitedTable::ForwardCols();
  auto bwd = VisitedTable::BackwardCols();
  weight_t m;
  ASSERT_TRUE(fem_->MinOpenDistance(fwd, &m).ok());
  EXPECT_EQ(m, 0);
  ASSERT_TRUE(fem_->MinOpenDistance(bwd, &m).ok());
  EXPECT_EQ(m, 0);
  weight_t mc;
  ASSERT_TRUE(fem_->MinCost(&mc).ok());
  EXPECT_GE(mc, kInfinity);  // no meeting row yet
}

TEST_F(FemTest, BackwardExpansionUsesInEdges) {
  ASSERT_TRUE(vt_->InsertSourceAndTarget(0, 3).ok());
  auto bwd = VisitedTable::BackwardCols();
  int64_t marked, affected;
  ASSERT_TRUE(fem_->MarkFrontier(bwd, FrontierSpec::Node(3), &marked).ok());
  EXPECT_EQ(marked, 1);
  ASSERT_TRUE(
      fem_->ExpandAndMerge(bwd, graph_->Backward(), 0, kInfinity, &affected)
          .ok());
  EXPECT_EQ(affected, 1);  // only edge 2->3 enters node 3
  EXPECT_EQ(Field(2, "d2t"), 4);
  EXPECT_EQ(Field(2, "p2t"), 3);
  EXPECT_EQ(Field(2, "d2s"), kInfinity);  // forward state untouched
}

TEST_F(FemTest, ReachabilityGuardKeepsOppositeSeedOutOfFrontier) {
  ASSERT_TRUE(vt_->InsertSourceAndTarget(0, 3).ok());
  auto fwd = VisitedTable::ForwardCols();
  // Node 3 has d2s = infinity; a frontier predicate of "true" must still
  // exclude it from the forward frontier.
  int64_t marked;
  ASSERT_TRUE(fem_->MarkFrontier(fwd, FrontierSpec::All(), &marked).ok());
  EXPECT_EQ(marked, 1);  // only the source
  EXPECT_EQ(Field(3, "f"), 0);
}

TEST_F(FemTest, StatementsAreCounted) {
  ASSERT_TRUE(vt_->InsertSource(0).ok());
  int64_t before = db_.stats().statements;
  auto fwd = VisitedTable::ForwardCols();
  node_id_t mid;
  bool found;
  ASSERT_TRUE(fem_->PickMid(fwd, &mid, &found).ok());
  int64_t marked, affected;
  ASSERT_TRUE(fem_->MarkFrontier(fwd, FrontierSpec::Node(mid), &marked).ok());
  ASSERT_TRUE(
      fem_->ExpandAndMerge(fwd, graph_->Forward(), 0, kInfinity, &affected)
          .ok());
  ASSERT_TRUE(fem_->FinalizeFrontier(fwd).ok());
  EXPECT_EQ(db_.stats().statements - before, 4);
  EXPECT_EQ(fem_->stats().expansions, 1);
  EXPECT_GT(fem_->stats().e_operator_us + fem_->stats().m_operator_us, 0);
}

TEST_F(FemTest, StatementLogRecordsSqlText) {
  db_.EnableStatementLog();
  ASSERT_TRUE(vt_->InsertSource(0).ok());
  auto fwd = VisitedTable::ForwardCols();
  node_id_t mid;
  bool found;
  int64_t marked, affected;
  ASSERT_TRUE(fem_->PickMid(fwd, &mid, &found).ok());
  ASSERT_TRUE(fem_->MarkFrontier(fwd, FrontierSpec::Node(mid), &marked).ok());
  ASSERT_TRUE(
      fem_->ExpandAndMerge(fwd, graph_->Forward(), 0, kInfinity, &affected)
          .ok());
  ASSERT_TRUE(fem_->FinalizeFrontier(fwd).ok());

  const auto& log = db_.statement_log();
  ASSERT_GE(log.size(), 4u);
  // The trace must read like the paper's Listings: a TOP-1 selection, the
  // sign updates, and one MERGE with the window-function subquery.
  auto contains = [&](const std::string& needle) {
    for (const auto& sql : log) {
      if (sql.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("SELECT TOP 1 nid FROM TV"));
  EXPECT_TRUE(contains("UPDATE TV SET f=2"));
  EXPECT_TRUE(contains("MERGE TV AS target"));
  EXPECT_TRUE(contains("row_number() OVER (PARTITION BY"));
  EXPECT_TRUE(contains("UPDATE TV SET f=1 WHERE f=2"));

  db_.DisableStatementLog();
  EXPECT_TRUE(db_.statement_log().empty());
}

TEST_F(FemTest, TsqlExpansionMatchesNsql) {
  // Run the same single expansion in both modes; TVisited must end equal.
  auto run_mode = [&](SqlMode mode, const std::string& name,
                      std::vector<Tuple>* rows) {
    std::unique_ptr<VisitedTable> vt;
    ASSERT_TRUE(
        VisitedTable::Create(&db_, graph_->strategy(), name, &vt).ok());
    FemEngine fem(&db_, vt.get(), mode);
    ASSERT_TRUE(vt->InsertSource(0).ok());
    auto fwd = VisitedTable::ForwardCols();
    int64_t marked, affected;
    ASSERT_TRUE(fem.MarkFrontier(fwd, FrontierSpec::Node(0), &marked).ok());
    ASSERT_TRUE(
        fem.ExpandAndMerge(fwd, graph_->Forward(), 0, kInfinity, &affected)
            .ok());
    auto it = vt->table()->Scan();
    Tuple t;
    while (it.Next(&t, nullptr)) rows->push_back(t);
  };
  std::vector<Tuple> nsql_rows, tsql_rows;
  run_mode(SqlMode::kNsql, "TV_n", &nsql_rows);
  run_mode(SqlMode::kTsql, "TV_t", &tsql_rows);
  ASSERT_EQ(nsql_rows.size(), tsql_rows.size());
  for (size_t i = 0; i < nsql_rows.size(); i++) {
    EXPECT_EQ(nsql_rows[i], tsql_rows[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace relgraph
