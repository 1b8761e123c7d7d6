#include "src/graph/graph_store.h"

#include <gtest/gtest.h>

#include "src/core/visited_table.h"
#include "src/exec/scan_executors.h"
#include "src/graph/generators.h"

namespace relgraph {
namespace {

EdgeList TinyGraph() {
  EdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 5}, {0, 2, 3}, {1, 3, 1}, {2, 3, 9}, {3, 0, 2}};
  return list;
}

class GraphStoreTest : public ::testing::TestWithParam<IndexStrategy> {};

TEST_P(GraphStoreTest, StoresNodesAndEdges) {
  Database db{DatabaseOptions{}};
  GraphStoreOptions opts;
  opts.strategy = GetParam();
  std::unique_ptr<GraphStore> store;
  ASSERT_TRUE(GraphStore::Create(&db, TinyGraph(), opts, &store).ok());
  EXPECT_EQ(store->num_nodes(), 4);
  EXPECT_EQ(store->num_edges(), 5);
  EXPECT_EQ(store->min_weight(), 1);
  EXPECT_EQ(store->nodes()->num_rows(), 4);
  EXPECT_EQ(store->Forward().table->num_rows(), 5);
  EXPECT_EQ(store->Backward().table->num_rows(), 5);
}

TEST_P(GraphStoreTest, ForwardRelationFindsOutEdges) {
  Database db{DatabaseOptions{}};
  GraphStoreOptions opts;
  opts.strategy = GetParam();
  std::unique_ptr<GraphStore> store;
  ASSERT_TRUE(GraphStore::Create(&db, TinyGraph(), opts, &store).ok());

  EdgeRelation rel = store->Forward();
  EXPECT_EQ(rel.join_column, "fid");
  EXPECT_EQ(rel.emit_column, "tid");
  // Out-edges of node 0 -> {1, 2}.
  std::vector<int64_t> tids;
  if (rel.table->HasIndexOn(rel.join_column)) {
    Table::Iterator it;
    ASSERT_TRUE(rel.table->ScanRange(rel.join_column, 0, 0, &it).ok());
    Tuple t;
    while (it.Next(&t, nullptr)) tids.push_back(t.value(1).AsInt());
  } else {
    FilterExecutor plan(std::make_unique<SeqScanExecutor>(rel.table),
                        ColEq("fid", 0));
    std::vector<Tuple> rows;
    ASSERT_TRUE(Collect(&plan, &rows).ok());
    for (const auto& t : rows) tids.push_back(t.value(1).AsInt());
  }
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(tids, (std::vector<int64_t>{1, 2}));
}

TEST_P(GraphStoreTest, BackwardRelationFindsInEdges) {
  Database db{DatabaseOptions{}};
  GraphStoreOptions opts;
  opts.strategy = GetParam();
  std::unique_ptr<GraphStore> store;
  ASSERT_TRUE(GraphStore::Create(&db, TinyGraph(), opts, &store).ok());

  EdgeRelation rel = store->Backward();
  // In-edges of node 3 -> from {1, 2}.
  std::vector<int64_t> fids;
  FilterExecutor plan(std::make_unique<SeqScanExecutor>(rel.table),
                      ColEq("tid", 3));
  std::vector<Tuple> rows;
  ASSERT_TRUE(Collect(&plan, &rows).ok());
  for (const auto& t : rows) fids.push_back(t.value(0).AsInt());
  std::sort(fids.begin(), fids.end());
  EXPECT_EQ(fids, (std::vector<int64_t>{1, 2}));
}

TEST_P(GraphStoreTest, AddEdgeUpdatesAllCopies) {
  Database db{DatabaseOptions{}};
  GraphStoreOptions opts;
  opts.strategy = GetParam();
  std::unique_ptr<GraphStore> store;
  ASSERT_TRUE(GraphStore::Create(&db, TinyGraph(), opts, &store).ok());
  ASSERT_TRUE(store->AddEdge({2, 1, 1}).ok());
  EXPECT_EQ(store->num_edges(), 6);
  EXPECT_EQ(store->Forward().table->num_rows(), 6);
  EXPECT_EQ(store->Backward().table->num_rows(), 6);
}

TEST_P(GraphStoreTest, CreateRejectsNegativeWeights) {
  Database db{DatabaseOptions{}};
  GraphStoreOptions opts;
  opts.strategy = GetParam();
  EdgeList list = TinyGraph();
  list.edges[2].weight = -1;
  std::unique_ptr<GraphStore> store;
  EXPECT_TRUE(GraphStore::Create(&db, list, opts, &store).IsInvalidArgument());
  EXPECT_EQ(store, nullptr);
  // A zero weight is fine.
  list.edges[2].weight = 0;
  ASSERT_TRUE(GraphStore::Create(&db, list, opts, &store).ok());
  EXPECT_EQ(store->min_weight(), 0);
}

TEST_P(GraphStoreTest, AddEdgeRejectsNegativeWeights) {
  Database db{DatabaseOptions{}};
  GraphStoreOptions opts;
  opts.strategy = GetParam();
  std::unique_ptr<GraphStore> store;
  ASSERT_TRUE(GraphStore::Create(&db, TinyGraph(), opts, &store).ok());
  const uint64_t epoch = store->mutation_epoch();
  EXPECT_TRUE(store->AddEdge({2, 1, -4}).IsInvalidArgument());
  // Nothing was written: counts, copies, minimum weight and epoch hold.
  EXPECT_EQ(store->num_edges(), 5);
  EXPECT_EQ(store->Forward().table->num_rows(), 5);
  EXPECT_EQ(store->Backward().table->num_rows(), 5);
  EXPECT_EQ(store->min_weight(), 1);
  EXPECT_EQ(store->mutation_epoch(), epoch);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, GraphStoreTest,
    ::testing::Values(IndexStrategy::kNoIndex, IndexStrategy::kIndex,
                      IndexStrategy::kCluIndex),
    [](const ::testing::TestParamInfo<IndexStrategy>& info) {
      return IndexStrategyName(info.param);
    });

TEST(GraphStoreIndexTest, StrategyGovernsAccessPaths) {
  Database db{DatabaseOptions{}};
  {
    GraphStoreOptions opts;
    opts.strategy = IndexStrategy::kNoIndex;
    opts.prefix = "n_";
    std::unique_ptr<GraphStore> store;
    ASSERT_TRUE(GraphStore::Create(&db, TinyGraph(), opts, &store).ok());
    EXPECT_FALSE(store->Forward().table->HasIndexOn("fid"));
  }
  {
    GraphStoreOptions opts;
    opts.strategy = IndexStrategy::kIndex;
    opts.prefix = "i_";
    std::unique_ptr<GraphStore> store;
    ASSERT_TRUE(GraphStore::Create(&db, TinyGraph(), opts, &store).ok());
    EXPECT_TRUE(store->Forward().table->HasIndexOn("fid"));
    EXPECT_TRUE(store->Backward().table->HasIndexOn("tid"));
    // One shared heap table in kIndex mode.
    EXPECT_EQ(store->Forward().table, store->Backward().table);
  }
  {
    GraphStoreOptions opts;
    opts.strategy = IndexStrategy::kCluIndex;
    opts.prefix = "c_";
    std::unique_ptr<GraphStore> store;
    ASSERT_TRUE(GraphStore::Create(&db, TinyGraph(), opts, &store).ok());
    EXPECT_TRUE(store->Forward().table->HasIndexOn("fid"));
    EXPECT_TRUE(store->Backward().table->HasIndexOn("tid"));
    // Two clustered copies in kCluIndex mode.
    EXPECT_NE(store->Forward().table, store->Backward().table);
  }
  // CreateKeyedTable's contract on TNodes and TVisited: a nid access path
  // under Index and CluIndex only, and TVisited's open trees exactly when
  // the strategy is not NoIndex (an open tree serves the (flag, dist) range
  // without a full scan).
  for (IndexStrategy strategy : {IndexStrategy::kNoIndex,
                                 IndexStrategy::kIndex,
                                 IndexStrategy::kCluIndex}) {
    SCOPED_TRACE(IndexStrategyName(strategy));
    const bool indexed = strategy != IndexStrategy::kNoIndex;
    Database sdb{DatabaseOptions{}};
    GraphStoreOptions opts;
    opts.strategy = strategy;
    std::unique_ptr<GraphStore> store;
    ASSERT_TRUE(GraphStore::Create(&sdb, TinyGraph(), opts, &store).ok());
    EXPECT_EQ(store->nodes()->HasIndexOn("nid"), indexed);

    std::unique_ptr<VisitedTable> visited;
    ASSERT_TRUE(
        VisitedTable::Create(&sdb, strategy, "TVisited", &visited).ok());
    Table* table = visited->table();
    EXPECT_EQ(table->HasIndexOn("nid"), indexed);
    ASSERT_TRUE(visited->InsertSourceAndTarget(0, 3).ok());
    for (const DirCols& dir :
         {VisitedTable::ForwardCols(), VisitedTable::BackwardCols()}) {
      table->ResetAccessStats();
      Table::Iterator it;
      ASSERT_TRUE(
          table->ScanRange(dir.flag, 0, dir.dist, 0, kInfinity - 1, &it).ok());
      Tuple row;
      int64_t open_rows = 0;
      while (it.Next(&row, nullptr)) open_rows++;
      EXPECT_EQ(open_rows, 1) << dir.dist;
      EXPECT_EQ(table->access_stats().full_scan_rows.load() == 0, indexed)
          << dir.dist;
    }
  }
}

TEST(GraphStoreIndexTest, PrefixAllowsMultipleGraphsPerDatabase) {
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> a, b;
  GraphStoreOptions oa, ob;
  oa.prefix = "a_";
  ob.prefix = "b_";
  ASSERT_TRUE(GraphStore::Create(&db, TinyGraph(), oa, &a).ok());
  ASSERT_TRUE(GraphStore::Create(&db, TinyGraph(), ob, &b).ok());
  // Same prefix clashes.
  std::unique_ptr<GraphStore> c;
  EXPECT_FALSE(GraphStore::Create(&db, TinyGraph(), oa, &c).ok());
}

}  // namespace
}  // namespace relgraph
