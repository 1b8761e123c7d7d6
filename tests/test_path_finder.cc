#include "src/core/path_finder.h"

#include <gtest/gtest.h>

#include "src/core/segtable.h"
#include "src/graph/generators.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace {

/// The running example of the paper's Figure 1: 12 nodes s,b,c,...,t.
EdgeList PaperFigure1Graph() {
  // Node ids: s=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 t=10 (plus 11 unused
  // spare to keep ids dense).
  EdgeList list;
  list.num_nodes = 12;
  auto add = [&](node_id_t u, node_id_t v, weight_t w) {
    list.edges.push_back({u, v, w});
    list.edges.push_back({v, u, w});
  };
  add(0, 3, 6);   // s-d
  add(0, 2, 1);   // s-c  (paper: c reached from s with d2s=1)
  add(0, 1, 2);   // s-b
  add(3, 2, 1);   // d-c
  add(2, 4, 3);   // c-e
  add(1, 4, 2);   // b-e
  add(4, 5, 7);   // e-f
  add(4, 6, 3);   // e-g
  add(4, 7, 8);   // e-h
  add(5, 7, 4);   // f-h
  add(6, 7, 9);   // g-h
  add(7, 10, 3);  // h-t
  add(3, 8, 7);   // d-i
  add(8, 9, 2);   // i-j
  add(9, 10, 8);  // j-t
  add(1, 5, 5);   // b-f (extra connectivity)
  return list;
}

struct Fixture {
  explicit Fixture(IndexStrategy strategy = IndexStrategy::kCluIndex) {
    DatabaseOptions opts;
    opts.in_memory = true;
    db = std::make_unique<Database>(opts);
    EdgeList list = PaperFigure1Graph();
    mem = std::make_unique<MemGraph>(list);
    GraphStoreOptions gopts;
    gopts.strategy = strategy;
    Status st = GraphStore::Create(db.get(), list, gopts, &graph);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  std::unique_ptr<Database> db;
  std::unique_ptr<MemGraph> mem;
  std::unique_ptr<GraphStore> graph;
};

TEST(PathFinderTest, DjFindsPaperExamplePath) {
  Fixture fx;
  PathFinderOptions opts;
  opts.algorithm = Algorithm::kDJ;
  std::unique_ptr<PathFinder> finder;
  ASSERT_TRUE(PathFinder::Create(fx.graph.get(), opts, &finder).ok());

  PathQueryResult result;
  Status st = finder->Find(0, 10, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(result.found);
  MemPathResult oracle = fx.mem->Dijkstra(0, 10);
  EXPECT_EQ(result.distance, oracle.distance);
  EXPECT_EQ(fx.mem->PathLength(result.path), result.distance);
  EXPECT_EQ(result.path.front(), 0);
  EXPECT_EQ(result.path.back(), 10);
}

TEST(PathFinderTest, AllAlgorithmsAgreeOnPaperExample) {
  Fixture fx;
  MemPathResult oracle = fx.mem->Dijkstra(0, 10);
  SegTableOptions sopts;
  sopts.lthd = 6;  // the paper's Figure 4 threshold
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(
      SegTable::Build(fx.db.get(), fx.graph.get(), sopts, &segtable).ok());

  for (Algorithm algo : {Algorithm::kDJ, Algorithm::kBDJ, Algorithm::kBSDJ,
                         Algorithm::kBBFS, Algorithm::kBSEG}) {
    PathFinderOptions opts;
    opts.algorithm = algo;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(
        PathFinder::Create(fx.graph.get(), opts, &finder, segtable.get()).ok());
    PathQueryResult result;
    Status st = finder->Find(0, 10, &result);
    ASSERT_TRUE(st.ok()) << AlgorithmName(algo) << ": " << st.ToString();
    ASSERT_TRUE(result.found) << AlgorithmName(algo);
    EXPECT_EQ(result.distance, oracle.distance) << AlgorithmName(algo);
    EXPECT_EQ(fx.mem->PathLength(result.path), result.distance)
        << AlgorithmName(algo);
  }
}

TEST(PathFinderTest, SourceEqualsTarget) {
  Fixture fx;
  PathFinderOptions opts;
  opts.algorithm = Algorithm::kBSDJ;
  std::unique_ptr<PathFinder> finder;
  ASSERT_TRUE(PathFinder::Create(fx.graph.get(), opts, &finder).ok());
  PathQueryResult result;
  ASSERT_TRUE(finder->Find(4, 4, &result).ok());
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.distance, 0);
  EXPECT_EQ(result.path, std::vector<node_id_t>({4}));
}

TEST(PathFinderTest, UnreachableTargetReportsNotFound) {
  EdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 5}, {1, 0, 5}, {2, 3, 5}, {3, 2, 5}};
  DatabaseOptions dopts;
  Database db(dopts);
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  for (Algorithm algo : {Algorithm::kDJ, Algorithm::kBDJ, Algorithm::kBSDJ,
                         Algorithm::kBBFS}) {
    PathFinderOptions opts;
    opts.algorithm = algo;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(PathFinder::Create(graph.get(), opts, &finder).ok());
    PathQueryResult result;
    Status st = finder->Find(0, 3, &result);
    ASSERT_TRUE(st.ok()) << AlgorithmName(algo) << ": " << st.ToString();
    EXPECT_FALSE(result.found) << AlgorithmName(algo);
  }
}

TEST(PathFinderTest, StatsArePopulated) {
  Fixture fx;
  PathFinderOptions opts;
  opts.algorithm = Algorithm::kBSDJ;
  std::unique_ptr<PathFinder> finder;
  ASSERT_TRUE(PathFinder::Create(fx.graph.get(), opts, &finder).ok());
  PathQueryResult result;
  ASSERT_TRUE(finder->Find(0, 10, &result).ok());
  EXPECT_GT(result.stats.expansions, 0);
  EXPECT_GT(result.stats.statements, 0);
  EXPECT_GT(result.stats.visited_rows, 0);
  EXPECT_GT(result.stats.path_expansion_us, 0);
  EXPECT_GE(result.stats.total_us, result.stats.path_expansion_us);
}

// The timed parts of a query never add up to more than the query: F, E and
// M operator time, auxiliary statements and path recovery are disjoint
// slices of total_us (the meeting-node statement belongs to recovery).
//
// Graph: s fans out to every other node at cost 1, and every fan node
// reaches t at cost 100 except the last, at cost 1. s and t carry the two
// highest ids, so under CluIndex (TVisited clustered by nid) the meeting
// node is the last fan row a scan reaches: finding it reads the whole fan,
// which makes it long enough that counting it twice would show.
TEST(PathFinderTest, TimedPartsNeverExceedTotal) {
  const node_id_t kFan = 600;
  const node_id_t s = kFan, t = kFan + 1;
  EdgeList list;
  list.num_nodes = kFan + 2;
  for (node_id_t v = 0; v < kFan; v++) {
    list.edges.push_back({s, v, 1});
    list.edges.push_back({v, t, v == kFan - 1 ? 1 : 100});
  }
  for (IndexStrategy strategy : {IndexStrategy::kNoIndex, IndexStrategy::kIndex,
                                 IndexStrategy::kCluIndex}) {
    Database db{DatabaseOptions{}};
    std::unique_ptr<GraphStore> graph;
    GraphStoreOptions gopts;
    gopts.strategy = strategy;
    ASSERT_TRUE(GraphStore::Create(&db, list, gopts, &graph).ok());
    std::unique_ptr<SegTable> segtable;
    ASSERT_TRUE(
        SegTable::Build(&db, graph.get(), SegTableOptions{}, &segtable).ok());
    for (Algorithm algo : {Algorithm::kDJ, Algorithm::kBDJ, Algorithm::kBSDJ,
                           Algorithm::kBBFS, Algorithm::kBSEG}) {
      PathFinderOptions opts;
      opts.algorithm = algo;
      std::unique_ptr<PathFinder> finder;
      ASSERT_TRUE(
          PathFinder::Create(graph.get(), opts, &finder, segtable.get()).ok());
      PathQueryResult r;
      ASSERT_TRUE(finder->Find(s, t, &r).ok());
      ASSERT_TRUE(r.found);
      EXPECT_EQ(r.distance, 2);
      const QueryStats& q = r.stats;
      const int64_t parts = q.f_operator_us + q.e_operator_us +
                            q.m_operator_us + q.stat_collection_us +
                            q.path_recovery_us;
      EXPECT_LE(parts, q.total_us)
          << AlgorithmName(algo) << "/" << IndexStrategyName(strategy)
          << ": f=" << q.f_operator_us << " e=" << q.e_operator_us
          << " m=" << q.m_operator_us << " aux=" << q.stat_collection_us
          << " recovery=" << q.path_recovery_us << " total=" << q.total_us;
    }
  }
}

TEST(PathFinderTest, TsqlModeMatchesNsql) {
  Fixture fx;
  for (SqlMode mode : {SqlMode::kNsql, SqlMode::kTsql}) {
    PathFinderOptions opts;
    opts.algorithm = Algorithm::kBSDJ;
    opts.sql_mode = mode;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(PathFinder::Create(fx.graph.get(), opts, &finder).ok());
    PathQueryResult result;
    ASSERT_TRUE(finder->Find(0, 10, &result).ok());
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.distance, fx.mem->Dijkstra(0, 10).distance)
        << SqlModeName(mode);
  }
}

TEST(PathFinderTest, WorksUnderEveryIndexStrategy) {
  for (IndexStrategy strategy : {IndexStrategy::kNoIndex, IndexStrategy::kIndex,
                                 IndexStrategy::kCluIndex}) {
    Fixture fx(strategy);
    PathFinderOptions opts;
    opts.algorithm = Algorithm::kBSDJ;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(PathFinder::Create(fx.graph.get(), opts, &finder).ok());
    PathQueryResult result;
    Status st = finder->Find(0, 10, &result);
    ASSERT_TRUE(st.ok()) << IndexStrategyName(strategy) << ": "
                         << st.ToString();
    ASSERT_TRUE(result.found) << IndexStrategyName(strategy);
    EXPECT_EQ(result.distance, fx.mem->Dijkstra(0, 10).distance)
        << IndexStrategyName(strategy);
  }
}

}  // namespace
}  // namespace relgraph
