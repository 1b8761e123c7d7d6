// Cross-module integration scenarios: several graphs and finders sharing
// one database, repeated querying, statement-count formulas, recovered
// paths validated hop by hop through SegTable interiors, and the
// statement-latency simulation knob.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/path_finder.h"
#include "src/core/segtable.h"
#include "src/graph/generators.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace {

TEST(IntegrationTest, TwoGraphsAndManyFindersShareOneDatabase) {
  Database db{DatabaseOptions{}};
  EdgeList a = GenerateBarabasiAlbert(150, 3, WeightRange{1, 50}, 1);
  EdgeList b = GenerateGridGraph(10, 15, WeightRange{1, 9}, 2);
  MemGraph mem_a(a), mem_b(b);

  GraphStoreOptions oa{.prefix = "a_"};
  GraphStoreOptions ob{.prefix = "b_"};
  std::unique_ptr<GraphStore> ga, gb;
  ASSERT_TRUE(GraphStore::Create(&db, a, oa, &ga).ok());
  ASSERT_TRUE(GraphStore::Create(&db, b, ob, &gb).ok());

  std::unique_ptr<PathFinder> fa, fb;
  PathFinderOptions opts;
  opts.algorithm = Algorithm::kBSDJ;
  ASSERT_TRUE(PathFinder::Create(ga.get(), opts, &fa).ok());
  ASSERT_TRUE(PathFinder::Create(gb.get(), opts, &fb).ok());

  // Interleave queries: the finders' TVisited tables must not interfere.
  Rng rng(3);
  for (int i = 0; i < 5; i++) {
    node_id_t s1 = rng.NextInt(0, a.num_nodes - 1);
    node_id_t t1 = rng.NextInt(0, a.num_nodes - 1);
    node_id_t s2 = rng.NextInt(0, b.num_nodes - 1);
    node_id_t t2 = rng.NextInt(0, b.num_nodes - 1);
    PathQueryResult r1, r2;
    ASSERT_TRUE(fa->Find(s1, t1, &r1).ok());
    ASSERT_TRUE(fb->Find(s2, t2, &r2).ok());
    MemPathResult o1 = mem_a.Dijkstra(s1, t1);
    MemPathResult o2 = mem_b.Dijkstra(s2, t2);
    EXPECT_EQ(r1.found, o1.found);
    EXPECT_EQ(r2.found, o2.found);
    if (o1.found) {
      EXPECT_EQ(r1.distance, o1.distance);
    }
    if (o2.found) {
      EXPECT_EQ(r2.distance, o2.distance);
    }
  }
}

TEST(IntegrationTest, RepeatedQueriesResetVisitedState) {
  EdgeList list = GenerateBarabasiAlbert(200, 3, WeightRange{1, 100}, 4);
  MemGraph mem(list);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<PathFinder> finder;
  PathFinderOptions opts;
  opts.algorithm = Algorithm::kBSDJ;
  ASSERT_TRUE(PathFinder::Create(graph.get(), opts, &finder).ok());

  // Same query twice and a different query in between: identical answers,
  // and TVisited never leaks rows between queries.
  PathQueryResult first, middle, again;
  ASSERT_TRUE(finder->Find(5, 150, &first).ok());
  ASSERT_TRUE(finder->Find(150, 5, &middle).ok());
  ASSERT_TRUE(finder->Find(5, 150, &again).ok());
  EXPECT_EQ(first.found, again.found);
  EXPECT_EQ(first.distance, again.distance);
  EXPECT_EQ(first.path, again.path);
  EXPECT_EQ(first.stats.visited_rows, again.stats.visited_rows);
}

TEST(IntegrationTest, DjStatementCountMatchesListingFormula) {
  // Algorithm 1 issues a fixed statement pattern per iteration: PickMid,
  // MarkFrontier, Expand+Merge, Finalize, termination probe = 5, plus the
  // initial truncate + seed insert.
  EdgeList list = GenerateBarabasiAlbert(100, 3, WeightRange{1, 100}, 6);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<PathFinder> finder;
  PathFinderOptions opts;
  opts.algorithm = Algorithm::kDJ;
  ASSERT_TRUE(PathFinder::Create(graph.get(), opts, &finder).ok());
  PathQueryResult r;
  ASSERT_TRUE(finder->Find(0, 57, &r).ok());
  ASSERT_TRUE(r.found);
  // statements = 2 (reset+seed) + 5 * expansions + recovery statements.
  EXPECT_GE(r.stats.statements, 2 + 5 * r.stats.expansions);
  EXPECT_LE(r.stats.statements,
            2 + 5 * r.stats.expansions +
                2 * static_cast<int64_t>(r.path.size()) + 4);
}

TEST(IntegrationTest, RecoveredSegPathsTraverseSegmentInteriors) {
  // With a large lthd most hops come from multi-edge segments; the
  // recovered path must still be edge-by-edge valid on the base graph and
  // strictly longer (in hops) than the TVisited row count suggests.
  EdgeList list = GenerateBarabasiAlbert(200, 2, WeightRange{1, 10}, 8);
  MemGraph mem(list);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  SegTableOptions sopts;
  sopts.lthd = 40;
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), sopts, &segtable).ok());
  std::unique_ptr<PathFinder> finder;
  PathFinderOptions opts;
  opts.algorithm = Algorithm::kBSEG;
  ASSERT_TRUE(
      PathFinder::Create(graph.get(), opts, &finder, segtable.get()).ok());

  Rng rng(11);
  int multi_hop_segments = 0;
  for (int q = 0; q < 8; q++) {
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    MemPathResult oracle = mem.Dijkstra(s, t);
    PathQueryResult r;
    ASSERT_TRUE(finder->Find(s, t, &r).ok());
    ASSERT_EQ(r.found, oracle.found);
    if (!r.found) continue;
    ASSERT_EQ(r.distance, oracle.distance);
    // Hop-by-hop validity on the ORIGINAL graph.
    ASSERT_EQ(mem.PathLength(r.path), r.distance);
    // Hops not present in TVisited prove interior recovery ran.
    if (static_cast<int64_t>(r.path.size()) > r.stats.visited_rows) {
      multi_hop_segments++;
    }
  }
  (void)multi_hop_segments;  // informational; zero is legal on some seeds
}

TEST(IntegrationTest, StatementLatencyKnobScalesWithStatements) {
  EdgeList list = GenerateBarabasiAlbert(120, 3, WeightRange{1, 100}, 9);
  auto run = [&](int64_t latency_us) {
    DatabaseOptions dopts;
    dopts.simulated_statement_latency_us = latency_us;
    Database db(dopts);
    std::unique_ptr<GraphStore> graph;
    EXPECT_TRUE(
        GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
    std::unique_ptr<PathFinder> finder;
    PathFinderOptions opts;
    opts.algorithm = Algorithm::kBSDJ;
    EXPECT_TRUE(PathFinder::Create(graph.get(), opts, &finder).ok());
    PathQueryResult r;
    EXPECT_TRUE(finder->Find(0, 99, &r).ok());
    return r;
  };
  PathQueryResult fast = run(0);
  PathQueryResult slow = run(1000);
  // The knob only adds latency: the statement sequence and the answer are
  // the same with and without it.
  EXPECT_EQ(fast.stats.statements, slow.stats.statements);
  EXPECT_EQ(fast.distance, slow.distance);
  // With 1 ms per statement the query time must be at least
  // statements * 1 ms. (No ratio against the no-latency run's wall clock:
  // that one is at the mercy of the machine's load.)
  ASSERT_GT(slow.stats.statements, 0);
  EXPECT_GE(slow.stats.total_us, slow.stats.statements * 1000);
}

TEST(IntegrationTest, DynamicGraphWithLiveBsdjQueries) {
  // The RDB selling point (§1, §7): dynamic changes. Insert edges and
  // re-query; answers must track the oracle after every change.
  EdgeList list = GenerateBarabasiAlbert(100, 2, WeightRange{10, 90}, 10);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<PathFinder> finder;
  PathFinderOptions opts;
  opts.algorithm = Algorithm::kBSDJ;
  ASSERT_TRUE(PathFinder::Create(graph.get(), opts, &finder).ok());

  Rng rng(13);
  for (int round = 0; round < 5; round++) {
    Edge e{rng.NextInt(0, 99), rng.NextInt(0, 99), rng.NextInt(1, 5)};
    if (e.from == e.to) e.to = (e.to + 1) % 100;
    ASSERT_TRUE(graph->AddEdge(e).ok());
    list.edges.push_back(e);
    MemGraph mem(list);
    node_id_t s = rng.NextInt(0, 99), t = rng.NextInt(0, 99);
    MemPathResult oracle = mem.Dijkstra(s, t);
    PathQueryResult r;
    ASSERT_TRUE(finder->Find(s, t, &r).ok());
    ASSERT_EQ(r.found, oracle.found) << "round " << round;
    if (oracle.found) {
      EXPECT_EQ(r.distance, oracle.distance) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace relgraph
