#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/core/pattern_match.h"
#include "src/core/prim_mst.h"
#include "src/graph/generators.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace {

/// Reference MST weight via Kruskal with a union-find.
weight_t KruskalWeight(const EdgeList& list) {
  std::vector<node_id_t> parent(list.num_nodes);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<node_id_t(node_id_t)> find = [&](node_id_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<Edge> edges = list.edges;
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.weight < b.weight; });
  weight_t total = 0;
  for (const auto& e : edges) {
    node_id_t ra = find(e.from), rb = find(e.to);
    if (ra == rb) continue;
    parent[ra] = rb;
    total += e.weight;
  }
  return total;
}

TEST(PrimMstTest, MatchesKruskalOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    EdgeList list = GenerateBarabasiAlbert(120, 3, WeightRange{1, 100}, seed);
    Database db{DatabaseOptions{}};
    std::unique_ptr<GraphStore> graph;
    ASSERT_TRUE(
        GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
    MstResult result;
    ASSERT_TRUE(PrimMst::Run(graph.get(), SqlMode::kNsql, 0, &result).ok());
    ASSERT_TRUE(result.connected);
    EXPECT_EQ(result.total_weight, KruskalWeight(list)) << "seed=" << seed;
    EXPECT_EQ(result.tree_edges.size(),
              static_cast<size_t>(list.num_nodes - 1));
  }
}

TEST(PrimMstTest, TreeEdgesAreRealEdges) {
  EdgeList list = GenerateBarabasiAlbert(80, 3, WeightRange{1, 50}, 9);
  MemGraph mem(list);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  MstResult result;
  ASSERT_TRUE(PrimMst::Run(graph.get(), SqlMode::kNsql, 0, &result).ok());
  for (const auto& e : result.tree_edges) {
    // (parent, child, w) must exist in the graph with exactly weight w.
    bool found = false;
    for (const auto& n : mem.OutNeighbors(e.from)) {
      if (n.node == e.to && n.weight == e.weight) found = true;
    }
    EXPECT_TRUE(found) << e.from << "->" << e.to << " w=" << e.weight;
  }
}

/// The three plan families must build the same tree, edge for edge and
/// statement for statement: NSQL (window dedup, one MERGE), TSQL (GROUP BY
/// + MIN re-join, UPDATE then INSERT) and NSQL on the PostgreSQL 9.0
/// profile (window dedup, UPDATE then INSERT). The counts are pinned; an
/// update+insert pair counts one statement more per iteration than MERGE.
TEST(PrimMstTest, TsqlModeAgrees) {
  const EdgeList list = GenerateBarabasiAlbert(60, 3, WeightRange{1, 100}, 4);
  struct Plan {
    SqlMode mode;
    EngineProfile profile;
    int64_t statements;
  };
  const Plan plans[] = {{SqlMode::kNsql, EngineProfile::kDbmsX, 243},
                        {SqlMode::kTsql, EngineProfile::kDbmsX, 303},
                        {SqlMode::kNsql, EngineProfile::kPostgres90, 303}};
  for (IndexStrategy strategy : {IndexStrategy::kCluIndex,
                                  IndexStrategy::kIndex,
                                  IndexStrategy::kNoIndex}) {
    std::vector<MstResult> results;
    for (const Plan& plan : plans) {
      SCOPED_TRACE(std::string(IndexStrategyName(strategy)) + "/" +
                   SqlModeName(plan.mode) +
                   (plan.profile == EngineProfile::kPostgres90 ? "/pg" : ""));
      DatabaseOptions dopts;
      dopts.profile = plan.profile;
      Database db(dopts);
      std::unique_ptr<GraphStore> graph;
      GraphStoreOptions gopts;
      gopts.strategy = strategy;
      ASSERT_TRUE(GraphStore::Create(&db, list, gopts, &graph).ok());
      MstResult r;
      ASSERT_TRUE(PrimMst::Run(graph.get(), plan.mode, 0, &r).ok());
      EXPECT_TRUE(r.connected);
      EXPECT_EQ(r.total_weight, 1420);
      EXPECT_EQ(r.total_weight, KruskalWeight(list));
      EXPECT_EQ(r.tree_edges.size(), 59u);
      EXPECT_EQ(r.iterations, 60);
      EXPECT_EQ(r.statements, plan.statements);
      results.push_back(std::move(r));
    }
    for (size_t i = 1; i < results.size(); i++) {
      ASSERT_EQ(results[i].tree_edges.size(), results[0].tree_edges.size());
      for (size_t e = 0; e < results[0].tree_edges.size(); e++) {
        const Edge& want = results[0].tree_edges[e];
        const Edge& got = results[i].tree_edges[e];
        EXPECT_EQ(got.from, want.from) << "plan " << i << " edge " << e;
        EXPECT_EQ(got.to, want.to) << "plan " << i << " edge " << e;
        EXPECT_EQ(got.weight, want.weight) << "plan " << i << " edge " << e;
      }
    }
  }
}

/// With weights 1-3 most rounds tie on the cheapest attachment cost, and
/// the candidate picked decides the tree. The pick goes to the first tied
/// candidate in the tree table's scan order: nid order when clustered,
/// insertion order on a heap (the open tree orders ties by row locator,
/// which in a fresh database is the same order). The trees are pinned in
/// harvest order as the full-scan MIN + TOP 1 plan built them.
TEST(PrimMstTest, TiedWeightsPickTheScanOrderTree) {
  const EdgeList list = GenerateBarabasiAlbert(24, 2, WeightRange{1, 3}, 5);
  struct Want {
    IndexStrategy strategy;
    const char* tree;  // "parent>child:w" per tree edge, in harvest order
  };
  const char* kClustered =
      "0>1:1 1>2:2 0>3:1 0>4:2 0>5:1 0>6:1 1>7:2 0>8:3 0>9:1 "
      "0>10:2 0>11:2 5>12:1 0>13:2 1>14:2 2>15:1 7>16:2 13>17:2 "
      "5>18:1 1>19:2 0>20:1 6>21:1 18>22:3 0>23:1";
  const char* kHeap =
      "0>1:1 0>3:1 0>4:2 0>5:1 0>6:1 0>8:3 0>9:1 0>10:2 0>11:2 "
      "5>12:1 0>13:2 1>14:2 0>20:1 0>23:1 1>2:2 1>7:2 7>16:2 "
      "1>19:2 2>15:1 5>18:1 6>21:1 20>22:3 13>17:2";
  const Want wants[] = {
      {IndexStrategy::kCluIndex, kClustered},
      {IndexStrategy::kIndex, kHeap},
      {IndexStrategy::kNoIndex, kHeap},
  };
  for (const Want& want : wants) {
    SCOPED_TRACE(IndexStrategyName(want.strategy));
    Database db{DatabaseOptions{}};
    std::unique_ptr<GraphStore> graph;
    GraphStoreOptions gopts;
    gopts.strategy = want.strategy;
    ASSERT_TRUE(GraphStore::Create(&db, list, gopts, &graph).ok());
    MstResult r;
    ASSERT_TRUE(PrimMst::Run(graph.get(), SqlMode::kNsql, 0, &r).ok());
    ASSERT_TRUE(r.connected);
    EXPECT_EQ(r.total_weight, KruskalWeight(list));
    std::string tree;
    for (const Edge& e : r.tree_edges) {
      if (!tree.empty()) tree += ' ';
      tree.append(std::to_string(e.from))
          .append(">")
          .append(std::to_string(e.to))
          .append(":")
          .append(std::to_string(e.weight));
    }
    EXPECT_EQ(tree, want.tree);
  }
}

TEST(PrimMstTest, DisconnectedGraphReportsNotConnected) {
  EdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 1}, {1, 0, 1}, {2, 3, 1}, {3, 2, 1}};
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  MstResult result;
  ASSERT_TRUE(PrimMst::Run(graph.get(), SqlMode::kNsql, 0, &result).ok());
  EXPECT_FALSE(result.connected);
  EXPECT_EQ(result.tree_edges.size(), 1u);  // only {0,1} reached
}

// ------------------------------------------------------- pattern matching

TEST(PatternMatchTest, FindsLabelPaths) {
  // GraphStore assigns label = nid % 16; build a tiny graph with known ids.
  EdgeList list;
  list.num_nodes = 6;
  // 0(l0) -> 1(l1) -> 2(l2); 0 -> 17? ids < 6 so labels are ids here.
  list.edges = {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 1, 1}, {1, 4, 1}};
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());

  PatternMatchResult result;
  ASSERT_TRUE(
      LabelPathMatcher::Run(graph.get(), {0, 1, 2}, 10, &result).ok());
  ASSERT_EQ(result.count, 1);
  EXPECT_EQ(result.matches[0], (std::vector<node_id_t>{0, 1, 2}));
  EXPECT_EQ(result.iterations, 2);
}

TEST(PatternMatchTest, MatchesAgainstBruteForce) {
  EdgeList list = GenerateRandomGraph(64, 300, WeightRange{1, 1}, 77);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  MemGraph mem(list);

  std::vector<int64_t> labels = {3, 7, 1};
  // Brute force over all 2-hop paths.
  int64_t expected = 0;
  for (node_id_t a = 0; a < list.num_nodes; a++) {
    if (a % 16 != labels[0]) continue;
    for (const auto& n1 : mem.OutNeighbors(a)) {
      if (n1.node % 16 != labels[1]) continue;
      for (const auto& n2 : mem.OutNeighbors(n1.node)) {
        if (n2.node % 16 == labels[2]) expected++;
      }
    }
  }
  PatternMatchResult result;
  ASSERT_TRUE(LabelPathMatcher::Run(graph.get(), labels, 1'000'000, &result)
                  .ok());
  EXPECT_EQ(result.count, expected);
}

TEST(PatternMatchTest, LimitCapsReturnedMatchesNotCount) {
  EdgeList list = GenerateRandomGraph(64, 600, WeightRange{1, 1}, 5);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  PatternMatchResult all, capped;
  ASSERT_TRUE(LabelPathMatcher::Run(graph.get(), {1, 2}, 1'000'000, &all).ok());
  ASSERT_TRUE(LabelPathMatcher::Run(graph.get(), {1, 2}, 2, &capped).ok());
  EXPECT_EQ(all.count, capped.count);
  if (all.count >= 2) {
    EXPECT_EQ(capped.matches.size(), 2u);
  }
}

TEST(PatternMatchTest, SingleLabelPatternListsNodes) {
  EdgeList list;
  list.num_nodes = 40;
  list.edges = {{0, 1, 1}};
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  PatternMatchResult result;
  ASSERT_TRUE(LabelPathMatcher::Run(graph.get(), {5}, 100, &result).ok());
  EXPECT_EQ(result.count, 3);  // nodes 5, 21, 37
  PatternMatchResult empty;
  EXPECT_TRUE(LabelPathMatcher::Run(graph.get(), {}, 100, &empty)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace relgraph
