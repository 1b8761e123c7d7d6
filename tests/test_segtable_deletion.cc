// SegTable maintenance under edge deletion (paper §7 future work, the
// destructive half): removing edges one by one and applying
// ApplyEdgeDeletion must leave the same (fid, tid) -> cost map as a full
// rebuild on the final graph, and BSEG over the maintained index must stay
// correct. Mixed insert/delete sequences exercise both maintenance paths
// together.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/common/rng.h"
#include "src/core/path_finder.h"
#include "src/core/segtable.h"
#include "src/graph/generators.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace {

std::map<std::pair<node_id_t, node_id_t>, weight_t> Snapshot(Table* table) {
  std::map<std::pair<node_id_t, node_id_t>, weight_t> out;
  auto it = table->Scan();
  Tuple t;
  while (it.Next(&t, nullptr)) {
    out[{t.value(0).AsInt(), t.value(1).AsInt()}] = t.value(3).AsInt();
  }
  EXPECT_TRUE(it.status().ok());
  return out;
}

/// Builds graph+SegTable over `list`, applies `deletions` incrementally,
/// and compares against a from-scratch build on the reduced graph. The
/// maintained side runs under `strategy` (that is what is being tested);
/// the rebuild *oracle* always runs under kCluIndex — the (fid, tid) ->
/// cost map Snapshot() compares is a property of the graph alone (segment
/// costs are shortest distances, independent of access-path or scan
/// order), and the indexed build is an order of magnitude faster than the
/// NoIndex full-scan build it used to mirror.
void ExpectDeletionMatchesRebuild(const EdgeList& list,
                                  const std::vector<Edge>& deletions,
                                  weight_t lthd, IndexStrategy strategy) {
  Database db{DatabaseOptions{}};
  GraphStoreOptions gopts;
  gopts.strategy = strategy;
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, gopts, &graph).ok());
  SegTableOptions opts;
  opts.lthd = lthd;
  opts.prefix = "del_";
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), opts, &segtable).ok());

  EdgeList reduced = list;
  for (const Edge& e : deletions) {
    ASSERT_TRUE(graph->RemoveEdge(e).ok());
    int64_t changed = 0;
    ASSERT_TRUE(segtable->ApplyEdgeDeletion(graph.get(), e, &changed).ok());
    auto pos = std::find(reduced.edges.begin(), reduced.edges.end(), e);
    ASSERT_NE(pos, reduced.edges.end());
    reduced.edges.erase(pos);
  }

  Database db2{DatabaseOptions{}};
  GraphStoreOptions oracle_gopts;
  oracle_gopts.strategy = IndexStrategy::kCluIndex;
  std::unique_ptr<GraphStore> graph2;
  ASSERT_TRUE(GraphStore::Create(&db2, reduced, oracle_gopts, &graph2).ok());
  SegTableOptions oracle_opts = opts;
  std::unique_ptr<SegTable> rebuilt;
  ASSERT_TRUE(SegTable::Build(&db2, graph2.get(), oracle_opts, &rebuilt).ok());

  EXPECT_EQ(Snapshot(segtable->out_segs()), Snapshot(rebuilt->out_segs()))
      << "TOutSegs diverged";
  EXPECT_EQ(Snapshot(segtable->in_segs()), Snapshot(rebuilt->in_segs()))
      << "TInSegs diverged";
}

TEST(SegTableDeletionTest, SingleEdgeOnAPath) {
  // 0 -> 1 -> 2 -> 3 chain plus a detour 0 -> 2; deleting (1,2) must
  // reroute the (0,2), (0,3), (1,3) segments or drop them.
  EdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 2, 5}};
  ExpectDeletionMatchesRebuild(list, {{1, 2, 1}}, 10,
                               IndexStrategy::kCluIndex);
}

TEST(SegTableDeletionTest, DeletingBridgeDropsSegments) {
  // Two cliques joined by one bridge; deleting it must erase every
  // cross-clique segment.
  EdgeList list;
  list.num_nodes = 6;
  list.edges = {{0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1},
                {2, 3, 2},                        // the bridge
                {3, 4, 1}, {4, 3, 1}, {4, 5, 1}, {5, 4, 1}};
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  SegTableOptions opts;
  opts.lthd = 10;
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), opts, &segtable).ok());
  auto before = Snapshot(segtable->out_segs());
  ASSERT_TRUE(before.count({0, 5}) == 1) << "cross segment missing pre-delete";

  ASSERT_TRUE(graph->RemoveEdge({2, 3, 2}).ok());
  int64_t changed = 0;
  ASSERT_TRUE(segtable->ApplyEdgeDeletion(graph.get(), {2, 3, 2}, &changed)
                  .ok());
  EXPECT_GT(changed, 0);
  auto after = Snapshot(segtable->out_segs());
  EXPECT_EQ(after.count({0, 5}), 0u);
  EXPECT_EQ(after.count({2, 3}), 0u);
  EXPECT_EQ(after.count({0, 1}), 1u);  // intra-clique segments survive
}

TEST(SegTableDeletionTest, OverThresholdEdgeRemovesRawRows) {
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1, 2}, {1, 2, 50}};
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  SegTableOptions opts;
  opts.lthd = 6;
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), opts, &segtable).ok());
  ASSERT_EQ(Snapshot(segtable->out_segs()).count({1, 2}), 1u);

  ASSERT_TRUE(graph->RemoveEdge({1, 2, 50}).ok());
  ASSERT_TRUE(segtable->ApplyEdgeDeletion(graph.get(), {1, 2, 50}).ok());
  EXPECT_EQ(Snapshot(segtable->out_segs()).count({1, 2}), 0u);
  EXPECT_EQ(Snapshot(segtable->in_segs()).count({1, 2}), 0u);
}

TEST(SegTableDeletionTest, ParallelEdgeKeepsTheCheaperOne) {
  EdgeList list;
  list.num_nodes = 2;
  list.edges = {{0, 1, 3}, {0, 1, 7}};
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  SegTableOptions opts;
  opts.lthd = 10;
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), opts, &segtable).ok());
  EXPECT_EQ((Snapshot(segtable->out_segs())[{0, 1}]), 3);

  // Deleting the cheap copy leaves the expensive one as the segment.
  ASSERT_TRUE(graph->RemoveEdge({0, 1, 3}).ok());
  ASSERT_TRUE(segtable->ApplyEdgeDeletion(graph.get(), {0, 1, 3}).ok());
  EXPECT_EQ((Snapshot(segtable->out_segs())[{0, 1}]), 7);
}

TEST(SegTableDeletionTest, RemoveEdgeNotFound) {
  EdgeList list;
  list.num_nodes = 2;
  list.edges = {{0, 1, 3}};
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  EXPECT_TRUE(graph->RemoveEdge({0, 1, 4}).IsNotFound());  // wrong weight
  EXPECT_TRUE(graph->RemoveEdge({1, 0, 3}).IsNotFound());  // wrong direction
  EXPECT_TRUE(graph->RemoveEdge({0, 1, 3}).ok());
  EXPECT_EQ(graph->num_edges(), 0);
}

class SegTableDeletionRandomTest
    : public ::testing::TestWithParam<std::tuple<IndexStrategy, uint64_t>> {};

TEST_P(SegTableDeletionRandomTest, MatchesRebuildOnRandomDeletions) {
  const auto& [strategy, seed] = GetParam();
  // NoIndex pays a full edge-table scan per settled ball node during
  // maintenance; a smaller instance keeps the same property under test
  // while staying inside the suite's time budget.
  const int64_t nodes = strategy == IndexStrategy::kNoIndex ? 48 : 90;
  EdgeList list = GenerateBarabasiAlbert(nodes, 3, WeightRange{1, 20}, seed);
  // Delete 10 random edges (distinct positions).
  Rng rng(seed + 99);
  std::vector<Edge> deletions;
  EdgeList remaining = list;
  for (int i = 0; i < 10 && !remaining.edges.empty(); i++) {
    size_t pos = rng.NextInt(0, static_cast<int64_t>(remaining.edges.size()) - 1);
    deletions.push_back(remaining.edges[pos]);
    remaining.edges.erase(remaining.edges.begin() + pos);
  }
  ExpectDeletionMatchesRebuild(list, deletions, 25, strategy);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, SegTableDeletionRandomTest,
    ::testing::Combine(::testing::Values(IndexStrategy::kCluIndex,
                                         IndexStrategy::kIndex,
                                         IndexStrategy::kNoIndex),
                       ::testing::Values(41u, 42u)),
    [](const auto& info) {
      return std::string(IndexStrategyName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SegTableDeletionTest, MixedInsertDeleteMatchesRebuild) {
  // Interleave insertions and deletions under every index strategy, then
  // compare to a fresh kCluIndex build of the final graph.
  for (IndexStrategy strategy :
       {IndexStrategy::kCluIndex, IndexStrategy::kIndex,
        IndexStrategy::kNoIndex}) {
    SCOPED_TRACE(IndexStrategyName(strategy));
    // NoIndex reads every key range with a full scan; a smaller graph keeps
    // the same property under test within the suite's time budget.
    const int64_t nodes = strategy == IndexStrategy::kNoIndex ? 48 : 80;
    EdgeList list = GenerateBarabasiAlbert(nodes, 3, WeightRange{1, 15}, 7);
    EdgeList base = list;
    std::vector<Edge> held(base.edges.end() - 8, base.edges.end());
    base.edges.resize(base.edges.size() - 8);

    Database db{DatabaseOptions{}};
    GraphStoreOptions gopts;
    gopts.strategy = strategy;
    std::unique_ptr<GraphStore> graph;
    ASSERT_TRUE(GraphStore::Create(&db, base, gopts, &graph).ok());
    SegTableOptions opts;
    opts.lthd = 20;
    opts.prefix = "mix_";
    std::unique_ptr<SegTable> segtable;
    ASSERT_TRUE(SegTable::Build(&db, graph.get(), opts, &segtable).ok());

    EdgeList current = base;
    Rng rng(123);
    for (size_t i = 0; i < held.size(); i++) {
      // Insert a held-out edge...
      ASSERT_TRUE(graph->AddEdge(held[i]).ok());
      Status st = segtable->ApplyEdgeInsertion(held[i]);
      ASSERT_TRUE(st.ok()) << st.ToString();
      current.edges.push_back(held[i]);
      // ...and delete a random existing one.
      size_t pos =
          rng.NextInt(0, static_cast<int64_t>(current.edges.size()) - 1);
      Edge victim = current.edges[pos];
      ASSERT_TRUE(graph->RemoveEdge(victim).ok());
      st = segtable->ApplyEdgeDeletion(graph.get(), victim);
      ASSERT_TRUE(st.ok()) << st.ToString();
      current.edges.erase(current.edges.begin() + pos);
    }

    Database db2{DatabaseOptions{}};
    std::unique_ptr<GraphStore> graph2;
    ASSERT_TRUE(
        GraphStore::Create(&db2, current, GraphStoreOptions{}, &graph2).ok());
    SegTableOptions oracle_opts = opts;
    std::unique_ptr<SegTable> rebuilt;
    ASSERT_TRUE(
        SegTable::Build(&db2, graph2.get(), oracle_opts, &rebuilt).ok());
    EXPECT_EQ(Snapshot(segtable->out_segs()), Snapshot(rebuilt->out_segs()));
    EXPECT_EQ(Snapshot(segtable->in_segs()), Snapshot(rebuilt->in_segs()));
  }
}

TEST(SegTableDeletionTest, BsegCorrectAfterDeletions) {
  EdgeList list = GenerateBarabasiAlbert(130, 3, WeightRange{1, 100}, 19);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  SegTableOptions opts;
  opts.lthd = 30;
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), opts, &segtable).ok());

  EdgeList reduced = list;
  Rng rng(55);
  for (int i = 0; i < 12; i++) {
    size_t pos = rng.NextInt(0, static_cast<int64_t>(reduced.edges.size()) - 1);
    Edge victim = reduced.edges[pos];
    ASSERT_TRUE(graph->RemoveEdge(victim).ok());
    ASSERT_TRUE(segtable->ApplyEdgeDeletion(graph.get(), victim).ok());
    reduced.edges.erase(reduced.edges.begin() + pos);
  }

  MemGraph mem(reduced);  // oracle over the REDUCED graph
  PathFinderOptions popts;
  popts.algorithm = Algorithm::kBSEG;
  std::unique_ptr<PathFinder> finder;
  ASSERT_TRUE(
      PathFinder::Create(graph.get(), popts, &finder, segtable.get()).ok());
  for (int q = 0; q < 8; q++) {
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    MemPathResult oracle = mem.Dijkstra(s, t);
    PathQueryResult result;
    ASSERT_TRUE(finder->Find(s, t, &result).ok());
    ASSERT_EQ(result.found, oracle.found) << "s=" << s << " t=" << t;
    if (oracle.found) {
      EXPECT_EQ(result.distance, oracle.distance) << "s=" << s << " t=" << t;
      ASSERT_FALSE(result.path.empty()) << "s=" << s << " t=" << t;
      EXPECT_EQ(result.path.front(), s);
      EXPECT_EQ(result.path.back(), t);
      EXPECT_EQ(mem.PathLength(result.path), result.distance)
          << "s=" << s << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace relgraph
