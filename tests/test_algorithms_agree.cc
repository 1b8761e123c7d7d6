#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/core/path_finder.h"
#include "src/core/segtable.h"
#include "src/graph/generators.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace {

struct GraphCase {
  const char* name;
  EdgeList (*make)(uint64_t seed);
};

EdgeList SmallPower(uint64_t seed) {
  return GenerateBarabasiAlbert(220, 2, WeightRange{1, 100}, seed);
}
EdgeList SmallRandom(uint64_t seed) {
  return GenerateRandomGraph(200, 700, WeightRange{1, 100}, seed);
}
EdgeList SmallGrid(uint64_t seed) {
  return GenerateGridGraph(12, 14, WeightRange{1, 20}, seed);
}
EdgeList SmallCommunity(uint64_t seed) {
  return GenerateCommunityGraph(180, 4, 8, 0.8, WeightRange{1, 50}, seed);
}
EdgeList UnitWeights(uint64_t seed) {
  return GenerateRandomGraph(150, 600, WeightRange{1, 1}, seed);
}

const GraphCase kCases[] = {
    {"power", SmallPower},       {"random", SmallRandom},
    {"grid", SmallGrid},         {"community", SmallCommunity},
    {"unit_weights", UnitWeights},
};

class AlgorithmsAgreeTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

/// All five relational finders, both SQL modes on BSDJ, and both in-memory
/// baselines must return the same shortest distance as the oracle, and
/// every recovered path must be a valid path of exactly that length.
TEST_P(AlgorithmsAgreeTest, DistancesAndPathsMatchOracle) {
  const auto& [case_idx, seed] = GetParam();
  const GraphCase& gc = kCases[case_idx];
  EdgeList list = gc.make(seed);
  MemGraph mem(list);

  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());

  SegTableOptions sopts;
  sopts.lthd = 30;
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), sopts, &segtable).ok());

  std::vector<std::unique_ptr<PathFinder>> finders;
  for (Algorithm algo : {Algorithm::kDJ, Algorithm::kBDJ, Algorithm::kBSDJ,
                         Algorithm::kBBFS, Algorithm::kBSEG}) {
    PathFinderOptions opts;
    opts.algorithm = algo;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(
        PathFinder::Create(graph.get(), opts, &finder, segtable.get()).ok());
    finders.push_back(std::move(finder));
  }
  {
    PathFinderOptions opts;
    opts.algorithm = Algorithm::kBSDJ;
    opts.sql_mode = SqlMode::kTsql;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(PathFinder::Create(graph.get(), opts, &finder).ok());
    finders.push_back(std::move(finder));
  }

  Rng rng(seed * 7919 + 13);
  for (int q = 0; q < 6; q++) {
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    MemPathResult oracle = mem.Dijkstra(s, t);
    MemPathResult bidi = mem.BidirectionalDijkstra(s, t);
    ASSERT_EQ(oracle.found, bidi.found) << gc.name << " s=" << s << " t=" << t;
    if (oracle.found) {
      ASSERT_EQ(oracle.distance, bidi.distance)
          << gc.name << " s=" << s << " t=" << t;
      ASSERT_EQ(mem.PathLength(bidi.path), bidi.distance);
    }

    for (auto& finder : finders) {
      PathQueryResult result;
      Status st = finder->Find(s, t, &result);
      ASSERT_TRUE(st.ok())
          << AlgorithmName(finder->options().algorithm) << " on " << gc.name
          << " s=" << s << " t=" << t << ": " << st.ToString();
      ASSERT_EQ(result.found, oracle.found)
          << AlgorithmName(finder->options().algorithm) << " on " << gc.name
          << " s=" << s << " t=" << t;
      if (!oracle.found) continue;
      EXPECT_EQ(result.distance, oracle.distance)
          << AlgorithmName(finder->options().algorithm) << " on " << gc.name
          << " s=" << s << " t=" << t;
      ASSERT_FALSE(result.path.empty());
      EXPECT_EQ(result.path.front(), s);
      EXPECT_EQ(result.path.back(), t);
      EXPECT_EQ(mem.PathLength(result.path), result.distance)
          << AlgorithmName(finder->options().algorithm)
          << ": recovered path is not a real path of the reported length";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SweepGraphsAndSeeds, AlgorithmsAgreeTest,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3})),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
      return std::string(kCases[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

/// Same agreement sweep across the physical index strategies: NoIndex
/// forces nested-loop plans and hash-match MERGE, Index takes secondary
/// B+-tree probes, CluIndex the clustered paths — all three must agree
/// with the oracle on every algorithm.
class StrategyAgreeTest : public ::testing::TestWithParam<IndexStrategy> {};

TEST_P(StrategyAgreeTest, AllAlgorithmsMatchOracle) {
  EdgeList list = GenerateBarabasiAlbert(150, 3, WeightRange{1, 60}, 77);
  MemGraph mem(list);
  Database db{DatabaseOptions{}};
  GraphStoreOptions gopts;
  gopts.strategy = GetParam();
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, gopts, &graph).ok());
  SegTableOptions sopts;
  sopts.lthd = 20;
  sopts.strategy = GetParam();
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), sopts, &segtable).ok());

  Rng rng(123);
  std::vector<std::pair<node_id_t, node_id_t>> queries;
  for (int i = 0; i < 4; i++) {
    queries.emplace_back(rng.NextInt(0, list.num_nodes - 1),
                         rng.NextInt(0, list.num_nodes - 1));
  }
  for (Algorithm algo : {Algorithm::kDJ, Algorithm::kBDJ, Algorithm::kBSDJ,
                         Algorithm::kBBFS, Algorithm::kBSEG}) {
    PathFinderOptions opts;
    opts.algorithm = algo;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(
        PathFinder::Create(graph.get(), opts, &finder, segtable.get()).ok());
    for (auto [s, t] : queries) {
      MemPathResult oracle = mem.Dijkstra(s, t);
      PathQueryResult result;
      Status st = finder->Find(s, t, &result);
      ASSERT_TRUE(st.ok()) << AlgorithmName(algo) << " under "
                           << IndexStrategyName(GetParam()) << ": "
                           << st.ToString();
      ASSERT_EQ(result.found, oracle.found) << AlgorithmName(algo);
      if (oracle.found) {
        EXPECT_EQ(result.distance, oracle.distance)
            << AlgorithmName(algo) << " under "
            << IndexStrategyName(GetParam());
        EXPECT_EQ(mem.PathLength(result.path), result.distance);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, StrategyAgreeTest,
    ::testing::Values(IndexStrategy::kNoIndex, IndexStrategy::kIndex,
                      IndexStrategy::kCluIndex),
    [](const ::testing::TestParamInfo<IndexStrategy>& info) {
      return IndexStrategyName(info.param);
    });

/// Degenerate graph shapes: multi-edges with different weights, self-loops
/// and zero-weight edges must not break any relational algorithm.
TEST(DegenerateGraphTest, MultiEdgesSelfLoopsZeroWeights) {
  EdgeList list;
  list.num_nodes = 6;
  list.edges = {
      {0, 1, 10}, {0, 1, 3},             // multi-edge: cheaper wins
      {1, 1, 1},                          // self-loop: never useful
      {1, 2, 0},  {2, 1, 0},              // zero-weight pair
      {2, 3, 4},  {3, 4, 2},  {0, 4, 50},
      {4, 5, 1},
  };
  MemGraph mem(list);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  SegTableOptions sopts;
  sopts.lthd = 5;
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), sopts, &segtable).ok());

  for (Algorithm algo : {Algorithm::kDJ, Algorithm::kBDJ, Algorithm::kBSDJ,
                         Algorithm::kBBFS, Algorithm::kBSEG}) {
    PathFinderOptions opts;
    opts.algorithm = algo;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(
        PathFinder::Create(graph.get(), opts, &finder, segtable.get()).ok());
    for (node_id_t t = 1; t < 6; t++) {
      MemPathResult oracle = mem.Dijkstra(0, t);
      PathQueryResult result;
      Status st = finder->Find(0, t, &result);
      ASSERT_TRUE(st.ok()) << AlgorithmName(algo) << " t=" << t << ": "
                           << st.ToString();
      ASSERT_EQ(result.found, oracle.found) << AlgorithmName(algo);
      if (oracle.found) {
        EXPECT_EQ(result.distance, oracle.distance)
            << AlgorithmName(algo) << " t=" << t;
        EXPECT_EQ(mem.PathLength(result.path), result.distance)
            << AlgorithmName(algo) << " t=" << t;
      }
    }
  }
}

/// Theorem 2: BSDJ finds the path within min(δ/wmin, n) iterations; each
/// iteration is at most two expansions (one per direction choice), so the
/// expansion count obeys the same order. We check the generous bound.
TEST(IterationBoundsTest, BsdjRespectsTheorem2) {
  EdgeList list = GenerateBarabasiAlbert(300, 3, WeightRange{1, 100}, 99);
  MemGraph mem(list);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  PathFinderOptions opts;
  opts.algorithm = Algorithm::kBSDJ;
  std::unique_ptr<PathFinder> finder;
  ASSERT_TRUE(PathFinder::Create(graph.get(), opts, &finder).ok());

  Rng rng(4242);
  for (int q = 0; q < 5; q++) {
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    MemPathResult oracle = mem.Dijkstra(s, t);
    if (!oracle.found || s == t) continue;
    PathQueryResult result;
    ASSERT_TRUE(finder->Find(s, t, &result).ok());
    ASSERT_TRUE(result.found);
    int64_t bound = std::min<int64_t>(
        oracle.distance / std::max<weight_t>(mem.min_weight(), 1),
        list.num_nodes);
    // +2: the round that proves termination, and integer-division slack.
    EXPECT_LE(result.stats.expansions, bound + 2)
        << "s=" << s << " t=" << t << " dist=" << oracle.distance;
  }
}

/// The paper's headline comparison (Table 2): DJ must take far more
/// expansions than BDJ, and BDJ more than BSDJ, on power-law graphs.
TEST(IterationBoundsTest, ExpansionOrderingDjBdjBsdj) {
  EdgeList list = GenerateBarabasiAlbert(400, 3, WeightRange{1, 100}, 7);
  MemGraph mem(list);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());

  int64_t exps[3] = {0, 0, 0};
  Algorithm algos[3] = {Algorithm::kDJ, Algorithm::kBDJ, Algorithm::kBSDJ};
  Rng rng(555);
  std::vector<std::pair<node_id_t, node_id_t>> queries;
  while (queries.size() < 5) {
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    if (s != t && mem.Dijkstra(s, t).found) queries.emplace_back(s, t);
  }
  for (int a = 0; a < 3; a++) {
    PathFinderOptions opts;
    opts.algorithm = algos[a];
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(PathFinder::Create(graph.get(), opts, &finder).ok());
    for (auto [s, t] : queries) {
      PathQueryResult result;
      ASSERT_TRUE(finder->Find(s, t, &result).ok());
      exps[a] += result.stats.expansions;
    }
  }
  EXPECT_GT(exps[0], exps[1]);  // DJ > BDJ
  EXPECT_GE(exps[1], exps[2]);  // BDJ >= BSDJ
}

/// BSEG must need no more expansions than BSDJ (Theorem 3's point), while
/// BBFS needs the fewest but visits the most nodes — the trade-off of §4.2.
TEST(IterationBoundsTest, BsegReducesExpansionsVersusBsdj) {
  EdgeList list = GenerateBarabasiAlbert(500, 3, WeightRange{1, 100}, 21);
  MemGraph mem(list);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  SegTableOptions sopts;
  sopts.lthd = 50;
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), sopts, &segtable).ok());

  Rng rng(31337);
  std::vector<std::pair<node_id_t, node_id_t>> queries;
  while (queries.size() < 5) {
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    if (s != t && mem.Dijkstra(s, t).found) queries.emplace_back(s, t);
  }

  int64_t bsdj_exps = 0, bseg_exps = 0, bbfs_exps = 0;
  int64_t bsdj_vst = 0, bbfs_vst = 0;
  for (Algorithm algo : {Algorithm::kBSDJ, Algorithm::kBSEG, Algorithm::kBBFS}) {
    PathFinderOptions opts;
    opts.algorithm = algo;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(
        PathFinder::Create(graph.get(), opts, &finder, segtable.get()).ok());
    for (auto [s, t] : queries) {
      PathQueryResult result;
      ASSERT_TRUE(finder->Find(s, t, &result).ok());
      ASSERT_TRUE(result.found);
      if (algo == Algorithm::kBSDJ) {
        bsdj_exps += result.stats.expansions;
        bsdj_vst += result.stats.visited_rows;
      } else if (algo == Algorithm::kBSEG) {
        bseg_exps += result.stats.expansions;
      } else {
        bbfs_exps += result.stats.expansions;
        bbfs_vst += result.stats.visited_rows;
      }
    }
  }
  EXPECT_LE(bseg_exps, bsdj_exps);
  // (BBFS vs BSEG ordering depends on lthd: with multi-hop segments BSEG
  // can out-jump BFS rounds, so only the BSDJ relation is an invariant.)
  EXPECT_LE(bbfs_exps, bsdj_exps);
  EXPECT_GE(bbfs_vst, bsdj_vst);  // BBFS pays in search space
}

}  // namespace
}  // namespace relgraph
