// Stale-plan oracle for the prepared FEM round. A PathFinder builds its E/M
// plans and frontier updates once and re-runs them for every round of every
// query, so anything a plan wrongly carries over — a parameter of the last
// round, a row slot of the last query, an access path the graph no longer
// matches — would show as a wrong answer or a different search. One
// long-lived finder answers 300 seeded queries while the graph changes
// under it (edges added, removed and reweighted between queries):
//  - every answer equals MemGraph::Dijkstra on the graph as it stands;
//  - every query issues the same statements, expansions and visited rows,
//    and finds the same path, as a PathFinder created for that query alone
//    on an identical copy of the graph (kept in a second database, so the
//    long-lived finder's catalog never changes and its plans are never
//    rebuilt).
// Covered: NoIndex, Index and CluIndex x NSQL and TSQL x the DBMS-X and
// PostgreSQL 9.0 profiles, plus one all-local distributed session against
// fresh sessions (the sharded store takes no mutations).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/path_finder.h"
#include "src/dist/coordinator.h"
#include "src/dist/dist_path_finder.h"
#include "src/dist/sharded_graph.h"
#include "src/graph/generators.h"
#include "src/graph/graph_store.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace {

constexpr int64_t kNodes = 200;
constexpr int kQueries = 300;

std::pair<node_id_t, node_id_t> NextPair(Rng* rng) {
  for (;;) {
    node_id_t s = rng->NextInt(0, kNodes - 1);
    node_id_t t = rng->NextInt(0, kNodes - 1);
    if (s != t) return {s, t};
  }
}

/// One graph kept in two databases and a plain edge list, changed alike.
class MirroredGraph {
 public:
  MirroredGraph(const EdgeList& list, IndexStrategy strategy,
                EngineProfile profile)
      : list_(list) {
    DatabaseOptions options;
    options.profile = profile;
    GraphStoreOptions graph_options;
    graph_options.strategy = strategy;
    for (int i = 0; i < 2; i++) {
      dbs_[i] = std::make_unique<Database>(options);
      EXPECT_TRUE(GraphStore::Create(dbs_[i].get(), list_, graph_options,
                                     &graphs_[i])
                      .ok());
    }
  }

  GraphStore* graph(int i) { return graphs_[i].get(); }
  MemGraph Oracle() const { return MemGraph(list_); }

  /// Query i's change: add an edge, remove one, reweight one, or none.
  void Mutate(int i, Rng* rng) {
    switch (i % 4) {
      case 0: {
        auto [u, v] = NextPair(rng);
        Add(Edge{u, v, rng->NextInt(1, 20)});
        break;
      }
      case 1:
        Remove(PickEdge(rng));
        break;
      case 2: {
        Edge e = PickEdge(rng);
        Remove(e);
        e.weight = rng->NextInt(1, 20);
        Add(e);
        break;
      }
      default:
        break;
    }
  }

 private:
  Edge PickEdge(Rng* rng) const {
    return list_.edges[static_cast<size_t>(
        rng->NextInt(0, static_cast<int64_t>(list_.edges.size()) - 1))];
  }
  void Add(const Edge& e) {
    for (auto& g : graphs_) ASSERT_TRUE(g->AddEdge(e).ok());
    list_.edges.push_back(e);
  }
  void Remove(const Edge& e) {
    for (auto& g : graphs_) ASSERT_TRUE(g->RemoveEdge(e).ok());
    for (size_t k = 0; k < list_.edges.size(); k++) {
      if (list_.edges[k] == e) {
        list_.edges.erase(list_.edges.begin() + static_cast<long>(k));
        return;
      }
    }
  }

  EdgeList list_;
  std::unique_ptr<Database> dbs_[2];
  std::unique_ptr<GraphStore> graphs_[2];
};

using Config = std::tuple<IndexStrategy, SqlMode, EngineProfile>;

class StalePlanOracle : public ::testing::TestWithParam<Config> {};

TEST_P(StalePlanOracle, LongLivedFinderMatchesFreshOnesAndDijkstra) {
  const auto [strategy, mode, profile] = GetParam();
  MirroredGraph graph(
      GenerateBarabasiAlbert(kNodes, 2, WeightRange{1, 20}, 91), strategy,
      profile);
  PathFinderOptions options;
  options.sql_mode = mode;
  std::unique_ptr<PathFinder> long_lived;
  ASSERT_TRUE(
      PathFinder::Create(graph.graph(0), options, &long_lived).ok());

  Rng rng(2024);
  int found = 0;
  for (int i = 0; i < kQueries; i++) {
    graph.Mutate(i, &rng);
    const auto [s, t] = NextPair(&rng);
    SCOPED_TRACE("query " + std::to_string(i) + ": " + std::to_string(s) +
                 " -> " + std::to_string(t));
    PathQueryResult got;
    ASSERT_TRUE(long_lived->Find(s, t, &got).ok());
    std::unique_ptr<PathFinder> fresh_finder;
    ASSERT_TRUE(
        PathFinder::Create(graph.graph(1), options, &fresh_finder).ok());
    PathQueryResult fresh;
    ASSERT_TRUE(fresh_finder->Find(s, t, &fresh).ok());

    const MemPathResult oracle = graph.Oracle().Dijkstra(s, t);
    ASSERT_EQ(got.found, oracle.found);
    if (oracle.found) {
      ASSERT_EQ(got.distance, oracle.distance);
      found++;
    }
    EXPECT_EQ(got.stats.statements, fresh.stats.statements);
    EXPECT_EQ(got.stats.expansions, fresh.stats.expansions);
    EXPECT_EQ(got.stats.visited_rows, fresh.stats.visited_rows);
    EXPECT_EQ(got.path, fresh.path);
  }
  EXPECT_GT(found, kQueries / 2);
}

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  const auto [strategy, mode, profile] = info.param;
  const char* strategy_name = strategy == IndexStrategy::kNoIndex ? "NoIndex"
                              : strategy == IndexStrategy::kIndex ? "Index"
                                                                  : "CluIndex";
  return std::string(strategy_name) + "_" + SqlModeName(mode) + "_" +
         (profile == EngineProfile::kDbmsX ? "DbmsX" : "Postgres90");
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StalePlanOracle,
    ::testing::Combine(::testing::Values(IndexStrategy::kNoIndex,
                                         IndexStrategy::kIndex,
                                         IndexStrategy::kCluIndex),
                       ::testing::Values(SqlMode::kNsql, SqlMode::kTsql),
                       ::testing::Values(EngineProfile::kDbmsX,
                                         EngineProfile::kPostgres90)),
    ConfigName);

TEST(StalePlanOracleDist, LongLivedSessionMatchesFreshOnesAndDijkstra) {
  const EdgeList list =
      GenerateBarabasiAlbert(kNodes, 2, WeightRange{1, 20}, 93);
  ShardedGraphOptions shard_options;
  shard_options.num_shards = 3;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, shard_options, &store).ok());
  std::unique_ptr<DistCoordinator> coord;
  ASSERT_TRUE(DistCoordinator::Create(store.get(), DistOptions{}, &coord).ok());
  std::unique_ptr<DistPathFinder> long_lived;
  ASSERT_TRUE(coord->NewSession(&long_lived).ok());
  const MemGraph oracle(list);

  Rng rng(2025);
  int found = 0;
  for (int i = 0; i < kQueries; i++) {
    const auto [s, t] = NextPair(&rng);
    SCOPED_TRACE("query " + std::to_string(i) + ": " + std::to_string(s) +
                 " -> " + std::to_string(t));
    DistPathResult got;
    ASSERT_TRUE(long_lived->Find(s, t, &got).ok());
    std::unique_ptr<DistPathFinder> fresh_session;
    ASSERT_TRUE(coord->NewSession(&fresh_session).ok());
    DistPathResult fresh;
    ASSERT_TRUE(fresh_session->Find(s, t, &fresh).ok());

    const MemPathResult want = oracle.Dijkstra(s, t);
    ASSERT_EQ(got.found, want.found);
    if (want.found) {
      ASSERT_EQ(got.distance, want.distance);
      found++;
    }
    EXPECT_EQ(got.stats.coordinator_statements,
              fresh.stats.coordinator_statements);
    EXPECT_EQ(got.stats.shard_statements, fresh.stats.shard_statements);
    EXPECT_EQ(got.stats.rounds, fresh.stats.rounds);
    EXPECT_EQ(got.stats.rows_shipped, fresh.stats.rows_shipped);
    EXPECT_EQ(got.path, fresh.path);
  }
  EXPECT_GT(found, kQueries / 2);
}

}  // namespace
}  // namespace relgraph
