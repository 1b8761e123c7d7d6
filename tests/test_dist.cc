// Sharded graph store + distributed BSDJ client (the paper's §7 distributed
// extension): partition completeness, shard routing, and agreement with the
// in-memory oracle across shard counts, strategies, and graph families.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "src/common/rng.h"
#include "src/core/path_finder.h"
#include "src/dist/dist_path_finder.h"
#include "src/dist/sharded_graph.h"
#include "src/graph/generators.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace {

TEST(ShardedGraphStore, PartitionsCoverEveryEdgeExactlyOnce) {
  EdgeList list = GenerateRandomGraph(100, 400, WeightRange{1, 50}, 42);
  ShardedGraphOptions opts;
  opts.num_shards = 4;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, opts, &store).ok());

  int64_t out_total = 0, in_total = 0;
  for (int i = 0; i < store->num_shards(); i++) {
    out_total += store->out_edges(i)->num_rows();
    in_total += store->in_edges(i)->num_rows();
  }
  EXPECT_EQ(out_total, static_cast<int64_t>(list.edges.size()));
  EXPECT_EQ(in_total, static_cast<int64_t>(list.edges.size()));
}

TEST(ShardedGraphStore, EdgesLiveOnTheirOwnerShard) {
  EdgeList list = GenerateRandomGraph(80, 300, WeightRange{1, 9}, 7);
  ShardedGraphOptions opts;
  opts.num_shards = 3;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, opts, &store).ok());

  for (int i = 0; i < store->num_shards(); i++) {
    auto it = store->out_edges(i)->Scan();
    Tuple row;
    while (it.Next(&row, nullptr)) {
      EXPECT_EQ(store->OwnerShard(row.value(0).AsInt()), i)
          << "out-edge on wrong shard";
    }
    ASSERT_TRUE(it.status().ok());
    it = store->in_edges(i)->Scan();
    while (it.Next(&row, nullptr)) {
      EXPECT_EQ(store->OwnerShard(row.value(1).AsInt()), i)
          << "in-edge on wrong shard";
    }
    ASSERT_TRUE(it.status().ok());
  }
}

TEST(ShardedGraphStore, SingleShardDegeneratesToFullGraph) {
  EdgeList list = GenerateRandomGraph(50, 150, WeightRange{1, 5}, 3);
  ShardedGraphOptions opts;
  opts.num_shards = 1;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, opts, &store).ok());
  EXPECT_EQ(store->out_edges(0)->num_rows(),
            static_cast<int64_t>(list.edges.size()));
}

TEST(ShardedGraphStore, RejectsZeroShards) {
  EdgeList list;
  list.num_nodes = 1;
  ShardedGraphOptions opts;
  opts.num_shards = 0;
  std::unique_ptr<ShardedGraphStore> store;
  EXPECT_FALSE(ShardedGraphStore::Create(list, opts, &store).ok());
}

class DistPathFinderTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(DistPathFinderTest, AgreesWithOracle) {
  const auto& [shards, seed] = GetParam();
  EdgeList list = GenerateBarabasiAlbert(160, 2, WeightRange{1, 100}, seed);
  MemGraph mem(list);

  ShardedGraphOptions opts;
  opts.num_shards = shards;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, opts, &store).ok());
  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store.get(), &finder).ok());

  Rng rng(seed * 31 + 5);
  for (int i = 0; i < 8; i++) {
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    MemPathResult oracle = mem.Dijkstra(s, t);
    DistPathResult r;
    ASSERT_TRUE(finder->Find(s, t, &r).ok());
    EXPECT_EQ(r.found, oracle.found) << "s=" << s << " t=" << t;
    if (!oracle.found) continue;
    EXPECT_EQ(r.distance, oracle.distance) << "s=" << s << " t=" << t;
    EXPECT_EQ(r.path.front(), s);
    EXPECT_EQ(r.path.back(), t);
    EXPECT_EQ(mem.PathLength(r.path), r.distance) << "s=" << s << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shards, DistPathFinderTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Values(11u, 12u)),
    [](const auto& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// The distributed session is PathFinder's BSDJ with the shard fan-out as
// its E-operator join: over the same graph and strategy it must take the
// same expansions (one round each) and recover the very same path as the
// single-node finder, whatever the shard count.
class DistMatchesNativeBsdj
    : public ::testing::TestWithParam<std::tuple<IndexStrategy, int>> {};

TEST_P(DistMatchesNativeBsdj, SamePathSameExpansions) {
  const auto& [strategy, shards] = GetParam();
  EdgeList list = GenerateBarabasiAlbert(150, 2, WeightRange{1, 20}, 5);

  Database db;
  GraphStoreOptions gopts;
  gopts.strategy = strategy;
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, gopts, &graph).ok());
  std::unique_ptr<PathFinder> native;
  ASSERT_TRUE(PathFinder::Create(graph.get(), PathFinderOptions{}, &native)
                  .ok());

  ShardedGraphOptions sopts;
  sopts.num_shards = shards;
  sopts.strategy = strategy;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, sopts, &store).ok());
  std::unique_ptr<DistPathFinder> dist;
  ASSERT_TRUE(DistPathFinder::Create(store.get(), &dist).ok());

  Rng rng(99);
  for (int i = 0; i < 12; i++) {
    const node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    const node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    PathQueryResult want;
    ASSERT_TRUE(native->Find(s, t, &want).ok());
    DistPathResult got;
    ASSERT_TRUE(dist->Find(s, t, &got).ok());
    EXPECT_EQ(got.found, want.found) << "s=" << s << " t=" << t;
    EXPECT_EQ(got.distance, want.distance) << "s=" << s << " t=" << t;
    EXPECT_EQ(got.path, want.path) << "s=" << s << " t=" << t;
    EXPECT_EQ(got.stats.rounds, want.stats.expansions)
        << "s=" << s << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndShards, DistMatchesNativeBsdj,
    ::testing::Combine(::testing::Values(IndexStrategy::kCluIndex,
                                         IndexStrategy::kIndex,
                                         IndexStrategy::kNoIndex),
                       ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      return std::string(IndexStrategyName(std::get<0>(info.param))) +
             "_shards" + std::to_string(std::get<1>(info.param));
    });

TEST(DistPathFinderBasics, SourceEqualsTarget) {
  EdgeList list = GenerateGridGraph(4, 4, WeightRange{1, 9}, 1);
  ShardedGraphOptions opts;
  opts.num_shards = 2;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, opts, &store).ok());
  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store.get(), &finder).ok());
  DistPathResult r;
  ASSERT_TRUE(finder->Find(5, 5, &r).ok());
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, 0);
}

TEST(DistPathFinderBasics, DisconnectedNotFound) {
  EdgeList list;
  list.num_nodes = 6;
  list.edges = {{0, 1, 2}, {1, 0, 2}, {4, 5, 3}, {5, 4, 3}};
  ShardedGraphOptions opts;
  opts.num_shards = 3;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, opts, &store).ok());
  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store.get(), &finder).ok());
  DistPathResult r;
  ASSERT_TRUE(finder->Find(0, 5, &r).ok());
  EXPECT_FALSE(r.found);
}

TEST(DistPathFinderBasics, StatsAccountShardsAndCoordinator) {
  EdgeList list = GenerateBarabasiAlbert(120, 2, WeightRange{1, 10}, 21);
  ShardedGraphOptions opts;
  opts.num_shards = 4;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, opts, &store).ok());
  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store.get(), &finder).ok());
  DistPathResult r;
  ASSERT_TRUE(finder->Find(0, 100, &r).ok());
  ASSERT_TRUE(r.found);
  EXPECT_GT(r.stats.coordinator_statements, 0);
  EXPECT_GT(r.stats.shard_statements, 0);
  EXPECT_GT(r.stats.rows_shipped, 0);
  // The simulated-parallel clock can never exceed the serial one.
  EXPECT_LE(r.stats.parallel_us, r.stats.serial_us);
}

TEST(DistPathFinderBasics, WorksWithSecondaryIndexStrategy) {
  EdgeList list = GenerateBarabasiAlbert(100, 2, WeightRange{1, 20}, 33);
  MemGraph mem(list);
  ShardedGraphOptions opts;
  opts.num_shards = 2;
  opts.strategy = IndexStrategy::kIndex;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, opts, &store).ok());
  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store.get(), &finder).ok());
  DistPathResult r;
  ASSERT_TRUE(finder->Find(2, 90, &r).ok());
  MemPathResult oracle = mem.Dijkstra(2, 90);
  EXPECT_EQ(r.found, oracle.found);
  if (oracle.found) {
    EXPECT_EQ(r.distance, oracle.distance);
  }
}

}  // namespace
}  // namespace relgraph
