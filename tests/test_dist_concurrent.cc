// Concurrency determinism for the distributed coordinator: the thread-pool
// execution path must be an *execution* change only. Distances, paths,
// rows_shipped, and per-shard statement counts are asserted bit-identical
// across worker-thread counts and shard counts, the threaded coordinator is
// checked against the serial oracle (and the in-memory Dijkstra) on random
// graphs, and N concurrent query sessions over one shared shard pool must
// each reproduce the single-threaded answers exactly.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/dist/dist_path_finder.h"
#include "src/dist/sharded_graph.h"
#include "src/graph/generators.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace {

struct QueryOutcome {
  bool found = false;
  weight_t distance = kInfinity;
  std::vector<node_id_t> path;
  int64_t rows_shipped = 0;
  int64_t shard_statements = 0;
  int64_t coordinator_statements = 0;
  int64_t rounds = 0;
};

struct RunOutcome {
  std::vector<QueryOutcome> queries;
  std::vector<int64_t> per_shard_db_statements;  // executed on each shard db
};

/// Runs `pairs` through a fresh store + coordinator with the given knobs
/// and returns everything determinism is asserted on.
RunOutcome RunConfig(const EdgeList& list, int shards, int num_threads,
                     const std::vector<std::pair<node_id_t, node_id_t>>& pairs,
                     IndexStrategy strategy = IndexStrategy::kCluIndex) {
  RunOutcome out;
  ShardedGraphOptions sopts;
  sopts.num_shards = shards;
  sopts.strategy = strategy;
  std::unique_ptr<ShardedGraphStore> store;
  Status st = ShardedGraphStore::Create(list, sopts, &store);
  if (!st.ok()) {
    ADD_FAILURE() << "ShardedGraphStore::Create: " << st.ToString();
    return out;
  }
  DistOptions dopts;
  dopts.num_threads = num_threads;
  std::unique_ptr<DistPathFinder> finder;
  st = DistPathFinder::Create(store.get(), &finder, dopts);
  if (!st.ok()) {
    ADD_FAILURE() << "DistPathFinder::Create: " << st.ToString();
    return out;
  }

  for (const auto& [s, t] : pairs) {
    DistPathResult r;
    EXPECT_TRUE(finder->Find(s, t, &r).ok());
    out.queries.push_back({r.found, r.distance, r.path,
                           r.stats.rows_shipped, r.stats.shard_statements,
                           r.stats.coordinator_statements, r.stats.rounds});
  }
  for (int i = 0; i < shards; i++) {
    out.per_shard_db_statements.push_back(
        store->shard_db(i)->stats().statements);
  }
  return out;
}

void ExpectIdentical(const RunOutcome& a, const RunOutcome& b,
                     const std::string& what) {
  ASSERT_EQ(a.queries.size(), b.queries.size()) << what;
  for (size_t i = 0; i < a.queries.size(); i++) {
    const QueryOutcome& qa = a.queries[i];
    const QueryOutcome& qb = b.queries[i];
    EXPECT_EQ(qa.found, qb.found) << what << " query " << i;
    EXPECT_EQ(qa.distance, qb.distance) << what << " query " << i;
    EXPECT_EQ(qa.path, qb.path) << what << " query " << i;
    EXPECT_EQ(qa.rows_shipped, qb.rows_shipped) << what << " query " << i;
    EXPECT_EQ(qa.shard_statements, qb.shard_statements)
        << what << " query " << i;
    EXPECT_EQ(qa.coordinator_statements, qb.coordinator_statements)
        << what << " query " << i;
    EXPECT_EQ(qa.rounds, qb.rounds) << what << " query " << i;
  }
  EXPECT_EQ(a.per_shard_db_statements, b.per_shard_db_statements) << what;
}

class DistDeterminismTest : public ::testing::TestWithParam<int> {};

// The tentpole invariant: thread count is invisible in every result and
// every counter — only the clocks may differ.
TEST_P(DistDeterminismTest, ThreadCountIsInvisibleInResultsAndCounters) {
  const int shards = GetParam();
  EdgeList list = GenerateBarabasiAlbert(150, 2, WeightRange{1, 60}, 97);
  Rng rng(97 * 7 + shards);
  std::vector<std::pair<node_id_t, node_id_t>> pairs;
  for (int i = 0; i < 6; i++) {
    pairs.emplace_back(rng.NextInt(0, list.num_nodes - 1),
                       rng.NextInt(0, list.num_nodes - 1));
  }

  RunOutcome serial = RunConfig(list, shards, /*num_threads=*/0, pairs);
  for (int threads : {1, 2, 8}) {
    RunOutcome threaded = RunConfig(list, shards, threads, pairs);
    ExpectIdentical(serial, threaded,
                    "shards=" + std::to_string(shards) +
                        " threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DistDeterminismTest,
                         ::testing::Values(1, 2, 4, 7),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

// Same invariant on the NoIndex strategy, whose shard work is one batched
// scan per request instead of prepared probes.
TEST(DistDeterminism, HoldsForNoIndexShards) {
  EdgeList list = GenerateBarabasiAlbert(110, 2, WeightRange{1, 30}, 41);
  Rng rng(411);
  std::vector<std::pair<node_id_t, node_id_t>> pairs;
  for (int i = 0; i < 4; i++) {
    pairs.emplace_back(rng.NextInt(0, list.num_nodes - 1),
                       rng.NextInt(0, list.num_nodes - 1));
  }
  RunOutcome serial =
      RunConfig(list, 4, 0, pairs, IndexStrategy::kNoIndex);
  RunOutcome threaded =
      RunConfig(list, 4, 4, pairs, IndexStrategy::kNoIndex);
  ExpectIdentical(serial, threaded, "NoIndex shards=4 threads=4");
}

// Serial-vs-threaded agreement on random (non-scale-free) graphs, with the
// in-memory Dijkstra as the ground truth for the distances.
TEST(DistDeterminism, SerialAndThreadedAgreeOnRandomGraphs) {
  for (uint64_t seed : {5u, 17u}) {
    EdgeList list = GenerateRandomGraph(120, 500, WeightRange{1, 40}, seed);
    MemGraph mem(list);
    Rng rng(seed + 99);
    std::vector<std::pair<node_id_t, node_id_t>> pairs;
    for (int i = 0; i < 5; i++) {
      pairs.emplace_back(rng.NextInt(0, list.num_nodes - 1),
                         rng.NextInt(0, list.num_nodes - 1));
    }
    RunOutcome serial = RunConfig(list, 3, 0, pairs);
    RunOutcome threaded = RunConfig(list, 3, 4, pairs);
    ExpectIdentical(serial, threaded, "seed=" + std::to_string(seed));
    for (size_t i = 0; i < pairs.size(); i++) {
      MemPathResult oracle = mem.Dijkstra(pairs[i].first, pairs[i].second);
      EXPECT_EQ(threaded.queries[i].found, oracle.found) << "seed=" << seed;
      if (oracle.found) {
        EXPECT_EQ(threaded.queries[i].distance, oracle.distance)
            << "seed=" << seed;
      }
    }
  }
}

// N concurrent sessions × M queries over one shared coordinator: every
// session's answers (results *and* deterministic per-query counters) match
// the single-threaded oracle. Connections are scarcer than sessions, so
// checkout contention on the shard pools is actually exercised.
TEST(DistConcurrentSessions, StressMatchesSingleThreadedOracle) {
  constexpr int kSessions = 4;
  constexpr int kShards = 4;
  EdgeList list = GenerateBarabasiAlbert(130, 2, WeightRange{1, 50}, 71);
  Rng rng(711);
  std::vector<std::pair<node_id_t, node_id_t>> pairs;
  for (int i = 0; i < 6; i++) {
    pairs.emplace_back(rng.NextInt(0, list.num_nodes - 1),
                       rng.NextInt(0, list.num_nodes - 1));
  }

  // Oracle answers from a serial single-session run on its own store.
  RunOutcome oracle = RunConfig(list, kShards, /*num_threads=*/0, pairs);

  ShardedGraphOptions sopts;
  sopts.num_shards = kShards;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, sopts, &store).ok());
  DistOptions dopts;
  dopts.num_threads = 4;
  dopts.local.connections = 2;  // < kSessions: sessions must queue
  std::unique_ptr<DistCoordinator> coord;
  ASSERT_TRUE(DistCoordinator::Create(store.get(), dopts, &coord).ok());

  std::vector<std::unique_ptr<DistPathFinder>> sessions(kSessions);
  for (int s = 0; s < kSessions; s++) {
    ASSERT_TRUE(coord->NewSession(&sessions[s]).ok());
  }

  std::vector<std::vector<QueryOutcome>> results(kSessions);
  std::vector<Status> statuses(kSessions);
  std::vector<std::thread> clients;
  for (int s = 0; s < kSessions; s++) {
    clients.emplace_back([&, s] {
      for (const auto& [a, b] : pairs) {
        DistPathResult r;
        Status st = sessions[s]->Find(a, b, &r);
        if (!st.ok()) {
          statuses[s] = st;
          return;
        }
        results[s].push_back({r.found, r.distance, r.path,
                              r.stats.rows_shipped, r.stats.shard_statements,
                              r.stats.coordinator_statements,
                              r.stats.rounds});
      }
    });
  }
  for (auto& c : clients) c.join();

  for (int s = 0; s < kSessions; s++) {
    ASSERT_TRUE(statuses[s].ok()) << statuses[s].ToString();
    ASSERT_EQ(results[s].size(), pairs.size()) << "session " << s;
    for (size_t i = 0; i < pairs.size(); i++) {
      const QueryOutcome& got = results[s][i];
      const QueryOutcome& want = oracle.queries[i];
      EXPECT_EQ(got.found, want.found) << "session " << s << " query " << i;
      EXPECT_EQ(got.distance, want.distance)
          << "session " << s << " query " << i;
      EXPECT_EQ(got.path, want.path) << "session " << s << " query " << i;
      EXPECT_EQ(got.rows_shipped, want.rows_shipped)
          << "session " << s << " query " << i;
      EXPECT_EQ(got.shard_statements, want.shard_statements)
          << "session " << s << " query " << i;
      EXPECT_EQ(got.coordinator_statements, want.coordinator_statements)
          << "session " << s << " query " << i;
    }
  }

  // Shard-side totals: kSessions clients each ran the oracle's workload,
  // so every shard database counted exactly kSessions times the oracle's
  // statements — nothing lost, nothing double-counted under contention.
  for (int i = 0; i < kShards; i++) {
    EXPECT_EQ(store->shard_db(i)->stats().statements,
              kSessions * oracle.per_shard_db_statements[i])
        << "shard " << i;
  }
}

// The clock contract: serial mode really is serial (parallel_us simulated
// and never above serial_us); threaded mode measures parallel_us as the
// query's wall clock.
TEST(DistClocks, SerialSimulationInvariantHolds) {
  EdgeList list = GenerateBarabasiAlbert(120, 2, WeightRange{1, 20}, 13);
  ShardedGraphOptions sopts;
  sopts.num_shards = 4;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, sopts, &store).ok());
  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store.get(), &finder).ok());
  DistPathResult r;
  ASSERT_TRUE(finder->Find(3, 100, &r).ok());
  EXPECT_LE(r.stats.parallel_us, r.stats.serial_us);
  EXPECT_GT(r.stats.rounds, 0);
}

}  // namespace
}  // namespace relgraph
