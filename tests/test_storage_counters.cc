// Golden buffer-pool counters for a small copy of perfbench's fem_paged
// workload: BSDJ full-path queries, with one edge reweight per four reads,
// over a file-backed database whose pool holds a fraction of the graph.
// Hits, misses, evictions and dirty write-backs depend on nothing but the
// pool's page table and its replacement policy, so any change to either
// that is not meant to move them fails here, in tier 1, instead of as
// drift in a benchmark's per-layer counters.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/path_finder.h"
#include "src/db/database.h"
#include "src/graph/generators.h"
#include "src/graph/graph_store.h"
#include "src/graph/memgraph.h"
#include "src/storage/buffer_pool.h"

namespace relgraph {
namespace {

constexpr int64_t kNodes = 2000;
constexpr size_t kPoolPages = 48;
constexpr int kOps = 60;
constexpr int kWriteEvery = 5;  // op i writes when i % 5 == 4

struct PoolCounters {
  int64_t hits, misses, evictions, dirty_writebacks;
};

PoolCounters Of(const BufferPoolStats& s) {
  return {s.hits, s.misses, s.evictions, s.dirty_writebacks};
}

void ExpectCounters(const char* phase, const PoolCounters& got,
                    const PoolCounters& want) {
  SCOPED_TRACE(phase);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.dirty_writebacks, want.dirty_writebacks);
}

TEST(StorageCountersTest, PagedBsdjMatchesGoldenPoolCounters) {
  const EdgeList list =
      GenerateBarabasiAlbert(kNodes, 2, WeightRange{1, 100}, /*seed=*/4242);
  DatabaseOptions options;
  options.in_memory = false;  // scratch file, deleted on close
  options.buffer_pool_pages = kPoolPages;
  Database db(options);
  ASSERT_FALSE(db.disk()->in_memory());
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<PathFinder> finder;
  ASSERT_TRUE(
      PathFinder::Create(graph.get(), PathFinderOptions{}, &finder).ok());
  const PoolCounters setup = Of(db.buffer_pool()->stats());
  db.buffer_pool()->ResetStats();

  Rng rng(17);
  std::vector<Edge> edges = list.edges;
  for (int op = 0; op < kOps; op++) {
    if (op % kWriteEvery == kWriteEvery - 1) {
      const size_t index = rng.NextBounded(edges.size());
      const Edge next{edges[index].from, edges[index].to,
                      static_cast<weight_t>(rng.NextInt(1, 100))};
      ASSERT_TRUE(graph->RemoveEdge(edges[index]).ok());
      ASSERT_TRUE(graph->AddEdge(next).ok());
      edges[index] = next;
      continue;
    }
    node_id_t s = 0, t = 0;
    while (s == t) {
      s = static_cast<node_id_t>(rng.NextInt(0, kNodes - 1));
      t = static_cast<node_id_t>(rng.NextInt(0, kNodes - 1));
    }
    PathQueryResult r;
    ASSERT_TRUE(finder->Find(s, t, &r).ok());
    const MemGraph oracle(EdgeList{kNodes, edges});
    const MemPathResult want = oracle.Dijkstra(s, t);
    ASSERT_EQ(r.found, want.found) << s << "->" << t;
    if (r.found) {
      ASSERT_EQ(r.distance, want.distance) << s << "->" << t;
      ASSERT_EQ(oracle.PathLength(r.path), want.distance) << s << "->" << t;
    }
  }
  const PoolCounters queries = Of(db.buffer_pool()->stats());

  // Golden values: exact LRU over the unpinned frames. A change to the page
  // table or the replacer that moves them changes the policy. Hits also
  // count how often the access methods fetch a page: a B+-tree descent
  // fetches each node on its path once.
  ExpectCounters("set-up", setup, {35836, 1, 138, 138});
  ExpectCounters("queries", queries, {143805, 2278, 2289, 74});
}

}  // namespace
}  // namespace relgraph
