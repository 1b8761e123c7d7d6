#include "src/core/path_finder.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/segtable.h"
#include "src/dist/shard_snapshot.h"
#include "src/dist/snapshot_manifest.h"
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

/// BSDJ and BSEG must find the same path with the same search under every
/// plan family: NSQL (window dedup, one MERGE per expansion), TSQL (GROUP BY
/// + MIN re-join, UPDATE then INSERT) and NSQL on the PostgreSQL 9.0
/// profile (window dedup, UPDATE then INSERT). Distance, path and counts
/// are pinned; the update+insert plans count one statement more per
/// expansion. The BA query covers a longer search than the paper example.
TEST(PathFinderTest, TsqlModeMatchesNsql) {
  struct Query {
    EdgeList list;
    node_id_t s, t;
    weight_t lthd;
    weight_t distance;
    std::vector<node_id_t> path;
  };
  const Query queries[] = {
      {PaperFigure1Graph(), 0, 10, 6, 14, {0, 1, 5, 7, 10}},
      {GenerateBarabasiAlbert(300, 3, WeightRange{1, 100}, 5), 3, 250, 25, 91,
       {3, 10, 85, 20, 250}}};
  struct Counts {
    int64_t nsql_statements, split_statements, expansions, visited_rows;
  };
  // [query][BSDJ, BSEG]
  const Counts counts[2][2] = {{{59, 69, 10, 11}, {39, 45, 6, 11}},
                               {{124, 147, 23, 106}, {44, 51, 7, 226}}};
  struct Plan {
    SqlMode mode;
    EngineProfile profile;
  };
  const Plan plans[] = {{SqlMode::kNsql, EngineProfile::kDbmsX},
                        {SqlMode::kTsql, EngineProfile::kDbmsX},
                        {SqlMode::kNsql, EngineProfile::kPostgres90}};
  for (size_t qi = 0; qi < 2; qi++) {
    const Query& q = queries[qi];
    for (IndexStrategy strategy :
         {IndexStrategy::kCluIndex, IndexStrategy::kNoIndex}) {
      for (size_t ai = 0; ai < 2; ai++) {
        const Algorithm algo = ai == 0 ? Algorithm::kBSDJ : Algorithm::kBSEG;
        for (const Plan& plan : plans) {
          SCOPED_TRACE("query " + std::to_string(qi) + " " +
                       IndexStrategyName(strategy) + "/" +
                       AlgorithmName(algo) + "/" + SqlModeName(plan.mode) +
                       (plan.profile == EngineProfile::kPostgres90 ? "/pg"
                                                                   : ""));
          DatabaseOptions dopts;
          dopts.profile = plan.profile;
          Database db(dopts);
          std::unique_ptr<GraphStore> graph;
          GraphStoreOptions gopts;
          gopts.strategy = strategy;
          ASSERT_TRUE(GraphStore::Create(&db, q.list, gopts, &graph).ok());
          std::unique_ptr<SegTable> segtable;
          if (algo == Algorithm::kBSEG) {
            SegTableOptions sopts;
            sopts.lthd = q.lthd;
            sopts.sql_mode = plan.mode;
            sopts.strategy = strategy;
            ASSERT_TRUE(
                SegTable::Build(&db, graph.get(), sopts, &segtable).ok());
          }
          PathFinderOptions opts;
          opts.algorithm = algo;
          opts.sql_mode = plan.mode;
          std::unique_ptr<PathFinder> finder;
          ASSERT_TRUE(
              PathFinder::Create(graph.get(), opts, &finder, segtable.get())
                  .ok());
          PathQueryResult result;
          ASSERT_TRUE(finder->Find(q.s, q.t, &result).ok());
          ASSERT_TRUE(result.found);
          EXPECT_EQ(result.distance, q.distance);
          EXPECT_EQ(result.distance,
                    MemGraph(q.list).Dijkstra(q.s, q.t).distance);
          EXPECT_EQ(result.path, q.path);
          const Counts& c = counts[qi][ai];
          const bool merge = plan.mode == SqlMode::kNsql &&
                             plan.profile == EngineProfile::kDbmsX;
          EXPECT_EQ(result.stats.statements,
                    merge ? c.nsql_statements : c.split_statements);
          EXPECT_EQ(result.stats.expansions, c.expansions);
          EXPECT_EQ(result.stats.visited_rows, c.visited_rows);
        }
      }
    }
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

// The paper's FEM loop clears TVisited for every query. That clear must
// recycle the table's pages: after warm-up, a steady stream of queries
// grows neither the page file nor (in memory, where nothing is evicted)
// the write-back count, every answer stays right, and the database still
// snapshots and validates cleanly with recycled pages in it.
TEST(PathFinderTest, SteadyStateQueriesRecycleVisitedPages) {
  const node_id_t n = 600;
  const EdgeList list = GenerateBarabasiAlbert(n, 2, WeightRange{1, 100}, 7);
  const MemGraph mem(list);
  Rng rng(11);
  std::vector<std::pair<node_id_t, node_id_t>> queries;
  for (int i = 0; i < 200; i++) {
    queries.emplace_back(rng.NextInt(0, n - 1), rng.NextInt(0, n - 1));
  }
  const std::string snapshot =
      (std::filesystem::temp_directory_path() /
       ("relgraph_steady_" + std::to_string(::getpid()) + ".snap"))
          .string();

  for (bool in_memory : {true, false}) {
    SCOPED_TRACE(in_memory ? "in memory" : "file-backed, 64-page pool");
    DatabaseOptions dopts;
    dopts.in_memory = in_memory;
    if (!in_memory) dopts.buffer_pool_pages = 64;
    Database db(dopts);
    ASSERT_EQ(db.disk()->in_memory(), in_memory);
    std::unique_ptr<GraphStore> graph;
    GraphStoreOptions gopts;
    gopts.strategy = IndexStrategy::kCluIndex;
    ASSERT_TRUE(GraphStore::Create(&db, list, gopts, &graph).ok());
    PathFinderOptions opts;
    opts.algorithm = Algorithm::kBSDJ;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(PathFinder::Create(graph.get(), opts, &finder).ok());

    auto run_all = [&] {
      for (const auto& [s, t] : queries) {
        PathQueryResult r;
        Status st = finder->Find(s, t, &r);
        ASSERT_TRUE(st.ok()) << st.ToString();
        const MemPathResult want = mem.Dijkstra(s, t);
        ASSERT_EQ(r.found, want.found) << s << "->" << t;
        if (want.found) {
          EXPECT_EQ(r.distance, want.distance) << s << "->" << t;
          EXPECT_EQ(mem.PathLength(r.path), want.distance) << s << "->" << t;
        }
      }
    };
    run_all();  // warm-up: the free list reaches its high-water mark
    const page_id_t pages = db.disk()->num_pages();
    const int64_t writebacks = db.buffer_pool()->stats().dirty_writebacks;
    run_all();
    EXPECT_EQ(db.disk()->num_pages(), pages);
    if (in_memory) {
      EXPECT_EQ(db.buffer_pool()->stats().dirty_writebacks, writebacks);
    }

    for (const std::string& name : db.catalog()->TableNames()) {
      Status st = db.catalog()->GetTable(name)->CheckConsistency();
      EXPECT_TRUE(st.ok()) << name << ": " << st.ToString();
    }
    ASSERT_TRUE(WriteDatabaseSnapshot(&db, "steady state", snapshot).ok());
    int64_t verified = 0;
    Status st = VerifySnapshotPages(snapshot, &verified);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(verified, pages + 1);  // every page plus the manifest
    std::filesystem::remove(snapshot);
  }
}

}  // namespace
}  // namespace relgraph
