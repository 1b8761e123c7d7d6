#include "src/core/segtable.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/path_finder.h"
#include "src/graph/generators.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace {

DatabaseOptions ProfileOptions(EngineProfile profile) {
  DatabaseOptions opts;
  opts.profile = profile;
  return opts;
}

struct SegFixture {
  SegFixture(const EdgeList& list, weight_t lthd, SqlMode mode = SqlMode::kNsql,
             IndexStrategy strategy = IndexStrategy::kCluIndex,
             EngineProfile profile = EngineProfile::kDbmsX)
      : db(ProfileOptions(profile)), mem(list) {
    GraphStoreOptions gopts;
    gopts.strategy = strategy;
    Status st = GraphStore::Create(&db, list, gopts, &graph);
    EXPECT_TRUE(st.ok()) << st.ToString();
    SegTableOptions opts;
    opts.lthd = lthd;
    opts.sql_mode = mode;
    opts.strategy = strategy;
    st = SegTable::Build(&db, graph.get(), opts, &segtable, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  std::map<std::pair<node_id_t, node_id_t>, std::pair<node_id_t, weight_t>>
  OutSegs() {
    std::map<std::pair<node_id_t, node_id_t>, std::pair<node_id_t, weight_t>>
        out;
    auto it = segtable->out_segs()->Scan();
    Tuple t;
    while (it.Next(&t, nullptr)) {
      out[{t.value(0).AsInt(), t.value(1).AsInt()}] = {t.value(2).AsInt(),
                                                       t.value(3).AsInt()};
    }
    return out;
  }

  /// Every row of `table`, every column, in scan order.
  static std::vector<std::vector<int64_t>> Rows(Table* table) {
    std::vector<std::vector<int64_t>> rows;
    auto it = table->Scan();
    Tuple t;
    while (it.Next(&t, nullptr)) {
      std::vector<int64_t> row;
      for (size_t i = 0; i < t.NumValues(); i++) {
        row.push_back(t.value(i).AsInt());
      }
      rows.push_back(std::move(row));
    }
    EXPECT_TRUE(it.status().ok()) << it.status().ToString();
    return rows;
  }

  Database db;
  MemGraph mem;
  std::unique_ptr<GraphStore> graph;
  std::unique_ptr<SegTable> segtable;
  SegTableBuildStats stats;
};

/// Every TOutSegs tuple with cost <= lthd is the
/// true shortest distance (with a valid predecessor), and every pair within
/// lthd is present.
TEST(SegTableTest, OutSegsMatchBoundedShortestDistances) {
  EdgeList list = GenerateBarabasiAlbert(150, 3, WeightRange{1, 20}, 11);
  const weight_t lthd = 25;
  SegFixture fx(list, lthd);
  auto segs = fx.OutSegs();

  for (node_id_t u = 0; u < list.num_nodes; u++) {
    auto dist = fx.mem.SingleSourceDistances(u, lthd);
    for (node_id_t v = 0; v < list.num_nodes; v++) {
      if (u == v) continue;
      auto it = segs.find({u, v});
      if (dist[v] <= lthd) {
        ASSERT_NE(it, segs.end()) << "missing segment " << u << "->" << v;
        EXPECT_EQ(it->second.second, dist[v])
            << "wrong distance for " << u << "->" << v;
      }
    }
  }
}

TEST(SegTableTest, ResidualEdgesArePreserved) {
  // Graph where one edge exceeds lthd: it must appear as-is in TOutSegs
  // (Definition 4 case 2), like the paper's edge (e,h) in Figure 4.
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1, 2}, {1, 2, 50}};
  SegFixture fx(list, /*lthd=*/6);
  auto segs = fx.OutSegs();
  ASSERT_TRUE(segs.count({1, 2}));
  EXPECT_EQ((segs[{1, 2}].second), 50);
  EXPECT_EQ((segs[{1, 2}].first), 1);  // pid = source itself for raw edges
  ASSERT_TRUE(segs.count({0, 1}));
  EXPECT_EQ((segs[{0, 1}].second), 2);
  // (0,2) has distance 52 > lthd and is not an edge: absent.
  EXPECT_FALSE(segs.count({0, 2}));
}

TEST(SegTableTest, DominatedEdgeIsReplacedBySegment) {
  // Edge 0->2 of weight 10 is dominated by the path 0->1->2 of length 4.
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1, 2}, {1, 2, 2}, {0, 2, 10}};
  SegFixture fx(list, /*lthd=*/6);
  auto segs = fx.OutSegs();
  ASSERT_TRUE(segs.count({0, 2}));
  EXPECT_EQ((segs[{0, 2}].second), 4);   // the segment, not the edge
  EXPECT_EQ((segs[{0, 2}].first), 1);    // pre(2) on the path 0->1->2
}

TEST(SegTableTest, PrefixPropertyHolds) {
  // Every proper prefix of a stored segment is itself a stored segment —
  // this is what segment-interior path recovery relies on.
  EdgeList list = GenerateBarabasiAlbert(120, 3, WeightRange{1, 10}, 4);
  const weight_t lthd = 20;
  SegFixture fx(list, lthd);
  auto segs = fx.OutSegs();
  for (const auto& [key, val] : segs) {
    auto [u, v] = key;
    auto [pid, cost] = val;
    if (pid == u) continue;  // single edge
    auto it = segs.find({u, pid});
    ASSERT_NE(it, segs.end())
        << "prefix " << u << "->" << pid << " missing for segment " << u
        << "->" << v;
    EXPECT_LT(it->second.second, cost);
  }
}

TEST(SegTableTest, InSegsMirrorsOutSegsDistances) {
  EdgeList list = GenerateBarabasiAlbert(100, 3, WeightRange{1, 10}, 8);
  SegFixture fx(list, 15);
  // For every out-segment (u,v,δ) there is an in-segment keyed (u,v) with
  // the same distance (the graph is symmetric only in storage direction —
  // distances must match pairwise exactly).
  std::map<std::pair<node_id_t, node_id_t>, weight_t> in;
  auto it = fx.segtable->in_segs()->Scan();
  Tuple t;
  while (it.Next(&t, nullptr)) {
    in[{t.value(0).AsInt(), t.value(1).AsInt()}] = t.value(3).AsInt();
  }
  auto out = fx.OutSegs();
  ASSERT_EQ(in.size(), out.size());
  for (const auto& [key, val] : out) {
    auto iit = in.find(key);
    ASSERT_NE(iit, in.end());
    EXPECT_EQ(iit->second, val.second);
  }
}

TEST(SegTableTest, LargerThresholdYieldsMoreEntries) {
  EdgeList list = GenerateBarabasiAlbert(200, 3, WeightRange{1, 50}, 13);
  int64_t prev = -1;
  for (weight_t lthd : {5, 20, 60}) {
    Database db{DatabaseOptions{}};
    std::unique_ptr<GraphStore> graph;
    ASSERT_TRUE(
        GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
    SegTableOptions opts;
    opts.lthd = lthd;
    std::unique_ptr<SegTable> segtable;
    ASSERT_TRUE(SegTable::Build(&db, graph.get(), opts, &segtable).ok());
    EXPECT_GE(segtable->num_out_entries(), prev);
    prev = segtable->num_out_entries();
  }
}

/// The three construction plans must build the same SegTable, row for row
/// in both directions: NSQL (window dedup, one MERGE), TSQL (GROUP BY + MIN
/// re-join, UPDATE then INSERT) and NSQL on the PostgreSQL 9.0 profile
/// (window dedup, UPDATE then INSERT). The counts are pinned; an
/// update+insert pair counts one statement more per iteration than MERGE.
TEST(SegTableTest, TsqlConstructionMatchesNsql) {
  const EdgeList list = GenerateBarabasiAlbert(100, 3, WeightRange{1, 20}, 21);
  struct Plan {
    SqlMode mode;
    EngineProfile profile;
    int64_t statements;
  };
  const Plan plans[] = {{SqlMode::kNsql, EngineProfile::kDbmsX, 216},
                        {SqlMode::kTsql, EngineProfile::kDbmsX, 268},
                        {SqlMode::kNsql, EngineProfile::kPostgres90, 268}};
  for (IndexStrategy strategy :
       {IndexStrategy::kCluIndex, IndexStrategy::kNoIndex}) {
    std::vector<std::vector<int64_t>> out0, in0;
    for (const Plan& plan : plans) {
      SCOPED_TRACE(std::string(IndexStrategyName(strategy)) + "/" +
                   SqlModeName(plan.mode) +
                   (plan.profile == EngineProfile::kPostgres90 ? "/pg" : ""));
      SegFixture fx(list, 25, plan.mode, strategy, plan.profile);
      EXPECT_EQ(fx.stats.out_entries, 8678);
      EXPECT_EQ(fx.stats.in_entries, 8678);
      EXPECT_EQ(fx.stats.iterations, 52);
      EXPECT_EQ(fx.stats.statements, plan.statements);
      auto out = SegFixture::Rows(fx.segtable->out_segs());
      auto in = SegFixture::Rows(fx.segtable->in_segs());
      if (out0.empty()) {
        out0 = std::move(out);
        in0 = std::move(in);
        continue;
      }
      EXPECT_TRUE(out == out0);
      EXPECT_TRUE(in == in0);
    }
  }
}

TEST(SegTableTest, BuildStatsArePopulated) {
  EdgeList list = GenerateBarabasiAlbert(100, 3, WeightRange{1, 20}, 5);
  SegFixture fx(list, 10);
  EXPECT_GT(fx.stats.out_entries, 0);
  EXPECT_GT(fx.stats.in_entries, 0);
  EXPECT_GT(fx.stats.iterations, 0);
  EXPECT_GT(fx.stats.statements, 0);
  EXPECT_GT(fx.stats.build_us, 0);
  EXPECT_EQ(fx.stats.out_entries, fx.segtable->num_out_entries());
}

/// Incremental maintenance: inserting edges one by one into graph +
/// SegTable must land in the same (fid, tid, dist) set as rebuilding the
/// SegTable from scratch on the final graph. The maintained side runs
/// under every index strategy; the rebuild oracle runs under kCluIndex
/// (the map compared is a property of the graph alone).
TEST(SegTableIncrementalTest, EdgeInsertionMatchesRebuild) {
  for (IndexStrategy strategy :
       {IndexStrategy::kCluIndex, IndexStrategy::kIndex,
        IndexStrategy::kNoIndex}) {
    // NoIndex reads every key range with a full scan, one per upsert; a
    // smaller graph keeps the same property under test within the
    // suite's time budget.
    const int64_t nodes = strategy == IndexStrategy::kNoIndex ? 60 : 120;
    for (uint64_t seed : {3u, 9u}) {
      SCOPED_TRACE(std::string(IndexStrategyName(strategy)) + " seed " +
                   std::to_string(seed));
      EdgeList list =
          GenerateBarabasiAlbert(nodes, 3, WeightRange{1, 20}, seed);
      // Hold out the last 12 edges (6 undirected pairs).
      EdgeList base = list;
      std::vector<Edge> held(base.edges.end() - 12, base.edges.end());
      base.edges.resize(base.edges.size() - 12);

      const weight_t lthd = 25;
      Database db{DatabaseOptions{}};
      GraphStoreOptions gopts;
      gopts.strategy = strategy;
      std::unique_ptr<GraphStore> graph;
      ASSERT_TRUE(GraphStore::Create(&db, base, gopts, &graph).ok());
      SegTableOptions opts;
      opts.lthd = lthd;
      opts.prefix = "inc_";
      opts.strategy = strategy;
      std::unique_ptr<SegTable> segtable;
      ASSERT_TRUE(SegTable::Build(&db, graph.get(), opts, &segtable).ok());

      for (const Edge& e : held) {
        ASSERT_TRUE(graph->AddEdge(e).ok());
        int64_t changed;
        Status st = segtable->ApplyEdgeInsertion(e, &changed);
        ASSERT_TRUE(st.ok()) << st.ToString();
      }

      // Rebuild from scratch on the full graph in a second database.
      Database db2{DatabaseOptions{}};
      std::unique_ptr<GraphStore> graph2;
      ASSERT_TRUE(
          GraphStore::Create(&db2, list, GraphStoreOptions{}, &graph2).ok());
      SegTableOptions oracle_opts = opts;
      oracle_opts.strategy = IndexStrategy::kCluIndex;
      std::unique_ptr<SegTable> rebuilt;
      ASSERT_TRUE(
          SegTable::Build(&db2, graph2.get(), oracle_opts, &rebuilt).ok());

      auto snapshot = [](Table* table) {
        std::map<std::pair<node_id_t, node_id_t>, weight_t> out;
        auto it = table->Scan();
        Tuple t;
        while (it.Next(&t, nullptr)) {
          out[{t.value(0).AsInt(), t.value(1).AsInt()}] = t.value(3).AsInt();
        }
        return out;
      };
      EXPECT_EQ(snapshot(segtable->out_segs()), snapshot(rebuilt->out_segs()))
          << "TOutSegs diverged";
      EXPECT_EQ(snapshot(segtable->in_segs()), snapshot(rebuilt->in_segs()))
          << "TInSegs diverged";
    }
  }
}

/// After incremental updates, BSEG must still answer correctly (including
/// paths that use the new edges), under every index strategy.
TEST(SegTableIncrementalTest, BsegCorrectAfterInsertions) {
  EdgeList list = GenerateBarabasiAlbert(150, 3, WeightRange{1, 100}, 17);
  EdgeList base = list;
  std::vector<Edge> held(base.edges.end() - 20, base.edges.end());
  base.edges.resize(base.edges.size() - 20);
  MemGraph mem(list);  // oracle over the FULL graph

  for (IndexStrategy strategy :
       {IndexStrategy::kCluIndex, IndexStrategy::kIndex,
        IndexStrategy::kNoIndex}) {
    SCOPED_TRACE(IndexStrategyName(strategy));
    Database db{DatabaseOptions{}};
    GraphStoreOptions gopts;
    gopts.strategy = strategy;
    std::unique_ptr<GraphStore> graph;
    ASSERT_TRUE(GraphStore::Create(&db, base, gopts, &graph).ok());
    SegTableOptions opts;
    opts.lthd = 30;
    opts.strategy = strategy;
    std::unique_ptr<SegTable> segtable;
    ASSERT_TRUE(SegTable::Build(&db, graph.get(), opts, &segtable).ok());
    for (const Edge& e : held) {
      ASSERT_TRUE(graph->AddEdge(e).ok());
      Status st = segtable->ApplyEdgeInsertion(e);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }

    PathFinderOptions popts;
    popts.algorithm = Algorithm::kBSEG;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(
        PathFinder::Create(graph.get(), popts, &finder, segtable.get()).ok());
    Rng rng(5);
    for (int q = 0; q < 8; q++) {
      node_id_t s = rng.NextInt(0, list.num_nodes - 1);
      node_id_t t = rng.NextInt(0, list.num_nodes - 1);
      MemPathResult oracle = mem.Dijkstra(s, t);
      PathQueryResult result;
      ASSERT_TRUE(finder->Find(s, t, &result).ok());
      ASSERT_EQ(result.found, oracle.found) << "s=" << s << " t=" << t;
      if (oracle.found) {
        EXPECT_EQ(result.distance, oracle.distance) << "s=" << s << " t=" << t;
        EXPECT_EQ(mem.PathLength(result.path), result.distance);
      }
    }
  }
}

TEST(SegTableIncrementalTest, OverThresholdEdgeInsertsRawRows) {
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1, 2}};
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  SegTableOptions opts;
  opts.lthd = 6;
  std::unique_ptr<SegTable> segtable;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), opts, &segtable).ok());
  int64_t before = segtable->num_out_entries();
  ASSERT_TRUE(graph->AddEdge({1, 2, 50}).ok());
  int64_t changed;
  ASSERT_TRUE(segtable->ApplyEdgeInsertion({1, 2, 50}, &changed).ok());
  EXPECT_EQ(changed, 2);  // one raw row per direction table
  EXPECT_EQ(segtable->num_out_entries(), before + 1);
}

/// End to end: BSEG over SegTable returns
/// original-graph shortest distances for every lthd.
TEST(SegTableTest, BsegCorrectAcrossThresholds) {
  // 130 nodes keeps every lthd regime meaningful (3 < min ball, 30 mid,
  // 120 > max edge weight) while the three SegTable builds stay fast.
  EdgeList list = GenerateBarabasiAlbert(130, 3, WeightRange{1, 100}, 31);
  MemGraph mem(list);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());

  Rng rng(7);
  std::vector<std::pair<node_id_t, node_id_t>> queries;
  for (int i = 0; i < 4; i++) {
    queries.emplace_back(rng.NextInt(0, list.num_nodes - 1),
                         rng.NextInt(0, list.num_nodes - 1));
  }
  int idx = 0;
  for (weight_t lthd : {3, 30, 120}) {
    SegTableOptions opts;
    opts.lthd = lthd;
    opts.prefix = "seg" + std::to_string(idx++) + "_";
    std::unique_ptr<SegTable> segtable;
    ASSERT_TRUE(SegTable::Build(&db, graph.get(), opts, &segtable).ok());
    PathFinderOptions popts;
    popts.algorithm = Algorithm::kBSEG;
    std::unique_ptr<PathFinder> finder;
    ASSERT_TRUE(
        PathFinder::Create(graph.get(), popts, &finder, segtable.get()).ok());
    for (auto [s, t] : queries) {
      MemPathResult oracle = mem.Dijkstra(s, t);
      PathQueryResult result;
      ASSERT_TRUE(finder->Find(s, t, &result).ok());
      ASSERT_EQ(result.found, oracle.found) << "lthd=" << lthd;
      if (oracle.found) {
        EXPECT_EQ(result.distance, oracle.distance) << "lthd=" << lthd;
        EXPECT_EQ(mem.PathLength(result.path), result.distance)
            << "lthd=" << lthd;
      }
    }
  }
}

}  // namespace
}  // namespace relgraph
