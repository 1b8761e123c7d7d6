// Hub-label distance index: label-served distances must be bit-identical
// to the FEM/in-memory oracles on every graph (including disconnected
// pairs and self-loops), stale or uncertifiable answers must always fall
// back to FEM rather than answer, label-table DDL must bump the catalog
// version so live prepared handles replan, and a snapshot round-trip must
// serve identical answers without a rebuild.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/sql_path_finder.h"
#include "src/dist/coordinator.h"
#include "src/dist/dist_path_finder.h"
#include "src/graph/generators.h"
#include "src/graph/memgraph.h"
#include "src/labels/label_builder.h"
#include "src/labels/label_probe.h"
#include "src/labels/label_snapshot.h"
#include "src/labels/label_store.h"
#include "src/labels/labeled_path_finder.h"

namespace relgraph {
namespace {

namespace fs = std::filesystem;

/// Random graphs are directed and can be disconnected; spice them further
/// with a few self-loops (legal edges the index must shrug off: they never
/// shorten any path).
EdgeList SpicedRandomGraph(int64_t n, int64_t m, uint64_t seed) {
  EdgeList list = GenerateRandomGraph(n, m, WeightRange{1, 50}, seed);
  for (node_id_t v : {node_id_t{0}, n / 2, n - 1}) {
    list.edges.push_back(Edge{v, v, 7});
  }
  return list;
}

class LabelOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LabelOracleTest, CompleteIndexMatchesOracleOnAllPairs) {
  const uint64_t seed = GetParam();
  EdgeList list = SpicedRandomGraph(60, 150, seed);
  MemGraph mem(list);

  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());

  std::unique_ptr<LabelIndex> index;
  LabelBuildStats stats;
  ASSERT_TRUE(
      LabelBuilder::Build(graph.get(), "", LabelBuildOptions{}, &index, &stats)
          .ok());
  EXPECT_TRUE(index->complete());
  EXPECT_EQ(index->num_hubs(), list.num_nodes);
  EXPECT_GT(stats.entries, 0);

  std::unique_ptr<LabelProbe> probe;
  ASSERT_TRUE(LabelProbe::Create(index.get(), &probe).ok());

  // Every pair, including unreachable ones and s == t: a complete index
  // must answer all of them, bit-identically to the oracle.
  for (node_id_t s = 0; s < list.num_nodes; s++) {
    for (node_id_t t = 0; t < list.num_nodes; t++) {
      MemPathResult oracle = mem.Dijkstra(s, t);
      LabelProbeResult r;
      ASSERT_TRUE(probe->Distance(s, t, &r).ok());
      ASSERT_TRUE(r.answered) << "s=" << s << " t=" << t;
      EXPECT_EQ(r.found, oracle.found) << "s=" << s << " t=" << t;
      if (oracle.found) {
        EXPECT_EQ(r.distance, oracle.distance) << "s=" << s << " t=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelOracleTest,
                         ::testing::Values(1u, 7u, 42u, 1234u));

TEST(LabelIndexTest, PartialIndexNeverAnswersWrong) {
  EdgeList list = GenerateBarabasiAlbert(80, 2, WeightRange{1, 100}, 11);
  MemGraph mem(list);

  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());

  LabelBuildOptions opts;
  opts.max_hubs = 8;  // partial: answers are certified only via witnesses
  std::unique_ptr<LabelIndex> index;
  ASSERT_TRUE(LabelBuilder::Build(graph.get(), "", opts, &index).ok());
  EXPECT_FALSE(index->complete());

  std::unique_ptr<LabelProbe> probe;
  ASSERT_TRUE(LabelProbe::Create(index.get(), &probe).ok());

  int answered = 0;
  for (node_id_t s = 0; s < list.num_nodes; s += 3) {
    for (node_id_t t = 0; t < list.num_nodes; t += 3) {
      MemPathResult oracle = mem.Dijkstra(s, t);
      LabelProbeResult r;
      ASSERT_TRUE(probe->Distance(s, t, &r).ok());
      if (r.answered) {
        answered++;
        EXPECT_EQ(r.found, oracle.found) << "s=" << s << " t=" << t;
        if (oracle.found) {
          EXPECT_EQ(r.distance, oracle.distance);
        }
      } else if (r.found && oracle.found) {
        // Uncertified answers must still be upper bounds — never below
        // the true distance.
        EXPECT_GE(r.distance, oracle.distance) << "s=" << s << " t=" << t;
      }
    }
  }
  EXPECT_GT(answered, 0) << "s == t and witness-at-endpoint probes exist";
}

TEST(LabeledPathFinderTest, ServesHitsAndFallsBackForPaths) {
  EdgeList list = GenerateBarabasiAlbert(100, 2, WeightRange{1, 100}, 3);
  MemGraph mem(list);

  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<LabelIndex> index;
  ASSERT_TRUE(
      LabelBuilder::Build(graph.get(), "", LabelBuildOptions{}, &index).ok());

  std::unique_ptr<LabeledPathFinder> finder;
  ASSERT_TRUE(LabeledPathFinder::Create(graph.get(), index.get(),
                                        LabeledPathFinderOptions{}, &finder)
                  .ok());

  Rng rng(99);
  for (int i = 0; i < 25; i++) {
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    MemPathResult oracle = mem.Dijkstra(s, t);
    PathQueryResult r;
    bool served = false;
    ASSERT_TRUE(finder->Distance(s, t, &r, &served).ok());
    EXPECT_TRUE(served) << "fresh complete index must serve every distance";
    EXPECT_EQ(r.found, oracle.found);
    if (oracle.found) {
      EXPECT_EQ(r.distance, oracle.distance);
    }
    EXPECT_TRUE(r.path.empty()) << "label hits carry no path";
  }
  EXPECT_EQ(finder->counters().label_hits, 25);
  EXPECT_EQ(finder->counters().fallbacks, 0);

  // Full-path queries always run FEM and recover a real path.
  PathQueryResult full;
  ASSERT_TRUE(finder->Find(0, 57, &full).ok());
  MemPathResult oracle = mem.Dijkstra(0, 57);
  EXPECT_EQ(full.found, oracle.found);
  if (oracle.found) {
    EXPECT_EQ(full.distance, oracle.distance);
    EXPECT_FALSE(full.path.empty());
  }
  EXPECT_EQ(finder->counters().path_fallbacks, 1);
  EXPECT_EQ(finder->counters().fallbacks, 1);
}

// Create must leave every statement it needs compiled against the final
// catalog: the fallback finder's DDL runs before the label probe prepares,
// so the first Distance() replans nothing.
TEST(LabeledPathFinderTest, FirstDistanceAfterCreateDoesNotReplan) {
  EdgeList list = GenerateBarabasiAlbert(60, 2, WeightRange{1, 100}, 8);
  MemGraph mem(list);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<LabelIndex> index;
  ASSERT_TRUE(
      LabelBuilder::Build(graph.get(), "", LabelBuildOptions{}, &index).ok());
  std::unique_ptr<LabeledPathFinder> finder;
  ASSERT_TRUE(LabeledPathFinder::Create(graph.get(), index.get(),
                                        LabeledPathFinderOptions{}, &finder)
                  .ok());

  const int64_t prepares_before = db.stats().prepares;
  PathQueryResult r;
  bool served = false;
  ASSERT_TRUE(finder->Distance(3, 41, &r, &served).ok());
  EXPECT_TRUE(served);
  EXPECT_EQ(db.stats().prepares, prepares_before)
      << "the first Distance() after Create recompiled its statements";
  MemPathResult oracle = mem.Dijkstra(3, 41);
  EXPECT_EQ(r.found, oracle.found);
  if (oracle.found) {
    EXPECT_EQ(r.distance, oracle.distance);
  }
}

TEST(LabeledPathFinderTest, StaleLabelsAlwaysFallBack) {
  EdgeList list = GenerateBarabasiAlbert(60, 2, WeightRange{10, 100}, 5);

  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<LabelIndex> index;
  ASSERT_TRUE(
      LabelBuilder::Build(graph.get(), "", LabelBuildOptions{}, &index).ok());
  std::unique_ptr<LabeledPathFinder> finder;
  ASSERT_TRUE(LabeledPathFinder::Create(graph.get(), index.get(),
                                        LabeledPathFinderOptions{}, &finder)
                  .ok());

  PathQueryResult before;
  bool served = false;
  ASSERT_TRUE(finder->Distance(1, 40, &before, &served).ok());
  ASSERT_TRUE(served);

  // A shortcut edge the labels know nothing about. From here on, *every*
  // query must take FEM — even ones the mutation did not affect.
  ASSERT_TRUE(graph->AddEdge(Edge{1, 40, 1}).ok());
  PathQueryResult after;
  ASSERT_TRUE(finder->Distance(1, 40, &after, &served).ok());
  EXPECT_FALSE(served);
  EXPECT_TRUE(after.found);
  EXPECT_EQ(after.distance, 1) << "fallback must see the new edge";
  ASSERT_TRUE(finder->Distance(2, 3, &after, &served).ok());
  EXPECT_FALSE(served);
  EXPECT_EQ(finder->counters().stale_fallbacks, 2);

  // Removal is a mutation too (and RemoveEdge does not restore the old
  // epoch — the labels stay untrusted).
  ASSERT_TRUE(graph->RemoveEdge(Edge{1, 40, 1}).ok());
  ASSERT_TRUE(finder->Distance(1, 40, &after, &served).ok());
  EXPECT_FALSE(served);
  EXPECT_EQ(after.distance, before.distance);
  EXPECT_EQ(finder->counters().label_hits, 1);
}

// The satellite regression: building labels mid-session is DDL in the
// *same* database a prepared FEM client already holds compiled plans
// against. The catalog version must move so those handles replan; their
// answers must stay correct before and after.
TEST(LabelIndexTest, BuildDdlBumpsCatalogVersionAndPreparedHandlesSurvive) {
  EdgeList list = GenerateBarabasiAlbert(80, 2, WeightRange{1, 100}, 21);
  MemGraph mem(list);

  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());

  std::unique_ptr<SqlPathFinder> fem;
  ASSERT_TRUE(
      SqlPathFinder::Create(graph.get(), SqlPathFinderOptions{}, &fem).ok());
  PathQueryResult r;
  ASSERT_TRUE(fem->Find(0, 33, &r).ok());
  MemPathResult oracle = mem.Dijkstra(0, 33);
  ASSERT_EQ(r.found, oracle.found);

  const uint64_t version_before = db.catalog()->version();
  std::unique_ptr<LabelIndex> index;
  ASSERT_TRUE(
      LabelBuilder::Build(graph.get(), "", LabelBuildOptions{}, &index).ok());
  EXPECT_GT(db.catalog()->version(), version_before)
      << "label DDL must bump the catalog version";

  // The old handles replan transparently (EnsureFresh) and keep answering
  // bit-identically.
  Rng rng(4);
  for (int i = 0; i < 8; i++) {
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    MemPathResult want = mem.Dijkstra(s, t);
    PathQueryResult got;
    ASSERT_TRUE(fem->Find(s, t, &got).ok()) << "s=" << s << " t=" << t;
    EXPECT_EQ(got.found, want.found);
    if (want.found) {
      EXPECT_EQ(got.distance, want.distance);
    }
  }
}

/// FNV-1a over every row of `table` in physical scan order.
uint64_t TableChecksum(Table* table, int64_t* rows) {
  uint64_t h = 0xcbf29ce484222325ULL;
  *rows = 0;
  Table::Iterator it = table->Scan();
  Tuple row;
  while (it.Next(&row, nullptr)) {
    for (char c : row.ToString() + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    (*rows)++;
  }
  EXPECT_TRUE(it.status().ok());
  return h;
}

// Golden build: the label-build SQL pipeline must keep issuing the same
// statements and frontier rounds and produce label tables that match row
// for row in physical order. The figures were captured from the engine
// before its executor was reduced to a single pull; any drift means an
// operator changed visible semantics, not just speed.
TEST(LabelIndexTest, BuildMatchesGoldenStatementsAndTables) {
  EdgeList list = SpicedRandomGraph(60, 150, 23);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<LabelIndex> index;
  LabelBuildStats stats;
  ASSERT_TRUE(LabelBuilder::Build(graph.get(), "", LabelBuildOptions{},
                                  &index, &stats)
                  .ok());
  int64_t out_rows = 0, in_rows = 0;
  const uint64_t out_sum =
      TableChecksum(db.catalog()->GetTable(index->out_name()), &out_rows);
  const uint64_t in_sum =
      TableChecksum(db.catalog()->GetTable(index->in_name()), &in_rows);
  EXPECT_EQ(stats.hubs, 60);
  EXPECT_EQ(stats.statements, 5963);
  EXPECT_EQ(stats.rounds, 1204);
  EXPECT_EQ(stats.entries, 848);
  EXPECT_EQ(out_rows, 430);
  EXPECT_EQ(in_rows, 418);
  EXPECT_EQ(out_sum, 17796097132114946009ULL);
  EXPECT_EQ(in_sum, 13120822873581793742ULL);
}

TEST(LabelIndexTest, SecondBuildRefusesAndAttachRoundTrips) {
  EdgeList list = GenerateBarabasiAlbert(30, 2, WeightRange{1, 10}, 2);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<LabelIndex> index;
  ASSERT_TRUE(
      LabelBuilder::Build(graph.get(), "", LabelBuildOptions{}, &index).ok());

  std::unique_ptr<LabelIndex> dup;
  EXPECT_TRUE(
      LabelBuilder::Build(graph.get(), "", LabelBuildOptions{}, &dup)
          .IsAlreadyExists());

  std::unique_ptr<LabelIndex> attached;
  ASSERT_TRUE(LabelIndex::Attach(&db, "", &attached).ok());
  EXPECT_EQ(attached->num_hubs(), index->num_hubs());
  EXPECT_EQ(attached->complete(), index->complete());
  EXPECT_EQ(attached->num_entries(), index->num_entries());
  EXPECT_EQ(attached->built_mutation_epoch(), index->built_mutation_epoch());
}

class LabelSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("relgraph_labels_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string Path(const std::string& name) {
    return (fs::path(dir_) / name).string();
  }
  std::string dir_;
};

TEST_F(LabelSnapshotTest, RoundTripServesIdenticalAnswersWithoutRebuild) {
  EdgeList list = SpicedRandomGraph(50, 120, 17);
  MemGraph mem(list);

  std::unique_ptr<LabelStore> built;
  ASSERT_TRUE(LabelStore::Build(list, LabelBuildOptions{}, &built).ok());
  const std::string path = Path("labels.snap");
  ASSERT_TRUE(built->WriteSnapshot(path).ok());

  std::unique_ptr<LabelStore> restored;
  ASSERT_TRUE(LabelStore::Load(path, &restored).ok());
  EXPECT_TRUE(restored->labels()->complete());
  EXPECT_EQ(restored->labels()->num_entries(),
            built->labels()->num_entries());
  EXPECT_FALSE(restored->stale());

  std::unique_ptr<LabelProbe> probe;
  ASSERT_TRUE(LabelProbe::Create(restored->labels(), &probe).ok());
  Rng rng(31);
  for (int i = 0; i < 60; i++) {
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    MemPathResult oracle = mem.Dijkstra(s, t);
    LabelProbeResult r;
    ASSERT_TRUE(probe->Distance(s, t, &r).ok());
    ASSERT_TRUE(r.answered);
    EXPECT_EQ(r.found, oracle.found) << "s=" << s << " t=" << t;
    if (oracle.found) {
      EXPECT_EQ(r.distance, oracle.distance);
    }
  }
}

TEST_F(LabelSnapshotTest, CorruptedSnapshotRefusesToLoad) {
  EdgeList list = GenerateBarabasiAlbert(30, 2, WeightRange{1, 10}, 9);
  std::unique_ptr<LabelStore> built;
  ASSERT_TRUE(LabelStore::Build(list, LabelBuildOptions{}, &built).ok());
  const std::string path = Path("labels.snap");
  ASSERT_TRUE(built->WriteSnapshot(path).ok());

  // Flip one byte in the middle of the file: the CRC-checked load must
  // refuse with a typed error, never serve a half-readable index.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::cur);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  std::unique_ptr<LabelStore> restored;
  Status s = LabelStore::Load(path, &restored);
  EXPECT_FALSE(s.ok());
}

TEST(DistLabelTest, CoordinatorServesLabelHitsWithoutFanOut) {
  EdgeList list = GenerateBarabasiAlbert(90, 2, WeightRange{1, 100}, 13);
  MemGraph mem(list);

  ShardedGraphOptions shard_opts;
  shard_opts.num_shards = 3;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, shard_opts, &store).ok());
  std::unique_ptr<DistCoordinator> coord;
  ASSERT_TRUE(DistCoordinator::Create(store.get(), DistOptions{}, &coord).ok());

  std::unique_ptr<LabelStore> labels;
  ASSERT_TRUE(LabelStore::Build(list, LabelBuildOptions{}, &labels).ok());
  LabelStore* labels_raw = labels.get();
  coord->AttachLabels(std::move(labels));

  std::unique_ptr<DistPathFinder> session;
  ASSERT_TRUE(coord->NewSession(&session).ok());

  Rng rng(55);
  for (int i = 0; i < 20; i++) {
    node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    MemPathResult oracle = mem.Dijkstra(s, t);
    DistPathResult r;
    bool served = false;
    ASSERT_TRUE(session->Distance(s, t, &r, &served).ok());
    EXPECT_TRUE(served);
    EXPECT_EQ(r.found, oracle.found) << "s=" << s << " t=" << t;
    if (oracle.found) {
      EXPECT_EQ(r.distance, oracle.distance);
    }
    EXPECT_EQ(r.stats.rounds, 0) << "label hits must not fan out to shards";
    EXPECT_EQ(r.stats.shard_statements, 0);
    EXPECT_EQ(r.stats.rows_shipped, 0);
  }
  EXPECT_EQ(coord->LabelCounters().label_hits, 20);
  EXPECT_EQ(coord->LabelCounters().fallbacks, 0);

  // Mutating the label store's graph makes the labels stale: every
  // subsequent Distance() must run the full distributed FEM search (and
  // still match the oracle).
  ASSERT_TRUE(labels_raw->graph()->AddEdge(Edge{0, 1, 1}).ok());
  DistPathResult r;
  bool served = true;
  ASSERT_TRUE(session->Distance(2, 70, &r, &served).ok());
  EXPECT_FALSE(served);
  MemPathResult oracle = mem.Dijkstra(2, 70);
  EXPECT_EQ(r.found, oracle.found);
  if (oracle.found) {
    EXPECT_EQ(r.distance, oracle.distance);
  }
  EXPECT_GT(r.stats.rounds, 0);
  EXPECT_EQ(coord->LabelCounters().stale_fallbacks, 1);

  // A session minted on a label-less coordinator still works: Distance()
  // is just Find() without the fast path.
  std::unique_ptr<DistCoordinator> bare;
  ASSERT_TRUE(DistCoordinator::Create(store.get(), DistOptions{}, &bare).ok());
  std::unique_ptr<DistPathFinder> bare_session;
  ASSERT_TRUE(bare->NewSession(&bare_session).ok());
  ASSERT_TRUE(bare_session->Distance(2, 70, &r, &served).ok());
  EXPECT_FALSE(served);
  EXPECT_EQ(r.found, oracle.found);
}

}  // namespace
}  // namespace relgraph
