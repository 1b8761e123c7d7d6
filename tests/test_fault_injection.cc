// Failure injection through the whole stack: a disk fault (injected at the
// DiskManager) must surface as an error Status — never a crash, hang, or
// silently wrong result — at every layer above it: buffer pool, heap file /
// B+-tree, table, executors, the SQL engine, and the path finders.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/path_finder.h"
#include "src/core/prim_mst.h"
#include "src/core/segtable.h"
#include "src/db/database.h"
#include "src/graph/generators.h"
#include "src/sql/sql_engine.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"

namespace relgraph {
namespace {

TEST(FaultInjection, DiskReadFaultFailsImmediately) {
  DiskManager disk;
  page_id_t id = disk.AllocatePage();
  char buf[kPageSize];
  disk.InjectReadFaultAfter(0);
  Status s = disk.ReadPage(id, buf);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // The fault is sticky until cleared.
  EXPECT_TRUE(disk.ReadPage(id, buf).IsIOError());
  disk.ClearFaults();
  EXPECT_TRUE(disk.ReadPage(id, buf).ok());
}

TEST(FaultInjection, DiskFaultCountdownSparesEarlierOps) {
  DiskManager disk;
  page_id_t id = disk.AllocatePage();
  char buf[kPageSize];
  disk.InjectReadFaultAfter(2);
  EXPECT_TRUE(disk.ReadPage(id, buf).ok());
  EXPECT_TRUE(disk.ReadPage(id, buf).ok());
  EXPECT_TRUE(disk.ReadPage(id, buf).IsIOError());
}

TEST(FaultInjection, BufferPoolPropagatesReadFaultOnMiss) {
  DiskManager disk;
  BufferPool pool(4, &disk);
  page_id_t id;
  Page* page = nullptr;
  ASSERT_TRUE(pool.NewPage(&id, &page).ok());
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  // Evict it by filling the pool, then force a re-read under a fault.
  for (int i = 0; i < 4; i++) {
    page_id_t other;
    Page* p;
    ASSERT_TRUE(pool.NewPage(&other, &p).ok());
    ASSERT_TRUE(pool.UnpinPage(other, false).ok());
  }
  disk.InjectReadFaultAfter(0);
  Status s = pool.FetchPage(id, &page);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  disk.ClearFaults();
  EXPECT_TRUE(pool.FetchPage(id, &page).ok());
  EXPECT_TRUE(pool.UnpinPage(id, false).ok());
}

TEST(FaultInjection, BufferPoolPropagatesWriteFaultOnEviction) {
  DiskManager disk;
  BufferPool pool(2, &disk);
  page_id_t dirty_id;
  Page* page = nullptr;
  ASSERT_TRUE(pool.NewPage(&dirty_id, &page).ok());
  page->data()[0] = 'x';
  ASSERT_TRUE(pool.UnpinPage(dirty_id, /*is_dirty=*/true).ok());

  disk.InjectWriteFaultAfter(0);
  // Filling the pool forces the dirty page's write-back.
  Status last = Status::OK();
  for (int i = 0; i < 3 && last.ok(); i++) {
    page_id_t id;
    Page* p;
    last = pool.NewPage(&id, &p);
    if (last.ok()) {
      ASSERT_TRUE(pool.UnpinPage(id, false).ok());
    }
  }
  EXPECT_TRUE(last.IsIOError()) << last.ToString();
}

TEST(FaultInjection, TableInsertSurfacesWriteFault) {
  DatabaseOptions opts;
  opts.buffer_pool_pages = 8;  // small pool: inserts must hit the disk
  Database db(opts);
  sql::SqlEngine conn(&db);
  ASSERT_TRUE(conn.Execute("create table t (a int, b int)").ok());

  db.disk()->InjectWriteFaultAfter(0);
  Status failed = Status::OK();
  for (int i = 0; i < 5000 && failed.ok(); i++) {
    failed = conn.Execute("insert into t values (" + std::to_string(i) +
                          ", " + std::to_string(i * 2) + ")");
  }
  EXPECT_TRUE(failed.IsIOError()) << "inserts never touched the disk";
  db.disk()->ClearFaults();
}

TEST(FaultInjection, SelectSurfacesReadFault) {
  DatabaseOptions opts;
  opts.buffer_pool_pages = 8;
  Database db(opts);
  sql::SqlEngine conn(&db);
  ASSERT_TRUE(conn.Execute("create table t (a int)").ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        conn.Execute("insert into t values (" + std::to_string(i) + ")").ok());
  }
  // Push t's early pages out of the tiny pool with another table.
  ASSERT_TRUE(conn.Execute("create table filler (a int)").ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(conn.Execute("insert into filler values (1)").ok());
  }
  db.disk()->InjectReadFaultAfter(0);
  sql::SqlResult r;
  Status s = conn.Execute("select count(*) from t", &r);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  db.disk()->ClearFaults();
  ASSERT_TRUE(conn.Execute("select count(*) from t", &r).ok());
  EXPECT_EQ(r.Scalar().AsInt(), 2000);
}

TEST(FaultInjection, PathFinderSurfacesFaultMidQuery) {
  EdgeList list = GenerateBarabasiAlbert(400, 3, WeightRange{1, 50}, 9);
  DatabaseOptions opts;
  opts.buffer_pool_pages = 16;  // force steady page traffic during search
  Database db(opts);
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<PathFinder> finder;
  ASSERT_TRUE(PathFinder::Create(graph.get(), PathFinderOptions{}, &finder)
                  .ok());

  // Sanity: works before the fault.
  PathQueryResult r;
  ASSERT_TRUE(finder->Find(0, 300, &r).ok());
  ASSERT_TRUE(r.found);

  db.disk()->InjectReadFaultAfter(5);
  Status s = finder->Find(0, 300, &r);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();

  // And the engine recovers once the "disk" does.
  db.disk()->ClearFaults();
  PathQueryResult again;
  ASSERT_TRUE(finder->Find(1, 200, &again).ok());
}

/// Every row of a segs table: (fid, tid) -> (pid, cost).
std::map<std::pair<int64_t, int64_t>, std::pair<int64_t, int64_t>> SegRows(
    Table* table) {
  std::map<std::pair<int64_t, int64_t>, std::pair<int64_t, int64_t>> rows;
  auto it = table->Scan();
  Tuple t;
  while (it.Next(&t, nullptr)) {
    rows[{t.value(0).AsInt(), t.value(1).AsInt()}] = {t.value(2).AsInt(),
                                                      t.value(3).AsInt()};
  }
  EXPECT_TRUE(it.status().ok()) << it.status().ToString();
  return rows;
}

std::set<std::string> TableNameSet(Database* db) {
  const std::vector<std::string> names = db->catalog()->TableNames();
  return {names.begin(), names.end()};
}

/// A SegTable build, a deletion maintenance run or a Prim run that fails
/// on a disk fault drops the tables it created, so the catalog is as it
/// was and a retry under the same names succeeds, equal to a fresh run.
TEST(FaultInjection, FailedBuildsDropTheirTables) {
  EdgeList list = GenerateBarabasiAlbert(300, 3, WeightRange{1, 20}, 5);
  DatabaseOptions opts;
  opts.buffer_pool_pages = 16;  // the builds' pages must reach the disk
  Database db(opts);
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  const std::set<std::string> tables = TableNameSet(&db);
  SegTableOptions sopts;
  sopts.lthd = 20;
  sopts.prefix = "ft_";

  for (bool reads : {false, true}) {
    for (int64_t countdown : {0, 3, 40, 400}) {
      SCOPED_TRACE(std::string(reads ? "read" : "write") + " fault after " +
                   std::to_string(countdown));
      if (reads) {
        db.disk()->InjectReadFaultAfter(countdown);
      } else {
        db.disk()->InjectWriteFaultAfter(countdown);
      }
      std::unique_ptr<SegTable> segtable;
      Status built = SegTable::Build(&db, graph.get(), sopts, &segtable);
      EXPECT_TRUE(built.IsIOError()) << built.ToString();
      EXPECT_EQ(TableNameSet(&db), tables);
      MstResult mst;
      Status spanned = PrimMst::Run(graph.get(), SqlMode::kNsql, 0, &mst);
      EXPECT_TRUE(spanned.IsIOError()) << spanned.ToString();
      EXPECT_EQ(TableNameSet(&db), tables);
      db.disk()->ClearFaults();
    }
  }

  // The retry under the same prefix succeeds and equals a fresh build.
  std::unique_ptr<SegTable> segtable;
  Status built = SegTable::Build(&db, graph.get(), sopts, &segtable);
  ASSERT_TRUE(built.ok()) << built.ToString();
  MstResult mst;
  ASSERT_TRUE(PrimMst::Run(graph.get(), SqlMode::kNsql, 0, &mst).ok());

  Database fresh_db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> fresh_graph;
  ASSERT_TRUE(
      GraphStore::Create(&fresh_db, list, GraphStoreOptions{}, &fresh_graph)
          .ok());
  std::unique_ptr<SegTable> fresh;
  ASSERT_TRUE(SegTable::Build(&fresh_db, fresh_graph.get(), sopts, &fresh)
                  .ok());
  EXPECT_EQ(SegRows(segtable->out_segs()), SegRows(fresh->out_segs()));
  EXPECT_EQ(SegRows(segtable->in_segs()), SegRows(fresh->in_segs()));
  MstResult fresh_mst;
  ASSERT_TRUE(
      PrimMst::Run(fresh_graph.get(), SqlMode::kNsql, 0, &fresh_mst).ok());
  EXPECT_EQ(mst.total_weight, fresh_mst.total_weight);
  EXPECT_EQ(mst.tree_edges, fresh_mst.tree_edges);

  // A deletion whose maintenance fails drops its work table too, so the
  // next maintenance run is not stopped by it.
  const std::set<std::string> with_segtable = TableNameSet(&db);
  const Edge victim = list.edges[7];
  ASSERT_TRUE(graph->RemoveEdge(victim).ok());
  db.disk()->InjectWriteFaultAfter(0);
  Status maintained = segtable->ApplyEdgeDeletion(graph.get(), victim);
  EXPECT_TRUE(maintained.IsIOError()) << maintained.ToString();
  db.disk()->ClearFaults();
  EXPECT_EQ(TableNameSet(&db), with_segtable);
  maintained = segtable->ApplyEdgeDeletion(graph.get(), victim);
  EXPECT_TRUE(maintained.ok()) << maintained.ToString();
}

// ----- on-disk corruption (CRC) propagating as a *typed* status ------------

/// Unique scratch path for a file-backed database (scratch mode: the file
/// is deleted when the Database goes away).
std::string FaultDbPath(const std::string& name) {
  auto p = std::filesystem::temp_directory_path() / ("relgraph_ft_" + name);
  std::filesystem::remove(p);
  return p.string();
}

/// XORs 0xFF into one data byte of every currently allocated page. Call
/// again with the same arguments to undo. Pages must be flushed first.
void CorruptEveryPage(DiskManager* disk, size_t offset) {
  for (page_id_t id = 0; id < disk->num_pages(); id++) {
    ASSERT_TRUE(disk->CorruptByteForTest(id, offset).ok()) << "page " << id;
  }
}

// A bit flip on disk (not an I/O error: the read *succeeds*, the bytes are
// wrong) must surface from a table scan as Status::Corruption — the CRC
// catches what no errno ever would — and restoring the bytes must restore
// the exact row count.
TEST(FaultInjection, OnDiskBitFlipSurfacesAsCorruptionFromSql) {
  DatabaseOptions opts;
  opts.buffer_pool_pages = 8;  // scans must go back to the disk
  opts.in_memory = false;
  opts.path = FaultDbPath("sql.rgpf");
  Database db(opts);
  ASSERT_FALSE(db.disk()->in_memory()) << "temp dir must be writable";
  sql::SqlEngine conn(&db);
  ASSERT_TRUE(conn.Execute("create table t (a int)").ok());
  // Far more rows than the 8-page pool can hold: the scan below MUST go
  // back to the disk, where the flipped bytes are.
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(
        conn.Execute("insert into t values (" + std::to_string(i) + ")").ok());
  }
  ASSERT_TRUE(db.buffer_pool()->FlushAll().ok());

  CorruptEveryPage(db.disk(), /*offset=*/7);
  sql::SqlResult r;
  Status st = conn.Execute("select count(*) from t", &r);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  CorruptEveryPage(db.disk(), /*offset=*/7);  // XOR back
  st = conn.Execute("select count(*) from t", &r);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(r.Scalar().AsInt(), 20000);
}

// The same flip reaching the top of the stack: a shortest-path query over
// a file-backed graph store with a tiny buffer pool must come back as
// typed Corruption — never a crash, a hang, or a silently wrong path.
TEST(FaultInjection, OnDiskBitFlipSurfacesAsCorruptionFromPathFinder) {
  EdgeList list = GenerateBarabasiAlbert(2000, 4, WeightRange{1, 50}, 77);
  DatabaseOptions opts;
  opts.buffer_pool_pages = 16;
  opts.in_memory = false;
  opts.path = FaultDbPath("finder.rgpf");
  Database db(opts);
  ASSERT_FALSE(db.disk()->in_memory());
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<PathFinder> finder;
  ASSERT_TRUE(
      PathFinder::Create(graph.get(), PathFinderOptions{}, &finder).ok());

  PathQueryResult r;
  ASSERT_TRUE(finder->Find(0, 1500, &r).ok());
  ASSERT_TRUE(r.found);

  ASSERT_TRUE(db.buffer_pool()->FlushAll().ok());
  CorruptEveryPage(db.disk(), /*offset=*/11);
  // A repeat of the warm query could be answered entirely from the 16
  // still-resident frames without ever re-reading the flipped bytes; a
  // query from a fresh source must fetch that node's adjacency from disk,
  // where the CRC check fires.
  Status st = finder->Find(1999, 3, &r);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(FaultInjection, FlushAllReportsWriteFault) {
  DiskManager disk;
  BufferPool pool(4, &disk);
  page_id_t id;
  Page* page = nullptr;
  ASSERT_TRUE(pool.NewPage(&id, &page).ok());
  page->data()[0] = 'y';
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  disk.InjectWriteFaultAfter(0);
  EXPECT_TRUE(pool.FlushAll().IsIOError());
  disk.ClearFaults();
  EXPECT_TRUE(pool.FlushAll().ok());
}

}  // namespace
}  // namespace relgraph
