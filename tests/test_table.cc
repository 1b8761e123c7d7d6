#include "src/catalog/table.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/exec/dml_executors.h"
#include "src/exec/scan_executors.h"

namespace relgraph {
namespace {

Schema EdgeSchema() {
  return Schema(
      {{"fid", TypeId::kInt}, {"tid", TypeId::kInt}, {"cost", TypeId::kInt}});
}

Tuple Row(int64_t a, int64_t b, int64_t c) {
  return Tuple({Value(a), Value(b), Value(c)});
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() : pool_(512, &dm_) {}
  DiskManager dm_;
  BufferPool pool_;
};

TEST_F(TableTest, HeapInsertAndScan) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->Insert(Row(1, 2, 3)).ok());
  ASSERT_TRUE(table->Insert(Row(4, 5, 6)).ok());
  EXPECT_EQ(table->num_rows(), 2);

  auto it = table->Scan();
  Tuple t;
  RowRef ref;
  std::vector<int64_t> fids;
  while (it.Next(&t, &ref)) fids.push_back(t.value(0).AsInt());
  EXPECT_EQ(fids, (std::vector<int64_t>{1, 4}));
}

TEST_F(TableTest, ClusteredScanIsKeyOrdered) {
  TableOptions opts;
  opts.storage = TableStorage::kClustered;
  opts.cluster_key = "fid";
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&pool_, "t", EdgeSchema(), opts, &table).ok());
  ASSERT_TRUE(table->Insert(Row(30, 1, 1)).ok());
  ASSERT_TRUE(table->Insert(Row(10, 2, 2)).ok());
  ASSERT_TRUE(table->Insert(Row(20, 3, 3)).ok());
  ASSERT_TRUE(table->Insert(Row(10, 4, 4)).ok());  // duplicate key

  auto it = table->Scan();
  Tuple t;
  std::vector<int64_t> fids;
  while (it.Next(&t, nullptr)) fids.push_back(t.value(0).AsInt());
  EXPECT_EQ(fids, (std::vector<int64_t>{10, 10, 20, 30}));
}

TEST_F(TableTest, ClusteredUniqueRejectsDuplicates) {
  TableOptions opts;
  opts.storage = TableStorage::kClustered;
  opts.cluster_key = "fid";
  opts.cluster_unique = true;
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&pool_, "t", EdgeSchema(), opts, &table).ok());
  ASSERT_TRUE(table->Insert(Row(1, 1, 1)).ok());
  EXPECT_TRUE(table->Insert(Row(1, 2, 2)).IsAlreadyExists());
}

TEST_F(TableTest, SecondaryIndexRangeScan) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(table->Insert(Row(i % 10, i, i * 2)).ok());
  }
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", /*unique=*/false).ok());
  EXPECT_TRUE(table->HasIndexOn("fid"));
  EXPECT_FALSE(table->HasIndexOn("tid"));

  Table::Iterator it;
  ASSERT_TRUE(table->ScanRange("fid", 3, 3, &it).ok());
  Tuple t;
  int count = 0;
  while (it.Next(&t, nullptr)) {
    EXPECT_EQ(t.value(0).AsInt(), 3);
    count++;
  }
  EXPECT_EQ(count, 10);
}

TEST_F(TableTest, SecondaryIndexBackfillsExistingRows) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->Insert(Row(7, 1, 1)).ok());
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", false).ok());
  Table::Iterator it;
  ASSERT_TRUE(table->ScanRange("fid", 7, 7, &it).ok());
  Tuple t;
  EXPECT_TRUE(it.Next(&t, nullptr));
}

// An index built over existing rows inserts its entries in key order, so
// its leaves come out full whatever order the rows sit in: at most
// ceil(rows / leaf capacity) leaves plus one root. Both a unique index and
// a non-unique one with many duplicates, over rows scattered in key order.
TEST_F(TableTest, IndexBuildOverExistingRowsPacksItsLeaves) {
  constexpr int64_t kRows = 4000;
  constexpr int64_t kLeafCapacity = (kPageSize - 8) / (16 + 8);
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  for (int64_t i = 0; i < kRows; i++) {
    ASSERT_TRUE(table->Insert(Row((i * 7919) % kRows, i % 50, i)).ok());
  }
  for (const auto& [column, unique] :
       {std::pair{"fid", true}, std::pair{"tid", false}}) {
    SCOPED_TRACE(column);
    const page_id_t before = dm_.num_pages();
    ASSERT_TRUE(table->CreateSecondaryIndex(column, unique).ok());
    EXPECT_LE(dm_.num_pages() - before,
              (kRows + kLeafCapacity - 1) / kLeafCapacity + 1);
  }
  ASSERT_TRUE(table->CheckConsistency().ok());
  Table::Iterator it;
  ASSERT_TRUE(table->ScanRange("tid", 7, 7, &it).ok());
  Tuple t;
  int64_t hits = 0;
  while (it.Next(&t, nullptr)) {
    EXPECT_EQ(t.value(1).AsInt(), 7);
    hits++;
  }
  EXPECT_EQ(hits, kRows / 50);
}

/// The ScanRange contract on a column without an index: the rows Scan()
/// yields with lo <= column <= hi, in Scan() order, NULLs excluded, every
/// row read counted as a full-scan row. Checked on a heap and on a
/// clustered table, next to the index path on the same table.
TEST_F(TableTest, ScanRangeOnUnindexedColumnFiltersFullScan) {
  for (TableStorage storage : {TableStorage::kHeap, TableStorage::kClustered}) {
    const bool clustered = storage == TableStorage::kClustered;
    SCOPED_TRACE(clustered ? "clustered" : "heap");
    TableOptions opts;
    opts.storage = storage;
    if (clustered) {
      opts.cluster_key = "fid";
      opts.cluster_unique = true;
    }
    std::unique_ptr<Table> table;
    ASSERT_TRUE(Table::Create(&pool_, clustered ? "c" : "h", EdgeSchema(),
                              opts, &table)
                    .ok());
    // fid is a permutation of 0..59, so the clustered scan order differs
    // from insertion order; every tenth tid is NULL.
    const int kRows = 60;
    for (int i = 0; i < kRows; i++) {
      Value tid = i % 10 == 0 ? Value::Null() : Value(int64_t{(i * 7) % 13});
      ASSERT_TRUE(table
                      ->Insert(Tuple({Value(int64_t{(i * 37) % kRows}), tid,
                                      Value(int64_t{i})}))
                      .ok());
    }
    ASSERT_TRUE(table->CreateSecondaryIndex("cost", /*unique=*/false).ok());
    ASSERT_FALSE(table->HasIndexOn("tid"));

    auto fids = [](Table::Iterator* it) {
      std::vector<int64_t> out;
      Tuple t;
      while (it->Next(&t, nullptr)) out.push_back(t.value(0).AsInt());
      EXPECT_TRUE(it->status().ok()) << it->status().ToString();
      return out;
    };
    const std::vector<std::pair<int64_t, int64_t>> ranges = {
        {3, 5},
        {0, 0},
        {12, 12},
        {std::numeric_limits<int64_t>::min(),
         std::numeric_limits<int64_t>::max()},
        {6, 2}};  // lo > hi: no rows
    for (const auto& [lo, hi] : ranges) {
      SCOPED_TRACE("[" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
      std::vector<int64_t> expected;
      Table::Iterator scan = table->Scan();
      Tuple t;
      while (scan.Next(&t, nullptr)) {
        const Value& v = t.value(1);
        if (!v.IsNull() && v.AsInt() >= lo && v.AsInt() <= hi) {
          expected.push_back(t.value(0).AsInt());
        }
      }
      table->ResetAccessStats();
      Table::Iterator it;
      ASSERT_TRUE(table->ScanRange("tid", lo, hi, &it).ok());
      EXPECT_EQ(fids(&it), expected);
      EXPECT_EQ(table->access_stats().full_scan_rows, kRows);
      EXPECT_EQ(table->access_stats().index_scan_rows, 0);
    }
    // The full key range skips exactly the six NULL rows.
    Table::Iterator all;
    ASSERT_TRUE(table
                    ->ScanRange("tid", std::numeric_limits<int64_t>::min(),
                                std::numeric_limits<int64_t>::max(), &all)
                    .ok());
    EXPECT_EQ(fids(&all).size(), static_cast<size_t>(kRows - kRows / 10));

    Table::Iterator unknown;
    EXPECT_TRUE(table->ScanRange("nope", 0, 1, &unknown).IsInvalidArgument());

    // An indexed column still probes its index.
    table->ResetAccessStats();
    Table::Iterator probe;
    ASSERT_TRUE(table->ScanRange("cost", 10, 19, &probe).ok());
    EXPECT_EQ(fids(&probe).size(), 10u);
    EXPECT_EQ(table->access_stats().index_scan_rows, 10);
    EXPECT_EQ(table->access_stats().full_scan_rows, 0);
  }
}

TEST_F(TableTest, ScanRangeComparesDoublesAndRejectsVarchar) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&pool_, "t",
                            Schema({{"id", TypeId::kInt},
                                    {"w", TypeId::kDouble},
                                    {"name", TypeId::kVarchar}}),
                            TableOptions{}, &table)
                  .ok());
  for (double w : {0.5, 1.0, 1.5, 2.0, 2.5}) {
    ASSERT_TRUE(table
                    ->Insert(Tuple({Value(static_cast<int64_t>(w * 10)),
                                    Value(w), Value("x")}))
                    .ok());
  }
  Table::Iterator it;
  ASSERT_TRUE(table->ScanRange("w", 1, 2, &it).ok());
  std::vector<int64_t> ids;
  Tuple t;
  while (it.Next(&t, nullptr)) ids.push_back(t.value(0).AsInt());
  EXPECT_EQ(ids, (std::vector<int64_t>{10, 15, 20}));
  EXPECT_TRUE(table->ScanRange("name", 0, 1, &it).IsInvalidArgument());
}

TEST_F(TableTest, UniqueIndexLookupAndViolation) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", /*unique=*/true).ok());
  ASSERT_TRUE(table->Insert(Row(5, 50, 500)).ok());
  EXPECT_TRUE(table->Insert(Row(5, 51, 501)).IsAlreadyExists());
  EXPECT_EQ(table->num_rows(), 1);  // failed insert left no orphan row

  Tuple t;
  RowRef ref;
  ASSERT_TRUE(table->LookupUnique("fid", 5, &t, &ref).ok());
  EXPECT_EQ(t.value(1).AsInt(), 50);
  EXPECT_TRUE(table->LookupUnique("fid", 6, &t, &ref).IsNotFound());
}

TEST_F(TableTest, UpdateRowMaintainsIndexes) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", true).ok());
  RowRef ref;
  ASSERT_TRUE(table->Insert(Row(1, 10, 100), &ref).ok());
  // Change the indexed key 1 -> 2: old entry must vanish, new must appear.
  ASSERT_TRUE(table->UpdateRow(ref, Row(1, 10, 100), Row(2, 10, 100)).ok());
  Tuple t;
  EXPECT_TRUE(table->LookupUnique("fid", 1, &t, nullptr).IsNotFound());
  ASSERT_TRUE(table->LookupUnique("fid", 2, &t, nullptr).ok());
  EXPECT_EQ(t.value(2).AsInt(), 100);
}

TEST_F(TableTest, ClusteredUpdateKeepsKeyImmutable) {
  TableOptions opts;
  opts.storage = TableStorage::kClustered;
  opts.cluster_key = "fid";
  opts.cluster_unique = true;
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&pool_, "t", EdgeSchema(), opts, &table).ok());
  RowRef ref;
  ASSERT_TRUE(table->Insert(Row(1, 10, 100), &ref).ok());
  ASSERT_TRUE(table->UpdateRow(ref, Row(1, 10, 100), Row(1, 20, 200)).ok());
  Tuple t;
  ASSERT_TRUE(table->LookupUnique("fid", 1, &t, nullptr).ok());
  EXPECT_EQ(t.value(1).AsInt(), 20);
  EXPECT_TRUE(table->UpdateRow(ref, Row(1, 20, 200), Row(9, 20, 200))
                  .IsNotSupported());
}

TEST_F(TableTest, DeleteRowRemovesFromScanAndIndex) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", true).ok());
  RowRef ref;
  ASSERT_TRUE(table->Insert(Row(1, 1, 1), &ref).ok());
  ASSERT_TRUE(table->Insert(Row(2, 2, 2)).ok());
  ASSERT_TRUE(table->DeleteRow(ref).ok());
  EXPECT_EQ(table->num_rows(), 1);
  Tuple t;
  EXPECT_TRUE(table->LookupUnique("fid", 1, &t, nullptr).IsNotFound());
  auto it = table->Scan();
  int count = 0;
  while (it.Next(&t, nullptr)) count++;
  EXPECT_EQ(count, 1);
}

TEST_F(TableTest, TruncateKeepsSchemaAndIndexes) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", true).ok());
  ASSERT_TRUE(table->Insert(Row(1, 1, 1)).ok());
  ASSERT_TRUE(table->Truncate().ok());
  EXPECT_EQ(table->num_rows(), 0);
  Tuple t;
  EXPECT_TRUE(table->LookupUnique("fid", 1, &t, nullptr).IsNotFound());
  // Insert after truncate works and the index is live.
  ASSERT_TRUE(table->Insert(Row(1, 9, 9)).ok());
  ASSERT_TRUE(table->LookupUnique("fid", 1, &t, nullptr).ok());
  EXPECT_EQ(t.value(1).AsInt(), 9);
}

TEST_F(TableTest, ClusteredRequiresFixedWidthIntKey) {
  Schema with_str({{"k", TypeId::kInt}, {"v", TypeId::kVarchar}});
  TableOptions opts;
  opts.storage = TableStorage::kClustered;
  opts.cluster_key = "k";
  std::unique_ptr<Table> table;
  EXPECT_TRUE(
      Table::Create(&pool_, "t", with_str, opts, &table).IsNotSupported());

  TableOptions bad_key;
  bad_key.storage = TableStorage::kClustered;
  bad_key.cluster_key = "missing";
  EXPECT_TRUE(Table::Create(&pool_, "t2", EdgeSchema(), bad_key, &table)
                  .IsInvalidArgument());
}

TEST_F(TableTest, ArityMismatchRejected) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  EXPECT_TRUE(
      table->Insert(Tuple({Value(int64_t{1})})).IsInvalidArgument());
}

TEST_F(TableTest, CheckConsistencyCountsIndexEntries) {
  // Two clustered copies of the same rows but one: secondary entries name
  // rows by cluster key, so a manifest pairing one copy's storage with the
  // other's index tree is a well-formed tree with one entry missing (or
  // one too many) — what a damaged snapshot would attach.
  TableOptions opts;
  opts.storage = TableStorage::kClustered;
  opts.cluster_key = "fid";
  opts.cluster_unique = true;
  std::unique_ptr<Table> full, part;
  ASSERT_TRUE(Table::Create(&pool_, "full", EdgeSchema(), opts, &full).ok());
  ASSERT_TRUE(Table::Create(&pool_, "part", EdgeSchema(), opts, &part).ok());
  for (Table* t : {full.get(), part.get()}) {
    ASSERT_TRUE(t->CreateSecondaryIndex("tid", /*unique=*/false).ok());
    ASSERT_TRUE(t->Insert(Row(1, 10, 100)).ok());
    ASSERT_TRUE(t->Insert(Row(2, 20, 200)).ok());
  }
  ASSERT_TRUE(full->Insert(Row(3, 30, 300)).ok());
  ASSERT_TRUE(full->CheckConsistency().ok());
  ASSERT_TRUE(part->CheckConsistency().ok());

  TablePersistentState full_state, part_state;
  ASSERT_TRUE(full->ExportState(&full_state).ok());
  ASSERT_TRUE(part->ExportState(&part_state).ok());
  TablePersistentState missing = full_state;
  missing.indexes[0] = part_state.indexes[0];
  TablePersistentState stray = part_state;
  stray.indexes[0] = full_state.indexes[0];
  for (const TablePersistentState* forged : {&missing, &stray}) {
    std::unique_ptr<Table> attached;
    ASSERT_TRUE(Table::Attach(&pool_, *forged, &attached).ok());
    EXPECT_TRUE(attached->CheckConsistency().IsCorruption())
        << forged->name;
  }
}

// ------------------------------------------------------------ Open trees

Tuple OpenRow(int64_t nid, int64_t flag, int64_t dist) {
  return Tuple({Value(nid), Value(flag), Value(dist)});
}

/// nids of the rows with f = flag and lo <= d <= hi, in ScanRange order.
std::vector<int64_t> OpenNids(Table* table, int64_t flag, int64_t lo,
                              int64_t hi) {
  Table::Iterator it;
  EXPECT_TRUE(table->ScanRange("f", flag, "d", lo, hi, &it).ok());
  std::vector<int64_t> nids;
  Tuple t;
  while (it.Next(&t, nullptr)) nids.push_back(t.value(0).AsInt());
  EXPECT_TRUE(it.status().ok());
  return nids;
}

/// (nid, f, d) over a heap with a unique nid index, or clustered on nid —
/// the two layouts TVisited takes under Index and CluIndex — with an open
/// tree on (f, d).
class OpenTreeTest : public ::testing::TestWithParam<TableStorage> {
 protected:
  OpenTreeTest() : pool_(512, &dm_) {
    TableOptions opts;
    opts.storage = GetParam();
    if (opts.storage == TableStorage::kClustered) {
      opts.cluster_key = "nid";
      opts.cluster_unique = true;
    }
    Schema schema(
        {{"nid", TypeId::kInt}, {"f", TypeId::kInt}, {"d", TypeId::kInt}});
    EXPECT_TRUE(Table::Create(&pool_, "tv", schema, opts, &table_).ok());
    if (opts.storage == TableStorage::kHeap) {
      EXPECT_TRUE(table_->CreateSecondaryIndex("nid", /*unique=*/true).ok());
    }
    EXPECT_TRUE(table_->CreateOpenIndex("f", "d").ok());
  }

  /// The flag whose [0, kInfinity) range holds `nid`, or -1 for none; the
  /// open tree serves every probe and the table stays consistent.
  int FlagHolding(int64_t nid) {
    EXPECT_TRUE(table_->CheckConsistency().ok());
    const int64_t full_before = table_->access_stats().full_scan_rows;
    int holder = -1;
    for (int flag = 0; flag <= 2; flag++) {
      for (int64_t n : OpenNids(table_.get(), flag, 0, kInfinity - 1)) {
        if (n != nid) continue;
        EXPECT_EQ(holder, -1) << "row in two flag ranges";
        holder = flag;
      }
    }
    EXPECT_EQ(table_->access_stats().full_scan_rows, full_before);
    return holder;
  }

  Status Update(int64_t nid, int64_t flag, int64_t dist) {
    Tuple old_row;
    RowRef ref;
    RELGRAPH_RETURN_IF_ERROR(table_->LookupUnique("nid", nid, &old_row, &ref));
    return table_->UpdateRow(ref, old_row, OpenRow(nid, flag, dist));
  }

  DiskManager dm_;
  BufferPool pool_;
  std::unique_ptr<Table> table_;
};

TEST_P(OpenTreeTest, RowMovesInAndOutOfTheTree) {
  ASSERT_TRUE(table_->Insert(OpenRow(1, 0, kInfinity)).ok());
  EXPECT_EQ(FlagHolding(1), -1);  // dist = Max: no entry
  // Only a range past kInfinity, served by the scan, sees it.
  EXPECT_EQ(OpenNids(table_.get(), 0, 0, kInfinity),
            std::vector<int64_t>{1});

  ASSERT_TRUE(Update(1, 0, 10).ok());  // reached: enters the tree
  EXPECT_EQ(FlagHolding(1), 0);
  EXPECT_EQ(OpenNids(table_.get(), 0, 10, 10), std::vector<int64_t>{1});
  EXPECT_TRUE(OpenNids(table_.get(), 0, 11, 20).empty());
  ASSERT_TRUE(Update(1, 2, 10).ok());  // frontier mark
  EXPECT_EQ(FlagHolding(1), 2);
  ASSERT_TRUE(Update(1, 1, 10).ok());  // finalize
  EXPECT_EQ(FlagHolding(1), 1);

  // The M operator's MERGE improves the row and reopens it.
  Schema src_schema({{"nid", TypeId::kInt}, {"cost", TypeId::kInt}});
  MaterializedExecutor source({Tuple({Value(int64_t{1}), Value(int64_t{4})})},
                              src_schema);
  MergeSpec spec;
  spec.target_key_column = "nid";
  spec.source_key_column = "nid";
  spec.matched_condition =
      Cmp(CompareOp::kGt, Col("t.d"), Col("s.cost"));
  spec.matched_sets = {{"d", Col("s.cost")}, {"f", Lit(int64_t{0})}};
  int64_t affected = 0;
  MergePlan plan(table_.get(), src_schema, spec);
  ASSERT_TRUE(plan.Run(&source, &affected).ok());
  EXPECT_EQ(affected, 1);
  EXPECT_EQ(FlagHolding(1), 0);
  EXPECT_EQ(OpenNids(table_.get(), 0, 4, 4), std::vector<int64_t>{1});
  EXPECT_TRUE(OpenNids(table_.get(), 0, 10, 10).empty());

  Tuple row;
  RowRef ref;
  ASSERT_TRUE(table_->LookupUnique("nid", 1, &row, &ref).ok());
  ASSERT_TRUE(table_->DeleteRow(ref).ok());
  EXPECT_EQ(FlagHolding(1), -1);

  for (int64_t nid : {2, 3, 4}) {
    ASSERT_TRUE(table_->Insert(OpenRow(nid, nid % 3, 7)).ok());
  }
  EXPECT_EQ(FlagHolding(4), 1);
  ASSERT_TRUE(table_->Truncate().ok());
  for (int64_t nid : {2, 3, 4}) EXPECT_EQ(FlagHolding(nid), -1);
  ASSERT_TRUE(table_->Insert(OpenRow(2, 0, 3)).ok());
  EXPECT_EQ(FlagHolding(2), 0);
}

TEST_P(OpenTreeTest, OrdersByDistThenRow) {
  ASSERT_TRUE(table_->Insert(OpenRow(5, 0, 9)).ok());
  ASSERT_TRUE(table_->Insert(OpenRow(6, 0, 2)).ok());
  ASSERT_TRUE(table_->Insert(OpenRow(7, 0, 9)).ok());
  ASSERT_TRUE(table_->Insert(OpenRow(8, 2, 1)).ok());
  EXPECT_EQ(OpenNids(table_.get(), 0, 0, kInfinity - 1),
            (std::vector<int64_t>{6, 5, 7}));
  EXPECT_EQ(OpenNids(table_.get(), 0, 3, 9), (std::vector<int64_t>{5, 7}));
  EXPECT_TRUE(OpenNids(table_.get(), 0, 9, 3).empty());  // lo > hi
  EXPECT_TRUE(OpenNids(table_.get(), 3, 0, 9).empty());  // no such flag
  EXPECT_EQ(OpenNids(table_.get(), 2, -5, 1), std::vector<int64_t>{8});
}

TEST_P(OpenTreeTest, OutOfDomainWritesAreRejectedWholesale) {
  ASSERT_TRUE(table_->Insert(OpenRow(1, 0, 5)).ok());
  for (const Tuple& bad :
       {OpenRow(2, 0, -1), OpenRow(2, 3, 5), OpenRow(2, -1, 5),
        OpenRow(2, 0, kInfinity + 1),
        Tuple({Value(int64_t{2}), Value::Null(), Value(int64_t{5})})}) {
    EXPECT_TRUE(table_->Insert(bad).IsInvalidArgument()) << bad.ToString();
  }
  EXPECT_EQ(table_->num_rows(), 1);
  Tuple row;
  EXPECT_TRUE(table_->LookupUnique("nid", 2, &row, nullptr).IsNotFound());

  EXPECT_TRUE(Update(1, 3, 5).IsInvalidArgument());
  EXPECT_TRUE(Update(1, 0, -2).IsInvalidArgument());
  ASSERT_TRUE(table_->LookupUnique("nid", 1, &row, nullptr).ok());
  EXPECT_EQ(row.value(1).AsInt(), 0);
  EXPECT_EQ(row.value(2).AsInt(), 5);
  EXPECT_EQ(FlagHolding(1), 0);  // includes CheckConsistency
  EXPECT_EQ(OpenNids(table_.get(), 0, 5, 5), std::vector<int64_t>{1});
}

TEST_P(OpenTreeTest, IsNotAOneColumnIndexAndCannotBeExported) {
  EXPECT_FALSE(table_->HasIndexOn("f"));
  EXPECT_FALSE(table_->HasIndexOn("d"));
  Tuple row;
  EXPECT_TRUE(
      table_->LookupUnique("d", 5, &row, nullptr).IsInvalidArgument());
  TablePersistentState state;
  EXPECT_TRUE(table_->ExportState(&state).IsNotSupported());
  EXPECT_TRUE(table_->CreateOpenIndex("f", "d").IsAlreadyExists());

  // A one-column index on d lives beside it; DROP INDEX d drops that one.
  ASSERT_TRUE(table_->CreateSecondaryIndex("d", /*unique=*/false).ok());
  EXPECT_TRUE(table_->HasIndexOn("d"));
  ASSERT_TRUE(table_->DropSecondaryIndex("d").ok());
  EXPECT_FALSE(table_->HasIndexOn("d"));
  EXPECT_TRUE(table_->ExportState(&state).IsNotSupported());
  ASSERT_TRUE(table_->DropSecondaryIndex("f_d").ok());
  EXPECT_TRUE(table_->ExportState(&state).ok());
}

TEST_P(OpenTreeTest, BuildBackfillsAndChecksExistingRows) {
  ASSERT_TRUE(table_->DropSecondaryIndex("f_d").ok());
  ASSERT_TRUE(table_->Insert(OpenRow(1, 0, 5)).ok());
  ASSERT_TRUE(table_->Insert(OpenRow(2, 1, kInfinity)).ok());
  ASSERT_TRUE(table_->Insert(OpenRow(3, 2, 7)).ok());
  ASSERT_TRUE(table_->CreateOpenIndex("f", "d").ok());
  EXPECT_EQ(FlagHolding(1), 0);
  EXPECT_EQ(FlagHolding(2), -1);
  EXPECT_EQ(FlagHolding(3), 2);

  // A row outside the domain fails the build and leaves no tree behind.
  ASSERT_TRUE(table_->DropSecondaryIndex("f_d").ok());
  ASSERT_TRUE(table_->Insert(OpenRow(4, 5, 1)).ok());
  EXPECT_TRUE(table_->CreateOpenIndex("f", "d").IsInvalidArgument());
  TablePersistentState state;
  EXPECT_TRUE(table_->ExportState(&state).ok());
  EXPECT_TRUE(table_->CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, OpenTreeTest,
    ::testing::Values(TableStorage::kHeap, TableStorage::kClustered),
    [](const ::testing::TestParamInfo<TableStorage>& info) {
      return info.param == TableStorage::kHeap ? "Heap" : "Clustered";
    });

// ---------------------------------------------------------------- Catalog

TEST(CatalogTest, CreateGetDrop) {
  DiskManager dm;
  BufferPool pool(64, &dm);
  Catalog catalog(&pool);
  Table* t = nullptr;
  ASSERT_TRUE(
      catalog.CreateTable("edges", EdgeSchema(), TableOptions{}, &t).ok());
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(catalog.GetTable("edges"), t);
  EXPECT_EQ(catalog.GetTable("nope"), nullptr);
  EXPECT_TRUE(catalog.CreateTable("edges", EdgeSchema(), TableOptions{}, &t)
                  .IsAlreadyExists());
  EXPECT_EQ(catalog.TableNames(), std::vector<std::string>{"edges"});
  ASSERT_TRUE(catalog.DropTable("edges").ok());
  EXPECT_EQ(catalog.GetTable("edges"), nullptr);
  EXPECT_TRUE(catalog.DropTable("edges").IsNotFound());
}

}  // namespace
}  // namespace relgraph
