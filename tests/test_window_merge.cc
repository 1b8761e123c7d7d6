#include <gtest/gtest.h>

#include "src/catalog/table.h"
#include "src/exec/dml_executors.h"
#include "src/exec/scan_executors.h"
#include "src/exec/window_executor.h"

namespace relgraph {
namespace {

Schema KvSchema() {
  return Schema({{"k", TypeId::kInt}, {"v", TypeId::kInt}});
}

// ---------------------------------------------------- window row_number()

class WindowTest : public ::testing::Test {
 protected:
  std::vector<Tuple> RunWindow(std::vector<Tuple> input,
                               std::vector<std::string> partition,
                               std::vector<SortKey> order) {
    auto src = std::make_unique<MaterializedExecutor>(std::move(input),
                                                      KvSchema());
    WindowRowNumberExecutor window(std::move(src), std::move(partition),
                                   std::move(order));
    std::vector<Tuple> out;
    EXPECT_TRUE(Collect(&window, &out).ok());
    return out;
  }
};

TEST_F(WindowTest, NumbersRowsPerPartitionInOrder) {
  std::vector<Tuple> input = {
      Tuple({Value(int64_t{1}), Value(int64_t{30})}),
      Tuple({Value(int64_t{2}), Value(int64_t{5})}),
      Tuple({Value(int64_t{1}), Value(int64_t{10})}),
      Tuple({Value(int64_t{1}), Value(int64_t{20})}),
      Tuple({Value(int64_t{2}), Value(int64_t{50})}),
  };
  auto rows = RunWindow(input, {"k"}, {{Col("v"), true}});
  ASSERT_EQ(rows.size(), 5u);
  // Partition k=1 ordered by v: 10,20,30 -> rownum 1,2,3.
  EXPECT_EQ(rows[0].value(1).AsInt(), 10);
  EXPECT_EQ(rows[0].value(2).AsInt(), 1);
  EXPECT_EQ(rows[1].value(1).AsInt(), 20);
  EXPECT_EQ(rows[1].value(2).AsInt(), 2);
  EXPECT_EQ(rows[2].value(2).AsInt(), 3);
  // Partition k=2 restarts numbering.
  EXPECT_EQ(rows[3].value(0).AsInt(), 2);
  EXPECT_EQ(rows[3].value(2).AsInt(), 1);
  EXPECT_EQ(rows[4].value(2).AsInt(), 2);
}

TEST_F(WindowTest, SelectingRowNumberOneKeepsMinimumPerPartition) {
  // This is exactly the paper's E-operator dedup (Listing 2(3)).
  std::vector<Tuple> input;
  for (int64_t k = 0; k < 5; k++) {
    for (int64_t j = 0; j < 4; j++) {
      input.push_back(Tuple({Value(k), Value((k * 7 + j * 13) % 31)}));
    }
  }
  auto src =
      std::make_unique<MaterializedExecutor>(input, KvSchema());
  auto window = std::make_unique<WindowRowNumberExecutor>(
      std::move(src), std::vector<std::string>{"k"},
      std::vector<SortKey>{{Col("v"), true}});
  FilterExecutor first(std::move(window), ColEq("rownum", 1));
  std::vector<Tuple> rows;
  ASSERT_TRUE(Collect(&first, &rows).ok());
  ASSERT_EQ(rows.size(), 5u);
  for (const auto& t : rows) {
    int64_t k = t.value(0).AsInt();
    int64_t min_v = INT64_MAX;
    for (int64_t j = 0; j < 4; j++) {
      min_v = std::min(min_v, (k * 7 + j * 13) % 31);
    }
    EXPECT_EQ(t.value(1).AsInt(), min_v) << "k=" << k;
  }
}

TEST_F(WindowTest, EmptyPartitionListIsOneGlobalPartition) {
  std::vector<Tuple> input = {
      Tuple({Value(int64_t{9}), Value(int64_t{2})}),
      Tuple({Value(int64_t{8}), Value(int64_t{1})}),
  };
  auto rows = RunWindow(input, {}, {{Col("v"), true}});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].value(1).AsInt(), 1);
  EXPECT_EQ(rows[0].value(2).AsInt(), 1);
  EXPECT_EQ(rows[1].value(2).AsInt(), 2);
}

TEST_F(WindowTest, EmptyInputYieldsNothing) {
  auto rows = RunWindow({}, {"k"}, {{Col("v"), true}});
  EXPECT_TRUE(rows.empty());
}

// -------------------------------------------------------- MERGE statement

Schema VisSchema() {
  return Schema({{"nid", TypeId::kInt}, {"d2s", TypeId::kInt},
                 {"p2s", TypeId::kInt}, {"f", TypeId::kInt}});
}

Schema SrcSchema() {
  return Schema({{"nid", TypeId::kInt}, {"cost", TypeId::kInt},
                 {"pid", TypeId::kInt}});
}

class MergeTest : public ::testing::TestWithParam<bool> {
 protected:
  // Parameter: whether the target table carries a unique index (index probe
  // path) or not (hash-match fallback).
  MergeTest() : pool_(256, &dm_) {
    EXPECT_TRUE(
        Table::Create(&pool_, "vis", VisSchema(), TableOptions{}, &table_)
            .ok());
    if (GetParam()) {
      EXPECT_TRUE(table_->CreateSecondaryIndex("nid", true).ok());
    }
    // Existing rows: nid 1 (d2s=10), nid 2 (d2s=20).
    EXPECT_TRUE(table_
                    ->Insert(Tuple({Value(int64_t{1}), Value(int64_t{10}),
                                    Value(int64_t{0}), Value(int64_t{1})}))
                    .ok());
    EXPECT_TRUE(table_
                    ->Insert(Tuple({Value(int64_t{2}), Value(int64_t{20}),
                                    Value(int64_t{0}), Value(int64_t{1})}))
                    .ok());
  }

  MergeSpec PaperSpec() {
    MergeSpec spec;
    spec.target_key_column = "nid";
    spec.source_key_column = "nid";
    spec.matched_condition =
        Cmp(CompareOp::kGt, Col("t.d2s"), Col("s.cost"));
    spec.matched_sets = {{"d2s", Col("s.cost")},
                         {"p2s", Col("s.pid")},
                         {"f", Lit(int64_t{0})}};
    spec.insert_values = {Col("nid"), Col("cost"), Col("pid"),
                          Lit(int64_t{0})};
    return spec;
  }

  std::map<int64_t, Tuple> Snapshot() {
    std::map<int64_t, Tuple> out;
    auto it = table_->Scan();
    Tuple t;
    while (it.Next(&t, nullptr)) out.emplace(t.value(0).AsInt(), t);
    return out;
  }

  DiskManager dm_;
  BufferPool pool_;
  std::unique_ptr<Table> table_;
};

TEST_P(MergeTest, UpdatesOnImprovementInsertsOnMiss) {
  std::vector<Tuple> src = {
      Tuple({Value(int64_t{1}), Value(int64_t{5}), Value(int64_t{7})}),
      Tuple({Value(int64_t{2}), Value(int64_t{25}), Value(int64_t{7})}),
      Tuple({Value(int64_t{3}), Value(int64_t{30}), Value(int64_t{7})}),
  };
  MaterializedExecutor source(src, SrcSchema());
  int64_t affected;
  ASSERT_TRUE(MergePlan(table_.get(), SrcSchema(), PaperSpec())
                  .Run(&source, &affected)
                  .ok());
  EXPECT_EQ(affected, 2);  // one update (nid 1), one insert (nid 3)

  auto rows = Snapshot();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.at(1).value(1).AsInt(), 5);   // improved
  EXPECT_EQ(rows.at(1).value(2).AsInt(), 7);   // new parent
  EXPECT_EQ(rows.at(1).value(3).AsInt(), 0);   // reopened
  EXPECT_EQ(rows.at(2).value(1).AsInt(), 20);  // not improved: untouched
  EXPECT_EQ(rows.at(2).value(3).AsInt(), 1);
  EXPECT_EQ(rows.at(3).value(1).AsInt(), 30);  // inserted
}

TEST_P(MergeTest, MatchedOnlySpecBehavesLikeUpdateFromJoin) {
  std::vector<Tuple> src = {
      Tuple({Value(int64_t{1}), Value(int64_t{4}), Value(int64_t{9})}),
      Tuple({Value(int64_t{99}), Value(int64_t{1}), Value(int64_t{9})}),
  };
  MergeSpec spec = PaperSpec();
  spec.insert_values.clear();  // WHEN NOT MATCHED: do nothing
  MaterializedExecutor source(src, SrcSchema());
  int64_t affected;
  ASSERT_TRUE(MergePlan(table_.get(), SrcSchema(), spec)
                  .Run(&source, &affected)
                  .ok());
  EXPECT_EQ(affected, 1);
  auto rows = Snapshot();
  EXPECT_EQ(rows.size(), 2u);  // 99 was not inserted
  EXPECT_EQ(rows.at(1).value(1).AsInt(), 4);
}

TEST_P(MergeTest, InsertOnlySpecBehavesLikeInsertWhereNotExists) {
  std::vector<Tuple> src = {
      Tuple({Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{9})}),
      Tuple({Value(int64_t{42}), Value(int64_t{2}), Value(int64_t{9})}),
  };
  MergeSpec spec = PaperSpec();
  spec.matched_condition = nullptr;
  spec.matched_sets.clear();  // WHEN MATCHED: do nothing
  MaterializedExecutor source(src, SrcSchema());
  int64_t affected;
  ASSERT_TRUE(MergePlan(table_.get(), SrcSchema(), spec)
                  .Run(&source, &affected)
                  .ok());
  EXPECT_EQ(affected, 1);
  auto rows = Snapshot();
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.at(1).value(1).AsInt(), 10);  // untouched
  EXPECT_EQ(rows.at(42).value(1).AsInt(), 2);
}

TEST_P(MergeTest, DuplicateSourceKeysFoldSequentially) {
  // Second occurrence of nid 50 must see the row inserted by the first.
  std::vector<Tuple> src = {
      Tuple({Value(int64_t{50}), Value(int64_t{9}), Value(int64_t{1})}),
      Tuple({Value(int64_t{50}), Value(int64_t{4}), Value(int64_t{2})}),
  };
  MaterializedExecutor source(src, SrcSchema());
  int64_t affected;
  ASSERT_TRUE(MergePlan(table_.get(), SrcSchema(), PaperSpec())
                  .Run(&source, &affected)
                  .ok());
  EXPECT_EQ(affected, 2);  // insert then update
  auto rows = Snapshot();
  EXPECT_EQ(rows.at(50).value(1).AsInt(), 4);
  EXPECT_EQ(rows.at(50).value(2).AsInt(), 2);
}

TEST_P(MergeTest, NullSourceKeysAreSkipped) {
  std::vector<Tuple> src = {
      Tuple({Value::Null(), Value(int64_t{1}), Value(int64_t{1})}),
  };
  MaterializedExecutor source(src, SrcSchema());
  int64_t affected;
  ASSERT_TRUE(MergePlan(table_.get(), SrcSchema(), PaperSpec())
                  .Run(&source, &affected)
                  .ok());
  EXPECT_EQ(affected, 0);
  EXPECT_EQ(Snapshot().size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(IndexAndHashFallback, MergeTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "with_unique_index"
                                             : "hash_fallback";
                         });

// ------------------------------------------------- UPDATE / DELETE / INSERT

TEST(DmlTest, UpdateWhereEvaluatesAgainstOldRow) {
  DiskManager dm;
  BufferPool pool(64, &dm);
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool, "t", KvSchema(), TableOptions{}, &table).ok());
  for (int64_t i = 0; i < 5; i++) {
    ASSERT_TRUE(table->Insert(Tuple({Value(i), Value(i * 10)})).ok());
  }
  int64_t affected;
  UpdatePlan plan(table.get(), Cmp(CompareOp::kGe, Col("k"), Lit(int64_t{3})),
                  {{"v", Add(Col("v"), Lit(int64_t{1}))}});
  ASSERT_TRUE(plan.Run(&affected).ok());
  EXPECT_EQ(affected, 2);
  auto it = table->Scan();
  Tuple t;
  std::vector<int64_t> vs;
  while (it.Next(&t, nullptr)) vs.push_back(t.value(1).AsInt());
  EXPECT_EQ(vs, (std::vector<int64_t>{0, 10, 20, 31, 41}));
}

TEST(DmlTest, DeleteWhereRemovesMatches) {
  DiskManager dm;
  BufferPool pool(64, &dm);
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool, "t", KvSchema(), TableOptions{}, &table).ok());
  for (int64_t i = 0; i < 6; i++) {
    ASSERT_TRUE(table->Insert(Tuple({Value(i), Value(i)})).ok());
  }
  int64_t affected;
  ASSERT_TRUE(UpdatePlan::Delete(table.get(),
                                 Cmp(CompareOp::kLt, Col("k"), Lit(int64_t{2})))
                  ->Run(&affected)
                  .ok());
  EXPECT_EQ(affected, 2);
  EXPECT_EQ(table->num_rows(), 4);
}

TEST(DmlTest, InsertFromExecutorCopiesRows) {
  DiskManager dm;
  BufferPool pool(64, &dm);
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool, "t", KvSchema(), TableOptions{}, &table).ok());
  std::vector<Tuple> rows = {Tuple({Value(int64_t{1}), Value(int64_t{2})}),
                             Tuple({Value(int64_t{3}), Value(int64_t{4})})};
  MaterializedExecutor source(rows, KvSchema());
  int64_t inserted;
  ASSERT_TRUE(InsertFromExecutor(table.get(), &source, &inserted).ok());
  EXPECT_EQ(inserted, 2);
  EXPECT_EQ(table->num_rows(), 2);
}

}  // namespace
}  // namespace relgraph
