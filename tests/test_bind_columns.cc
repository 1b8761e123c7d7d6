// Column binding: executors bind every column reference to its slot when
// they are built. An unknown column is a typed InvalidArgument in every
// build type (never a read past the row), binding never modifies a shared
// tree, and a bound tree evaluates exactly like the by-name one, over one
// tuple or a (left, right) pair.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/catalog/table.h"
#include "src/core/fem.h"
#include "src/exec/dml_executors.h"
#include "src/exec/scan_executors.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"

namespace relgraph {
namespace {

Schema RowSchema() {
  return Schema({{"nid", TypeId::kInt},
                 {"cost", TypeId::kInt},
                 {"pid", TypeId::kInt}});
}

std::vector<Tuple> Rows() {
  return {Tuple({Value(int64_t{1}), Value(int64_t{5}), Value(int64_t{9})}),
          Tuple({Value(int64_t{2}), Value(int64_t{3}), Value(int64_t{8})})};
}

ExecRef Source() {
  return std::make_unique<MaterializedExecutor>(Rows(), RowSchema());
}

TEST(BindColumnsTest, MisspeltColumnInFilterIsInvalidArgument) {
  FilterExecutor filter(Source(),
                        Cmp(CompareOp::kLt, Col("cots"), Lit(int64_t{4})));
  Status st = filter.Init();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("cots"), std::string::npos) << st.ToString();
  Tuple row;
  EXPECT_FALSE(filter.Next(&row));
}

TEST(BindColumnsTest, MisspeltColumnInProjectionIsInvalidArgument) {
  ProjectExecutor project(
      Source(),
      std::vector<ExprRef>{Col("nid"), Add(Col("pdi"), Lit(int64_t{1}))},
      Schema({{"a", TypeId::kInt}, {"b", TypeId::kInt}}));
  Status st = project.Init();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("pdi"), std::string::npos) << st.ToString();
}

class MergeBindTest : public ::testing::Test {
 protected:
  MergeBindTest() : pool_(64, &disk_) {
    TableOptions opts;
    opts.storage = TableStorage::kClustered;
    opts.cluster_key = "nid";
    opts.cluster_unique = true;
    EXPECT_TRUE(Table::Create(&pool_, "T", RowSchema(), opts, &table_).ok());
    EXPECT_TRUE(table_->Insert(Rows()[0]).ok());
  }

  MergeSpec Spec() {
    MergeSpec spec;
    spec.target_key_column = "nid";
    spec.source_key_column = "nid";
    spec.matched_condition =
        Cmp(CompareOp::kGt, Col("t.cost"), Col("s.cost"));
    spec.matched_sets = {{"cost", Col("s.cost")}};
    spec.insert_values = {Col("nid"), Col("cost"), Col("pid")};
    return spec;
  }

  Status Merge(const MergeSpec& spec) {
    MaterializedExecutor source(Rows(), RowSchema());
    int64_t affected = 0;
    return MergePlan(table_.get(), RowSchema(), spec).Run(&source, &affected);
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<Table> table_;
};

TEST_F(MergeBindTest, MisspeltColumnsInMergeSpecAreInvalidArgument) {
  MergeSpec condition = Spec();
  condition.matched_condition =
      Cmp(CompareOp::kGt, Col("t.cots"), Col("s.cost"));
  MergeSpec set_expr = Spec();
  set_expr.matched_sets = {{"cost", Col("s.csot")}};
  MergeSpec insert_value = Spec();
  insert_value.insert_values = {Col("nid"), Col("cost"), Col("ppid")};
  for (const MergeSpec* spec : {&condition, &set_expr, &insert_value}) {
    Status st = Merge(*spec);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  }
  // Nothing was written by the rejected statements.
  EXPECT_EQ(table_->num_rows(), 1);
  EXPECT_TRUE(Merge(Spec()).ok());
  EXPECT_EQ(table_->num_rows(), 2);
}

TEST_F(MergeBindTest, MisspeltColumnInFemOperatorsIsInvalidArgument) {
  DedupLeast dedup(SqlMode::kNsql, Source, "nid", "cost", "tei");
  EXPECT_TRUE(dedup.Run().IsInvalidArgument());
  Database db;
  MergeSpec spec = Spec();
  spec.matched_sets = {{"cost", Col("s.csot")}};
  for (SqlMode mode : {SqlMode::kNsql, SqlMode::kTsql}) {
    MergeRows merge(&db, mode, table_.get(), RowSchema(), spec);
    int64_t affected;
    const std::vector<Tuple> rows = Rows();
    EXPECT_TRUE(merge.Run(rows.data(), rows.size(), &affected)
                    .IsInvalidArgument());
  }
}

TEST(BindColumnsTest, BindingCopiesAndLeavesTheSharedTreeAlone) {
  const Schema schema = RowSchema();
  const Schema shifted({{"x", TypeId::kInt},
                        {"cost", TypeId::kInt},
                        {"nid", TypeId::kInt},
                        {"pid", TypeId::kInt}});
  ExprRef shared = Add(Col("nid"), Mul(Col("cost"), Lit(int64_t{10})));
  ExprRef bound;
  ASSERT_TRUE(BindColumns(shared, schema, &bound).ok());
  EXPECT_NE(bound, shared);
  EXPECT_EQ(bound->ToString(), shared->ToString());

  // Re-binding a bound tree to its schema hands back the same tree.
  ExprRef again;
  ASSERT_TRUE(BindColumns(bound, schema, &again).ok());
  EXPECT_EQ(again, bound);

  // A tree without columns is never copied.
  ExprRef constant = Add(Lit(int64_t{1}), Lit(int64_t{2}));
  ExprRef constant_bound;
  ASSERT_TRUE(BindColumns(constant, schema, &constant_bound).ok());
  EXPECT_EQ(constant_bound, constant);

  // Bound to another schema, the same tree reads other slots; the by-name
  // original is untouched, so binding it again copies it again, to either.
  ExprRef rebound;
  ASSERT_TRUE(BindColumns(bound, shifted, &rebound).ok());
  const Tuple row({Value(int64_t{4}), Value(int64_t{2}), Value(int64_t{7})});
  const Tuple wide({Value(int64_t{0}), Value(int64_t{2}), Value(int64_t{4}),
                    Value(int64_t{7})});
  EXPECT_EQ(bound->Evaluate(row).AsInt(), 24);
  EXPECT_EQ(rebound->Evaluate(wide).AsInt(), 24);
  for (const Schema* target : {&schema, &shifted}) {
    ExprRef copy;
    ASSERT_TRUE(BindColumns(shared, *target, &copy).ok());
    EXPECT_NE(copy, shared);
    EXPECT_EQ(copy->Evaluate(target == &schema ? row : wide).AsInt(), 24);
  }

  ExprRef missing;
  EXPECT_TRUE(BindColumns(shared, Schema({{"nid", TypeId::kInt}}), &missing)
                  .IsInvalidArgument());
}

TEST(BindColumnsTest, PairEvaluationMatchesTheConcatenatedRow) {
  const Schema left({{"t.a", TypeId::kInt}, {"t.b", TypeId::kInt}});
  const Schema right({{"s.a", TypeId::kInt}, {"s.c", TypeId::kInt}});
  const Schema combined = ConcatSchemas(left, right);
  ExprRef expr =
      And(Cmp(CompareOp::kGt, Col("t.b"), Col("s.a")),
          Cmp(CompareOp::kEq, Add(Col("t.a"), Col("s.c")), Lit(int64_t{9})));
  ExprRef bound;
  ASSERT_TRUE(BindColumns(expr, combined, &bound).ok());
  for (int64_t b = 0; b < 4; b++) {
    const Tuple l({Value(int64_t{4}), Value(b)});
    const Tuple r({Value(int64_t{2}), Value(int64_t{5})});
    const Tuple joined = ConcatTuples(l, r);
    const int64_t expected = b > 2 ? 1 : 0;  // t.b > s.a, and 4 + 5 = 9
    EXPECT_EQ(bound->Evaluate(RowView(l, r)).AsInt(), expected);
    EXPECT_EQ(bound->Evaluate(joined).AsInt(), expected);
  }
}

}  // namespace
}  // namespace relgraph
