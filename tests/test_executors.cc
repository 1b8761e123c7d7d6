#include <gtest/gtest.h>

#include "src/catalog/table.h"
#include "src/exec/agg_executors.h"
#include "src/exec/join_executors.h"
#include "src/exec/scan_executors.h"
#include "src/exec/sort_executor.h"

namespace relgraph {
namespace {

Schema EdgeSchema() {
  return Schema(
      {{"fid", TypeId::kInt}, {"tid", TypeId::kInt}, {"cost", TypeId::kInt}});
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : pool_(256, &dm_) {
    EXPECT_TRUE(
        Table::Create(&pool_, "edges", EdgeSchema(), TableOptions{}, &table_)
            .ok());
    // (fid, tid, cost): 0..9 -> (i, i+1, 10*i)
    for (int64_t i = 0; i < 10; i++) {
      EXPECT_TRUE(
          table_->Insert(Tuple({Value(i), Value(i + 1), Value(i * 10)})).ok());
    }
  }

  std::vector<Tuple> Run(Executor* e) {
    std::vector<Tuple> out;
    EXPECT_TRUE(Collect(e, &out).ok());
    return out;
  }

  DiskManager dm_;
  BufferPool pool_;
  std::unique_ptr<Table> table_;
};

TEST_F(ExecutorTest, SeqScanReturnsAllRows) {
  SeqScanExecutor scan(table_.get());
  EXPECT_EQ(Run(&scan).size(), 10u);
}

TEST_F(ExecutorTest, FilterAppliesPredicate) {
  FilterExecutor plan(std::make_unique<SeqScanExecutor>(table_.get()),
                      Cmp(CompareOp::kGe, Col("cost"), Lit(int64_t{50})));
  auto rows = Run(&plan);
  ASSERT_EQ(rows.size(), 5u);
  for (const auto& t : rows) EXPECT_GE(t.value(2).AsInt(), 50);
}

TEST_F(ExecutorTest, ProjectComputesExpressions) {
  Schema out_schema({{"sum", TypeId::kInt}});
  ProjectExecutor plan(std::make_unique<SeqScanExecutor>(table_.get()),
                       {Add(Col("fid"), Col("tid"))}, out_schema);
  auto rows = Run(&plan);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[3].value(0).AsInt(), 3 + 4);
}

TEST_F(ExecutorTest, LimitStopsEarly) {
  LimitExecutor plan(std::make_unique<SeqScanExecutor>(table_.get()), 3);
  EXPECT_EQ(Run(&plan).size(), 3u);
}

TEST_F(ExecutorTest, RenameChangesSchemaOnly) {
  RenameExecutor plan(std::make_unique<SeqScanExecutor>(table_.get()),
                      {"a", "b", "c"});
  EXPECT_EQ(plan.OutputSchema().Find("a"), 0);
  EXPECT_EQ(plan.OutputSchema().Find("fid"), -1);
  EXPECT_EQ(Run(&plan).size(), 10u);
}

TEST_F(ExecutorTest, PrefixSchemaHelper) {
  Schema s = PrefixSchema(EdgeSchema(), "t.");
  EXPECT_EQ(s.column(0).name, "t.fid");
  EXPECT_EQ(s.column(2).name, "t.cost");
}

TEST_F(ExecutorTest, SortOrdersByKeyDescending) {
  SortExecutor plan(std::make_unique<SeqScanExecutor>(table_.get()),
                    {{Col("cost"), /*ascending=*/false}});
  auto rows = Run(&plan);
  ASSERT_EQ(rows.size(), 10u);
  for (size_t i = 1; i < rows.size(); i++) {
    EXPECT_GE(rows[i - 1].value(2).AsInt(), rows[i].value(2).AsInt());
  }
}

TEST_F(ExecutorTest, NestedLoopJoinWithPredicate) {
  // Self-join: edges (a.tid = b.fid) forms 2-hop pairs, 9 of them.
  auto left = std::make_unique<RenameExecutor>(
      std::make_unique<SeqScanExecutor>(table_.get()),
      std::vector<std::string>{"a_fid", "a_tid", "a_cost"});
  auto right = std::make_unique<SeqScanExecutor>(table_.get());
  NestedLoopJoinExecutor join(
      std::move(left), std::move(right),
      Cmp(CompareOp::kEq, Col("a_tid"), Col("fid")));
  auto rows = Run(&join);
  EXPECT_EQ(rows.size(), 9u);
  for (const auto& t : rows) {
    EXPECT_EQ(t.value(1).AsInt(), t.value(3).AsInt());  // a_tid == fid
  }
}

TEST_F(ExecutorTest, IndexNestedLoopJoinMatchesNestedLoop) {
  ASSERT_TRUE(table_->CreateSecondaryIndex("fid", false).ok());
  auto outer = std::make_unique<RenameExecutor>(
      std::make_unique<SeqScanExecutor>(table_.get()),
      std::vector<std::string>{"a_fid", "a_tid", "a_cost"});
  IndexNestedLoopJoinExecutor join(std::move(outer), table_.get(), "fid",
                                   Col("a_tid"));
  auto rows = Run(&join);
  EXPECT_EQ(rows.size(), 9u);
}

TEST_F(ExecutorTest, IndexJoinResidualPredicateFilters) {
  ASSERT_TRUE(table_->CreateSecondaryIndex("fid", false).ok());
  auto outer = std::make_unique<RenameExecutor>(
      std::make_unique<SeqScanExecutor>(table_.get()),
      std::vector<std::string>{"a_fid", "a_tid", "a_cost"});
  IndexNestedLoopJoinExecutor join(
      std::move(outer), table_.get(), "fid", Col("a_tid"),
      Cmp(CompareOp::kLt, Col("cost"), Lit(int64_t{30})));
  auto rows = Run(&join);
  EXPECT_EQ(rows.size(), 2u);  // matched inner rows have cost 10 and 20
}

TEST_F(ExecutorTest, IndexJoinRequiresIndex) {
  auto outer = std::make_unique<SeqScanExecutor>(table_.get());
  IndexNestedLoopJoinExecutor join(std::move(outer), table_.get(), "tid",
                                   Col("fid"));
  EXPECT_TRUE(join.Init().IsInvalidArgument());
}

TEST_F(ExecutorTest, HashAggregateGroupByMin) {
  // Two extra rows give fid=0 a group of three with a clear minimum.
  ASSERT_TRUE(
      table_->Insert(Tuple({Value(int64_t{0}), Value(int64_t{9}),
                            Value(int64_t{-5})}))
          .ok());
  ASSERT_TRUE(
      table_->Insert(Tuple({Value(int64_t{0}), Value(int64_t{8}),
                            Value(int64_t{70})}))
          .ok());
  HashAggregateExecutor agg(std::make_unique<SeqScanExecutor>(table_.get()),
                            {"fid"},
                            {{AggOp::kMin, Col("cost"), "mincost"},
                             {AggOp::kCount, nullptr, "cnt"}});
  auto rows = Run(&agg);
  ASSERT_EQ(rows.size(), 10u);  // deterministic: sorted by group key
  EXPECT_EQ(rows[0].value(0).AsInt(), 0);
  EXPECT_EQ(rows[0].value(1).AsInt(), -5);
  EXPECT_EQ(rows[0].value(2).AsInt(), 3);
  EXPECT_EQ(rows[5].value(0).AsInt(), 5);
  EXPECT_EQ(rows[5].value(1).AsInt(), 50);
}

TEST_F(ExecutorTest, ScalarAggregateOverEmptyInput) {
  FilterExecutor empty(std::make_unique<SeqScanExecutor>(table_.get()),
                       Cmp(CompareOp::kLt, Col("cost"), Lit(int64_t{-1})));
  Value v;
  ASSERT_TRUE(EvalScalarAggregate(&empty, AggOp::kMin, Col("cost"), &v).ok());
  EXPECT_TRUE(v.IsNull());

  FilterExecutor empty2(std::make_unique<SeqScanExecutor>(table_.get()),
                        Cmp(CompareOp::kLt, Col("cost"), Lit(int64_t{-1})));
  ASSERT_TRUE(EvalScalarAggregate(&empty2, AggOp::kCount, nullptr, &v).ok());
  EXPECT_EQ(v.AsInt(), 0);
}

TEST_F(ExecutorTest, ScalarAggregateMinMaxSum) {
  SeqScanExecutor scan(table_.get());
  Value v;
  ASSERT_TRUE(EvalScalarAggregate(&scan, AggOp::kSum, Col("cost"), &v).ok());
  EXPECT_EQ(v.AsInt(), 450);
  SeqScanExecutor scan2(table_.get());
  ASSERT_TRUE(EvalScalarAggregate(&scan2, AggOp::kMax, Col("cost"), &v).ok());
  EXPECT_EQ(v.AsInt(), 90);
}

// ------------------------------------------------------------ Expressions

/// `e` bound to the one-column schema (x INT) the rows below have.
ExprRef BoundToX(const ExprRef& e) {
  ExprRef out;
  EXPECT_TRUE(BindColumns(e, Schema({{"x", TypeId::kInt}}), &out).ok());
  return out;
}

TEST(ExpressionTest, ThreeValuedLogic) {
  Tuple null_row({Value::Null()});
  Tuple row({Value(int64_t{5})});

  // NULL comparisons are unknown -> predicate false.
  ExprRef x_is_5 = BoundToX(Cmp(CompareOp::kEq, Col("x"), Lit(int64_t{5})));
  EXPECT_FALSE(EvalPredicate(*x_is_5, null_row));
  EXPECT_TRUE(EvalPredicate(*x_is_5, row));
  // FALSE AND NULL = FALSE; TRUE OR NULL = TRUE (short-circuit semantics).
  ExprRef null_cmp = Cmp(CompareOp::kEq, NullLit(), Lit(int64_t{1}));
  EXPECT_FALSE(EvalPredicate(
      *BoundToX(And(Cmp(CompareOp::kEq, Col("x"), Lit(int64_t{9})), null_cmp)),
      row));
  EXPECT_TRUE(EvalPredicate(*BoundToX(Or(x_is_5, null_cmp)), row));
  // NOT NULL = NULL -> false.
  EXPECT_FALSE(EvalPredicate(*Not(null_cmp), row));
}

TEST(ExpressionTest, ArithmeticAndToString) {
  Tuple row({Value(int64_t{6})});
  EXPECT_EQ(BoundToX(Add(Col("x"), Lit(int64_t{4})))->Evaluate(row).AsInt(),
            10);
  EXPECT_EQ(BoundToX(Mul(Col("x"), Lit(int64_t{7})))->Evaluate(row).AsInt(),
            42);
  EXPECT_EQ(Add(Col("x"), Lit(int64_t{4}))->ToString(), "(x + 4)");
  EXPECT_EQ(ColEq("x", 6)->ToString(), "(x = 6)");
}

}  // namespace
}  // namespace relgraph
