// Executor streams against independent oracles: random physical plans
// (Filter/Project/Limit/IndexNestedLoopJoin over scans) must yield exactly
// what a scalar reference computes with Evaluate over std::vector<Tuple>
// and raw table iterators — same tuples, same order — through all three
// ways of draining a plan (NextBatchSel spans, the Next adapter, Collect),
// at input sizes on both sides of every batch boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/catalog/table.h"
#include "src/common/rng.h"
#include "src/exec/agg_executors.h"
#include "src/exec/dml_executors.h"
#include "src/exec/join_executors.h"
#include "src/exec/scan_executors.h"
#include "src/exec/window_executor.h"

namespace relgraph {
namespace {

/// Drains through NextBatchSel, copying lanes out without moving them.
/// Every span must be non-empty and within the batch cap.
std::vector<Tuple> DrainSpans(Executor* e) {
  EXPECT_TRUE(e->Init().ok());
  std::vector<Tuple> out;
  BatchSpan span;
  while (e->NextBatchSel(&span)) {
    EXPECT_GT(span.count(), 0u) << "NextBatchSel returned an empty span";
    EXPECT_LE(span.count(), kExecBatchSize);
    for (size_t i = 0; i < span.count(); i++) out.push_back(span.row(i));
  }
  EXPECT_TRUE(e->status().ok());
  return out;
}

/// Drains through the row-at-a-time Next adapter.
std::vector<Tuple> DrainNext(Executor* e) {
  EXPECT_TRUE(e->Init().ok());
  std::vector<Tuple> out;
  Tuple t;
  while (e->Next(&t)) out.push_back(t);
  EXPECT_TRUE(e->status().ok());
  return out;
}

std::vector<Tuple> DrainCollect(Executor* e) {
  std::vector<Tuple> out;
  EXPECT_TRUE(Collect(e, &out).ok());
  return out;
}

void ExpectSameStream(const std::vector<Tuple>& want,
                      const std::vector<Tuple>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); i++) {
    ASSERT_EQ(want[i], got[i]) << what << " row " << i;
  }
}

/// Scalar reference for a table access path: the raw iterator, no
/// executor in between.
std::vector<Tuple> ReadAll(Table::Iterator it) {
  std::vector<Tuple> out;
  Tuple t;
  while (it.Next(&t, nullptr)) out.push_back(t);
  EXPECT_TRUE(it.status().ok());
  return out;
}

std::vector<Tuple> ReadRange(Table* table, const std::string& column,
                             int64_t lo, int64_t hi) {
  Table::Iterator it;
  EXPECT_TRUE(table->ScanRange(column, lo, hi, &it).ok());
  return ReadAll(std::move(it));
}

class ExecBatchTest : public ::testing::Test {
 protected:
  ExecBatchTest() : pool_(2048, &dm_) {
    left_ = MakeLeft("L", 200, 20, 2024);
    right_ = MakeRight("R", 150, 20, 2025);
  }

  /// L(a, b, c): n rows of values in [0, domain].
  std::unique_ptr<Table> MakeLeft(const std::string& name, int n,
                                  int64_t domain, uint64_t seed) {
    std::unique_ptr<Table> t;
    Schema schema(
        {{"a", TypeId::kInt}, {"b", TypeId::kInt}, {"c", TypeId::kInt}});
    EXPECT_TRUE(Table::Create(&pool_, name, schema, TableOptions{}, &t).ok());
    Rng rng(seed);
    for (int i = 0; i < n; i++) {
      EXPECT_TRUE(t->Insert(Tuple({Value(rng.NextInt(0, domain)),
                                   Value(rng.NextInt(0, domain)),
                                   Value(rng.NextInt(0, domain))}))
                      .ok());
    }
    return t;
  }

  /// R(fid, tid, cost) with a secondary index on fid (the join's probe).
  std::unique_ptr<Table> MakeRight(const std::string& name, int n,
                                   int64_t domain, uint64_t seed) {
    std::unique_ptr<Table> t;
    Schema schema(
        {{"fid", TypeId::kInt}, {"tid", TypeId::kInt}, {"cost", TypeId::kInt}});
    EXPECT_TRUE(Table::Create(&pool_, name, schema, TableOptions{}, &t).ok());
    Rng rng(seed);
    for (int i = 0; i < n; i++) {
      EXPECT_TRUE(t->Insert(Tuple({Value(rng.NextInt(0, domain)),
                                   Value(rng.NextInt(0, domain)),
                                   Value(rng.NextInt(0, 50))}))
                      .ok());
    }
    EXPECT_TRUE(t->CreateSecondaryIndex("fid", /*unique=*/false).ok());
    return t;
  }

  /// Builds one random plan over (left, right) and computes its expected
  /// output into *ref without touching any executor. Identical (seed,
  /// depth) always builds the same tree.
  ExecRef BuildPlan(Rng* rng, int depth, Table* left, Table* right,
                    int64_t domain, std::vector<Tuple>* ref) {
    if (depth <= 0) {
      switch (rng->NextInt(0, 2)) {
        case 0:
          *ref = ReadAll(left->Scan());
          return std::make_unique<SeqScanExecutor>(left);
        case 1:
          *ref = ReadAll(right->Scan());
          return std::make_unique<SeqScanExecutor>(right);
        default: {
          int64_t lo = rng->NextInt(0, domain);
          int64_t hi = lo + rng->NextInt(0, domain / 4 + 5);
          *ref = ReadRange(right, "fid", lo, hi);
          return std::make_unique<IndexRangeScanExecutor>(right, "fid", lo,
                                                          hi);
        }
      }
    }
    std::vector<Tuple> in_rows;
    ExecRef child = BuildPlan(rng, depth - 1, left, right, domain, &in_rows);
    const Schema in = child->OutputSchema();
    auto random_col = [&] {
      return Col(in.column(rng->NextInt(0, in.NumColumns() - 1)).name);
    };
    ref->clear();
    switch (rng->NextInt(0, 3)) {
      case 0: {
        CompareOp op = static_cast<CompareOp>(rng->NextInt(0, 5));
        ExprRef pred = Cmp(op, random_col(), Lit(rng->NextInt(0, domain)));
        for (const Tuple& t : in_rows) {
          if (EvalPredicate(*pred, t, in)) ref->push_back(t);
        }
        return std::make_unique<FilterExecutor>(std::move(child), pred);
      }
      case 1: {
        std::vector<ExprRef> exprs = {random_col(),
                                      Add(random_col(), random_col())};
        for (const Tuple& t : in_rows) {
          ref->push_back(Tuple({exprs[0]->Evaluate(t, in),
                                exprs[1]->Evaluate(t, in)}));
        }
        Schema out({{"p0", TypeId::kInt}, {"p1", TypeId::kInt}});
        return std::make_unique<ProjectExecutor>(std::move(child),
                                                 std::move(exprs), out);
      }
      case 2: {
        const int64_t limit =
            rng->NextInt(0, 3 * static_cast<int64_t>(kExecBatchSize));
        *ref = std::move(in_rows);
        if (static_cast<int64_t>(ref->size()) > limit) ref->resize(limit);
        return std::make_unique<LimitExecutor>(std::move(child), limit);
      }
      default: {
        // Probe R.fid with a random outer column; sometimes add a residual.
        ExprRef key = random_col();
        ExprRef residual =
            rng->NextInt(0, 1) == 0
                ? nullptr
                : Cmp(CompareOp::kLt, Col("cost"), Lit(rng->NextInt(5, 45)));
        const Schema joined = ConcatSchemas(in, right->schema());
        for (const Tuple& t : in_rows) {
          Value k = key->Evaluate(t, in);
          if (k.IsNull()) continue;
          for (const Tuple& inner : ReadRange(right, "fid", k.AsInt(),
                                              k.AsInt())) {
            Tuple row = ConcatTuples(t, inner);
            if (residual == nullptr || EvalPredicate(*residual, row, joined)) {
              ref->push_back(std::move(row));
            }
          }
        }
        return std::make_unique<IndexNestedLoopJoinExecutor>(
            std::move(child), right, "fid", key, std::move(residual));
      }
    }
  }

  /// Checks seeds [1, seeds] of random plans over (left, right) against
  /// their references through every drain, then re-Init()s the span plan
  /// and checks the replay too.
  void CheckRandomPlans(Table* left, Table* right, int64_t domain,
                        uint64_t seeds, const std::string& label) {
    for (uint64_t seed = 1; seed <= seeds; seed++) {
      const int depth = static_cast<int>(seed % 3) + 1;
      const std::string what = label + " seed " + std::to_string(seed);
      std::vector<Tuple> ref, unused;
      Rng build_a(seed), build_b(seed), build_c(seed);
      ExecRef a = BuildPlan(&build_a, depth, left, right, domain, &ref);
      ExecRef b = BuildPlan(&build_b, depth, left, right, domain, &unused);
      ExecRef c = BuildPlan(&build_c, depth, left, right, domain, &unused);
      ExpectSameStream(ref, DrainSpans(a.get()), what + " spans");
      ExpectSameStream(ref, DrainSpans(a.get()), what + " re-Init");
      ExpectSameStream(ref, DrainNext(b.get()), what + " Next");
      ExpectSameStream(ref, DrainCollect(c.get()), what + " Collect");
    }
  }

  DiskManager dm_;
  BufferPool pool_;
  std::unique_ptr<Table> left_;
  std::unique_ptr<Table> right_;
};

TEST_F(ExecBatchTest, RandomPlansAgreeAcrossPullStyles) {
  CheckRandomPlans(left_.get(), right_.get(), 20, 40, "L200/R150");
}

/// Input sizes on both sides of the batch cap: empty, one row, one short
/// of a batch, exactly one, one over, and a ragged three-batch tail. The
/// value domain grows with n so index joins stay about one match per probe.
TEST_F(ExecBatchTest, BatchBoundariesMatchScalarReference) {
  for (int n : {0, 1, 1023, 1024, 1025, 3079}) {
    const int64_t domain = std::max<int64_t>(20, n / 2);
    auto left = MakeLeft("L" + std::to_string(n), n, domain, 31 + n);
    auto right = MakeRight("R" + std::to_string(n), n, domain, 37 + n);
    CheckRandomPlans(left.get(), right.get(), domain, 12,
                     "n=" + std::to_string(n));
  }
}

// ---------------------------------------------------------------------------
// EvalBatch-vs-Evaluate agreement: random expression trees over random rows
// (ints, NULLs, and doubles, so both the unboxed kernels and the boxed
// fallback run) must produce value-identical columns.
// ---------------------------------------------------------------------------

class EvalBatchTest : public ::testing::Test {
 protected:
  static Schema TestSchema() {
    return Schema({{"a", TypeId::kInt},
                   {"b", TypeId::kInt},
                   {"c", TypeId::kInt},
                   {"d", TypeId::kDouble}});
  }

  static std::vector<Tuple> MakeRows(Rng* rng, int n) {
    std::vector<Tuple> rows;
    rows.reserve(n);
    for (int i = 0; i < n; i++) {
      auto maybe_null_int = [&]() {
        return rng->NextInt(0, 9) == 0 ? Value::Null()
                                       : Value(rng->NextInt(-20, 20));
      };
      Value d = rng->NextInt(0, 9) == 0
                    ? Value::Null()
                    : Value(static_cast<double>(rng->NextInt(-40, 40)) / 4.0);
      rows.push_back(Tuple({maybe_null_int(), maybe_null_int(),
                            maybe_null_int(), d}));
    }
    return rows;
  }

  /// Numeric-valued expression (may yield INT, DOUBLE, or NULL).
  static ExprRef RandomNumExpr(Rng* rng, int depth) {
    if (depth <= 0) {
      switch (rng->NextInt(0, 4)) {
        case 0: return Col("a");
        case 1: return Col("b");
        case 2: return Col("c");
        case 3: return Col("d");
        default: return rng->NextInt(0, 3) == 0
                            ? NullLit()
                            : Lit(rng->NextInt(-10, 10));
      }
    }
    ExprRef l = RandomNumExpr(rng, depth - 1);
    ExprRef r = RandomNumExpr(rng, depth - 1);
    switch (rng->NextInt(0, 3)) {
      case 0: return Add(std::move(l), std::move(r));
      case 1: return Sub(std::move(l), std::move(r));
      case 2: return Mul(std::move(l), std::move(r));
      default: return Div(std::move(l), std::move(r));
    }
  }

  /// Boolean-valued expression (INT 0/1 or NULL) — the only shape the
  /// logic operators are defined over.
  static ExprRef RandomBoolExpr(Rng* rng, int depth) {
    if (depth <= 0) {
      if (rng->NextInt(0, 4) == 0) {
        return IsNull(RandomNumExpr(rng, 1), rng->NextInt(0, 1) == 1);
      }
      CompareOp op = static_cast<CompareOp>(rng->NextInt(0, 5));
      return Cmp(op, RandomNumExpr(rng, 1), RandomNumExpr(rng, 1));
    }
    switch (rng->NextInt(0, 2)) {
      case 0:
        return And(RandomBoolExpr(rng, depth - 1),
                   RandomBoolExpr(rng, depth - 1));
      case 1:
        return Or(RandomBoolExpr(rng, depth - 1),
                  RandomBoolExpr(rng, depth - 1));
      default:
        return Not(RandomBoolExpr(rng, depth - 1));
    }
  }

  static void ExpectAgreement(const Expression& e,
                              const std::vector<Tuple>& rows,
                              const Schema& schema, uint64_t seed) {
    RowBatch batch(rows, schema);
    ValueColumn col;
    e.EvalBatch(batch, &col);
    ASSERT_EQ(col.size(), rows.size());
    for (size_t i = 0; i < rows.size(); i++) {
      Value scalar = e.Evaluate(rows[i], schema);
      Value batched = col.Get(i);
      ASSERT_EQ(scalar.IsNull(), batched.IsNull())
          << "seed " << seed << " row " << i << " expr " << e.ToString();
      if (!scalar.IsNull()) {
        ASSERT_EQ(scalar.Compare(batched), 0)
            << "seed " << seed << " row " << i << " expr " << e.ToString();
      }
    }
  }
};

TEST_F(EvalBatchTest, RandomExpressionsAgreeWithScalarEvaluation) {
  Schema schema = TestSchema();
  for (uint64_t seed = 1; seed <= 60; seed++) {
    Rng rng(seed);
    auto rows = MakeRows(&rng, 64);
    ExprRef num = RandomNumExpr(&rng, static_cast<int>(seed % 4));
    ExpectAgreement(*num, rows, schema, seed);
    ExprRef cond = RandomBoolExpr(&rng, static_cast<int>(seed % 3));
    ExpectAgreement(*cond, rows, schema, seed);

    // Predicate verdicts must match row-by-row EvalPredicate.
    RowBatch batch(rows, schema);
    ValueColumn scratch;
    std::vector<char> keep;
    EvalPredicateBatch(*cond, batch, &scratch, &keep);
    ASSERT_EQ(keep.size(), rows.size());
    for (size_t i = 0; i < rows.size(); i++) {
      EXPECT_EQ(keep[i] != 0, EvalPredicate(*cond, rows[i], schema))
          << "seed " << seed << " row " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming window, MERGE, and replay producers against test-side oracles.
// ---------------------------------------------------------------------------

/// row_number() OVER (PARTITION BY fid ORDER BY cost, tid), computed with
/// std::stable_sort over the raw scan.
std::vector<Tuple> OracleWindow(std::vector<Tuple> rows) {
  auto by_fid_cost_tid = [](const Tuple& x, const Tuple& y) {
    for (size_t k : {size_t{0}, size_t{2}, size_t{1}}) {
      int c = x.value(k).Compare(y.value(k));
      if (c != 0) return c < 0;
    }
    return false;
  };
  std::stable_sort(rows.begin(), rows.end(), by_fid_cost_tid);
  std::vector<Tuple> out;
  int64_t rownum = 0;
  for (size_t i = 0; i < rows.size(); i++) {
    if (i == 0 || rows[i].value(0).Compare(rows[i - 1].value(0)) != 0) {
      rownum = 0;
    }
    std::vector<Value> v = rows[i].values();
    v.emplace_back(++rownum);
    out.push_back(Tuple(std::move(v)));
  }
  return out;
}

TEST_F(ExecBatchTest, SortedStreamingWindowMatchesSortingWindow) {
  // Feed the streaming operator pre-sorted input; it must reproduce the
  // sorting window's output exactly, through both drains.
  const std::vector<Tuple> expected = OracleWindow(ReadAll(right_->Scan()));
  std::vector<Tuple> sorted_input;
  for (const Tuple& t : expected) {
    std::vector<Value> v(t.values().begin(), t.values().end() - 1);
    sorted_input.push_back(Tuple(std::move(v)));
  }
  Schema in_schema({{"fid", TypeId::kInt},
                    {"tid", TypeId::kInt},
                    {"cost", TypeId::kInt}});

  SortedWindowRowNumberExecutor streamed(
      std::make_unique<MaterializedExecutor>(sorted_input, in_schema),
      std::vector<std::string>{"fid"});
  ExpectSameStream(expected, DrainNext(&streamed), "streamed Next");
  ExpectSameStream(expected, DrainSpans(&streamed), "streamed spans");
}

TEST_F(ExecBatchTest, MergeViaBatchMatchesRowAtATimeMerge) {
  // Source: ~3000 rows with duplicate keys, some new, some better.
  std::vector<Tuple> src;
  Rng srng(78);
  for (int64_t i = 0; i < 3000; i++) {
    src.push_back(Tuple({Value(srng.NextInt(0, 600)),
                         Value(srng.NextInt(10, 120)),
                         Value(srng.NextInt(0, 40))}));
  }
  const Schema src_schema(
      {{"nid", TypeId::kInt}, {"cost", TypeId::kInt}, {"pid", TypeId::kInt}});

  // Row-at-a-time oracle: each source row sees every earlier row's effect.
  std::map<int64_t, Tuple> oracle;
  Rng rng(77);
  for (int64_t i = 0; i < 300; i++) {
    oracle[i] =
        Tuple({Value(i), Value(rng.NextInt(50, 90)), Value(int64_t{-1})});
  }
  int64_t oracle_affected = 0;
  for (const Tuple& s : src) {
    const int64_t nid = s.value(0).AsInt();
    auto it = oracle.find(nid);
    if (it == oracle.end()) {
      oracle[nid] = s;
      oracle_affected++;
    } else if (it->second.value(1).AsInt() > s.value(1).AsInt()) {
      it->second.value(1) = s.value(1);
      it->second.value(2) = s.value(2);
      oracle_affected++;
    }
  }

  // The same MERGE from a replayed source (rows copied out) and from a
  // projection over it (scratch rows moved out by the source drain).
  for (bool scratch_source : {false, true}) {
    DiskManager dm;
    BufferPool pool(512, &dm);
    std::unique_ptr<Table> target;
    ASSERT_TRUE(Table::Create(&pool, "T",
                              Schema({{"nid", TypeId::kInt},
                                      {"d2s", TypeId::kInt},
                                      {"p2s", TypeId::kInt}}),
                              TableOptions{}, &target)
                    .ok());
    ASSERT_TRUE(target->CreateSecondaryIndex("nid", /*unique=*/true).ok());
    Rng trng(77);
    for (int64_t i = 0; i < 300; i++) {
      ASSERT_TRUE(target
                      ->Insert(Tuple({Value(i), Value(trng.NextInt(50, 90)),
                                      Value(int64_t{-1})}))
                      .ok());
    }
    ExecRef source = std::make_unique<MaterializedExecutor>(src, src_schema);
    if (scratch_source) {
      source = std::make_unique<ProjectExecutor>(
          std::move(source),
          std::vector<ExprRef>{Col("nid"), Col("cost"), Col("pid")},
          src_schema);
    }
    MergeSpec spec;
    spec.target_key_column = "nid";
    spec.source_key_column = "nid";
    spec.matched_condition = Cmp(CompareOp::kGt, Col("t.d2s"), Col("s.cost"));
    spec.matched_sets = {{"d2s", Col("s.cost")}, {"p2s", Col("s.pid")}};
    spec.insert_values = {Col("nid"), Col("cost"), Col("pid")};
    int64_t affected = 0;
    ASSERT_TRUE(MergeInto(target.get(), source.get(), spec, &affected).ok());
    EXPECT_EQ(affected, oracle_affected) << "scratch=" << scratch_source;

    std::vector<Tuple> got = ReadAll(target->Scan());
    std::sort(got.begin(), got.end(), [](const Tuple& x, const Tuple& y) {
      return x.value(0).AsInt() < y.value(0).AsInt();
    });
    std::vector<Tuple> want;
    for (const auto& [nid, row] : oracle) want.push_back(row);
    ExpectSameStream(want, got,
                     "merge scratch=" + std::to_string(scratch_source));
  }
  EXPECT_GT(oracle_affected, 0);
}

TEST_F(ExecBatchTest, WindowAndMaterializedBatchesAgree) {
  const std::vector<Tuple> expected = OracleWindow(ReadAll(right_->Scan()));
  WindowRowNumberExecutor w(
      std::make_unique<SeqScanExecutor>(right_.get()),
      std::vector<std::string>{"fid"},
      std::vector<SortKey>{{Col("cost"), true}, {Col("tid"), true}});
  ExpectSameStream(expected, DrainSpans(&w), "window spans");
  ExpectSameStream(expected, DrainNext(&w), "window Next after re-Init");

  // Replay producers hand out their storage, never move it: re-Init()
  // replays the same rows however they were drained before.
  MaterializedExecutor m(expected, w.OutputSchema());
  ExpectSameStream(expected, DrainCollect(&m), "materialized Collect");
  ExpectSameStream(expected, DrainNext(&m), "materialized Next");
  ExpectSameStream(expected, DrainSpans(&m), "materialized spans");
  SortExecutor sorted(std::make_unique<MaterializedExecutor>(
                          expected, w.OutputSchema()),
                      {{Col("fid"), true}});
  ExpectSameStream(expected, DrainCollect(&sorted), "sort Collect");
  ExpectSameStream(expected, DrainCollect(&sorted), "sort replay");
}

// ---------------------------------------------------------------------------
// Selection-vector properties: every form a filter forwards — the child's
// span untouched, a selection vector over it, a compacted copy — must be
// bit-identical to the scalar oracle. Which form is taken depends only on
// how many lanes of a child batch survive, so the data picks the branch.
// ---------------------------------------------------------------------------

/// Pass-through wrapper that records the rows pointer of every span it
/// serves, so tests can assert a downstream operator forwarded that exact
/// storage (zero-copy) instead of draining it into a local buffer.
class SpanProbeExecutor : public Executor {
 public:
  explicit SpanProbeExecutor(ExecRef inner) : inner_(std::move(inner)) {}
  bool NextBatchSel(BatchSpan* out) override {
    if (!inner_->NextBatchSel(out)) {
      status_ = inner_->status();
      return false;
    }
    last_served_ = out->rows;
    return true;
  }
  const Schema& OutputSchema() const override {
    return inner_->OutputSchema();
  }
  const Tuple* last_served() const { return last_served_; }

 protected:
  Status Open() override { return inner_->Init(); }

 private:
  ExecRef inner_;
  const Tuple* last_served_ = nullptr;
};

class SelVectorTest : public ::testing::Test {
 protected:
  static Schema InputSchema() {
    return Schema({{"k", TypeId::kInt}, {"v", TypeId::kInt}});
  }

  /// k = i % kExecBatchSize makes `k < s` keep exactly s lanes of every
  /// full batch: s = 5 leaves fewer than kSelVectorMinRows survivors
  /// (compact), s = 512 half the batch (selection vector), s = 1024 all.
  static std::vector<Tuple> MakeRows(int n, uint64_t seed) {
    Rng rng(seed);
    std::vector<Tuple> rows;
    rows.reserve(n);
    for (int i = 0; i < n; i++) {
      rows.push_back(
          Tuple({Value(static_cast<int64_t>(i % kExecBatchSize)),
                 Value(rng.NextInt(-100, 100))}));
    }
    return rows;
  }

  /// Filter(k < s) over a probed materialized input.
  static ExecRef MakeFilter(const std::vector<Tuple>& rows, int64_t s,
                            SpanProbeExecutor** probe_out) {
    auto probe = std::make_unique<SpanProbeExecutor>(
        std::make_unique<MaterializedExecutor>(rows, InputSchema()));
    if (probe_out != nullptr) *probe_out = probe.get();
    return std::make_unique<FilterExecutor>(
        std::move(probe), Cmp(CompareOp::kLt, Col("k"), Lit(s)));
  }

  /// Filter(k < s) -> Project(v, k + v).
  static ExecRef MakePlan(const std::vector<Tuple>& rows, int64_t s) {
    std::vector<ExprRef> exprs = {Col("v"), Add(Col("k"), Col("v"))};
    Schema out({{"p0", TypeId::kInt}, {"p1", TypeId::kInt}});
    return std::make_unique<ProjectExecutor>(MakeFilter(rows, s, nullptr),
                                             std::move(exprs), out);
  }
};

TEST_F(SelVectorTest, SelectivityBatchSizeThresholdSweepIsBitIdentical) {
  for (int n : {0, 1, 1023, 1024, 1025, 3079}) {
    const std::vector<Tuple> rows = MakeRows(n, 11);
    for (int64_t s : {int64_t{0}, int64_t{5}, int64_t{512}, int64_t{1024}}) {
      // Scalar oracle, computed without any executor machinery.
      std::vector<Tuple> oracle;
      for (const Tuple& t : rows) {
        const int64_t k = t.value(0).AsInt();
        const int64_t v = t.value(1).AsInt();
        if (k < s) oracle.push_back(Tuple({Value(v), Value(k + v)}));
      }
      const std::string what =
          "n=" + std::to_string(n) + " s=" + std::to_string(s);
      ExecRef plan = MakePlan(rows, s);
      ExpectSameStream(oracle, DrainSpans(plan.get()), what + " spans");
      ExpectSameStream(oracle, DrainNext(plan.get()), what + " Next");
      ExpectSameStream(oracle, DrainCollect(plan.get()), what + " Collect");
    }
  }
}

TEST_F(SelVectorTest, AllTruePredicateForwardsChildStorageZeroCopy) {
  const std::vector<Tuple> rows = MakeRows(3000, 12);
  SpanProbeExecutor* probe = nullptr;
  // k < 1024 holds for every row: the filter must forward the child's
  // spans untouched.
  ExecRef filter = MakeFilter(rows, 1024, &probe);
  ASSERT_TRUE(filter->Init().ok());
  BatchSpan span;
  ASSERT_TRUE(filter->NextBatchSel(&span));
  EXPECT_TRUE(span.dense());
  EXPECT_EQ(span.rows, probe->last_served());
  EXPECT_EQ(span.count(), kExecBatchSize);
}

TEST_F(SelVectorTest, ThresholdControlsForwardVersusCompact) {
  const std::vector<Tuple> rows = MakeRows(4000, 13);
  static_assert(5 < kSelVectorMinRows && kSelVectorMinRows <= 512);

  // At or above the threshold: a selection vector over the child's storage.
  SpanProbeExecutor* probe = nullptr;
  ExecRef filter = MakeFilter(rows, 512, &probe);
  ASSERT_TRUE(filter->Init().ok());
  BatchSpan span;
  ASSERT_TRUE(filter->NextBatchSel(&span));
  EXPECT_FALSE(span.dense());
  EXPECT_EQ(span.rows, probe->last_served());
  EXPECT_EQ(span.count(), 512u);
  for (size_t i = 0; i < span.count(); i++) {
    EXPECT_LT(span.row(i).value(0).AsInt(), 512);
  }

  // Below it: a dense compacted copy, not the child's storage.
  SpanProbeExecutor* probe2 = nullptr;
  ExecRef filter2 = MakeFilter(rows, 5, &probe2);
  ASSERT_TRUE(filter2->Init().ok());
  BatchSpan span2;
  ASSERT_TRUE(filter2->NextBatchSel(&span2));
  EXPECT_TRUE(span2.dense());
  EXPECT_NE(span2.rows, probe2->last_served());
  EXPECT_EQ(span2.count(), 5u);
  for (size_t i = 0; i < span2.count(); i++) {
    EXPECT_LT(span2.row(i).value(0).AsInt(), 5);
  }
}

TEST_F(EvalBatchTest, SelectionVectorAgreesWithCompactedAndScalar) {
  Schema schema = TestSchema();
  for (uint64_t seed = 1; seed <= 40; seed++) {
    Rng rng(seed);
    const size_t n = 96;
    auto rows = MakeRows(&rng, static_cast<int>(n));
    for (size_t want : {size_t{0}, size_t{1}, n / 2, n}) {
      // Random ascending selection of exactly `want` lanes.
      std::vector<uint32_t> all(n);
      for (size_t i = 0; i < n; i++) all[i] = static_cast<uint32_t>(i);
      for (size_t i = n; i > 1; i--) {
        std::swap(all[i - 1],
                  all[static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(i) - 1))]);
      }
      std::vector<uint32_t> sel(all.begin(), all.begin() + want);
      std::sort(sel.begin(), sel.end());
      std::vector<Tuple> compact;
      compact.reserve(want);
      for (uint32_t r : sel) compact.push_back(rows[r]);

      // sel == nullptr means dense, so an empty selection still needs a
      // non-null pointer (an empty vector's data() may be null).
      static uint32_t empty_sel_storage = 0;
      const uint32_t* selp = sel.empty() ? &empty_sel_storage : sel.data();
      for (const ExprRef& e : {RandomNumExpr(&rng, static_cast<int>(seed % 4)),
                               RandomBoolExpr(&rng, static_cast<int>(seed % 3))}) {
        RowBatch sel_batch(rows.data(), rows.size(), schema, selp, sel.size());
        ValueColumn col_sel;
        e->EvalBatch(sel_batch, &col_sel);
        ASSERT_EQ(col_sel.size(), want);
        RowBatch dense_batch(compact, schema);
        ValueColumn col_dense;
        e->EvalBatch(dense_batch, &col_dense);
        ASSERT_EQ(col_dense.size(), want);
        for (size_t i = 0; i < want; i++) {
          const Value scalar = e->Evaluate(rows[sel[i]], schema);
          const Value via_sel = col_sel.Get(i);
          const Value via_dense = col_dense.Get(i);
          ASSERT_EQ(scalar.IsNull(), via_sel.IsNull())
              << "seed " << seed << " lane " << i << " " << e->ToString();
          ASSERT_EQ(scalar.IsNull(), via_dense.IsNull());
          if (!scalar.IsNull()) {
            ASSERT_EQ(scalar.Compare(via_sel), 0)
                << "seed " << seed << " lane " << i << " " << e->ToString();
            ASSERT_EQ(scalar.Compare(via_dense), 0);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hash-aggregation fuzz: the open-addressing build must reproduce a
// std::map oracle exactly — NULL group keys, grouped and scalar shapes,
// filters underneath (selection-vector spans into the build), and enough
// groups to force table resizes.
// ---------------------------------------------------------------------------

class HashAggOracleTest : public ::testing::Test {
 protected:
  struct OracleState {
    Value acc;
    int64_t count = 0;
  };

  static void OracleAccumulate(AggOp op, const Value& v, OracleState* s) {
    if (op == AggOp::kCount) {
      if (!v.IsNull()) s->count++;
      return;
    }
    if (v.IsNull()) return;
    if (s->acc.IsNull()) {
      s->acc = v;
      return;
    }
    switch (op) {
      case AggOp::kMin:
        if (v.Compare(s->acc) < 0) s->acc = v;
        break;
      case AggOp::kMax:
        if (v.Compare(s->acc) > 0) s->acc = v;
        break;
      case AggOp::kSum:
        s->acc = s->acc.Add(v);
        break;
      case AggOp::kCount:
        break;
    }
  }

  /// The old executor's build, reproduced verbatim as the oracle: std::map
  /// keyed on the group values under lexicographic Value::Compare.
  static std::vector<Tuple> OracleAggregate(
      const std::vector<Tuple>& rows, const Schema& schema,
      const std::vector<size_t>& group_idx,
      const std::vector<AggSpec>& aggs) {
    auto cmp = [](const std::vector<Value>& a, const std::vector<Value>& b) {
      for (size_t i = 0; i < a.size(); i++) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c < 0;
      }
      return false;
    };
    std::map<std::vector<Value>, std::vector<OracleState>, decltype(cmp)>
        groups(cmp);
    for (const Tuple& t : rows) {
      std::vector<Value> key;
      key.reserve(group_idx.size());
      for (size_t gi : group_idx) key.push_back(t.value(gi));
      auto [it, inserted] =
          groups.try_emplace(std::move(key), std::vector<OracleState>(aggs.size()));
      for (size_t k = 0; k < aggs.size(); k++) {
        if (aggs[k].expr == nullptr) {
          it->second[k].count++;
        } else {
          OracleAccumulate(aggs[k].op, aggs[k].expr->Evaluate(t, schema),
                           &it->second[k]);
        }
      }
    }
    std::vector<Tuple> out;
    if (groups.empty() && group_idx.empty()) {
      std::vector<Value> row;
      for (const auto& a : aggs) {
        row.push_back(a.op == AggOp::kCount ? Value(int64_t{0}) : Value::Null());
      }
      out.push_back(Tuple(std::move(row)));
      return out;
    }
    for (auto& [key, states] : groups) {
      std::vector<Value> row = key;
      for (size_t k = 0; k < aggs.size(); k++) {
        row.push_back(aggs[k].op == AggOp::kCount ? Value(states[k].count)
                                                  : states[k].acc);
      }
      out.push_back(Tuple(std::move(row)));
    }
    return out;
  }
};

TEST_F(HashAggOracleTest, FuzzGroupedAggregationMatchesMapOracle) {
  Schema schema(
      {{"g1", TypeId::kInt}, {"g2", TypeId::kInt}, {"v", TypeId::kInt}});
  for (uint64_t seed = 1; seed <= 30; seed++) {
    Rng rng(seed);
    const int n = static_cast<int>(rng.NextInt(0, 3000));
    const int64_t fanout = rng.NextInt(1, 40);
    std::vector<Tuple> rows;
    rows.reserve(n);
    for (int i = 0; i < n; i++) {
      auto g = [&](int null_one_in, int64_t hi) {
        return rng.NextInt(0, null_one_in) == 0 ? Value::Null()
                                                : Value(rng.NextInt(0, hi));
      };
      rows.push_back(Tuple({g(7, fanout), g(9, 5), g(9, 100)}));
    }
    // Alternate: plain scan vs a ~50% filter underneath (selection-vector
    // spans feed the build) — the oracle applies the same predicate.
    ExprRef pred = seed % 2 == 0
                       ? Cmp(CompareOp::kGe, Col("v"), Lit(int64_t{50}))
                       : nullptr;
    std::vector<Tuple> oracle_input;
    for (const Tuple& t : rows) {
      if (pred == nullptr || EvalPredicate(*pred, t, schema)) {
        oracle_input.push_back(t);
      }
    }
    std::vector<AggSpec> aggs = {{AggOp::kMin, Col("v"), "mn"},
                                 {AggOp::kMax, Col("v"), "mx"},
                                 {AggOp::kSum, Col("v"), "sm"},
                                 {AggOp::kCount, Col("v"), "cv"},
                                 {AggOp::kCount, nullptr, "cs"}};
    // Group-by-two-columns and scalar shapes both fuzz here.
    const bool scalar_shape = seed % 5 == 0;
    std::vector<std::string> group_cols =
        scalar_shape ? std::vector<std::string>{}
                     : std::vector<std::string>{"g1", "g2"};
    std::vector<size_t> group_idx;
    for (const auto& gname : group_cols) {
      group_idx.push_back(schema.IndexOf(gname));
    }
    std::vector<Tuple> expected =
        OracleAggregate(oracle_input, schema, group_idx, aggs);

    ExecRef child = std::make_unique<MaterializedExecutor>(rows, schema);
    if (pred != nullptr) {
      child = std::make_unique<FilterExecutor>(std::move(child), pred);
    }
    HashAggregateExecutor agg(std::move(child), group_cols, aggs);
    std::vector<Tuple> got;
    ASSERT_TRUE(Collect(&agg, &got).ok()) << "seed " << seed;
    ASSERT_EQ(expected.size(), got.size()) << "seed " << seed;
    for (size_t i = 0; i < expected.size(); i++) {
      ASSERT_EQ(expected[i], got[i]) << "seed " << seed << " group " << i;
    }
  }
}

TEST_F(HashAggOracleTest, ManyGroupsExerciseTheResizePath) {
  // > 64k distinct groups forces several bucket-array doublings; the
  // output must still be every key exactly once, ascending, with exact
  // accumulator values.
  Schema schema({{"g", TypeId::kInt}, {"v", TypeId::kInt}});
  const int64_t kGroups = 70000;
  std::vector<Tuple> rows;
  rows.reserve(2 * kGroups);
  for (int64_t pass = 0; pass < 2; pass++) {
    for (int64_t g = 0; g < kGroups; g++) {
      rows.push_back(Tuple({Value(g), Value(g % 7 + pass)}));
    }
  }
  HashAggregateExecutor agg(
      std::make_unique<MaterializedExecutor>(std::move(rows), schema), {"g"},
      {{AggOp::kSum, Col("v"), "sm"}, {AggOp::kCount, nullptr, "cnt"}});
  std::vector<Tuple> got;
  ASSERT_TRUE(Collect(&agg, &got).ok());
  ASSERT_EQ(got.size(), static_cast<size_t>(kGroups));
  for (int64_t g = 0; g < kGroups; g++) {
    const Tuple& t = got[static_cast<size_t>(g)];
    ASSERT_EQ(t.value(0).AsInt(), g);
    ASSERT_EQ(t.value(1).AsInt(), 2 * (g % 7) + 1);  // v summed over 2 passes
    ASSERT_EQ(t.value(2).AsInt(), 2);
  }
}

}  // namespace
}  // namespace relgraph
