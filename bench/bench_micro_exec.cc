// Micro-benchmarks (google-benchmark) for the executor layer: the window
// function and the MERGE statement — the two "new SQL features" whose cost
// profile §5.2 (Fig 6(d)) depends on — plus the E-operator's index join,
// the E-operator-shaped filter+project pipeline, the selection-vector
// filter stack across selectivities, and the vectorized hash aggregate.
//
// The selectivity and aggregation inputs come from bench/series.h, whose
// row and group counts tests/test_golden_counters.cc pins.
#include <benchmark/benchmark.h>

#include "bench/series.h"
#include "src/catalog/table.h"
#include "src/exec/dml_executors.h"
#include "src/exec/join_executors.h"
#include "src/exec/scan_executors.h"
#include "src/exec/window_executor.h"

namespace relgraph {
namespace {

Schema ExpSchema() {
  return Schema({{"nid", TypeId::kInt}, {"cost", TypeId::kInt},
                 {"pid", TypeId::kInt}});
}

std::vector<Tuple> MakeExpansionRows(int64_t n, int64_t dups) {
  std::vector<Tuple> rows;
  rows.reserve(n * dups);
  for (int64_t i = 0; i < n; i++) {
    for (int64_t d = 0; d < dups; d++) {
      rows.push_back(
          Tuple({Value(i), Value((i * 31 + d * 17) % 1000), Value(d)}));
    }
  }
  return rows;
}

void BM_WindowRowNumberDedup(benchmark::State& state) {
  auto rows = MakeExpansionRows(state.range(0), 4);
  for (auto _ : state) {
    auto src = std::make_unique<MaterializedExecutor>(rows, ExpSchema());
    WindowRowNumberExecutor window(std::move(src), {"nid"},
                                   {{Col("cost"), true}});
    std::vector<Tuple> out;
    (void)Collect(&window, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_WindowRowNumberDedup)->Arg(1000)->Arg(10000);

void BM_MergeStatement(benchmark::State& state) {
  // MERGE of `n` source rows into a target holding half of them already.
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    DiskManager dm;
    BufferPool pool(4096, &dm);
    std::unique_ptr<Table> table;
    (void)Table::Create(&pool, "t",
                        Schema({{"nid", TypeId::kInt},
                                {"d2s", TypeId::kInt},
                                {"p2s", TypeId::kInt}}),
                        TableOptions{}, &table);
    (void)table->CreateSecondaryIndex("nid", true);
    for (int64_t i = 0; i < n / 2; i++) {
      (void)table->Insert(Tuple({Value(i), Value(int64_t{500}), Value(i)}));
    }
    auto rows = MakeExpansionRows(n, 1);
    state.ResumeTiming();

    MaterializedExecutor source(rows, ExpSchema());
    MergeSpec spec;
    spec.target_key_column = "nid";
    spec.source_key_column = "nid";
    spec.matched_condition = Cmp(CompareOp::kGt, Col("t.d2s"), Col("s.cost"));
    spec.matched_sets = {{"d2s", Col("s.cost")}, {"p2s", Col("s.pid")}};
    spec.insert_values = {Col("nid"), Col("cost"), Col("pid")};
    int64_t affected;
    (void)MergePlan(table.get(), ExpSchema(), std::move(spec))
        .Run(&source, &affected);
    benchmark::DoNotOptimize(affected);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MergeStatement)->Arg(1000)->Arg(10000);

/// The E-operator's post-join schema: frontier row joined with one edge.
Schema JoinedSchema() {
  return Schema({{"nid", TypeId::kInt},
                 {"dist", TypeId::kInt},
                 {"tid", TypeId::kInt},
                 {"cost", TypeId::kInt},
                 {"pid", TypeId::kInt}});
}

std::vector<Tuple> MakeJoinedRows(int64_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; i++) {
    rows.push_back(Tuple({Value(i % 997), Value((i * 13) % 500),
                          Value((i * 7) % 997), Value(i % 100),
                          Value(i % 31)}));
  }
  return rows;
}

/// A pipeline shaped like the E-operator's expansion statement (Listing
/// 4(2)): the Theorem-1 prune predicate `dist + cost + lb < minCost AND
/// flag-ish conjunct`, then the projection to (nid, dist + cost, pid, aid).
ExecRef MakeFilterProjectPlan(const std::vector<Tuple>& rows) {
  ExecRef scan = std::make_unique<MaterializedExecutor>(rows, JoinedSchema());
  ExecRef filter = std::make_unique<FilterExecutor>(
      std::move(scan),
      And(Cmp(CompareOp::kLt,
              Add(Add(Col("dist"), Col("cost")), Lit(int64_t{40})),
              Lit(int64_t{420})),
          Cmp(CompareOp::kNe, Col("pid"), Lit(int64_t{1}))));
  std::vector<ExprRef> exprs = {Col("tid"), Add(Col("dist"), Col("cost")),
                                Col("pid"), Col("nid")};
  return std::make_unique<ProjectExecutor>(
      std::move(filter), std::move(exprs),
      Schema({{"nid", TypeId::kInt},
              {"cost", TypeId::kInt},
              {"pid", TypeId::kInt},
              {"aid", TypeId::kInt}}));
}

void BM_FilterProjectBatched(benchmark::State& state) {
  auto rows = MakeJoinedRows(state.range(0) * 4);
  // The plan is built once and re-Init()ed per iteration — the prepared-
  // statement pattern — so the timing covers execution, not the one-off
  // copy of the input into the materialized source.
  ExecRef plan = MakeFilterProjectPlan(rows);
  for (auto _ : state) {
    if (!plan->Init().ok()) state.SkipWithError("init failed");
    benchmark::DoNotOptimize(bench::DrainFold(plan.get()));
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_FilterProjectBatched)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// Selection-vector filter stack. k = i % 100 makes `k < s` an exact s%
// selectivity predicate.
//
// The input rows are base-table-wide (a POI row: id columns plus name and
// address attributes) while the projection keeps two ints — the standard
// scan -> filter -> narrow-project shape. The plan stacks two filters the
// way conjunct pushdown does (the selective key predicate, then a fixed
// ~50% attribute predicate). Selection vectors compose through the stack,
// so only the two projected columns of the surviving wide rows are ever
// touched.
// ---------------------------------------------------------------------------

void BM_FilterProjectSelectivity(benchmark::State& state) {
  auto rows = bench::MakeSelRows(bench::kSelRows);
  ExecRef plan = bench::MakeSelPlan(rows, state.range(0));
  for (auto _ : state) {
    if (!plan->Init().ok()) state.SkipWithError("init failed");
    benchmark::DoNotOptimize(bench::DrainFold(plan.get()));
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_FilterProjectSelectivity)
    ->ArgNames({"sel_pct"})
    ->Arg(1)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100);

// ---------------------------------------------------------------------------
// Hash aggregation: the vectorized open-addressing build across group
// counts (its std::map oracle lives in test_exec_batch).
// ---------------------------------------------------------------------------

void BM_HashAggVectorized(benchmark::State& state) {
  auto rows = bench::MakeAggRows(state.range(0), state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::VectorizedAgg(rows));
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_HashAggVectorized)
    ->ArgNames({"rows", "groups"})
    ->Args({bench::kAggRows, 64})
    ->Args({bench::kAggRows, 4096})
    ->Args({bench::kAggRows, 65536});

void BM_IndexNestedLoopJoin(benchmark::State& state) {
  // The E-operator join: a small frontier probing a large clustered edge
  // table.
  DiskManager dm;
  BufferPool pool(8192, &dm);
  std::unique_ptr<Table> edges;
  TableOptions topts;
  topts.storage = TableStorage::kClustered;
  topts.cluster_key = "fid";
  (void)Table::Create(&pool, "edges",
                      Schema({{"fid", TypeId::kInt},
                              {"tid", TypeId::kInt},
                              {"cost", TypeId::kInt}}),
                      topts, &edges);
  const int64_t n = 100000;
  for (int64_t i = 0; i < n; i++) {
    for (int64_t d = 0; d < 3; d++) {
      (void)edges->Insert(
          Tuple({Value(i), Value((i + d + 1) % n), Value(d + 1)}));
    }
  }
  std::vector<Tuple> frontier;
  for (int64_t i = 0; i < 64; i++) {
    frontier.push_back(Tuple({Value(i * 1000), Value(int64_t{7})}));
  }
  Schema fschema({{"nid", TypeId::kInt}, {"d2s", TypeId::kInt}});
  for (auto _ : state) {
    auto outer = std::make_unique<MaterializedExecutor>(frontier, fschema);
    IndexNestedLoopJoinExecutor join(std::move(outer), edges.get(), "fid",
                                     Col("nid"));
    std::vector<Tuple> out;
    (void)Collect(&join, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * frontier.size());
}
BENCHMARK(BM_IndexNestedLoopJoin);

}  // namespace
}  // namespace relgraph

BENCHMARK_MAIN();
