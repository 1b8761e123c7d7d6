// Micro-benchmarks (google-benchmark) for the executor layer: the window
// function and the MERGE statement — the two "new SQL features" whose cost
// profile §5.2 (Fig 6(d)) depends on — plus the E-operator's index join,
// the E-operator-shaped filter+project pipeline, the selection-vector
// filter stack across selectivities, and the vectorized hash aggregate.
//
// Two run modes: without RELGRAPH_JSON this is a normal google-benchmark
// binary. With RELGRAPH_JSON=path it instead runs a small deterministic
// series (selectivity sweep + aggregation, min-of-5 wall clocks and exact
// row counters) and emits bench_common JSON records — the form CI pins in
// the ci_smoke rolling diff window.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <limits>

#include "bench/bench_common.h"
#include "src/catalog/table.h"
#include "src/exec/agg_executors.h"
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
    (void)MergeInto(table.get(), &source, spec, &affected);
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

/// Runs one prepared-plan execution, folding output column 1 into a sum
/// the way the engine's hot consumers do (the MERGE probe loop reads each
/// source row once, the aggregates fold batches into accumulators) rather
/// than retaining the tuples; returns rows produced.
int64_t DrainFold(Executor* plan) {
  int64_t produced = 0;
  int64_t acc = 0;
  BatchSpan span;
  while (plan->NextBatchSel(&span)) {
    produced += static_cast<int64_t>(span.count());
    for (size_t i = 0; i < span.count(); i++) {
      acc += span.row(i).value(1).AsInt();
    }
  }
  benchmark::DoNotOptimize(acc);
  return produced;
}

void BM_FilterProjectBatched(benchmark::State& state) {
  auto rows = MakeJoinedRows(state.range(0) * 4);
  // The plan is built once and re-Init()ed per iteration — the prepared-
  // statement pattern — so the timing covers execution, not the one-off
  // copy of the input into the materialized source.
  ExecRef plan = MakeFilterProjectPlan(rows);
  for (auto _ : state) {
    if (!plan->Init().ok()) state.SkipWithError("init failed");
    benchmark::DoNotOptimize(DrainFold(plan.get()));
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

Schema SelSchema() {
  return Schema({{"k", TypeId::kInt},
                 {"a", TypeId::kInt},
                 {"b", TypeId::kInt},
                 {"lat", TypeId::kInt},
                 {"lng", TypeId::kInt},
                 {"cat", TypeId::kInt},
                 {"name", TypeId::kVarchar},
                 {"addr", TypeId::kVarchar}});
}

std::vector<Tuple> MakeSelRows(int64_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; i++) {
    rows.push_back(Tuple({Value(i % 100), Value((i * 13) % 500),
                          Value(i % 31), Value((i * 7) % 3600),
                          Value((i * 11) % 1800), Value(i % 40),
                          Value("point-of-interest-" + std::to_string(i % 1000)),
                          Value("no. " + std::to_string(i % 500) +
                                " example boulevard, sample city")}));
  }
  return rows;
}

ExecRef MakeSelPlan(const std::vector<Tuple>& rows, int64_t s) {
  ExecRef scan = std::make_unique<MaterializedExecutor>(rows, SelSchema());
  ExecRef filter1 = std::make_unique<FilterExecutor>(
      std::move(scan), Cmp(CompareOp::kLt, Col("k"), Lit(s)));
  // a = (i * 13) % 500, so `a < 250` keeps ~half of the survivors.
  ExecRef filter2 = std::make_unique<FilterExecutor>(
      std::move(filter1), Cmp(CompareOp::kLt, Col("a"), Lit(int64_t{250})));
  std::vector<ExprRef> exprs = {Col("a"), Add(Col("k"), Col("b"))};
  return std::make_unique<ProjectExecutor>(
      std::move(filter2), std::move(exprs),
      Schema({{"p0", TypeId::kInt}, {"p1", TypeId::kInt}}));
}

void BM_FilterProjectSelectivity(benchmark::State& state) {
  auto rows = MakeSelRows(40000);
  ExecRef plan = MakeSelPlan(rows, state.range(0));
  for (auto _ : state) {
    if (!plan->Init().ok()) state.SkipWithError("init failed");
    benchmark::DoNotOptimize(DrainFold(plan.get()));
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

Schema AggSchema() {
  return Schema({{"g", TypeId::kInt}, {"v", TypeId::kInt}});
}

std::vector<Tuple> MakeAggRows(int64_t n, int64_t groups) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; i++) {
    rows.push_back(Tuple({Value((i * 7919) % groups), Value(i % 1000)}));
  }
  return rows;
}

std::vector<AggSpec> MakeAggSpecs() {
  return {{AggOp::kSum, Col("v"), "sm"},
          {AggOp::kMin, Col("v"), "mn"},
          {AggOp::kCount, nullptr, "cnt"}};
}

int64_t VectorizedAgg(const std::vector<Tuple>& rows) {
  HashAggregateExecutor agg(
      std::make_unique<MaterializedExecutor>(rows, AggSchema()), {"g"},
      MakeAggSpecs());
  if (!agg.Init().ok()) return -1;
  return DrainFold(&agg);
}

void BM_HashAggVectorized(benchmark::State& state) {
  auto rows = MakeAggRows(state.range(0), state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(VectorizedAgg(rows));
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_HashAggVectorized)
    ->ArgNames({"rows", "groups"})
    ->Args({100000, 64})
    ->Args({100000, 4096})
    ->Args({100000, 65536});

// ---------------------------------------------------------------------------
// Deterministic JSON series for CI (RELGRAPH_JSON mode): the selectivity
// sweep and the aggregation at fixed sizes, min-of-5 wall clocks, with
// output-row counts in the exact-gated `visited` field — any
// selection-vector or hash-table behaviour drift shows up as a counter
// diff, not just a timing blip.
// ---------------------------------------------------------------------------

double TimeSeconds(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

void RunJsonSeries() {
  bench::Banner(
      "micro_exec",
      "executor micro series: selection-vector filter+project across "
      "selectivities and vectorized hash aggregation",
      "filter+project time should fall with selectivity; aggregation time "
      "should grow only mildly with the group count");
  constexpr int kReps = 5;

  const int64_t n = 40000;
  auto rows = MakeSelRows(n);
  bench::JsonContext("groups", 0);
  for (int64_t s : {int64_t{1}, int64_t{10}, int64_t{50}, int64_t{100}}) {
    bench::JsonContext("selectivity", static_cast<double>(s));
    ExecRef plan = MakeSelPlan(rows, s);
    double best = std::numeric_limits<double>::max();
    int64_t produced = 0;
    for (int r = 0; r < kReps; r++) {
      best = std::min(best, TimeSeconds([&] {
                        bench::Check(plan->Init(), "sel plan init");
                        produced = DrainFold(plan.get());
                      }));
    }
    bench::AvgResult avg;
    avg.time_s = best;
    avg.expansions = static_cast<double>(n);
    avg.visited = static_cast<double>(produced);
    avg.total = 1;
    bench::JsonRecord("filter_project:selvec", avg);
  }

  bench::JsonContext("selectivity", 0);
  const int64_t agg_n = 100000;
  for (int64_t groups : {int64_t{64}, int64_t{65536}}) {
    bench::JsonContext("groups", static_cast<double>(groups));
    auto agg_rows = MakeAggRows(agg_n, groups);
    double best = std::numeric_limits<double>::max();
    int64_t out_groups = 0;
    for (int r = 0; r < kReps; r++) {
      best = std::min(
          best, TimeSeconds([&] { out_groups = VectorizedAgg(agg_rows); }));
    }
    bench::AvgResult avg;
    avg.time_s = best;
    avg.expansions = static_cast<double>(agg_n);
    avg.visited = static_cast<double>(out_groups);
    avg.total = 1;
    bench::JsonRecord("hash_agg:vectorized", avg);
  }
}

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

int main(int argc, char** argv) {
  // JSON mode (CI): the deterministic series only — quick, and its records
  // ride the same diff_bench gate as the figure benches. Otherwise the
  // binary behaves like any google-benchmark executable.
  if (relgraph::bench::JsonEnabled()) {
    relgraph::RunJsonSeries();
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
