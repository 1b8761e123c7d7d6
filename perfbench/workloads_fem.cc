// The single-node FEM workloads. Both run the paper's BSDJ through the
// native PathFinder (NSQL, CluIndex) on one Barabási-Albert graph and one
// query distribution, with one closed-loop client asking for full paths:
//
//  - fem_paths: an in-memory database whose default pool holds the whole
//    graph. CPU-bound: executor and FEM changes show here, storage changes
//    should not.
//  - fem_paged: a file-backed database whose pool holds about 1/7 of the
//    graph, each miss paying a simulated disk read, and one edge reweight
//    (RemoveEdge + AddEdge) per four reads on the same pool and B+-trees.
//    Storage changes show here, and so does a read gain that costs writes.
//    Dirty pages reach the file only through eviction write-back.
#include <unistd.h>

#include <cstdio>
#include <memory>

#include "perfbench/suite.h"
#include "src/graph/generators.h"
#include "src/graph/graph_store.h"

namespace relgraph {
namespace perfbench {
namespace {

constexpr int64_t kNodes = 10000;
constexpr int64_t kDegree = 2;
constexpr size_t kPagedPoolPages = 256;
constexpr int64_t kPagedIoLatencyUs = 20;
/// fem_paged set-up ends with these queries, so trials start on a warm pool.
constexpr int kPagedWarmupQueries = 40;
/// fem_paged: op i is a write when i % kWriteEvery == kWriteEvery - 1.
constexpr int64_t kWriteEvery = 5;

/// Destroyed in reverse, dependents first: the finder and graph hold
/// pointers into the db.
struct Engine {
  std::unique_ptr<Database> db;
  std::unique_ptr<GraphStore> graph;
  std::unique_ptr<PathFinder> finder;
};

/// One reweight, kept to replay the graph each read saw.
struct Write {
  size_t edge_index;
  weight_t weight;
};

/// One set-up: the database, GraphStore::Create, PathFinder::Create and
/// the warm-up queries. Appends its time and GraphStore::Create's.
Status SetUp(const EdgeList& list, const DatabaseOptions& options,
             uint64_t warmup_seed, int warmup_queries, Tracer* tracer,
             Engine* engine, std::vector<double>* setup_s,
             std::vector<double>* load_s) {
  const int64_t id = tracer->NewId();
  const Clock::time_point t0 = Clock::now();
  engine->db = std::make_unique<Database>(options);
  RELGRAPH_RETURN_IF_ERROR(GraphStore::Create(
      engine->db.get(), list, GraphStoreOptions{}, &engine->graph));
  const Clock::time_point t1 = Clock::now();
  RELGRAPH_RETURN_IF_ERROR(PathFinder::Create(
      engine->graph.get(), PathFinderOptions{}, &engine->finder));
  const Clock::time_point t2 = Clock::now();
  Rng rng(warmup_seed);
  for (int i = 0; i < warmup_queries; i++) {
    const auto [s, t] = NextPair(&rng, list.num_nodes);
    PathQueryResult r;
    RELGRAPH_RETURN_IF_ERROR(engine->finder->Find(s, t, &r));
  }
  const Clock::time_point t3 = Clock::now();
  tracer->Record("graph.create", t0, t1, tracer->NewId(), id, 0);
  tracer->Record("finder.create", t1, t2, tracer->NewId(), id, 0);
  if (warmup_queries > 0) {
    tracer->Record("warmup", t2, t3, tracer->NewId(), id, 0);
  }
  tracer->Record("setup", t0, t3, id, 0, 0);
  load_s->push_back(Sec(t1 - t0));
  setup_s->push_back(Sec(t3 - t0));
  return Status::OK();
}

/// Checks each read against the graph it saw, rebuilt by replaying the
/// writes that preceded it (epochs[i] = writes applied before answers[i]).
void CheckReplayed(const std::string& workload, const EdgeList& list,
                   const std::vector<Write>& writes,
                   const std::vector<Answer>& answers,
                   const std::vector<size_t>& epochs, Report* report) {
  std::vector<Edge> replay = list.edges;
  size_t applied = 0;
  for (size_t i = 0; i < answers.size();) {
    size_t j = i;
    while (j < answers.size() && epochs[j] == epochs[i]) j++;
    for (; applied < epochs[i]; applied++) {
      replay[writes[applied].edge_index].weight = writes[applied].weight;
    }
    CheckAnswers(workload, MemGraph(EdgeList{list.num_nodes, replay}),
                 answers, i, j, report);
    i = j;
  }
}

Status RunFem(const Args& args, bool paged, Tracer* tracer, Report* report) {
  const EdgeList list =
      GenerateBarabasiAlbert(kNodes, kDegree, WeightRange{1, 100}, kGraphSeed);
  DatabaseOptions options;
  if (paged) {
    options.in_memory = false;
    options.path = args.work_dir + "/fem_paged-" + std::to_string(getpid()) +
                   ".db";
    options.buffer_pool_pages = kPagedPoolPages;
    options.simulated_io_latency_us = kPagedIoLatencyUs;
  }
  auto is_write = [paged](int64_t op) {
    return paged && op % kWriteEvery == kWriteEvery - 1;
  };

  TrialLatencies latency;
  std::vector<double> setup_s, load_s, remove_ms, add_ms;
  CoreTotals core;
  DbCounters counters;
  ProcessMeter process;
  int64_t ops = 0;
  for (int trial = 0; trial < kTrials; trial++) {
    std::vector<Write> writes;
    std::vector<Answer> answers;
    std::vector<size_t> epochs;
    {
      TrialCpu cpu(trial);
      Engine engine;
      RELGRAPH_RETURN_IF_ERROR(SetUp(list, options,
                                     StreamSeed(args.seed, kWarmupStream),
                                     paged ? kPagedWarmupQueries : 0, tracer,
                                     &engine, &setup_s, &load_s));
      Rng rng(StreamSeed(args.seed, kQueryStream));
      std::vector<Edge> edges = list.edges;  // the graph as the writes leave it

      const DbCounters before = DbCounters::Of({engine.db.get()});
      process.BeginTrial();
      const Clock::time_point start = Clock::now();
      const Clock::time_point deadline = After(start, args.seconds / kTrials);
      int64_t op = 0;
      for (; Clock::now() < deadline; op++) {
        const int64_t id = tracer->NewId();
        if (is_write(op)) {
          const size_t index = rng.NextBounded(edges.size());
          const Edge old = edges[index];
          const Edge next{old.from, old.to, rng.NextInt(1, 100)};
          const Clock::time_point t0 = Clock::now();
          Status st = engine.graph->RemoveEdge(old);
          const Clock::time_point t1 = Clock::now();
          if (st.ok()) st = engine.graph->AddEdge(next);
          const Clock::time_point t2 = Clock::now();
          // A half-applied write would leave store and replay apart, so no
          // later answer could be checked: stop the run.
          RELGRAPH_RETURN_IF_ERROR(st);
          edges[index] = next;
          writes.push_back({index, next.weight});
          tracer->Record("graph.remove_edge", t0, t1, tracer->NewId(), id, op);
          tracer->Record("graph.add_edge", t1, t2, tracer->NewId(), id, op);
          tracer->Record("write", t0, t2, id, 0, op,
                         {{"trial", static_cast<double>(trial)}});
          remove_ms.push_back(Ms(t1 - t0));
          add_ms.push_back(Ms(t2 - t1));
          latency.Set(trial, op, Ms(t2 - t0));
          continue;
        }
        const auto [s, t] = NextPair(&rng, kNodes);
        PathQueryResult r;
        const Clock::time_point t0 = Clock::now();
        const Status st = engine.finder->Find(s, t, &r);
        const Clock::time_point t1 = Clock::now();
        if (!st.ok()) {
          report->failed++;
          std::fprintf(stderr, "%s op %lld: %s\n", args.workload.c_str(),
                       static_cast<long long>(op), st.ToString().c_str());
          continue;
        }
        const QueryStats& qs = r.stats;
        const std::string broken = core.Add(qs, Us(t1 - t0), r.path.size());
        if (!broken.empty()) {
          report->Wrong(args.workload + " op " + std::to_string(op) +
                        ": breakdown does not add up: " + broken);
        }
        tracer->Record(
            "finder.find", t0, t1, tracer->NewId(), id, op,
            {{"statements", static_cast<double>(qs.statements)},
             {"expansions", static_cast<double>(qs.expansions)},
             {"visited_rows", static_cast<double>(qs.visited_rows)},
             {"f_us", static_cast<double>(qs.f_operator_us)},
             {"e_us", static_cast<double>(qs.e_operator_us)},
             {"m_us", static_cast<double>(qs.m_operator_us)},
             {"aux_us", static_cast<double>(qs.stat_collection_us)},
             {"recovery_us", static_cast<double>(qs.path_recovery_us)},
             {"buffer_hits", static_cast<double>(qs.buffer_hits)},
             {"buffer_misses", static_cast<double>(qs.buffer_misses)},
             {"disk_reads", static_cast<double>(qs.disk_reads)},
             {"disk_writes", static_cast<double>(qs.disk_writes)}});
        tracer->Record("read", t0, t1, id, 0, op,
                       {{"trial", static_cast<double>(trial)},
                        {"s", static_cast<double>(s)},
                        {"t", static_cast<double>(t)}});
        latency.Set(trial, op, Ms(t1 - t0));
        answers.push_back(
            Answer{op, s, t, r.found, r.distance, true, std::move(r.path)});
        epochs.push_back(writes.size());
      }
      report->timed_s += Sec(Clock::now() - start);
      process.EndTrial(op);
      counters.AddDelta(before, DbCounters::Of({engine.db.get()}));
      ops += op;
    }
    CheckReplayed(args.workload, list, writes, answers, epochs, report);
  }
  report->attempted = ops;

  const std::vector<double> best = latency.Best();
  const std::vector<double> reads =
      BestOf(best, [&](size_t op) { return !is_write(op); });
  const std::vector<double> writes =
      BestOf(best, [&](size_t op) { return is_write(op); });
  ReportEndToEnd(setup_s, best, report);
  process.ReportTo(report);
  report->Set("ops.read_p50_ms", Percentile(reads, 50), "ms");
  report->Set("ops.read_p99_ms", Percentile(reads, 99), "ms");
  report->Set("ops.write_p50_ms", Percentile(writes, 50), "ms");
  report->Set("ops.write_p95_ms", Percentile(writes, 95), "ms");
  report->Set("graph.load_s", Percentile(load_s, 50), "s");
  report->Set("graph.remove_edge_ms", Mean(remove_ms), "ms");
  report->Set("graph.add_edge_ms", Mean(add_ms), "ms");
  core.ReportTo(report);
  ReportStorageAndSql(counters, ops, report);
  return Status::OK();
}

}  // namespace

Status RunFemPaths(const Args& args, Tracer* tracer, Report* report) {
  return RunFem(args, /*paged=*/false, tracer, report);
}

Status RunFemPaged(const Args& args, Tracer* tracer, Report* report) {
  return RunFem(args, /*paged=*/true, tracer, report);
}

}  // namespace perfbench
}  // namespace relgraph
