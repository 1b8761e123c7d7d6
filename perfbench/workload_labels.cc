// label_serve: the hub-label serving path. Set-up builds a complete label
// index (LabelBuilder::Build), so setup_s carries the label-build cost.
// The timed phase is one closed-loop client, read-only: ten Distance
// queries, answered from two label probes with FEM bypassed, per full-path
// Find, which labels cannot answer and which falls back to the SQL-text
// FEM client (path_fallbacks).
#include <cstdio>
#include <memory>

#include "perfbench/suite.h"
#include "src/graph/generators.h"
#include "src/labels/label_builder.h"
#include "src/labels/labeled_path_finder.h"

namespace relgraph {
namespace perfbench {
namespace {

constexpr int64_t kNodes = 400;
constexpr int64_t kDegree = 3;
/// Op i is a full-path Find when i % kPathEvery == kPathEvery - 1.
constexpr int64_t kPathEvery = 11;

bool IsFind(int64_t op) { return op % kPathEvery == kPathEvery - 1; }

/// Destroyed in reverse, dependents first.
struct Engine {
  std::unique_ptr<Database> db;
  std::unique_ptr<GraphStore> graph;
  std::unique_ptr<LabelIndex> index;
  std::unique_ptr<LabeledPathFinder> finder;
};

}  // namespace

Status RunLabelServe(const Args& args, Tracer* tracer, Report* report) {
  const EdgeList list =
      GenerateBarabasiAlbert(kNodes, kDegree, WeightRange{1, 100}, kGraphSeed);
  TrialLatencies latency;
  LabelBuildStats build;
  std::vector<double> setup_s, load_s, build_s, probe_us, find_ms;
  int64_t distance_ops = 0, label_hits = 0, path_fallbacks = 0;
  CoreTotals core;
  DbCounters counters;
  ProcessMeter process;
  int64_t ops = 0;
  for (int trial = 0; trial < kTrials; trial++) {
    std::vector<Answer> answers;
    {
      TrialCpu cpu(trial);
      Engine engine;
      const int64_t setup_id = tracer->NewId();
      const Clock::time_point s0 = Clock::now();
      engine.db = std::make_unique<Database>(DatabaseOptions{});
      RELGRAPH_RETURN_IF_ERROR(GraphStore::Create(
          engine.db.get(), list, GraphStoreOptions{}, &engine.graph));
      const Clock::time_point s1 = Clock::now();
      build = LabelBuildStats{};
      RELGRAPH_RETURN_IF_ERROR(LabelBuilder::Build(
          engine.graph.get(), "", LabelBuildOptions{}, &engine.index, &build));
      const Clock::time_point s2 = Clock::now();
      RELGRAPH_RETURN_IF_ERROR(LabeledPathFinder::Create(
          engine.graph.get(), engine.index.get(), LabeledPathFinderOptions{},
          &engine.finder));
      // One query of each kind: the first Distance after Create rebuilds one
      // plan (the probe is prepared before the fallback finder's DDL moves
      // the catalog version), a one-time cost that belongs to set-up.
      PathQueryResult warm;
      RELGRAPH_RETURN_IF_ERROR(engine.finder->Distance(0, kNodes - 1, &warm));
      RELGRAPH_RETURN_IF_ERROR(engine.finder->Find(0, kNodes - 1, &warm));
      const Clock::time_point s3 = Clock::now();
      tracer->Record("graph.create", s0, s1, tracer->NewId(), setup_id, 0);
      tracer->Record("labels.build", s1, s2, tracer->NewId(), setup_id, 0,
                     {{"statements", static_cast<double>(build.statements)},
                      {"rounds", static_cast<double>(build.rounds)},
                      {"entries", static_cast<double>(build.entries)}});
      tracer->Record("finder.create", s2, s3, tracer->NewId(), setup_id, 0);
      tracer->Record("setup", s0, s3, setup_id, 0, 0);
      load_s.push_back(Sec(s1 - s0));
      build_s.push_back(Sec(s2 - s1));
      setup_s.push_back(Sec(s3 - s0));
      if (!engine.index->complete()) {
        return Status::Internal("label index is not complete");
      }

      Rng rng(StreamSeed(args.seed, kQueryStream));
      const LabelServeCounters counters0 = engine.finder->counters();
      const DbCounters before = DbCounters::Of({engine.db.get()});
      process.BeginTrial();
      const Clock::time_point start = Clock::now();
      const Clock::time_point deadline = After(start, args.seconds / kTrials);
      int64_t op = 0;
      for (; Clock::now() < deadline; op++) {
        const auto [s, t] = NextPair(&rng, kNodes);
        const bool find = IsFind(op);
        const int64_t id = tracer->NewId();
        PathQueryResult r;
        bool served = false;
        const Clock::time_point t0 = Clock::now();
        const Status st = find ? engine.finder->Find(s, t, &r)
                               : engine.finder->Distance(s, t, &r, &served);
        const Clock::time_point t1 = Clock::now();
        if (!st.ok()) {
          report->failed++;
          std::fprintf(stderr, "label_serve op %lld: %s\n",
                       static_cast<long long>(op), st.ToString().c_str());
          continue;
        }
        latency.Set(trial, op, Ms(t1 - t0));
        if (find) {
          const std::string broken =
              core.Add(r.stats, Us(t1 - t0), r.path.size());
          if (!broken.empty()) {
            report->Wrong("label_serve op " + std::to_string(op) +
                          ": breakdown does not add up: " + broken);
          }
          find_ms.push_back(Ms(t1 - t0));
          tracer->Record(
              "labels.find", t0, t1, tracer->NewId(), id, op,
              {{"statements", static_cast<double>(r.stats.statements)}});
        } else {
          distance_ops++;
          if (served) probe_us.push_back(Us(t1 - t0));
          tracer->Record(
              "labels.distance", t0, t1, tracer->NewId(), id, op,
              {{"statements", static_cast<double>(r.stats.statements)},
               {"served", served ? 1.0 : 0.0}});
        }
        tracer->Record(find ? "read" : "distance", t0, t1, id, 0, op,
                       {{"trial", static_cast<double>(trial)},
                        {"s", static_cast<double>(s)},
                        {"t", static_cast<double>(t)}});
        answers.push_back(
            Answer{op, s, t, r.found, r.distance, find, std::move(r.path)});
      }
      report->timed_s += Sec(Clock::now() - start);
      process.EndTrial(op);
      counters.AddDelta(before, DbCounters::Of({engine.db.get()}));
      label_hits += engine.finder->counters().label_hits - counters0.label_hits;
      path_fallbacks +=
          engine.finder->counters().path_fallbacks - counters0.path_fallbacks;
      ops += op;
    }
    CheckAnswers("label_serve", MemGraph(list), answers, 0, answers.size(),
                 report);
  }
  report->attempted = ops;

  const std::vector<double> best = latency.Best();
  const std::vector<double> finds = BestOf(best, IsFind);
  std::vector<double> distances_us =
      BestOf(best, [](size_t op) { return !IsFind(op); });
  for (double& v : distances_us) v *= 1e3;
  ReportEndToEnd(setup_s, best, report);
  process.ReportTo(report);
  report->Set("ops.read_p50_ms", Percentile(finds, 50), "ms");
  report->Set("ops.read_p99_ms", Percentile(finds, 99), "ms");
  report->Set("ops.dist_p50_us", Percentile(distances_us, 50), "us");
  report->Set("ops.dist_p99_us", Percentile(distances_us, 99), "us");
  report->Set("graph.load_s", Percentile(load_s, 50), "s");
  report->Set("labels.build_s", Percentile(build_s, 50), "s");
  report->Set("labels.build_statements", static_cast<double>(build.statements),
              "count");
  report->Set("labels.build_rounds", static_cast<double>(build.rounds),
              "count");
  report->Set("labels.entries", static_cast<double>(build.entries), "count");
  report->Set("labels.probe_us", Mean(probe_us), "us");
  report->Set("labels.hit_rate",
              distance_ops == 0 ? 0.0
                                : static_cast<double>(label_hits) /
                                      static_cast<double>(distance_ops),
              "1");
  report->Set("labels.path_fallbacks",
              static_cast<double>(path_fallbacks) /
                  static_cast<double>(std::max<int64_t>(ops, 1)),
              "count");
  report->Set("labels.fallback_ms", Mean(find_ms), "ms");
  core.ReportTo(report);
  ReportStorageAndSql(counters, ops, report);
  return Status::OK();
}

}  // namespace perfbench
}  // namespace relgraph
