// dist_paths: the distributed BSDJ (DistPathFinder, DistOptions::num_threads
// = 0) over 2 shards, each behind an in-process loopback net::ShardServer,
// with one closed-loop client session asking for full paths. The only
// workload that crosses the dist, net and admission layers: every query
// makes about 30 rounds of shard requests over TCP.
//
// Each trial runs the whole fleet on one CPU (TrialCpu). Each shard request
// wakes a server thread and then the session thread again. On a shared VM,
// a wake-up that crosses CPUs waits until the host runs the target vCPU,
// and that wait depends on the host's other tenants. Unpinned, with 3
// sessions under open-loop load, the same build and seed ran 38-54% slower
// from one set of runs to the next, with the guest 60% idle and no steal
// time. On one CPU every wake-up stays local, and the closed loop keeps
// that CPU busy.
#include <cstdio>
#include <memory>

#include "perfbench/suite.h"
#include "src/dist/dist_path_finder.h"
#include "src/graph/generators.h"
#include "src/net/shard_server.h"

namespace relgraph {
namespace perfbench {
namespace {

constexpr int64_t kNodes = 1000;
constexpr int64_t kDegree = 3;
constexpr int kShards = 2;

/// Destroyed in reverse: the session (closing its connections), then the
/// servers, then the store they serve.
struct Fleet {
  std::unique_ptr<ShardedGraphStore> store;
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  std::unique_ptr<DistPathFinder> session;
};

/// One set-up: the sharded store, a ShardServer per shard, and a session
/// whose coordinator dials them. Appends its time and the store's.
Status StartFleet(const EdgeList& list, Tracer* tracer, Fleet* fleet,
                  std::vector<double>* setup_s, std::vector<double>* load_s) {
  const int64_t id = tracer->NewId();
  const Clock::time_point t0 = Clock::now();
  ShardedGraphOptions sopts;
  sopts.num_shards = kShards;
  RELGRAPH_RETURN_IF_ERROR(ShardedGraphStore::Create(list, sopts,
                                                     &fleet->store));
  const Clock::time_point t1 = Clock::now();
  DistOptions dopts;
  for (int shard = 0; shard < kShards; shard++) {
    net::ShardServerOptions so;
    so.workers = 1;
    std::unique_ptr<net::ShardServer> server;
    RELGRAPH_RETURN_IF_ERROR(
        net::ShardServer::Start(fleet->store.get(), shard, so, &server));
    dopts.shard_endpoints.push_back("127.0.0.1:" +
                                    std::to_string(server->port()));
    fleet->servers.push_back(std::move(server));
  }
  RELGRAPH_RETURN_IF_ERROR(
      DistPathFinder::Create(fleet->store.get(), &fleet->session, dopts));
  const Clock::time_point t2 = Clock::now();
  tracer->Record("graph.create", t0, t1, tracer->NewId(), id, 0);
  tracer->Record("fleet.start", t1, t2, tracer->NewId(), id, 0);
  tracer->Record("setup", t0, t2, id, 0, 0);
  load_s->push_back(Sec(t1 - t0));
  setup_s->push_back(Sec(t2 - t0));
  return Status::OK();
}

int64_t RequestsServed(const Fleet& fleet) {
  int64_t n = 0;
  for (const auto& server : fleet.servers) n += server->requests_served();
  return n;
}

std::vector<Database*> Databases(const Fleet& fleet) {
  std::vector<Database*> dbs;
  for (int shard = 0; shard < kShards; shard++) {
    dbs.push_back(fleet.store->shard_db(shard));
  }
  dbs.push_back(fleet.session->coordinator_db());
  return dbs;
}

}  // namespace

Status RunDistPaths(const Args& args, Tracer* tracer, Report* report) {
  const EdgeList list =
      GenerateBarabasiAlbert(kNodes, kDegree, WeightRange{1, 100}, kGraphSeed);
  TrialLatencies latency;
  std::vector<double> setup_s, load_s;
  double serial_us = 0, rounds = 0, rows = 0, shard_st = 0, coord_st = 0;
  int64_t finished = 0, served = 0;
  ResilienceCounters net;
  DbCounters counters;
  ProcessMeter process;
  int64_t ops = 0;
  for (int trial = 0; trial < kTrials; trial++) {
    std::vector<Answer> answers;
    {
      TrialCpu cpu(trial);
      Fleet fleet;
      RELGRAPH_RETURN_IF_ERROR(
          StartFleet(list, tracer, &fleet, &setup_s, &load_s));
      DistCoordinator* coord = fleet.session->coordinator();
      Rng rng(StreamSeed(args.seed, kQueryStream));
      const int64_t served0 = RequestsServed(fleet);
      const ResilienceCounters rc0 = coord->Resilience();
      const DbCounters before = DbCounters::Of(Databases(fleet));
      process.BeginTrial();
      const Clock::time_point start = Clock::now();
      const Clock::time_point deadline = After(start, args.seconds / kTrials);
      int64_t op = 0;
      for (; Clock::now() < deadline; op++) {
        const auto [s, t] = NextPair(&rng, kNodes);
        DistPathResult r;
        const Clock::time_point t0 = Clock::now();
        const Status st = fleet.session->Find(s, t, &r);
        const Clock::time_point t1 = Clock::now();
        if (!st.ok()) {
          report->failed++;
          std::fprintf(stderr, "dist_paths op %lld: %s\n",
                       static_cast<long long>(op), st.ToString().c_str());
          continue;
        }
        const DistQueryStats& ds = r.stats;
        const double call_us = Us(t1 - t0);
        if (static_cast<double>(ds.serial_us) > call_us) {
          report->Wrong("dist_paths op " + std::to_string(op) +
                        ": DistQueryStats.serial_us " +
                        std::to_string(ds.serial_us) +
                        " us exceeds the call's " + std::to_string(call_us) +
                        " us");
        }
        const int64_t id = tracer->NewId();
        const double coord_statements =
            static_cast<double>(ds.coordinator_statements);
        tracer->Record(
            "dist.find", t0, t1, tracer->NewId(), id, op,
            {{"rounds", static_cast<double>(ds.rounds)},
             {"rows_shipped", static_cast<double>(ds.rows_shipped)},
             {"shard_statements", static_cast<double>(ds.shard_statements)},
             {"coord_statements", coord_statements},
             {"serial_us", static_cast<double>(ds.serial_us)}});
        tracer->Record("read", t0, t1, id, 0, op,
                       {{"trial", static_cast<double>(trial)},
                        {"s", static_cast<double>(s)},
                        {"t", static_cast<double>(t)}});
        latency.Set(trial, op, Ms(t1 - t0));
        finished++;
        serial_us += static_cast<double>(ds.serial_us);
        rounds += static_cast<double>(ds.rounds);
        rows += static_cast<double>(ds.rows_shipped);
        shard_st += static_cast<double>(ds.shard_statements);
        coord_st += coord_statements;
        answers.push_back(
            Answer{op, s, t, r.found, r.distance, true, std::move(r.path)});
      }
      report->timed_s += Sec(Clock::now() - start);
      process.EndTrial(op);
      counters.AddDelta(before, DbCounters::Of(Databases(fleet)));
      served += RequestsServed(fleet) - served0;
      const ResilienceCounters rc = coord->Resilience();
      net.retries += rc.retries - rc0.retries;
      net.failures += rc.failures - rc0.failures;
      net.breaker_opens += rc.breaker_opens - rc0.breaker_opens;
      net.sheds += rc.sheds - rc0.sheds;
      ops += op;
    }
    CheckAnswers("dist_paths", MemGraph(list), answers, 0, answers.size(),
                 report);
  }
  report->attempted = ops;

  const double n = static_cast<double>(std::max<int64_t>(finished, 1));
  ReportEndToEnd(setup_s, latency.Best(), report);
  process.ReportTo(report);
  report->Set("graph.load_s", Percentile(load_s, 50), "s");
  report->Set("dist.serial_ms", serial_us / n / 1e3, "ms");
  report->Set("dist.rounds", rounds / n, "count");
  report->Set("dist.rows_shipped", rows / n, "count");
  report->Set("dist.shard_statements", shard_st / n, "count");
  report->Set("dist.coord_statements", coord_st / n, "count");
  report->Set("net.requests_served", static_cast<double>(served) / n, "count");
  report->Set("net.retries", static_cast<double>(net.retries), "count");
  report->Set("net.failures", static_cast<double>(net.failures), "count");
  report->Set("net.breaker_opens", static_cast<double>(net.breaker_opens),
              "count");
  report->Set("net.sheds", static_cast<double>(net.sheds), "count");
  ReportStorageAndSql(counters, finished, report);
  return Status::OK();
}

}  // namespace perfbench
}  // namespace relgraph
