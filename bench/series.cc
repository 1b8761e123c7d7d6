#include "bench/series.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "src/common/timer.h"
#include "src/dist/shard_snapshot.h"
#include "src/dist/sharded_graph.h"
#include "src/exec/agg_executors.h"
#include "src/exec/scan_executors.h"
#include "src/net/shard_server.h"

namespace relgraph {
namespace bench {

namespace {

Workload MakeWorkload(int64_t nodes, int degree, uint64_t graph_seed,
                      int queries, uint64_t pair_seed) {
  Workload w;
  w.list = GenerateBarabasiAlbert(nodes, degree, WeightRange{1, 100},
                                  graph_seed);
  w.pairs = MakeQueryPairs(nodes, queries, pair_seed);
  return w;
}

[[noreturn]] void Fatal(const char* what, int shards) {
  std::fprintf(stderr, "FATAL: %s (shards=%d)\n", what, shards);
  std::exit(1);
}

bool SameCounters(const DistAvg& a, const DistAvg& b) {
  return a.rows_shipped == b.rows_shipped && a.statements == b.statements &&
         a.found == b.found;
}

}  // namespace

// ----------------------------------------------------------- Figure 6(a)

std::vector<Fig6aPoint> RunFig6a(const BenchEnv& env) {
  const int64_t bases[] = {2000, 4000, 6000, 8000, 10000};
  std::vector<Fig6aPoint> points;
  for (size_t i = 0; i < 5; i++) {
    Fig6aPoint p;
    p.nodes = Scaled(bases[i], env);
    Workload w = MakeWorkload(p.nodes, 2, 100 + i, env.queries, 9100 + i);
    SharedGraph sg = SharedGraph::Make(w.list);
    auto bdj = sg.Finder(Algorithm::kBDJ);
    p.bdj = RunQueries(bdj.get(), w.pairs);
    auto bsdj = sg.Finder(Algorithm::kBSDJ);
    p.bsdj = RunQueries(bsdj.get(), w.pairs);
    points.push_back(p);
  }
  return points;
}

// ------------------------------------------------------- distributed BSDJ

DistAvg RunDistQueries(
    DistPathFinder* finder,
    const std::vector<std::pair<node_id_t, node_id_t>>& pairs,
    bool threaded) {
  DistAvg avg;
  for (const auto& [s, t] : pairs) {
    DistPathResult r;
    Check(finder->Find(s, t, &r), "DistPathFinder::Find");
    const int64_t wall = threaded ? r.stats.parallel_us : r.stats.serial_us;
    const int64_t other = threaded ? r.stats.serial_us : r.stats.parallel_us;
    avg.wall_s += static_cast<double>(wall) / 1e6;
    avg.other_clock_s += static_cast<double>(other) / 1e6;
    avg.rows_shipped += static_cast<double>(r.stats.rows_shipped);
    avg.statements += static_cast<double>(r.stats.shard_statements +
                                          r.stats.coordinator_statements);
    if (r.found) avg.found++;
    avg.total++;
  }
  int q = std::max(avg.total, 1);
  avg.wall_s /= q;
  avg.other_clock_s /= q;
  avg.rows_shipped /= q;
  avg.statements /= q;
  avg.resilience = finder->coordinator()->Resilience();
  return avg;
}

Workload DistWorkload(const BenchEnv& env) {
  return MakeWorkload(Scaled(20000, env), 3, 777, env.queries, 9777);
}

std::vector<DistShardPoint> RunDistShardSweep(const Workload& w,
                                              IndexStrategy strategy) {
  std::vector<DistShardPoint> points;
  for (int shards : {1, 2, 4, 8}) {
    ShardedGraphOptions opts;
    opts.num_shards = shards;
    opts.strategy = strategy;
    std::unique_ptr<ShardedGraphStore> store;
    Check(ShardedGraphStore::Create(w.list, opts, &store),
          "ShardedGraphStore::Create");
    DistShardPoint p;
    p.shards = shards;

    // Serial coordinator: measured serial clock + simulated parallel.
    std::unique_ptr<DistPathFinder> serial;
    Check(DistPathFinder::Create(store.get(), &serial), "serial finder");
    p.serial = RunDistQueries(serial.get(), w.pairs, /*threaded=*/false);

    // Thread-pool coordinator on the same store: measured parallel wall.
    DistOptions dopts;
    dopts.num_threads = kDistPoolThreads;
    std::unique_ptr<DistPathFinder> threaded;
    Check(DistPathFinder::Create(store.get(), &threaded, dopts),
          "threaded finder");
    p.threaded = RunDistQueries(threaded.get(), w.pairs, /*threaded=*/true);
    points.push_back(p);
  }
  return points;
}

/// Every client drives its own session (own TVisited + FEM state) over the
/// same coordinator; shard connection pools are sized to the client count
/// so sessions contend on shards, not on a starved pool.
std::vector<DistClientPoint> RunDistMultiClient(const Workload& w,
                                                int shards) {
  ShardedGraphOptions opts;
  opts.num_shards = shards;
  opts.strategy = IndexStrategy::kCluIndex;
  std::unique_ptr<ShardedGraphStore> store;
  Check(ShardedGraphStore::Create(w.list, opts, &store),
        "ShardedGraphStore::Create");

  std::vector<DistClientPoint> points;
  for (int clients : {1, 2, 4, 8}) {
    DistOptions dopts;
    dopts.num_threads = kDistPoolThreads;
    dopts.local.connections = clients;
    std::unique_ptr<DistCoordinator> coord;
    Check(DistCoordinator::Create(store.get(), dopts, &coord),
          "DistCoordinator::Create");
    std::vector<std::unique_ptr<DistPathFinder>> sessions(clients);
    for (int c = 0; c < clients; c++) {
      Check(coord->NewSession(&sessions[c]), "NewSession");
    }

    Timer wall;
    std::vector<std::thread> threads;
    std::vector<DistAvg> avgs(clients);
    for (int c = 0; c < clients; c++) {
      threads.emplace_back([&, c] {
        avgs[c] = RunDistQueries(sessions[c].get(), w.pairs,
                                 /*threaded=*/true);
      });
    }
    for (auto& t : threads) t.join();

    DistClientPoint p;
    p.clients = clients;
    p.wall_s = wall.ElapsedSeconds();
    for (const DistAvg& a : avgs) {
      p.combined.rows_shipped += a.rows_shipped;
      p.combined.statements += a.statements;
      p.combined.found += a.found;
      p.combined.total += a.total;
      p.avg_query_s += a.wall_s;
    }
    p.combined.rows_shipped /= clients;  // per-query means stay comparable
    p.combined.statements /= clients;
    p.combined.resilience = coord->Resilience();
    p.avg_query_s /= clients;
    points.push_back(p);
  }
  return points;
}

Workload DistNetWorkload(const BenchEnv& env) {
  return MakeWorkload(Scaled(8000, env), 3, 4242, env.queries, 24242);
}

DistNetPoint RunDistNetPoint(const Workload& w, int shards) {
  ShardedGraphOptions sopts;
  sopts.num_shards = shards;
  std::unique_ptr<ShardedGraphStore> store;
  Check(ShardedGraphStore::Create(w.list, sopts, &store),
        "ShardedGraphStore::Create");
  DistNetPoint p;
  p.shards = shards;

  // All-local baseline.
  std::unique_ptr<DistPathFinder> local;
  Check(DistPathFinder::Create(store.get(), &local), "local finder");
  p.local = RunDistQueries(local.get(), w.pairs, /*threaded=*/false);

  // Every shard behind a loopback ShardServer. The transport must not
  // change a counter: only the clock may move.
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  DistOptions dopts;
  for (int s = 0; s < shards; s++) {
    std::unique_ptr<net::ShardServer> server;
    Check(net::ShardServer::Start(store.get(), s, net::ShardServerOptions{},
                                  &server),
          "ShardServer::Start");
    dopts.shard_endpoints.push_back("127.0.0.1:" +
                                    std::to_string(server->port()));
    servers.push_back(std::move(server));
  }
  std::unique_ptr<DistPathFinder> remote;
  Check(DistPathFinder::Create(store.get(), &remote, dopts),
        "loopback finder");
  p.loopback = RunDistQueries(remote.get(), w.pairs, /*threaded=*/false);
  if (!SameCounters(p.local, p.loopback)) {
    Fatal("loopback transport drifted from local results", shards);
  }

  // Two replicas per shard: a healthy replica set must be
  // indistinguishable from one replica — same results, zero failovers,
  // zero hedges, zero sheds.
  std::vector<std::unique_ptr<net::ShardServer>> replicas;
  DistOptions ropts;
  for (int s = 0; s < shards; s++) {
    std::string joined;
    for (int rep = 0; rep < 2; rep++) {
      std::unique_ptr<net::ShardServer> server;
      Check(net::ShardServer::Start(store.get(), s,
                                    net::ShardServerOptions{}, &server),
            "replica ShardServer::Start");
      if (!joined.empty()) joined += '|';
      joined += "127.0.0.1:" + std::to_string(server->port());
      replicas.push_back(std::move(server));
    }
    ropts.shard_endpoints.push_back(std::move(joined));
  }
  std::unique_ptr<DistPathFinder> replicated;
  Check(DistPathFinder::Create(store.get(), &replicated, ropts),
        "replicated finder");
  p.replicated =
      RunDistQueries(replicated.get(), w.pairs, /*threaded=*/false);
  const ResilienceCounters& rc = p.replicated.resilience;
  if (!SameCounters(p.local, p.replicated) || rc.failovers != 0 ||
      rc.hedges != 0 || rc.sheds != 0) {
    Fatal("healthy replicated fleet drifted from local results", shards);
  }

  // Oversubscription: 4 concurrent sessions over 1-connection local
  // pools. The admission queue must absorb the contention — every query
  // completes with the oracle's exact counters and zero sheds.
  constexpr int kSessions = 4;
  DistOptions oopts;
  oopts.local.connections = 1;
  std::unique_ptr<DistCoordinator> ocoord;
  Check(DistCoordinator::Create(store.get(), oopts, &ocoord),
        "overload coordinator");
  std::vector<std::unique_ptr<DistPathFinder>> sessions(kSessions);
  for (auto& s : sessions) Check(ocoord->NewSession(&s), "overload session");
  std::vector<DistAvg> per_session(kSessions);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kSessions; i++) {
      threads.emplace_back([&, i] {
        per_session[i] =
            RunDistQueries(sessions[i].get(), w.pairs, /*threaded=*/false);
      });
    }
    for (auto& th : threads) th.join();
  }
  // Every session ran the same pairs, so the counters must agree
  // session-to-session AND with the uncontended local baseline.
  p.overload = per_session[0];
  p.overload.wall_s = 0;
  for (const DistAvg& s : per_session) {
    p.overload.wall_s += s.wall_s / kSessions;
    if (!SameCounters(p.local, s)) {
      Fatal("oversubscribed session drifted from local results", shards);
    }
  }
  p.overload.resilience = ocoord->Resilience();
  if (p.overload.resilience.sheds != 0) {
    Fatal("admission queue shed load under a workload it must absorb",
          shards);
  }

  // Restart paths: re-ingesting the edge list from scratch vs verifying
  // and loading the checksummed snapshots this fleet would have left on
  // disk.
  namespace fs = std::filesystem;
  using Clock = std::chrono::steady_clock;
  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  fs::path snapdir = fs::temp_directory_path() /
                     ("relgraph_bench_snap_" + std::to_string(::getpid()));
  fs::create_directories(snapdir);

  auto t0 = Clock::now();
  {
    std::unique_ptr<ShardedGraphStore> reingested;
    Check(ShardedGraphStore::Create(w.list, sopts, &reingested),
          "re-ingest ShardedGraphStore::Create");
  }
  auto t1 = Clock::now();
  p.restart_ingest.wall_s = seconds(t0, t1);
  p.restart_ingest.rows_shipped = static_cast<double>(w.list.edges.size());

  std::vector<std::string> snaps;
  for (int s = 0; s < shards; s++) {
    snaps.push_back((snapdir / ("shard" + std::to_string(s) + ".rgsnap"))
                        .string());
    Check(WriteShardSnapshot(*store, s, snaps.back()), "WriteShardSnapshot");
  }
  int64_t total_pages = 0;
  auto t2 = Clock::now();
  for (int s = 0; s < shards; s++) {
    int64_t pages = 0;
    Check(VerifySnapshotPages(snaps[s], &pages), "VerifySnapshotPages");
    total_pages += pages;
    std::unique_ptr<ShardedGraphStore> loaded;
    ShardSnapshotInfo info;
    Check(LoadShardSnapshot(snaps[s], DatabaseOptions{},
                            /*verify_structure=*/true, &loaded, &info),
          "LoadShardSnapshot");
    if (info.shard != s || info.num_shards != shards ||
        info.num_nodes != store->num_nodes() ||
        info.num_edges != store->num_edges()) {
      Fatal("snapshot manifest drifted from the store it was written from",
            shards);
    }
  }
  auto t3 = Clock::now();
  p.restart_snapshot.wall_s = seconds(t2, t3);
  p.restart_snapshot.rows_shipped = static_cast<double>(total_pages);
  std::error_code ec;
  fs::remove_all(snapdir, ec);
  return p;
}

// ------------------------------------------------------------- hub labels

namespace {

[[noreturn]] void Die(const char* what, node_id_t s, node_id_t t) {
  std::fprintf(stderr, "bench_labels: %s (pair %lld -> %lld)\n", what,
               static_cast<long long>(s), static_cast<long long>(t));
  std::exit(1);
}

}  // namespace

LabelsPoint RunLabelsPoint(int64_t base_nodes, const BenchEnv& env) {
  LabelsPoint p;
  p.nodes = Scaled(base_nodes, env);
  const int64_t n = p.nodes;
  Workload w = MakeWorkload(n, 3, 4242, env.queries, 1000 + n);
  const auto& pairs = w.pairs;

  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  Check(GraphStore::Create(&db, w.list, GraphStoreOptions{}, &graph),
        "GraphStore::Create");
  std::unique_ptr<LabelIndex> index;
  Check(LabelBuilder::Build(graph.get(), "", LabelBuildOptions{}, &index,
                            &p.build),
        "LabelBuilder::Build");
  std::unique_ptr<LabeledPathFinder> finder;
  Check(LabeledPathFinder::Create(graph.get(), index.get(),
                                  LabeledPathFinderOptions{}, &finder),
        "LabeledPathFinder::Create");

  // FEM baseline: the same pairs through the finder's own exact fallback
  // engine (BSDJ over the same tables), so both sides pay identical
  // storage and plan-cache conditions.
  std::vector<PathQueryResult> fem_results(pairs.size());
  for (size_t i = 0; i < pairs.size(); i++) {
    Check(finder->fallback()->Find(pairs[i].first, pairs[i].second,
                                   &fem_results[i]),
          "FEM Find");
    const QueryStats& qs = fem_results[i].stats;
    p.fem.time_s += qs.total_us / 1e6;
    p.fem.expansions += static_cast<double>(qs.expansions);
    p.fem.visited += static_cast<double>(qs.visited_rows);
    p.fem.statements += static_cast<double>(qs.statements);
    if (fem_results[i].found) p.fem.found++;
    p.fem.total++;
  }
  const int q = std::max<int>(static_cast<int>(pairs.size()), 1);
  p.fem.time_s /= q;
  p.fem.expansions /= q;
  p.fem.visited /= q;
  p.fem.statements /= q;

  // Serve-from-index: every pair must be a label hit (the index is fresh
  // and complete) and bit-identical to the FEM answer.
  for (size_t i = 0; i < pairs.size(); i++) {
    PathQueryResult r;
    bool served = false;
    Check(finder->Distance(pairs[i].first, pairs[i].second, &r, &served),
          "label Distance");
    if (!served) Die("fresh complete index failed to serve", pairs[i].first,
                     pairs[i].second);
    if (r.found != fem_results[i].found ||
        (r.found && r.distance != fem_results[i].distance)) {
      Die("label-served distance differs from FEM", pairs[i].first,
          pairs[i].second);
    }
    p.serve.time_s += r.stats.total_us / 1e6;
    p.serve.statements += static_cast<double>(r.stats.statements);
    if (r.found) p.serve.found++;
    p.serve.total++;
  }
  p.serve.time_s /= q;
  p.serve.statements /= q;

  // One mutation stales the index: every subsequent query must fall back
  // to FEM (never a wrong answer) and see the post-mutation graph.
  Check(graph->AddEdge(Edge{0, static_cast<node_id_t>(n - 1), 1}),
        "AddEdge");
  for (size_t i = 0; i < pairs.size(); i++) {
    PathQueryResult want;
    Check(finder->fallback()->Find(pairs[i].first, pairs[i].second, &want),
          "FEM Find (post-mutation)");
    PathQueryResult r;
    bool served = true;
    Check(finder->Distance(pairs[i].first, pairs[i].second, &r, &served),
          "stale Distance");
    if (served) Die("stale index served instead of falling back",
                    pairs[i].first, pairs[i].second);
    if (r.found != want.found || (r.found && r.distance != want.distance)) {
      Die("stale fallback differs from FEM", pairs[i].first,
          pairs[i].second);
    }
    p.stale.time_s += r.stats.total_us / 1e6;
    p.stale.statements += static_cast<double>(r.stats.statements);
    if (r.found) p.stale.found++;
    p.stale.total++;
  }
  p.stale.time_s /= q;
  p.stale.statements /= q;
  p.counters = finder->counters();
  return p;
}

// ------------------------------------------------- executor micro series

namespace {

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

Schema AggSchema() {
  return Schema({{"g", TypeId::kInt}, {"v", TypeId::kInt}});
}

}  // namespace

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

ExecRef MakeSelPlan(const std::vector<Tuple>& rows, int64_t selectivity_pct) {
  ExecRef scan = std::make_unique<MaterializedExecutor>(rows, SelSchema());
  ExecRef filter1 = std::make_unique<FilterExecutor>(
      std::move(scan), Cmp(CompareOp::kLt, Col("k"), Lit(selectivity_pct)));
  // a = (i * 13) % 500, so `a < 250` keeps ~half of the survivors.
  ExecRef filter2 = std::make_unique<FilterExecutor>(
      std::move(filter1), Cmp(CompareOp::kLt, Col("a"), Lit(int64_t{250})));
  std::vector<ExprRef> exprs = {Col("a"), Add(Col("k"), Col("b"))};
  return std::make_unique<ProjectExecutor>(
      std::move(filter2), std::move(exprs),
      Schema({{"p0", TypeId::kInt}, {"p1", TypeId::kInt}}));
}

std::vector<Tuple> MakeAggRows(int64_t n, int64_t groups) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; i++) {
    rows.push_back(Tuple({Value((i * 7919) % groups), Value(i % 1000)}));
  }
  return rows;
}

int64_t VectorizedAgg(const std::vector<Tuple>& rows) {
  HashAggregateExecutor agg(
      std::make_unique<MaterializedExecutor>(rows, AggSchema()), {"g"},
      {{AggOp::kSum, Col("v"), "sm"},
       {AggOp::kMin, Col("v"), "mn"},
       {AggOp::kCount, nullptr, "cnt"}});
  if (!agg.Init().ok()) return -1;
  return DrainFold(&agg);
}

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
  // An atomic store keeps the fold from being optimized out.
  static std::atomic<int64_t> sink{0};
  sink.store(acc, std::memory_order_relaxed);
  return produced;
}

}  // namespace bench
}  // namespace relgraph
