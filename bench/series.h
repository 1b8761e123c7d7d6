#pragma once

// The bench series whose deterministic counters
// tests/test_golden_counters.cc pins. Each function builds its workload
// and runs it exactly as its bench does, and returns what the bench
// prints: per-query means of the paper's counters (statements,
// expansions, visited rows) and, for the distributed series, rows shipped
// and the coordinator's resilience counters. The benches print these;
// the test replays them at RELGRAPH_QUERIES=4, RELGRAPH_SCALE=0.2.

#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/dist/dist_path_finder.h"
#include "src/exec/executor.h"
#include "src/labels/label_builder.h"
#include "src/labels/labeled_path_finder.h"

namespace relgraph {
namespace bench {

/// A graph and the random query pairs run against it.
struct Workload {
  EdgeList list;
  std::vector<std::pair<node_id_t, node_id_t>> pairs;
};

// ----- Figure 6(a) (bench_fig6a) --------------------------------------------

struct Fig6aPoint {
  int64_t nodes = 0;
  AvgResult bdj, bsdj;
};

/// BDJ and BSDJ on five Power (Barabási–Albert, m=2) graphs of 2k..10k
/// nodes before scaling, one shared graph per point.
std::vector<Fig6aPoint> RunFig6a(const BenchEnv& env);

// ----- distributed BSDJ (bench_dist, bench_dist_net) ------------------------

/// Per-query means of one distributed series, plus the coordinator's
/// resilience counters over the whole series.
struct DistAvg {
  double wall_s = 0;         // measured per-query clock of this mode
  double other_clock_s = 0;  // serial mode: simulated parallel clock;
                             // threaded mode: backed-out serial estimate
  double rows_shipped = 0;
  double statements = 0;  // shard + coordinator statements
  int found = 0;
  int total = 0;
  ResilienceCounters resilience;
};

/// Runs `pairs` through `finder`; `threaded` picks the measured clock
/// (parallel for a thread-pool coordinator, serial otherwise).
DistAvg RunDistQueries(
    DistPathFinder* finder,
    const std::vector<std::pair<node_id_t, node_id_t>>& pairs,
    bool threaded);

/// Worker threads of the thread-pool coordinator in bench_dist.
constexpr int kDistPoolThreads = 4;

/// bench_dist's graph: Barabási–Albert (m=3) with 20k nodes before
/// scaling.
Workload DistWorkload(const BenchEnv& env);

struct DistShardPoint {
  int shards = 0;
  DistAvg serial, threaded;
};

/// 1, 2, 4 and 8 shards under `strategy`: the serial coordinator and the
/// thread-pool coordinator on the same store.
std::vector<DistShardPoint> RunDistShardSweep(const Workload& w,
                                              IndexStrategy strategy);

struct DistClientPoint {
  int clients = 0;
  double wall_s = 0;       // whole sweep point, all clients
  double avg_query_s = 0;  // mean per-query latency as each client saw it
  DistAvg combined;        // per-client counter means; found/total summed
};

/// 1, 2, 4 and 8 concurrent sessions over one CluIndex store of `shards`
/// shards, each session running every pair.
std::vector<DistClientPoint> RunDistMultiClient(const Workload& w,
                                                int shards);

/// bench_dist_net's graph: Barabási–Albert (m=3) with 8k nodes before
/// scaling.
Workload DistNetWorkload(const BenchEnv& env);

struct DistNetPoint {
  int shards = 0;
  DistAvg local;       // in-process shard services
  DistAvg loopback;    // every shard behind a loopback ShardServer
  DistAvg replicated;  // two loopback replicas per shard
  DistAvg overload;    // 4 sessions over 1-connection pools (session 0)
  /// Restart paths: wall_s of a re-ingest and of verifying and loading
  /// every shard snapshot; rows_shipped holds the re-ingested edges and
  /// the verified snapshot pages.
  DistAvg restart_ingest, restart_snapshot;
};

/// One shard count of bench_dist_net. Dies when a transport, a healthy
/// replica set or an oversubscribed session drifts from the local
/// counters, or when the admission queue sheds.
DistNetPoint RunDistNetPoint(const Workload& w, int shards);

// ----- hub labels (bench_labels) --------------------------------------------

struct LabelsPoint {
  int64_t nodes = 0;
  LabelBuildStats build;
  AvgResult fem;    // the finder's own FEM fallback on every pair
  AvgResult serve;  // served from the fresh index
  AvgResult stale;  // after one AddEdge: every query falls back
  LabelServeCounters counters;
};

/// Build, FEM, serve and stale series on a Barabási–Albert (m=3) graph of
/// `base_nodes` before scaling. Dies on any wrong or unserved answer.
LabelsPoint RunLabelsPoint(int64_t base_nodes, const BenchEnv& env);

// ----- executor micro series (bench_micro_exec) -----------------------------

/// Rows of the selection-vector series: wide rows whose key k = i % 100
/// makes `k < s` an exact s% predicate.
constexpr int64_t kSelRows = 40000;
std::vector<Tuple> MakeSelRows(int64_t n);

/// Filter (k < `selectivity_pct`), filter (a < 250, about half), then a
/// two-column projection over `rows`.
ExecRef MakeSelPlan(const std::vector<Tuple>& rows, int64_t selectivity_pct);

/// Rows of the hash-aggregation series: (g, v) with `groups` groups.
constexpr int64_t kAggRows = 100000;
std::vector<Tuple> MakeAggRows(int64_t n, int64_t groups);

/// SUM, MIN and COUNT grouped by g through the vectorized hash aggregate;
/// returns the number of groups, or -1 when Init fails.
int64_t VectorizedAgg(const std::vector<Tuple>& rows);

/// Drains one execution of `plan` the way the engine's consumers do,
/// folding column 1 into a sum instead of keeping the rows; returns the
/// rows produced.
int64_t DrainFold(Executor* plan);

}  // namespace bench
}  // namespace relgraph
