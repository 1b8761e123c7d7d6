// Extension bench (paper §7 future work): distributed BSDJ over a
// hash-partitioned edge relation, now with *real* concurrency. Two series:
//
//  - per-strategy shard sweep: the serial coordinator (measured serial
//    clock + simulated-parallel clock) against the thread-pool coordinator
//    (measured parallel wall clock) on the same workload — the quantities
//    that decide whether partitioning the tables pays off, with the
//    speedup no longer hypothetical;
//  - multi-client throughput: N concurrent query sessions over one shared
//    shard pool (queries/sec vs client count), the "many clients, one
//    cluster" shape of the scaling story.
//
// rows_shipped and the statement totals are deterministic;
// tests/test_golden_counters.cc pins them for every point of both series.
#include "series.h"

namespace relgraph {
namespace bench {
namespace {

void PrintStrategy(IndexStrategy strategy, const Workload& w) {
  std::printf("strategy=%s (threaded pool: %d workers)\n",
              IndexStrategyName(strategy), kDistPoolThreads);
  std::printf("%8s %12s %14s %14s %10s %14s %14s\n", "shards", "serial_s",
              "sim_par_s", "threaded_s", "speedup", "rows_shipped", "stmts");
  for (const DistShardPoint& p : RunDistShardSweep(w, strategy)) {
    const DistAvg& s = p.serial;
    const DistAvg& t = p.threaded;
    std::printf("%8d %12.4f %14.4f %14.4f %10.2f %14.0f %14.0f\n", p.shards,
                s.wall_s, s.other_clock_s, t.wall_s,
                t.wall_s > 0 ? s.wall_s / t.wall_s : 0.0, s.rows_shipped,
                s.statements);
  }
}

void Run() {
  Banner("Distributed BSDJ (extension, paper §7)",
         "serial vs thread-pool coordinator, and concurrent query sessions",
         "NoIndex shards: per-shard scans shrink by K and now run "
         "concurrently, so the measured threaded clock drops with shards "
         "where the old simulation could only predict it. CluIndex shards: "
         "probes are already cheap and the coordinator dominates — "
         "partitioning helps exactly when per-shard work scales down. "
         "Multi-client: throughput grows with clients until the shard "
         "pools saturate");
  Workload w = DistWorkload(GetEnv());
  PrintStrategy(IndexStrategy::kNoIndex, w);
  std::printf("\n");
  PrintStrategy(IndexStrategy::kCluIndex, w);

  constexpr int kShards = 4;
  std::printf("\nmulti-client throughput (shards=%d, pool=%d workers, "
              "CluIndex)\n", kShards, kDistPoolThreads);
  std::printf("%8s %12s %14s %14s\n", "clients", "wall_s", "queries/s",
              "avg_query_s");
  for (const DistClientPoint& p : RunDistMultiClient(w, kShards)) {
    std::printf("%8d %12.4f %14.1f %14.4f\n", p.clients, p.wall_s,
                p.wall_s > 0 ? p.combined.total / p.wall_s : 0.0,
                p.avg_query_s);
  }
}

}  // namespace
}  // namespace bench
}  // namespace relgraph

int main() { relgraph::bench::Run(); }
