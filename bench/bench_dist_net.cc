// Networked-transport bench: the same distributed BSDJ workload through
// in-process shard services vs loopback TCP ShardServers — what one hop of
// real wire (framing, syscalls, a round trip per contacted shard per
// round) costs on top of the function call it replaces.
//
// The deterministic counters (rows_shipped, statements, found) are
// asserted identical across transports while the bench runs — the
// transport-invisibility invariant — and tests/test_golden_counters.cc
// pins their values.
//
// Two resilience series ride along: replicated (2 replicas per shard; a
// healthy fleet must route without a single failover/hedge/shed) and
// overload (4 concurrent sessions over 1-connection pools; the admission
// queue must absorb the contention with zero sheds and bit-identical
// results).
//
// A restart series closes the set: cold start by re-ingesting the edge
// list vs verifying and loading the checksummed shard snapshots a previous
// run persisted. The snapshot page count is deterministic; the wall-clock
// ratio is the operational payoff of durable shards.
#include "series.h"

namespace relgraph {
namespace bench {
namespace {

void Run() {
  Banner("Networked shard transport (loopback)",
         "in-process shard services vs TCP ShardServers, serial coordinator",
         "The loopback column pays framing + syscalls + one round trip per "
         "contacted shard per round; rows_shipped and statements must be "
         "bit-identical across transports (asserted) — only the clock may "
         "move. The gap bounds the per-round wire tax a real deployment "
         "starts from before network latency is added");
  Workload w = DistNetWorkload(GetEnv());
  std::printf("%8s %12s %14s %10s %14s %14s\n", "shards", "local_s",
              "loopback_s", "wire_tax", "rows_shipped", "stmts");
  for (int shards : {2, 4}) {
    DistNetPoint p = RunDistNetPoint(w, shards);
    const DistAvg& l = p.local;
    const DistAvg& r = p.loopback;
    std::printf("%8d %12.4f %14.4f %9.2fx %14.0f %14.0f\n", shards, l.wall_s,
                r.wall_s, l.wall_s > 0 ? r.wall_s / l.wall_s : 0.0,
                l.rows_shipped, l.statements);
    const DistAvg& ingest = p.restart_ingest;
    const DistAvg& snap = p.restart_snapshot;
    double scrub_mb = snap.rows_shipped * kPageSize / 1e6;
    std::printf("%8s %12.4f %14.4f %9.2fx %14.0f %10.1f MB/s\n", "restart",
                ingest.wall_s, snap.wall_s,
                snap.wall_s > 0 ? ingest.wall_s / snap.wall_s : 0.0,
                snap.rows_shipped,
                snap.wall_s > 0 ? scrub_mb / snap.wall_s : 0.0);
  }
}

}  // namespace
}  // namespace bench
}  // namespace relgraph

int main() { relgraph::bench::Run(); }
