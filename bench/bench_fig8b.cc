// Figure 8(b): BSEG(3) query time vs RDBMS buffer size on the
// LiveJournal stand-in. Runs on file-backed storage with a simulated
// per-miss I/O latency (DiskManager's simulated_io_latency_us: the host
// page cache would otherwise hide the misses the paper's disk made
// expensive).
#include "bench_common.h"

namespace relgraph {
namespace bench {
namespace {

void Run() {
  Banner("Figure 8(b)",
         "BSEG(3) time vs buffer size, LiveJournal stand-in, file-backed",
         "near-linear improvement with buffer size until the working set "
         "fits, then flat");
  BenchEnv env = GetEnv();
  std::printf("%14s %12s %10s %14s\n", "buffer_pages", "buffer_MiB",
              "BSEG3_s", "misses/query");
  int64_t n = Scaled(60000);
  EdgeList list = GenerateBarabasiAlbert(n, 4, WeightRange{1, 100}, 800);
  auto pairs = MakeQueryPairs(n, env.queries, 10100);
  const size_t pools[] = {64, 256, 1024, 4096, 16384};
  for (size_t pool : pools) {
    DatabaseOptions dopts;
    dopts.in_memory = false;
    dopts.buffer_pool_pages = pool;
    dopts.simulated_io_latency_us = 50;
    Workbench wb = Workbench::Make(list, Algorithm::kBSEG, 3, SqlMode::kNsql,
                                   IndexStrategy::kCluIndex, dopts);
    // Warm the buffer as the paper does ("after the database buffer
    // becomes hot"): run the workload once before measuring.
    RunQueries(wb.finder.get(), pairs);
    AvgResult r = RunQueries(wb.finder.get(), pairs);
    std::printf("%14zu %12.1f %10.4f %14.0f\n", pool,
                pool * kPageSize / (1024.0 * 1024.0), r.time_s,
                r.buffer_misses);
  }
}

}  // namespace
}  // namespace bench
}  // namespace relgraph

int main() { relgraph::bench::Run(); }
