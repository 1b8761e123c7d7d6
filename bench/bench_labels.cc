// Extension bench: the hub-label distance index (serve-from-index fast
// path) against the FEM fallback it degrades to. Three questions per
// graph size:
//
//  - build cost: wall clock, SQL statements, and label rows of one
//    complete pruned-landmark construction run;
//  - label-vs-FEM crossover: average serve-from-index latency vs the
//    exact BSDJ/FEM distance query on the same pairs, and how many
//    queries amortize the build (build_s / (fem_s - serve_s));
//  - hit/fallback counters: a fresh complete index must serve every
//    distance; one graph mutation must flip every subsequent query to
//    the FEM fallback (counted as stale_fallbacks), still bit-identical
//    to FEM run directly.
//
// The bench aborts on any correctness violation: a label-served distance
// differing from FEM, a fresh-index query not served, or a post-mutation
// query not falling back. Statement and row counts are deterministic;
// tests/test_golden_counters.cc pins them.
#include "series.h"

namespace relgraph {
namespace bench {
namespace {

void Run() {
  Banner("Label index (extension)",
         "hub-label build cost, serve-vs-FEM crossover, hit/fallback "
         "counters",
         "serve-from-index answers a distance with one prepared range-scan "
         "statement — microseconds against FEM's milliseconds, a >=10x gap "
         "that widens with graph size; the build is a one-time cost "
         "amortized after `crossover` queries; a mutation flips every "
         "query to the FEM fallback with identical answers");
  BenchEnv env = GetEnv();
  std::printf("%8s %10s %10s %10s %12s %12s %9s %10s %8s\n", "nodes",
              "build_s", "build_st", "entries", "fem_ms", "serve_ms",
              "speedup", "crossover", "hits");
  for (int64_t base : {2000, 4000}) {
    LabelsPoint p = RunLabelsPoint(base, env);
    const double build_s = p.build.build_us / 1e6;
    const double gain = p.fem.time_s - p.serve.time_s;
    const LabelServeCounters& c = p.counters;
    std::printf("%8lld %10.3f %10lld %10lld %12.4f %12.6f %9.1fx %10.0f "
                "%5lld/%lld\n",
                static_cast<long long>(p.nodes), build_s,
                static_cast<long long>(p.build.statements),
                static_cast<long long>(p.build.entries), p.fem.time_s * 1e3,
                p.serve.time_s * 1e3,
                p.serve.time_s > 0 ? p.fem.time_s / p.serve.time_s : 0.0,
                gain > 0 ? build_s / gain : -1.0,
                static_cast<long long>(c.label_hits),
                static_cast<long long>(c.label_hits + c.fallbacks));
  }
}

}  // namespace
}  // namespace bench
}  // namespace relgraph

int main() { relgraph::bench::Run(); }
