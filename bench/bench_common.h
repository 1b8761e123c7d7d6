#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/path_finder.h"
#include "src/core/segtable.h"
#include "src/graph/generators.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace bench {

/// Harness knobs, read from the environment:
///   RELGRAPH_QUERIES — random s-t queries per data point (default 5;
///                      the paper used 100)
///   RELGRAPH_SCALE   — multiplier on every graph size (default 1.0; the
///                      defaults are scaled-down versions of the paper's
///                      graphs so the whole suite finishes in minutes;
///                      each bench passes its base sizes to Scaled())
struct BenchEnv {
  int queries = 5;
  double scale = 1.0;
};

BenchEnv GetEnv();

/// Applies the scale knob to a node count.
int64_t Scaled(int64_t base_nodes, const BenchEnv& env = GetEnv());

/// Random query endpoints, the paper's workload methodology (§5.2).
std::vector<std::pair<node_id_t, node_id_t>> MakeQueryPairs(int64_t num_nodes,
                                                            int n,
                                                            uint64_t seed);

/// Averaged per-query metrics for one (algorithm, graph) cell.
struct AvgResult {
  double time_s = 0;
  double expansions = 0;
  double visited = 0;
  double statements = 0;
  double pe_s = 0, sc_s = 0, fpr_s = 0;
  double f_s = 0, e_s = 0, m_s = 0;
  double buffer_misses = 0;
  int found = 0;
  int total = 0;
};

/// Runs `pairs` through `finder` and averages the stats.
AvgResult RunQueries(PathFinder* finder,
                     const std::vector<std::pair<node_id_t, node_id_t>>& pairs);

/// Convenience: build a GraphStore (+ optional SegTable) in a fresh
/// Database and answer queries with one algorithm.
struct Workbench {
  std::unique_ptr<Database> db;
  std::unique_ptr<GraphStore> graph;
  std::unique_ptr<SegTable> segtable;
  std::unique_ptr<PathFinder> finder;
  SegTableBuildStats seg_stats;

  static Workbench Make(const EdgeList& list, Algorithm algorithm,
                        weight_t lthd = 0,
                        SqlMode sql_mode = SqlMode::kNsql,
                        IndexStrategy strategy = IndexStrategy::kCluIndex,
                        DatabaseOptions dopts = DatabaseOptions{});
};

/// One database + graph shared by several finders — loading a large graph
/// into the engine dominates bench setup, so benches that compare
/// algorithms on the same graph reuse it.
struct SharedGraph {
  std::unique_ptr<Database> db;
  std::unique_ptr<GraphStore> graph;
  std::vector<std::unique_ptr<SegTable>> segtables;  // keep-alive
  int next_seg = 0;

  static SharedGraph Make(const EdgeList& list,
                          IndexStrategy strategy = IndexStrategy::kCluIndex,
                          DatabaseOptions dopts = DatabaseOptions{});

  /// Builds a finder on this graph; builds a SegTable first for kBSEG.
  std::unique_ptr<PathFinder> Finder(Algorithm algorithm, weight_t lthd = 0,
                                     SqlMode sql_mode = SqlMode::kNsql,
                                     SegTableBuildStats* stats = nullptr);
};

/// Prints the bench banner: experiment id, what the paper reported, and
/// what to look for in the reproduced shape.
void Banner(const char* experiment, const char* caption,
            const char* paper_shape);

/// Dies with a message on error Status (benches have no recovery path).
void Check(const Status& st, const char* what);

}  // namespace bench
}  // namespace relgraph
