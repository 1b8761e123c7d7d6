#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/fem.h"
#include "src/core/segtable_fwd.h"
#include "src/core/visited_table.h"
#include "src/graph/graph_store.h"

namespace relgraph {

/// The five relational shortest-path algorithms of §5.1. (The in-memory
/// competitors MDJ/MBDJ live on MemGraph.)
enum class Algorithm {
  kDJ,    // Algorithm 1: single-direction, node-at-a-time Dijkstra
  kBDJ,   // bi-directional, node-at-a-time Dijkstra
  kBSDJ,  // §4.1: bi-directional *set* Dijkstra
  kBBFS,  // bi-directional BFS (expand every candidate each round)
  kBSEG,  // Algorithm 2: bi-directional selective expansion on SegTable
};

const char* AlgorithmName(Algorithm a);

struct PathFinderOptions {
  Algorithm algorithm = Algorithm::kBSDJ;
  SqlMode sql_mode = SqlMode::kNsql;
  /// Ablation switch: drop the Theorem-1 pruning predicate from the
  /// E-operator (results stay correct; search space grows).
  bool disable_pruning = false;
  /// Safety valve on rounds and path-recovery hops; never reached (Thm 2).
  int64_t max_iterations = 10'000'000;
};

/// Everything the paper reports per query: wall-clock by phase (Fig 6(b):
/// PE = path expansion, SC = statistics collection, FPR = full path
/// recovery), by operator (Fig 6(c)), expansion counts (Tables 2-3 "Exps"),
/// visited-set size ("Vst"), SQL statements issued, and buffer/disk I/O.
struct QueryStats {
  int64_t expansions = 0;
  int64_t statements = 0;
  int64_t visited_rows = 0;
  int64_t path_expansion_us = 0;
  int64_t stat_collection_us = 0;
  int64_t path_recovery_us = 0;
  int64_t total_us = 0;
  int64_t f_operator_us = 0;
  int64_t e_operator_us = 0;
  int64_t m_operator_us = 0;
  int64_t buffer_hits = 0;
  int64_t buffer_misses = 0;
  int64_t disk_reads = 0;
  int64_t disk_writes = 0;
};

struct PathQueryResult {
  bool found = false;
  weight_t distance = kInfinity;
  std::vector<node_id_t> path;  // s ... t on the *original* graph
  QueryStats stats;
};

/// Client-side driver (the paper's Java/JDBC client): owns one TVisited
/// table and one FemEngine, issues the statement sequence of Algorithm 1 /
/// Algorithm 2, and keeps only scalar loop variables (mid, lf, lb, minCost,
/// nf, nb) outside the database — "in the running time, only few variables
/// are kept on the client side" (§3.4).
class PathFinder {
 public:
  /// Searches `graph`'s edge tables; kBSEG requires and searches `segtable`.
  static Status Create(GraphStore* graph, PathFinderOptions options,
                       std::unique_ptr<PathFinder>* out,
                       const SegTable* segtable = nullptr);

  /// Keeps TVisited in `db` under `strategy` and searches `forward` and
  /// `backward`: local tables or relations on shards. kBSEG requires
  /// `segtable`, and the relations must then be the SegTable's.
  static Status Create(Database* db, IndexStrategy strategy,
                       EdgeRelation forward, EdgeRelation backward,
                       PathFinderOptions options,
                       std::unique_ptr<PathFinder>* out,
                       const SegTable* segtable = nullptr);

  /// Finds the shortest path from s to t. Not-found is reported through
  /// `result->found`, not the Status (which covers engine errors only).
  Status Find(node_id_t s, node_id_t t, PathQueryResult* result);

  const PathFinderOptions& options() const { return options_; }
  VisitedTable* visited() { return visited_.get(); }

 private:
  PathFinder() = default;

  Status RunDj(node_id_t s, node_id_t t, PathQueryResult* result);
  Status RunBdj(node_id_t s, node_id_t t, PathQueryResult* result);
  /// Shared driver for the three set-at-a-time algorithms; they differ only
  /// in the frontier predicate (BSDJ: dist = min; BBFS: all candidates;
  /// BSEG: dist <= round*lthd or dist = min) and the edge relations used.
  Status RunSetBidirectional(node_id_t s, node_id_t t,
                             PathQueryResult* result);

  const EdgeRelation& RelFor(const DirCols& dir) const;

  /// Full-path recovery (Listing 3(3) + §4.3 lines 17-20): walks anchor
  /// links in TVisited and re-expands each SegTable segment through the
  /// pre-computed pid chains, yielding the original-graph path.
  Status RecoverPath(node_id_t s, node_id_t t, node_id_t meet,
                     PathQueryResult* result);
  Status WalkDirection(const DirCols& dir, node_id_t from, node_id_t origin,
                       std::vector<node_id_t>* out);
  Status SegmentStep(const DirCols& dir, node_id_t anchor, node_id_t y,
                     node_id_t first_parent, node_id_t* prev);

  Database* db_ = nullptr;
  EdgeRelation forward_;
  EdgeRelation backward_;
  const SegTable* segtable_ = nullptr;
  PathFinderOptions options_;
  std::unique_ptr<VisitedTable> visited_;
  std::unique_ptr<FemEngine> fem_;
};

}  // namespace relgraph
