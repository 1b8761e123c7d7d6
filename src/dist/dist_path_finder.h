#pragma once

#include <memory>
#include <vector>

#include "src/core/path_finder.h"
#include "src/dist/coordinator.h"
#include "src/dist/sharded_graph.h"
#include "src/labels/label_probe.h"

namespace relgraph {

/// What one distributed query measures: statement counts on the coordinator
/// (as PathFinder counts them) and across shards, rows crossing the
/// shard/coordinator boundary (the "network"), rounds (one shard fan-out
/// per expansion), and two clocks.
///
/// `serial_us` is what the query costs with every shard request run one
/// after another; `parallel_us` is what it costs with each round's shard
/// requests running concurrently. In serial mode (DistOptions::num_threads
/// == 0) the query actually executes serially: serial_us is the measured
/// wall clock and parallel_us is *simulated* by charging each round only
/// its slowest shard (so parallel_us <= serial_us always holds there). In
/// threaded mode the roles flip: parallel_us is the *measured* wall clock
/// (rounds really run on the thread pool) and serial_us backs out the
/// measured round walls and charges the sum of shard service times instead.
struct DistQueryStats {
  int64_t coordinator_statements = 0;
  int64_t shard_statements = 0;
  int64_t rows_shipped = 0;
  int64_t rounds = 0;
  int64_t serial_us = 0;
  int64_t parallel_us = 0;
};

struct DistPathResult {
  bool found = false;
  weight_t distance = kInfinity;
  std::vector<node_id_t> path;  // s ... t when found
  DistQueryStats stats;
};

/// One query session of the distributed bi-directional set Dijkstra (the
/// paper's BSDJ, §7 extension). The session runs PathFinder's BSDJ — the
/// single-node F/E/M loop with its direction choice, Theorem-1 pruning,
/// stop rule and path recovery — over a TVisited in its own coordinator
/// Database. Only the edge relation differs: TEdges lives on the shards, so
/// the E-operator's join is the shard fan-out. Each expansion routes the
/// frontier's node ids and distances, with the Theorem-1 bound, to their
/// owner shards' ShardServices (serially, or one thread-pool task per
/// shard); the shards answer with their pruned and combined adjacency
/// rows, which the join yields to the unchanged E-operator residual, dedup
/// and M-operator merge. Expansion is thus fully partitioned while the
/// loop stays on the coordinator.
///
/// Sessions come from DistCoordinator::NewSession() and share that
/// coordinator's shard services, admission queues, and worker threads; the
/// session itself must be driven from one thread at a time.
class DistPathFinder {
 public:
  /// Convenience for the common single-session case: builds a private
  /// coordinator with `options` and one session on it.
  static Status Create(ShardedGraphStore* store,
                       std::unique_ptr<DistPathFinder>* out,
                       DistOptions options = DistOptions{});

  /// Finds the shortest path from s to t. Not-found is reported through
  /// `result->found`; the Status covers engine errors only.
  Status Find(node_id_t s, node_id_t t, DistPathResult* result);

  /// Distance-only query with the label fast path: when the coordinator
  /// has labels attached, they are fresh, and the probe certifies its
  /// answer exact, the result comes from two coordinator-side index scans
  /// — stats show zero rounds, zero shard statements, zero rows shipped.
  /// Everything else (stale labels, uncertified bound, no labels) runs the
  /// full distributed BSDJ. `served_from_labels` (optional) reports
  /// which path answered; `result->path` stays empty on a label hit.
  Status Distance(node_id_t s, node_id_t t, DistPathResult* result,
                  bool* served_from_labels = nullptr);

  /// The session's database (statement counts feed DistQueryStats).
  Database* coordinator_db() { return coord_db_.get(); }

  /// The coordinator this session runs on (resilience counters live there).
  DistCoordinator* coordinator() const { return coord_; }
  /// This session's id, stamped on every shard request it issues.
  int64_t session_id() const { return session_id_; }

 private:
  friend class DistCoordinator;
  class ShardJoinExecutor;

  explicit DistPathFinder(DistCoordinator* coord)
      : coord_(coord), store_(coord->store()) {}

  static Status CreateSession(DistCoordinator* coord,
                              std::unique_ptr<DistPathFinder>* out);

  /// One round: sends the owner shards of `frontier` their nodes, each
  /// node's distance (`dists`, parallel to `frontier`) and the pruning
  /// `bound` — serially, or as one thread-pool task per contacted shard —
  /// and returns their answers in shard-index order. Adds to the running
  /// query's shard counters and clocks.
  Status FanOut(const std::vector<node_id_t>& frontier,
                const std::vector<weight_t>& dists, weight_t bound,
                bool forward, std::vector<ShardExpandResponse>* responses);

  DistCoordinator* coord_ = nullptr;
  ShardedGraphStore* store_ = nullptr;
  int64_t session_id_ = 0;
  /// Set only by the single-session Create() overload, which owns its
  /// coordinator; sessions minted via NewSession() borrow theirs.
  std::unique_ptr<DistCoordinator> owned_coord_;
  std::unique_ptr<Database> coord_db_;
  std::unique_ptr<PathFinder> finder_;
  /// The running query's shard side, summed by FanOut: rounds, shard
  /// statements, rows shipped, every request's service time, and per round
  /// the measured wall (threaded) or the slowest shard (serial).
  DistQueryStats shard_stats_;
  int64_t shard_serial_us_ = 0;
  int64_t shard_parallel_us_ = 0;
  /// Created lazily on the first Distance() after labels are attached:
  /// each session owns its probe (engine + prepared handles are
  /// single-threaded) over the coordinator's shared label database.
  std::unique_ptr<LabelProbe> label_probe_;
};

}  // namespace relgraph
