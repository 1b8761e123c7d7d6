#pragma once

#include <memory>

#include "src/core/sql_path_finder.h"
#include "src/labels/label_index.h"
#include "src/labels/label_probe.h"

namespace relgraph {

struct LabeledPathFinderOptions {
  /// The exact fallback: the paper's FEM algorithms through the SQL-text
  /// client. `fallback.visited_table` must be unique per finder in one
  /// database.
  SqlPathFinderOptions fallback;
};

/// Why each query was (or was not) served from labels — the fast-path
/// hit/fallback accounting tools and benches print.
struct LabelServeCounters {
  int64_t label_hits = 0;         // distances answered from labels, no FEM
  int64_t path_hits = 0;          // full paths walked from labels, no FEM
  int64_t fallbacks = 0;          // total FEM executions via this finder
  int64_t stale_fallbacks = 0;    // distance: graph mutated since the build
  int64_t inexact_fallbacks = 0;  // distance: partial index could not certify
  int64_t path_fallbacks = 0;     // full path the labels could not walk
};

/// The serve-from-index fast path with FEM as the exact slow path:
/// Distance() answers from two label probes + min when the index can
/// *prove* the answer (fresh labels, certified exact), and transparently
/// runs the full FEM search otherwise — a stale or partial index degrades
/// to the paper's algorithm, never to a wrong answer.
///
/// Find() (full path) walks the labels when the index is fresh, complete
/// and lives in the graph's database: one probe gives r = d(s,t), then
/// each hop is one prepared statement that picks an edge (u, v) with
///
///   cost(u, v) + d(v, t) = r,   d(v, t) = min over hubs of the labels
///
/// appends v and subtracts the cost. Any such edge starts a shortest u-t
/// path, so with positive weights the walk reaches t in fewer than
/// num_nodes hops. A walk that finds no hop or reaches num_nodes hops
/// (zero-weight cycles can keep it circling) runs FEM instead, as does
/// every Find the walk does not apply to.
class LabeledPathFinder {
 public:
  /// `labels` may live in graph->db() (built in place) or in a separate
  /// restored database; the finder probes wherever the index points and
  /// falls back onto `graph`.
  static Status Create(GraphStore* graph, const LabelIndex* labels,
                       LabeledPathFinderOptions options,
                       std::unique_ptr<LabeledPathFinder>* out);

  /// Distance-only query. `result->path` stays empty on a label hit;
  /// `served_from_labels` (optional) reports which path answered.
  Status Distance(node_id_t s, node_id_t t, PathQueryResult* result,
                  bool* served_from_labels = nullptr);

  /// Full-path query: the label walk, or the FEM fallback.
  Status Find(node_id_t s, node_id_t t, PathQueryResult* result);

  const LabelServeCounters& counters() const { return counters_; }
  const LabelIndex* labels() const { return labels_; }
  SqlPathFinder* fallback() { return fallback_.get(); }

 private:
  LabeledPathFinder() = default;

  /// Walks s -> t over the labels; *walked is false when the walk gave up
  /// and the caller must run FEM.
  Status Walk(node_id_t s, node_id_t t, PathQueryResult* result,
              bool* walked);

  GraphStore* graph_ = nullptr;
  const LabelIndex* labels_ = nullptr;
  std::unique_ptr<LabelProbe> probe_;
  /// One hop of the label walk; null when the walk cannot apply (labels
  /// in another database, or a partial index).
  std::shared_ptr<sql::PreparedStatement> hop_stmt_;
  std::unique_ptr<SqlPathFinder> fallback_;
  LabelServeCounters counters_;
};

}  // namespace relgraph
