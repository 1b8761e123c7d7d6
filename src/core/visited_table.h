#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/open_set.h"
#include "src/db/database.h"
#include "src/exec/dml_executors.h"
#include "src/graph/graph_store.h"

namespace relgraph {

/// Column bundle naming one search direction's state inside TVisited.
/// Forward: (d2s, p2s, a2s, f); backward: (d2t, p2t, a2t, b).
struct DirCols {
  std::string dist;    // distance from the direction's origin
  std::string pred;    // predecessor (fwd) / successor (bwd) on the path
  std::string anchor;  // frontier node this row was expanded from (the
                       // segment anchor; equals pred on base-graph edges)
  std::string flag;    // three-value sign: 0 candidate, 1 expanded, 2 frontier
  bool forward = true;
};

/// The TVisited working table of the paper (§3.3), extended per §4.1 with
/// the backward-direction columns and, beyond the paper, with per-direction
/// *anchor* columns (a2s/a2t). The paper stores only the immediate
/// predecessor `p2s`, which under-specifies full-path recovery over
/// SegTable: intermediate segment nodes never enter TVisited, so a p2s
/// chain dead-ends. The anchor pins the frontier node whose segment covered
/// this row, letting recovery re-open the right TOutSegs/TInSegs run (see
/// PathFinder::RecoverPath).
///
/// Schema: (nid, d2s, p2s, a2s, f, d2t, p2t, a2t, b) — all INT, so rows are
/// fixed-width and update in place.
///
/// Beyond storage, this class owns TVisited's *access paths*:
///  - CreateKeyedTable lays the table out keyed on nid with one open tree
///    per direction, so under the Index/CluIndex strategies it has three
///    trees: the unique nid tree (the cluster tree, or a secondary index
///    over the heap) and the open trees (f, d2s) and (b, d2t) (see
///    Table::CreateOpenIndex). SegTable construction and Prim's MST lay
///    out their working tables the same way. An open tree is partial: it
///    holds only rows whose dist is below kInfinity, because every
///    frontier and auxiliary statement filters on `dist < Max`. Frontier
///    selection (flag 0), finalization and the E-operator's frontier scan
///    (flag 2) read O(frontier) rows instead of O(|V|), and a row reached
///    from one direction writes two trees. NoIndex serves the same key
///    ranges by filtered full scans;
///  - the open set of each direction is an OpenSet (the F-operator): its
///    least open row answers Listing 4(4)'s MIN(dist) and PickMid's TOP 1
///    from the first entry of the direction's open tree (one filtered full
///    scan on NoIndex), so no client-side copy of the open set is kept, and
///    its prepared UPDATEs mark and finalize the frontier;
///  - MIN(d2s+d2t), the one scalar kept beside the table, is folded from
///    every inserted or merged row's post-image. Every insert and merge
///    must therefore flow through this class (or a MERGE carrying
///    ChangeObserver()); callers never write the table directly. Neither
///    flag change of the F-operator moves d2s + d2t.
class VisitedTable {
 public:
  static Status Create(Database* db, IndexStrategy strategy, std::string name,
                       std::unique_ptr<VisitedTable>* out);
  ~VisitedTable();

  Table* table() const { return table_; }
  Database* db() const { return db_; }

  static DirCols ForwardCols();
  static DirCols BackwardCols();

  /// Empties the table for the next query (counted as one statement).
  Status Reset();

  /// Listing 2(1): seed the forward search with the source node.
  Status InsertSource(node_id_t s);

  /// Algorithm 2 line 1: seed both directions.
  Status InsertSourceAndTarget(node_id_t s, node_id_t t);

  /// Point lookup of a node's row; uses the unique index when present,
  /// otherwise the key range nid = `nid` (a filtered scan under NoIndex).
  Status GetRow(node_id_t nid, Tuple* out);

  int64_t num_rows() const { return table_->num_rows(); }

  /// The direction's open set: flag = 0 AND dist < infinity, the
  /// candidate set every frontier and auxiliary statement filters on.
  OpenSet* open(const DirCols& dir) { return &*open_[dir.forward ? 1 : 0]; }

  /// MIN(d2s + d2t) over all rows; kInfinity when the table is empty.
  /// (Exact because per-row distances only ever decrease within a query.)
  weight_t MinPathCost() const { return min_cost_; }

  /// Observer that keeps MinPathCost exact; attach to any MERGE (e.g. the
  /// M-operator's) that writes this table.
  RowChangeObserver ChangeObserver();

 private:
  VisitedTable() = default;

  /// Folds a written row's d2s + d2t into MinPathCost.
  void NoteCost(const Tuple& row);

  Database* db_ = nullptr;
  Table* table_ = nullptr;
  bool has_unique_index_ = false;  // set at Create: not NoIndex

  size_t d2s_idx_ = 0;
  size_t d2t_idx_ = 0;
  weight_t min_cost_ = kInfinity;

  std::optional<OpenSet> open_[2];  // [backward, forward]
};

}  // namespace relgraph
