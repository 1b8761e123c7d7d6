#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/exec/bind_context.h"
#include "src/exec/dml_executors.h"
#include "src/exec/executor.h"
#include "src/exec/expression.h"
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

/// Structured form of the F-operator's frontier-selection conjunct (the part
/// of Listing 4(1)'s WHERE beyond `flag = 0 AND dist < Max`). Keeping it
/// structured — rather than an opaque expression — lets VisitedTable choose
/// an indexed access path (a dist-index or nid-index probe) while
/// ToPredicate() still yields the exact SQL text and fallback plan.
struct FrontierSpec {
  enum class Kind {
    kAll,     // every open candidate (BBFS)
    kNode,    // nid = node (DJ / BDJ: one node at a time)
    kDistEq,  // dist = level (BSDJ: the minimum-distance set)
    kDistOr,  // dist <= bound OR dist = level (BSEG selective expansion)
  };
  Kind kind = Kind::kAll;
  node_id_t node = kInvalidNode;
  weight_t level = 0;
  weight_t bound = 0;

  static FrontierSpec All() { return {}; }
  static FrontierSpec Node(node_id_t n) {
    return {Kind::kNode, n, 0, 0};
  }
  static FrontierSpec DistEq(weight_t level) {
    return {Kind::kDistEq, kInvalidNode, level, 0};
  }
  static FrontierSpec DistOr(weight_t bound, weight_t level) {
    return {Kind::kDistOr, kInvalidNode, level, bound};
  }

  /// The conjunct as an expression over the TVisited schema; nullptr for
  /// kAll. Identical tree shape to what the algorithms historically built,
  /// so recorded SQL text is unchanged.
  ExprRef ToPredicate(const DirCols& dir) const;
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
///  - under the Index/CluIndex strategies the table has three trees: the
///    unique nid tree (the cluster tree, or a secondary index over the
///    heap) and one open tree per direction, (f, d2s) and (b, d2t) (see
///    Table::CreateOpenIndex). An open tree is partial: it holds only rows
///    whose dist is below kInfinity, because every frontier and auxiliary
///    statement filters on `dist < Max`. Frontier selection (flag 0),
///    finalization and the E-operator's frontier scan (flag 2) read
///    O(frontier) rows instead of O(|V|), and a row reached from one
///    direction writes two trees. NoIndex serves the same key ranges by
///    filtered full scans;
///  - the least open row, which answers Listing 4(4)'s MIN(dist) and
///    PickMid's TOP 1, is the first entry of the direction's open tree
///    (one filtered full scan on NoIndex), so no client-side copy of the
///    open set is kept;
///  - MIN(d2s+d2t), the one scalar kept beside the table, is folded from
///    every inserted or merged row's post-image. Every insert and merge
///    must therefore flow through this class (or a MERGE carrying
///    ChangeObserver()); callers never write the table directly.
///
/// The frontier updates are prepared statements: per direction, the
/// F-operator's UPDATE for each kind of FrontierSpec and the finalizing
/// UPDATE are built on first use, their predicates and SET lists bound to
/// the table, and re-run every round. The spec's node, level and bound
/// reach the predicate through Param nodes over a BindContext this table
/// owns; the candidate iterator and the plans' row buffers are reused, so
/// a warm round's frontier statements allocate nothing up to
/// kRetainedSlots rows.
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

  // ----- auxiliary reads --------------------------------------------------
  // "Open" means flag = 0 AND dist < infinity, the candidate set every
  // auxiliary statement filters on.

  /// The open row with the least dist, ties going to the first in its
  /// access path's order: the open tree's (dist, row locator) order on
  /// Index/CluIndex, Scan() order on NoIndex (Table::FirstInRange).
  /// `dist` = kInfinity and `nid` = kInvalidNode when no row is open.
  Status LeastOpen(const DirCols& dir, weight_t* dist, node_id_t* nid);
  /// MIN(d2s + d2t) over all rows; kInfinity when the table is empty.
  /// (Exact because per-row distances only ever decrease within a query.)
  weight_t MinPathCost() const { return min_cost_; }

  // ----- key-range operations --------------------------------------------
  // Each reads the key range its WHERE clause implies through
  // Table::ScanRange, which probes an index when the strategy provides one
  // and filters a full scan otherwise.

  /// Listing 4(1): flag := 2 for open rows satisfying `spec`: a range on
  /// nid or dist, or every row for kAll. `marked` returns the affected-row
  /// count.
  Status MarkFrontier(const DirCols& dir, const FrontierSpec& spec,
                      int64_t* marked);

  /// Listing 4(3): flag := 1 for flag = 2 rows.
  Status FinalizeFrontier(const DirCols& dir, int64_t* affected);

  /// Source executor over the marked frontier (flag = 2) for the
  /// E-operator join: in (dist, row locator) order through the open tree
  /// on Index/CluIndex, in scan order on NoIndex.
  ExecRef FrontierScan(const DirCols& dir) const;

  /// Observer that keeps MinPathCost exact; attach to any MERGE (e.g. the
  /// M-operator's) that writes this table.
  RowChangeObserver ChangeObserver();

 private:
  VisitedTable() = default;

  /// Folds a written row's d2s + d2t into MinPathCost.
  void NoteCost(const Tuple& row);
  /// The direction's prepared F-operator UPDATE for `kind`.
  UpdatePlan* MarkPlan(const DirCols& dir, FrontierSpec::Kind kind);

  struct FrontierPlans {
    std::unique_ptr<UpdatePlan> mark[4];  // by FrontierSpec::Kind
    std::unique_ptr<UpdatePlan> finalize;
  };

  Database* db_ = nullptr;
  Table* table_ = nullptr;
  bool has_unique_index_ = false;

  size_t d2s_idx_ = 0;
  size_t d2t_idx_ = 0;
  size_t nid_idx_ = 0;
  weight_t min_cost_ = kInfinity;

  FrontierPlans plans_[2];  // [backward, forward]
  BindContext params_;      // the FrontierSpec's node, level and bound
  size_t node_slot_ = 0;
  size_t level_slot_ = 0;
  size_t bound_slot_ = 0;
  Table::Iterator candidates_;  // the running update's candidate rows
  Tuple row_;                   // LeastOpen's row
};

}  // namespace relgraph
