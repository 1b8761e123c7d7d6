#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/visited_table.h"
#include "src/db/database.h"
#include "src/exec/bind_context.h"
#include "src/exec/dml_executors.h"
#include "src/exec/executor.h"
#include "src/exec/expression.h"
#include "src/graph/graph_store.h"

namespace relgraph {

/// Which SQL dialect generation the operator plans use (paper Figure 6(d)):
///  - kNsql: the SQL:2003/2008 features — row_number() window dedup in the
///    E-operator and one MERGE statement for the M-operator;
///  - kTsql: "traditional" SQL — aggregate + re-join in the E-operator and
///    an UPDATE statement followed by an INSERT for the M-operator.
/// DedupLeast and MergeRows below are the only places the mode (and the
/// engine profile's MERGE support) picks a plan.
enum class SqlMode { kNsql, kTsql };

const char* SqlModeName(SqlMode m);

/// Per-query operator/phase accounting, feeding Figures 6(b) and 6(c).
struct FemStats {
  int64_t expansions = 0;       // E-operator invocations ("Exps")
  int64_t f_operator_us = 0;
  int64_t e_operator_us = 0;
  int64_t m_operator_us = 0;
  int64_t aux_us = 0;           // TVisited reset, mid/min/minCost stats

  void Reset() { *this = FemStats{}; }
};

/// The three relational operators of the paper's FEM framework (§3.2),
/// bound to one TVisited table. Each public method corresponds to one (or,
/// for ExpandAndMerge in NSQL mode, one combined) SQL statement from
/// Listings 2-4; Database::stats().statements counts them. The F-operator
/// is the direction's OpenSet, and the E- and M-operators are built from
/// EdgeJoin, DedupLeast and MergeRows, which SegTable construction and
/// Prim's MST use as well.
///
/// The engine runs the round the way the paper's client runs its JDBC
/// statements: parse once, bind many. Per direction it prepares one E/M
/// plan — EdgeJoin -> project -> DedupLeast -> MergeRows — on first use,
/// with every column bound to its slot, and re-Init()s it each round. The
/// only values that change between rounds, `opposite_l` and `min_cost`,
/// live in a BindContext the engine owns and reach the plan through Param
/// nodes: the Theorem-1 residual reads them per row, and a relation on
/// shards evaluates its pruning bound from them at each Init. Rows flow
/// through slots the plan keeps (up to kRetainedSlots per buffer between
/// rounds), so a warm round allocates only the rows beyond them.
/// A plan is rebuilt when a call names a different relation (table or
/// columns) than it was built for, or when the catalog version moves (an
/// index created or dropped may change the access path). Statement text
/// is built only while the statement log is on.
class FemEngine {
 public:
  FemEngine(Database* db, VisitedTable* visited, SqlMode mode);
  ~FemEngine();
  // Plans hold pointers to params_, so the engine stays where it was built.
  FemEngine(const FemEngine&) = delete;
  FemEngine& operator=(const FemEngine&) = delete;

  Database* db() { return db_; }
  VisitedTable* visited() { return visited_; }
  SqlMode mode() const { return mode_; }
  FemStats& stats() { return stats_; }

  // ----- F-operator and its auxiliary statements -------------------------
  // Each method records the same SQL statement text as ever (the Listings);
  // what changed is the physical plan behind it: the frontier updates and
  // the open-row probes run through the direction's OpenSet (its open
  // tree), and MinCost reads the one scalar VisitedTable keeps beside the
  // table.

  /// Listing 4(1) generalized: UPDATE TVisited SET flag=2 WHERE flag=0 AND
  /// dist<Max AND `spec`. Returns the number of frontier nodes marked.
  Status MarkFrontier(const DirCols& dir, const FrontierSpec& spec,
                      int64_t* marked);

  /// Listing 4(3): UPDATE TVisited SET flag=1 WHERE flag=2.
  Status FinalizeFrontier(const DirCols& dir);

  /// Listing 2(2): SELECT TOP 1 nid FROM TVisited WHERE flag=0 AND
  /// dist=(SELECT MIN(dist) ... WHERE flag=0). `found`=false when no
  /// candidate remains.
  Status PickMid(const DirCols& dir, node_id_t* mid, bool* found);

  /// Listing 4(4): SELECT MIN(dist) FROM TVisited WHERE flag=0.
  /// Returns kInfinity when no candidate remains. One open-tree entry on
  /// Index/CluIndex, one filtered full scan on NoIndex.
  Status MinOpenDistance(const DirCols& dir, weight_t* out);

  /// Listing 4(5): SELECT MIN(d2s+d2t) FROM TVisited. O(1).
  Status MinCost(weight_t* out);

  /// Listing 4(6): SELECT nid FROM TVisited WHERE d2s+d2t = :min_cost.
  Status MeetingNode(weight_t min_cost, node_id_t* out);

  // ----- E + M ------------------------------------------------------------

  /// The paper's path-expansion statement (Listing 2(3,4) / Listing 4(2)):
  /// joins the frontier (flag=2) with `rel`, keeps per expanded node the
  /// minimal-distance occurrence, applies the Theorem-1 pruning rule
  /// `dist + cost + opposite_l >= min_cost` (pass opposite_l=0 and
  /// min_cost=kInfinity to disable), and merges the result into TVisited.
  /// `affected` reports inserted+updated rows (the SQLCA read).
  ///
  /// NSQL: window-function dedup, single MERGE (one statement).
  /// TSQL: aggregate+re-join dedup, UPDATE then INSERT (two statements).
  /// An engine without MERGE keeps the NSQL window dedup and merges by
  /// UPDATE then INSERT (see MergeRows).
  Status ExpandAndMerge(const DirCols& dir, const EdgeRelation& rel,
                        weight_t opposite_l, weight_t min_cost,
                        int64_t* affected);

 private:
  struct ExpandPlan;

  /// The direction's E/M plan for `rel`, built (or rebuilt) when needed.
  Status PlanFor(const DirCols& dir, const EdgeRelation& rel,
                 ExpandPlan** out);
  /// Joins frontier rows with `rel` and projects (nid, cost, pid, aid),
  /// without dedup — the input of DedupLeast in both modes.
  ExecRef BuildJoinProject(const DirCols& dir, const EdgeRelation& rel);
  /// The M-operator's MERGE of ExpansionSchema rows into TVisited.
  MergeSpec VisitedMergeSpec(const DirCols& dir);

  Database* db_;
  VisitedTable* visited_;
  SqlMode mode_;
  FemStats stats_;
  BindContext params_;
  size_t opposite_l_slot_;
  size_t min_cost_slot_;
  std::unique_ptr<ExpandPlan> plans_[2];  // [backward, forward]
  // MeetingNode: SELECT nid FROM TVisited WHERE d2s+d2t = :min_cost.
  ExecRef meeting_plan_;
  Tuple meeting_row_;
};

/// Schema of the materialized E-operator output ("create view ek ...").
Schema ExpansionSchema();

// ----- The FEM operator plans, defined once ----------------------------
// Shortest paths (FemEngine), SegTable construction and maintenance, and
// Prim's MST all read and mark their open set through OpenSet (the
// F-operator, src/core/open_set.h), build their E-operator from EdgeJoin +
// DedupLeast and their M-operator from MergeRows.

/// E-operator join: `outer` JOIN `table` ON outer.`probe_column` =
/// table.`column` [AND `residual`]. An index nested-loop join when `table`
/// is indexed on `column`; otherwise (the NoIndex strategy) a nested-loop
/// join over one full scan of `table`, keyed on `column`.
ExecRef EdgeJoin(ExecRef outer, Table* table, const std::string& column,
                 const std::string& probe_column, ExprRef residual = nullptr);

/// The same join against `rel` on its join column. A relation on shards
/// joins through its `shard_join`, which gets outer's `dist_column` and
/// `bound`, evaluated at each Init, so the shards ship only rows with
/// dist + cost < bound, combined per emitted node; `residual` still
/// filters the rows it yields.
ExecRef EdgeJoin(ExecRef outer, const EdgeRelation& rel,
                 const std::string& probe_column,
                 const std::string& dist_column, ExprRef bound,
                 ExprRef residual);

/// E-operator dedup (Definition 2), prepared: keeps, per value of column
/// `key`, the row with the least (`cost`, `tie`), in `key` order with the
/// schema of the input plan's output. `plan` builds the input; it is
/// called when the operator is built, and every Run re-Init()s what it
/// built, so a caller that runs the dedup every round builds it once.
///  - kNsql: row_number() OVER (PARTITION BY key ORDER BY cost, tie) = 1.
///  - kTsql: GROUP BY key with MIN(cost), then a second run of the input
///    (a second `plan()`) re-joined to the group minima; ties on cost keep
///    the least `tie`.
class DedupLeast {
 public:
  DedupLeast(SqlMode mode, const std::function<ExecRef()>& plan,
             const std::string& key, const std::string& cost,
             const std::string& tie);
  ~DedupLeast();

  /// InvalidArgument when `key`, `cost` or `tie` is not an input column;
  /// Run returns it too.
  const Status& status() const { return status_; }
  const Schema& schema() const { return schema_; }

  /// Runs the dedup. Its rows are rows()[0..size()), valid until the next
  /// Run, which overwrites them in place.
  Status Run();
  const std::vector<Tuple>& rows() const { return rows_; }
  size_t size() const { return size_; }

 private:
  SqlMode mode_;
  Schema schema_;
  Status status_;
  ExecRef nsql_;   // kNsql: window -> rownum = 1 -> projection
  ExecRef agg_;    // kTsql: GROUP BY key, MIN(cost) over one input run
  ExecRef again_;  // kTsql: the second input run
  size_t key_idx_ = 0, cost_idx_ = 0, tie_idx_ = 0;
  std::vector<Tuple> rows_;
  size_t size_ = 0;
  // kTsql, per run: (key, MIN(cost)) per group in key order, and whether
  // the group's slot in rows_ holds a row yet.
  std::vector<std::pair<int64_t, int64_t>> minima_;
  std::vector<char> taken_;
};

/// M-operator, prepared: merges rows with `schema` (one per `spec`'s
/// source key) into `target`. NSQL on an engine with MERGE runs `spec` as
/// one MERGE. Otherwise (TSQL, or the PostgreSQL 9.0 profile) it runs the
/// matched branch as an UPDATE, records the second statement, then runs
/// the not-matched branch as an INSERT. Built once; Run re-runs it.
class MergeRows {
 public:
  MergeRows(Database* db, SqlMode mode, Table* target, const Schema& schema,
            MergeSpec spec);
  ~MergeRows();

  /// The first failing MergePlan's status; Run returns it too.
  const Status& status() const;

  /// Merges rows[0..n); `affected` counts updated + inserted rows.
  Status Run(const Tuple* rows, size_t n, int64_t* affected);

 private:
  Database* db_;
  std::unique_ptr<MergePlan> merge_;   // the MERGE, or the UPDATE half
  std::unique_ptr<MergePlan> insert_;  // the INSERT half; null with MERGE
};

}  // namespace relgraph
