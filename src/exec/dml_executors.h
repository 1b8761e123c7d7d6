#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/catalog/table.h"
#include "src/exec/executor.h"
#include "src/exec/expression.h"
#include "src/exec/scan_executors.h"

namespace relgraph {

/// Invoked by MERGE once per row it inserts or updates, with the row's
/// post-image in the table schema. VisitedTable subscribes to keep
/// MIN(d2s+d2t) exact without re-scanning (distances only fall within a
/// query, so the post-images suffice).
using RowChangeObserver = std::function<void(const Tuple& new_row)>;

/// Data-modification statements. Each reports the number of affected rows —
/// the engine's equivalent of the SQL communication area (SQLCA) the paper's
/// Algorithm 1 polls to detect termination ("if the number of affected
/// tuples is 0 then break").

/// INSERT INTO table SELECT ... ; source schema must be type-compatible.
Status InsertFromExecutor(Table* table, Executor* source, int64_t* inserted);

/// One `column = expr` of an UPDATE's SET list (or of MERGE's matched
/// branch).
struct SetClause {
  std::string column;
  ExprRef expr;
};

/// A prepared UPDATE or DELETE: scans its candidate rows, matches them
/// against `predicate` (null: all of them) and updates or deletes the
/// matches. SQL UPDATE and DELETE statements, VisitedTable's frontier
/// marks and the SegTable and Prim rounds all run through one, built once
/// and re-run: values that change between runs reach the expressions
/// through Param nodes. The predicate and SET expressions
/// are bound to the table's schema once, and every buffer — the scanned
/// rows, the matched rows' pre- and post-images, the SET columns —
/// persists across runs (row buffers cut back to kRetainedSlots after
/// each), so a warm plan allocates nothing while it touches at most that
/// many rows.
class UpdatePlan {
 public:
  /// UPDATE `table` SET `sets` WHERE `predicate`, over the candidates
  /// `probe` selects. SET expressions are evaluated against the *old* row.
  UpdatePlan(Table* table, ExprRef predicate, std::vector<SetClause> sets,
             KeyProbe probe = {});

  /// DELETE FROM `table` WHERE `predicate`: the same scan and match, with
  /// every matched row removed instead of rewritten.
  static std::unique_ptr<UpdatePlan> Delete(Table* table, ExprRef predicate,
                                            KeyProbe probe = {});

  /// InvalidArgument when the predicate or a SET clause names a column the
  /// table lacks; Run returns it too.
  const Status& status() const { return status_; }

  /// Runs the statement over the candidates its probe selects (every row
  /// for an empty probe); `affected` counts the matched rows. A NULL probe
  /// key matches no row, so the table is not read.
  Status Run(int64_t* affected);

  /// Runs it over the rows `candidates` yields (a Table::Scan or ScanRange
  /// iterator of the table) instead. The matches are collected before any
  /// is written, so the scan is stable under row movement.
  Status Run(Table::Iterator* candidates, int64_t* affected);

 private:
  Table* table_;
  ExprRef predicate_;                               // bound; may be null
  std::vector<std::pair<size_t, ExprRef>> sets_;    // (slot, bound expr)
  KeyProbe probe_;
  bool delete_ = false;
  Status status_;
  // Per-run buffers, kept for the next run.
  Table::Iterator candidates_;
  std::vector<Tuple> rows_;
  std::vector<RowRef> refs_;
  ValueColumn pred_scratch_;
  std::vector<char> keep_;
  std::vector<uint32_t> sel_;
  std::vector<ValueColumn> set_cols_;
  std::vector<RowRef> pending_refs_;
  std::vector<Tuple> pending_old_;  // first pending_refs_.size() are live
  std::vector<Tuple> pending_new_;
};

/// The SQL:2008 MERGE statement (paper §2.2, Listing 2(4)):
///
///   MERGE INTO target USING <source> ON target.<key_col> = source.<key_col>
///   WHEN MATCHED [AND <matched_condition>] THEN UPDATE SET ...
///   WHEN NOT MATCHED THEN INSERT VALUES (...)
///
/// The target must have a *unique* access path on `target_key_column`
/// (unique secondary index or unique cluster key); the probe per source row
/// is an index lookup, which is what makes one MERGE cheaper than the
/// update-statement-plus-insert-statement pair it replaces.
///
/// Expression namespaces: `matched_condition` and matched SET expressions
/// see the combined schema [t.<target cols>, s.<source cols>]; insert value
/// expressions see the plain source schema.
struct MergeSpec {
  std::string target_key_column;
  std::string source_key_column;
  ExprRef matched_condition;            // nullptr = always
  std::vector<SetClause> matched_sets;  // columns of the target
  std::vector<ExprRef> insert_values;   // one per target column
  RowChangeObserver observer;           // optional post-image notifications
};

/// A prepared MERGE of source rows with `source_schema` into `target`: a
/// SQL MERGE statement keeps one for its life, as the FEM M-operator
/// (MergeRows) does. Built once: the key slots are resolved, the matched
/// branch is bound to the combined [t.*, s.*] schema and the insert values
/// to the source schema. Whether the key probe uses an index is fixed
/// here too; an index created or dropped later needs a new plan. The
/// matched branch reads each (target row, source row) pair through a
/// RowView, so no joined row is built, and the target row, its post-image
/// and the inserted row live in slots the plan keeps: re-running it
/// allocates nothing once warm (on a target with a unique index on its
/// key; otherwise each run builds the hash-match side afresh).
class MergePlan {
 public:
  MergePlan(Table* target, const Schema& source_schema, MergeSpec spec);

  /// InvalidArgument for a key, SET or expression column that does not
  /// exist, or an insert list of the wrong arity; Run returns it too.
  const Status& status() const { return status_; }

  /// Merges `rows[0..n)`, already drained from the statement's source (the
  /// snapshot rule: the source reads the pre-statement target), one source
  /// row after another, each action seeing the previous ones' effects.
  Status Run(const Tuple* rows, size_t n, int64_t* affected);

  /// Drains `source`, whose output has the plan's source schema, into
  /// slots the plan keeps (CollectInto), then merges them as above. The
  /// whole source drains — in batch mode — before any action runs.
  Status Run(Executor* source, int64_t* affected);

 private:
  Table* target_;
  MergeSpec spec_;   // expressions bound
  size_t target_key_idx_ = 0;
  size_t source_key_idx_ = 0;
  std::vector<std::pair<size_t, ExprRef>> sets_;  // (target slot, expr)
  bool use_index_ = false;
  Status status_;
  Tuple existing_;  // the matched target row
  Tuple updated_;   // its post-image
  Tuple fresh_;     // the inserted row
  std::vector<Tuple> source_rows_;  // Run(Executor*)'s drained source
  // Hash-match side for a target without a unique index on the key.
  std::unordered_map<int64_t, std::pair<RowRef, Tuple>> hash_side_;
};

}  // namespace relgraph
