#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/catalog/table.h"
#include "src/exec/executor.h"
#include "src/exec/expression.h"

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

/// UPDATE table SET col=expr, ... WHERE predicate. Set expressions are
/// evaluated against the *old* row (table schema). A null predicate matches
/// every row.
struct SetClause {
  std::string column;
  ExprRef expr;
};
Status UpdateWhere(Table* table, ExprRef predicate,
                   const std::vector<SetClause>& sets, int64_t* affected);

/// UPDATE over the rows `candidates` yields (a Table::Scan or ScanRange
/// iterator of `table`) that satisfy `predicate` (null: all of them). The
/// other UPDATE plans are this over a full scan or a key range.
Status UpdateCandidates(Table* table, Table::Iterator candidates,
                        ExprRef predicate, const std::vector<SetClause>& sets,
                        int64_t* affected);

/// UPDATE over the key range `index_column OP key`: candidate rows come
/// from ScanRange(index_column, lo, hi) — an index probe when the column
/// is indexed, a filtered full scan otherwise — with `key`, a parameter or
/// scalar-subquery slot, evaluated when the statement *executes*, not when
/// it was planned. A NULL key matches no row; any other non-INT key falls
/// back to the full-scan plan and an overflowing bound to the full key
/// range; `predicate`, which includes `index_column OP key`, always
/// applies residually, so every execution stays equivalent to UpdateWhere.
Status UpdateWhereIndexedDynamic(Table* table, const std::string& index_column,
                                 CompareOp op, const ExprRef& key,
                                 ExprRef predicate,
                                 const std::vector<SetClause>& sets,
                                 int64_t* affected);

/// DELETE FROM table WHERE predicate.
Status DeleteWhere(Table* table, ExprRef predicate, int64_t* affected);

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

Status MergeInto(Table* target, Executor* source, const MergeSpec& spec,
                 int64_t* affected);

}  // namespace relgraph
