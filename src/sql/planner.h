#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/db/database.h"
#include "src/exec/bind_context.h"
#include "src/exec/dml_executors.h"
#include "src/exec/executor.h"
#include "src/exec/expression.h"
#include "src/sql/ast.h"

namespace relgraph::sql {

/// Named statement parameters (`:lb`, `:minCost`). The path-finding client
/// re-issues the same statement each iteration with fresh bindings,
/// exactly like a JDBC PreparedStatement — and since the planner compiles
/// parameters into BindContext slots, re-execution really is bind-only.
using SqlParams = std::map<std::string, relgraph::Value>;

/// Result of one statement: rows+schema for SELECT, affected-row count for
/// DML (the SQLCA reading the paper's Algorithm 1 polls), nothing for DDL.
struct SqlResult {
  int64_t affected = 0;
  relgraph::Schema schema;
  std::vector<relgraph::Tuple> rows;

  /// First column of the first row; NULL Value when the result is empty.
  relgraph::Value Scalar() const {
    if (rows.empty() || rows[0].NumValues() == 0) return relgraph::Value::Null();
    return rows[0].value(0);
  }
};

/// One compiled, parameterized physical statement — what Prepare()
/// produces and Execute(params) re-runs. Compilation folds parse-time
/// constants but keeps `:params` and scalar subqueries as BindContext
/// slot reads, so the plan outlives any single execution:
///
///   bind:    write parameter Values into `ctx`, run each entry of
///            `subqueries` and write its scalar into its slot;
///   execute: Init + drain `root` (SELECT) or re-run the prepared DML
///            plan (`update`, `merge`) — a runtime key becomes its probe
///            range when the plan opens (RuntimeKeyRange, for index range
///            scans and UPDATE/DELETE alike).
///
/// DDL kinds compile to just their statement kind and re-execute from the
/// AST (there is no plan worth caching; DDL invalidates plans instead).
struct PreparedPlan {
  StmtKind kind = StmtKind::kSelect;

  /// Runtime slots the plan's Param()/BoundSlot() expressions read.
  /// Behind a unique_ptr: expressions capture the context's address.
  std::unique_ptr<relgraph::BindContext> ctx;

  /// Scalar-subquery plans, evaluated into their slots at bind time in
  /// registration order (inner subqueries register before the outer
  /// expressions that contain them, so dependencies are always ready).
  struct SubqueryPlan {
    size_t slot;
    relgraph::ExecRef plan;
  };
  std::vector<SubqueryPlan> subqueries;

  /// SELECT pipeline; also the shaped INSERT..SELECT source and the
  /// MERGE source.
  relgraph::ExecRef root;

  relgraph::Table* table = nullptr;  // DML target

  // INSERT ... VALUES: one full-table-width expression row per tuple
  // (missing columns filled with NULL literals); evaluated and coerced
  // per execution.
  std::vector<std::vector<relgraph::ExprRef>> insert_rows;
  bool insert_from_select = false;

  /// UPDATE / DELETE: the prepared scan-and-match plan, over the key
  /// range of its sargable conjunct when it has one.
  std::unique_ptr<relgraph::UpdatePlan> update;

  /// MERGE: the prepared merge of the rows `root` yields.
  std::unique_ptr<relgraph::MergePlan> merge;
};

/// Binds one execution's values: named parameters from `params` (every
/// registered name must be present), then the scalar subqueries in
/// registration order.
Status BindPreparedPlan(PreparedPlan* plan, const SqlParams& params);

/// Runs a bound plan, materializing SELECT output into `result`. DDL
/// kinds re-execute from `ast` through Planner::ExecuteDdl.
Status ExecutePreparedPlan(Database* db, const Statement& ast,
                           PreparedPlan* plan, SqlResult* result);

/// Translates one parsed Statement into a PreparedPlan: executor
/// pipelines for SELECT, prepared DML plans (an INSERT's rows or source,
/// UpdatePlan for UPDATE and DELETE, MergePlan) for writes, catalog calls
/// for DDL. Every plan is built here once and re-run by each execution.
///
/// Scope rules (deliberately the subset the paper's listings exercise):
///  - FROM lists join left-to-right; a WHERE conjunct whose columns all
///    come from one item filters that item before it joins, and a base
///    table's filters pick its access path (ChooseAccessPath, which
///    UPDATE and DELETE share). An equality conjunct that links the
///    accumulated plan to an indexed column of the next base table turns
///    that step into an index nested-loop join (the plan the paper's RDBMS
///    optimizer picks for the E-operator), else an INT equality keys the join.
///  - Scalar subqueries (uncorrelated only) compile to their own plans,
///    evaluated at bind time — the paper's
///    `d2s = (select min(d2s) from TVisited where f = 0)` re-evaluates on
///    every execution of the prepared statement, and as a constant of that
///    execution it can key a probe.
///  - Window: one ROW_NUMBER() OVER (...) per SELECT.
///  - Aggregate queries: every select item is an aggregate call or a
///    GROUP BY column. The MIN rule: `MIN(col)` over one base table, with
///    no GROUP BY, whose chosen probe reads `col` in order reads only its
///    first row that passes the WHERE (with no usable conjunct, an index on
///    `col` is read from its first entry).
///  - CREATE INDEX on one INT column builds a secondary index; on two,
///    (flag, dist), the table's open tree (Table::CreateOpenIndex).
class Planner {
 public:
  explicit Planner(Database* db) : db_(db) {}

  /// Compiles `stmt` into `out` (whose BindContext the compiled
  /// expressions reference — `out` must not be re-seated afterwards).
  Status Compile(const Statement& stmt, PreparedPlan* out);

  /// Executes a DDL / TRUNCATE statement from its AST, bumping the
  /// catalog version for schema-changing kinds so cached plans re-plan.
  Status ExecuteDdl(const Statement& stmt);

 private:
  struct FromPlan {
    ExecRef plan;            // null for base tables until materialized
    Table* base_table = nullptr;
    std::string alias;       // effective alias (explicit or table name)
    Schema prefixed_schema;  // alias-qualified column names
  };

  Status CompileInsert(const InsertStmt& ins);
  /// UPDATE (SET `set_items`) or DELETE (`is_delete`): one UpdatePlan,
  /// over the key range of a sargable WHERE conjunct when there is one.
  Status CompileUpdateOrDelete(const std::string& table_name,
                               const std::vector<SetItem>& set_items,
                               const Expr* where_expr, bool is_delete);
  Status CompileMerge(const MergeStmt& m);
  Status ExecuteCreateTable(const CreateTableStmt& ct);
  Status ExecuteCreateIndex(const CreateIndexStmt& ci);
  Status ExecuteDropIndex(const DropIndexStmt& di);

  /// Builds the executor pipeline for a SELECT without running it.
  Status PlanSelect(const SelectStmt& sel, ExecRef* out);

  /// FROM + WHERE: pushes single-item conjuncts onto their item, turns one
  /// `col = col` conjunct per join step into its key, and filters the
  /// joined rows by the rest. Applies the MIN rule.
  Status PlanFrom(const SelectStmt& sel, ExecRef* out);
  Status PlanFromItem(const FromItem& item, FromPlan* out);

  /// The one access-path choice, shared by SELECT's base-table scans and
  /// UPDATE/DELETE. Binds `conjuncts` against `bind_schema` into `bound`
  /// (all of them re-apply residually, so every plan stays exactly
  /// equivalent to a full scan) and sets `probe` from the sargable ones —
  /// `col OP <row-independent expr>`, OP in {=, <=, <, >=, >}, the column
  /// resolved in `table`'s schema (its qualifier honored only when
  /// `use_qualifier`), a plan-time constant only when it yields an INT
  /// range. In order of preference:
  ///  1. `flag = <INT literal>` plus a conjunct on the dist column of an
  ///     open tree (flag, dist): one two-column probe, over the dist
  ///     equality when there is one, else the first dist range;
  ///  2. the first equality on an indexed column, or `flag = <INT
  ///     literal>` alone, which its open tree serves over every dist;
  ///  3. the first range on an indexed column;
  ///  4. the whole range of `order_column` when it is indexed.
  /// Otherwise the probe stays empty: a full scan.
  Status ChooseAccessPath(const std::vector<const Expr*>& conjuncts,
                          const Schema& bind_schema, Table* table,
                          bool use_qualifier, const std::string& order_column,
                          KeyProbe* probe, std::vector<ExprRef>* bound);

  /// AST expression -> runtime expression against `schema`. Parameters
  /// and scalar subqueries register slots on the plan under compilation.
  /// MERGE actions bind here too, against MergePlan's combined row.
  Status BindExpr(const Expr& e, const Schema& schema, ExprRef* out);
  /// Resolves a (qualifier, column) reference to the schema's column name.
  /// While a MERGE action binds, the statement's target alias resolves to
  /// "t." and its source alias to "s.".
  Status ResolveColumn(const std::string& qualifier, const std::string& column,
                       const Schema& schema, std::string* resolved) const;

  Status FindTable(const std::string& name, Table** out) const;

  Database* db_;
  PreparedPlan* plan_ = nullptr;  // current compile target
  const MergeStmt* merge_ = nullptr;  // set while MERGE actions bind
};

}  // namespace relgraph::sql
