#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/types/value.h"

namespace relgraph::sql {

// Abstract syntax of the dialect: exactly what the paper's Listings 1-4 use
// (window function, MERGE, scalar subqueries, derived tables) plus the DDL
// needed to stand the schema up. Owned trees via unique_ptr; the planner
// consumes the AST read-only.

struct SelectStmt;

// ----- Expressions ----------------------------------------------------------

enum class ExprKind {
  kLiteral,     // 42, 3.5, 'text', NULL
  kColumnRef,   // nid or q.nid
  kParameter,   // :lb
  kUnary,       // NOT e, -e
  kBinary,      // e + e, e AND e, e = e ...
  kFuncCall,    // MIN(e), COUNT(*), ROW_NUMBER() OVER (...)
  kSubquery,    // (SELECT ...) as a scalar value
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnaryOp { kNot, kNeg };

const char* BinaryOpName(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct OrderItem;  // defined below (needs Expr)

/// OVER (PARTITION BY cols ORDER BY keys) — only ROW_NUMBER is supported,
/// which is the one window function the paper's E-operator needs.
struct WindowSpec {
  std::vector<ExprPtr> partition_by;
  std::vector<std::unique_ptr<OrderItem>> order_by;
};

struct Expr {
  ExprKind kind;

  // kLiteral
  relgraph::Value literal;

  // kColumnRef: qualifier empty for unqualified names.
  std::string qualifier;
  std::string column;

  // kParameter
  std::string param_name;

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kAdd;
  ExprPtr left;   // also the unary operand
  ExprPtr right;

  // kFuncCall: name upper-cased (MIN/MAX/SUM/COUNT/ROW_NUMBER).
  std::string func_name;
  std::vector<ExprPtr> args;
  bool star_arg = false;                 // COUNT(*)
  std::unique_ptr<WindowSpec> window;    // non-null => window function

  // kSubquery
  std::unique_ptr<SelectStmt> subquery;

  /// Round-trippable rendering, used by tests and error messages.
  std::string ToString() const;
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

// ----- SELECT ---------------------------------------------------------------

struct SelectItem {
  ExprPtr expr;       // null => bare `*`
  std::string alias;  // optional AS name
};

enum class FromKind { kTable, kSubquery };

struct FromItem {
  FromKind kind = FromKind::kTable;
  std::string table_name;                  // kTable
  std::unique_ptr<SelectStmt> subquery;    // kSubquery
  std::string alias;                       // optional for tables
  /// Optional derived-column list: `tmp (nid, p2s, cost, rownum)`.
  std::vector<std::string> column_aliases;
};

struct SelectStmt {
  bool distinct = false;
  std::optional<int64_t> top;    // SELECT TOP n
  std::vector<SelectItem> items;
  std::vector<FromItem> from;    // empty => SELECT without FROM
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  std::vector<std::unique_ptr<OrderItem>> order_by;
  std::optional<int64_t> limit;  // LIMIT n

  std::string ToString() const;
};

// ----- DML ------------------------------------------------------------------

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;        // empty => full row order
  std::vector<std::vector<ExprPtr>> rows;  // VALUES (...), (...)
  std::unique_ptr<SelectStmt> select;      // INSERT ... SELECT
};

struct SetItem {
  std::string column;
  ExprPtr expr;
};

struct UpdateStmt {
  std::string table;
  std::vector<SetItem> sets;
  ExprPtr where;  // null => all rows
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;
};

/// MERGE INTO target [AS] t USING <table | (subquery)> [AS] s [(cols)]
/// ON (t.k = s.k)
/// WHEN MATCHED [AND cond] THEN UPDATE SET ...
/// WHEN NOT MATCHED [BY TARGET] THEN INSERT [(cols)] VALUES (...)
struct MergeStmt {
  std::string target_table;
  std::string target_alias;  // defaults to table name
  FromItem source;           // table or subquery, with alias/column aliases
  ExprPtr on;
  ExprPtr matched_condition;       // optional extra AND after MATCHED
  std::vector<SetItem> matched_sets;
  std::vector<std::string> insert_columns;  // empty => full row order
  std::vector<ExprPtr> insert_values;
  bool has_matched_clause = false;
  bool has_not_matched_clause = false;
};

// ----- DDL ------------------------------------------------------------------

struct ColumnDef {
  std::string name;
  relgraph::TypeId type;
};

struct CreateTableStmt {
  std::string table;
  std::vector<ColumnDef> columns;
  /// CLUSTER BY (col) [UNIQUE]: rows live in a clustered B+-tree.
  std::string cluster_by;
  bool cluster_unique = false;
};

/// CREATE [UNIQUE] INDEX [name] ON table (col [, col ...]): one column is
/// a secondary index, two an open tree (flag, dist); the planner rejects
/// any other form.
struct CreateIndexStmt {
  std::string index_name;  // DROP INDEX resolves on it
  std::string table;
  std::vector<std::string> columns;
  bool unique = false;
};

struct DropTableStmt {
  std::string table;
};

/// DROP INDEX <name> ON <table>; resolved by index name, falling back to
/// the indexed column (the engine keys indexes by column).
struct DropIndexStmt {
  std::string index_name;
  std::string table;
};

struct TruncateStmt {
  std::string table;
};

// ----- Statement ------------------------------------------------------------

enum class StmtKind {
  kSelect, kInsert, kUpdate, kDelete, kMerge,
  kCreateTable, kCreateIndex, kDropTable, kDropIndex, kTruncate,
};

struct Statement {
  StmtKind kind;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<MergeStmt> merge;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<DropTableStmt> drop_table;
  std::unique_ptr<DropIndexStmt> drop_index;
  std::unique_ptr<TruncateStmt> truncate;
};

}  // namespace relgraph::sql
