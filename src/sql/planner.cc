#include "src/sql/planner.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <utility>

#include "src/exec/agg_executors.h"
#include "src/exec/dml_executors.h"
#include "src/exec/join_executors.h"
#include "src/exec/scan_executors.h"
#include "src/exec/sort_executor.h"
#include "src/exec/window_executor.h"

namespace relgraph::sql {

namespace {

bool CiEquals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Unqualified part of a (possibly alias-prefixed) schema column name.
std::string Suffix(const std::string& name) {
  size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

/// Flattens a WHERE clause into its top-level AND conjuncts.
void FlattenAnd(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    FlattenAnd(e->left.get(), out);
    FlattenAnd(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

bool IsAggregateName(const std::string& f) {
  return f == "MIN" || f == "MAX" || f == "SUM" || f == "COUNT";
}

/// True when `pred` holds at `e` or at any node below it. A scalar
/// subquery is a leaf: the walk never enters its SELECT.
template <typename Pred>
bool AnyNode(const Expr& e, const Pred& pred) {
  if (pred(e)) return true;
  if (e.left != nullptr && AnyNode(*e.left, pred)) return true;
  if (e.right != nullptr && AnyNode(*e.right, pred)) return true;
  for (const auto& a : e.args) {
    if (a != nullptr && AnyNode(*a, pred)) return true;
  }
  return false;
}

/// True when `e` reads a column of the current row (a scalar subquery does
/// not: the engine has no correlated subqueries, so it evaluates to a
/// row-independent constant).
bool ReadsRowColumns(const Expr& e) {
  return AnyNode(e, [](const Expr& n) {
    return n.kind == ExprKind::kColumnRef;
  });
}

/// Comparisons an index probe can serve (everything but <>).
bool IsSargableCmpOp(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kLe || op == BinaryOp::kLt ||
         op == BinaryOp::kGe || op == BinaryOp::kGt;
}

/// A conjunct shaped `col OP expr` / `expr OP col` with exactly one
/// column-reference side — the candidate shape for sargable extraction.
bool IsSargShaped(const Expr& e) {
  return e.kind == ExprKind::kBinary && IsSargableCmpOp(e.binary_op) &&
         (e.left->kind == ExprKind::kColumnRef) !=
             (e.right->kind == ExprKind::kColumnRef);
}

/// The runtime comparison for an AST comparison operator.
CompareOp ToCompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kNe: return CompareOp::kNe;
    case BinaryOp::kLe: return CompareOp::kLe;
    case BinaryOp::kLt: return CompareOp::kLt;
    case BinaryOp::kGe: return CompareOp::kGe;
    case BinaryOp::kGt: return CompareOp::kGt;
    default: return CompareOp::kEq;
  }
}

/// Normalizes `k OP col` onto `col OP' k` by flipping the inequality.
CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    default: return op;  // = / <> are symmetric
  }
}

/// True when the expression's value depends on execution-time bindings —
/// a `:param` or a scalar subquery anywhere in the tree. Such values
/// cannot fold at compile time; index bounds over them are evaluated at
/// open instead.
bool HasRuntimeSlots(const Expr& e) {
  return AnyNode(e, [](const Expr& n) {
    return n.kind == ExprKind::kParameter || n.kind == ExprKind::kSubquery;
  });
}

/// True when the expression contains a plain (non-window) aggregate call.
bool ContainsAggregate(const Expr& e) {
  return AnyNode(e, [](const Expr& n) {
    return n.kind == ExprKind::kFuncCall && n.window == nullptr &&
           IsAggregateName(n.func_name);
  });
}

/// The column argument of a SELECT shaped `select min(col) from <table>
/// [where ...]` (no GROUP BY or DISTINCT), or null for any other shape.
const Expr* MinRuleColumn(const SelectStmt& sel) {
  if (sel.from.size() != 1 || sel.from[0].kind != FromKind::kTable ||
      !sel.group_by.empty() || sel.distinct || sel.items.size() != 1 ||
      sel.items[0].expr == nullptr) {
    return nullptr;
  }
  const Expr& e = *sel.items[0].expr;
  if (e.kind != ExprKind::kFuncCall || e.func_name != "MIN" ||
      e.window != nullptr || e.star_arg || e.args.size() != 1 ||
      e.args[0]->kind != ExprKind::kColumnRef) {
    return nullptr;
  }
  return e.args[0].get();
}

/// The first window function call in `e`, or null.
const Expr* FindWindowCall(const Expr& e) {
  const Expr* found = nullptr;
  AnyNode(e, [&found](const Expr& n) {
    if (n.kind == ExprKind::kFuncCall && n.window != nullptr) found = &n;
    return found != nullptr;
  });
  return found;
}

/// True when every column the expression touches resolves in `schema`.
/// Used to decide whether a WHERE conjunct can be pushed below a join. A
/// scalar subquery is uncorrelated, so it is a constant of the execution.
bool AllRefsResolveIn(const Expr& e, const Schema& schema,
                      const std::string& alias) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kParameter:
    case ExprKind::kSubquery:
      return true;
    case ExprKind::kColumnRef: {
      if (!e.qualifier.empty() && !CiEquals(e.qualifier, alias)) return false;
      std::string full =
          e.qualifier.empty() ? e.column : e.qualifier + "." + e.column;
      for (const auto& c : schema.columns()) {
        if (CiEquals(c.name, full) || CiEquals(Suffix(c.name), e.column)) {
          return true;
        }
      }
      return false;
    }
    case ExprKind::kUnary:
      return AllRefsResolveIn(*e.left, schema, alias);
    case ExprKind::kBinary:
      return AllRefsResolveIn(*e.left, schema, alias) &&
             AllRefsResolveIn(*e.right, schema, alias);
    case ExprKind::kFuncCall:
      if (e.window != nullptr || IsAggregateName(e.func_name)) return false;
      for (const auto& a : e.args) {
        if (!AllRefsResolveIn(*a, schema, alias)) return false;
      }
      return true;
  }
  return false;
}

/// Best-effort output type for a projected expression (column types are
/// advisory in this engine; values carry their own type at runtime).
TypeId InferType(const Expr& e, const Schema& schema) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal.IsNull() ? TypeId::kInt : e.literal.type();
    case ExprKind::kColumnRef: {
      // Exact, then unqualified-suffix match; fall back to INT.
      std::string full =
          e.qualifier.empty() ? e.column : e.qualifier + "." + e.column;
      for (const auto& c : schema.columns()) {
        if (CiEquals(c.name, full)) return c.type;
      }
      for (const auto& c : schema.columns()) {
        if (CiEquals(Suffix(c.name), e.column)) return c.type;
      }
      return TypeId::kInt;
    }
    case ExprKind::kParameter:
      return TypeId::kInt;
    case ExprKind::kUnary:
      return e.unary_op == UnaryOp::kNeg ? InferType(*e.left, schema)
                                         : TypeId::kInt;
    case ExprKind::kBinary:
      switch (e.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv: {
          TypeId l = InferType(*e.left, schema);
          TypeId r = InferType(*e.right, schema);
          return (l == TypeId::kDouble || r == TypeId::kDouble)
                     ? TypeId::kDouble
                     : TypeId::kInt;
        }
        default:
          return TypeId::kInt;  // comparisons and logic yield 0/1
      }
    case ExprKind::kFuncCall:
      if (e.func_name == "COUNT" || e.func_name == "ROW_NUMBER" ||
          e.func_name == "IS_NULL" || e.func_name == "IS_NOT_NULL") {
        return TypeId::kInt;
      }
      if (!e.args.empty()) return InferType(*e.args[0], schema);
      return TypeId::kInt;
    case ExprKind::kSubquery:
      return TypeId::kInt;
  }
  return TypeId::kInt;
}

/// Output column name for a select item: alias first, then the bare column
/// name for plain references, then a positional fallback.
std::string ItemName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr) {
    if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
    if (item.expr->kind == ExprKind::kFuncCall) {
      std::string lower = item.expr->func_name;
      for (char& c : lower) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      return lower;
    }
  }
  return "col" + std::to_string(index + 1);
}

Status CoerceValue(const Value& v, TypeId target, Value* out) {
  if (v.IsNull()) {
    *out = Value::Null();
    return Status::OK();
  }
  if (v.type() == target) {
    *out = v;
    return Status::OK();
  }
  if (v.type() == TypeId::kInt && target == TypeId::kDouble) {
    *out = Value(static_cast<double>(v.AsInt()));
    return Status::OK();
  }
  return Status::InvalidArgument(std::string("cannot store ") +
                                 TypeName(v.type()) + " into " +
                                 TypeName(target) + " column");
}

}  // namespace

// ----- entry -----------------------------------------------------------------

Status Planner::Compile(const Statement& stmt, PreparedPlan* out) {
  out->kind = stmt.kind;
  out->ctx = std::make_unique<BindContext>();
  plan_ = out;
  Status s;
  switch (stmt.kind) {
    case StmtKind::kSelect:
      s = PlanSelect(*stmt.select, &out->root);
      break;
    case StmtKind::kInsert:
      s = CompileInsert(*stmt.insert);
      break;
    case StmtKind::kUpdate:
      s = CompileUpdateOrDelete(stmt.update->table, stmt.update->sets,
                                stmt.update->where.get(),
                                /*is_delete=*/false);
      break;
    case StmtKind::kDelete:
      s = CompileUpdateOrDelete(stmt.del->table, {}, stmt.del->where.get(),
                                /*is_delete=*/true);
      break;
    case StmtKind::kMerge:
      s = CompileMerge(*stmt.merge);
      break;
    case StmtKind::kCreateTable:
    case StmtKind::kCreateIndex:
    case StmtKind::kDropTable:
    case StmtKind::kDropIndex:
    case StmtKind::kTruncate:
      // DDL keeps no plan; ExecutePreparedPlan re-runs it from the AST
      // (name resolution happens at execution, matching ad-hoc DDL).
      s = Status::OK();
      break;
  }
  plan_ = nullptr;
  merge_ = nullptr;
  return s;
}

Status Planner::ExecuteDdl(const Statement& stmt) {
  switch (stmt.kind) {
    case StmtKind::kCreateTable:
      return ExecuteCreateTable(*stmt.create_table);
    case StmtKind::kCreateIndex:
      return ExecuteCreateIndex(*stmt.create_index);
    case StmtKind::kDropTable:
      // Catalog::DropTable bumps the version itself.
      return db_->catalog()->DropTable(stmt.drop_table->table);
    case StmtKind::kDropIndex:
      return ExecuteDropIndex(*stmt.drop_index);
    case StmtKind::kTruncate: {
      // Data-only: rows vanish but the schema (and thus every compiled
      // plan) stays valid — no version bump.
      Table* t = nullptr;
      RELGRAPH_RETURN_IF_ERROR(FindTable(stmt.truncate->table, &t));
      return t->Truncate();
    }
    default:
      return Status::Internal("ExecuteDdl called on a non-DDL statement");
  }
}

Status Planner::FindTable(const std::string& name, Table** out) const {
  Table* t = db_->catalog()->GetTable(name);
  if (t == nullptr) {
    for (const std::string& n : db_->catalog()->TableNames()) {
      if (CiEquals(n, name)) {
        t = db_->catalog()->GetTable(n);
        break;
      }
    }
  }
  if (t == nullptr) return Status::NotFound("no table named " + name);
  *out = t;
  return Status::OK();
}

// ----- access-path choice ----------------------------------------------------

Status Planner::ChooseAccessPath(const std::vector<const Expr*>& conjuncts,
                                 const Schema& bind_schema, Table* table,
                                 bool use_qualifier,
                                 const std::string& order_column,
                                 KeyProbe* probe,
                                 std::vector<ExprRef>* bound) {
  // A sargable conjunct `col OP <row-independent expr>`, normalized to the
  // column on the left; `flag` holds the key of a `col = <INT literal>`,
  // the only key an open tree's flag takes.
  struct Candidate {
    std::string column;
    CompareOp op;
    ExprRef key;
    std::optional<int64_t> flag;
  };
  std::vector<Candidate> cands;
  for (const Expr* c : conjuncts) {
    if (!IsSargShaped(*c)) {
      ExprRef b;
      RELGRAPH_RETURN_IF_ERROR(BindExpr(*c, bind_schema, &b));
      bound->push_back(std::move(b));
      continue;
    }
    // Each side binds once: a scalar subquery registers one slot, which
    // the residual comparison and the probe key share.
    const bool col_on_left = c->left->kind == ExprKind::kColumnRef;
    const Expr& col_side = col_on_left ? *c->left : *c->right;
    const Expr& const_side = col_on_left ? *c->right : *c->left;
    ExprRef l, r;
    RELGRAPH_RETURN_IF_ERROR(BindExpr(*c->left, bind_schema, &l));
    RELGRAPH_RETURN_IF_ERROR(BindExpr(*c->right, bind_schema, &r));
    const ExprRef key = col_on_left ? r : l;
    bound->push_back(Cmp(ToCompareOp(c->binary_op), std::move(l), std::move(r)));
    std::string column;
    if (ReadsRowColumns(const_side) ||
        !ResolveColumn(use_qualifier ? col_side.qualifier : std::string(),
                       col_side.column, table->schema(), &column)
             .ok()) {
      continue;
    }
    CompareOp op = ToCompareOp(c->binary_op);
    if (!col_on_left) op = FlipCompare(op);
    // The executor computes the bounds at open, so a key over `:params` /
    // scalar-subquery slots sees each execution's bindings. A plan-time
    // constant (folded to a literal during binding, so this Evaluate is
    // free) qualifies only when it yields an INT range; otherwise the
    // conjunct only filters.
    if (!HasRuntimeSlots(const_side)) {
      Value v = key->Evaluate(Tuple{});
      int64_t lo, hi;
      if (v.type() != TypeId::kInt || !KeyRangeFor(op, v.AsInt(), &lo, &hi)) {
        continue;
      }
    }
    Candidate cand{std::move(column), op, key, std::nullopt};
    if (op == CompareOp::kEq && const_side.kind == ExprKind::kLiteral &&
        const_side.literal.type() == TypeId::kInt) {
      cand.flag = const_side.literal.AsInt();
    }
    cands.push_back(std::move(cand));
  }

  // 1. `flag = k` and a conjunct on its open tree's dist: one two-column
  //    probe, over the dist equality when there is one.
  for (const Candidate& f : cands) {
    const std::string tree_dist =
        f.flag.has_value() ? table->OpenTreeDist(f.column) : std::string();
    if (tree_dist.empty()) continue;
    const Candidate* dist = nullptr;
    for (const Candidate& d : cands) {
      if (d.column != tree_dist) continue;
      if (d.op == CompareOp::kEq) {
        dist = &d;
        break;
      }
      if (dist == nullptr) dist = &d;
    }
    if (dist != nullptr) {
      *probe = KeyProbe{.prefix_column = f.column,
                        .prefix = *f.flag,
                        .column = dist->column,
                        .op = dist->op,
                        .key = dist->key};
      return Status::OK();
    }
  }
  // 2, 3. The first equality, then the first range, on an indexed column;
  //    `flag = k` alone is an equality its open tree serves over the
  //    flag's whole dist range.
  for (const bool equality : {true, false}) {
    for (const Candidate& c : cands) {
      if (equality && c.op != CompareOp::kEq) continue;
      if (table->HasIndexOn(c.column)) {
        *probe = KeyProbe{.column = c.column, .op = c.op, .key = c.key};
        return Status::OK();
      }
      std::string dist =
          c.flag.has_value() ? table->OpenTreeDist(c.column) : std::string();
      if (!dist.empty()) {
        *probe = KeyProbe{.prefix_column = c.column,
                          .prefix = *c.flag,
                          .column = std::move(dist)};
        return Status::OK();
      }
    }
  }
  // 4. The whole range of an indexed `order_column`, read in its order.
  if (!order_column.empty() && table->HasIndexOn(order_column)) {
    *probe = KeyProbe{.column = order_column};
  }
  return Status::OK();
}

// ----- name resolution and expression binding --------------------------------

Status Planner::ResolveColumn(const std::string& qualifier,
                              const std::string& column, const Schema& schema,
                              std::string* resolved) const {
  std::string full = qualifier.empty() ? column : qualifier + "." + column;
  if (merge_ != nullptr && !qualifier.empty()) {
    // A MERGE action: the statement's aliases name MergePlan's "t."/"s.".
    if (CiEquals(qualifier, merge_->target_alias)) {
      full = "t." + column;
    } else if (CiEquals(qualifier, merge_->source.alias)) {
      full = "s." + column;
    } else {
      return Status::NotFound("unknown column " + full);
    }
  }
  for (const auto& c : schema.columns()) {
    if (CiEquals(c.name, full)) {
      *resolved = c.name;
      return Status::OK();
    }
  }
  if (!qualifier.empty()) {
    // `Table.col` against a plain (unprefixed) schema.
    for (const auto& c : schema.columns()) {
      if (CiEquals(c.name, column)) {
        *resolved = c.name;
        return Status::OK();
      }
    }
    return Status::NotFound("unknown column " + full);
  }
  // Unqualified: unique suffix match across prefixed names.
  const std::string* match = nullptr;
  for (const auto& c : schema.columns()) {
    if (CiEquals(Suffix(c.name), column)) {
      if (match != nullptr && !CiEquals(*match, c.name)) {
        return Status::InvalidArgument("ambiguous column " + column);
      }
      match = &c.name;
    }
  }
  if (match == nullptr) return Status::NotFound("unknown column " + column);
  *resolved = *match;
  return Status::OK();
}

Status Planner::BindExpr(const Expr& e, const Schema& schema, ExprRef* out) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      *out = Lit(e.literal);
      return Status::OK();
    case ExprKind::kColumnRef: {
      std::string resolved;
      RELGRAPH_RETURN_IF_ERROR(
          ResolveColumn(e.qualifier, e.column, schema, &resolved));
      *out = Col(std::move(resolved));
      return Status::OK();
    }
    case ExprKind::kParameter: {
      // Parse-once / bind-many: the parameter compiles to a slot read —
      // never a folded literal — so the plan re-executes with fresh
      // values without re-planning.
      size_t slot = plan_->ctx->AddNamedSlot(e.param_name);
      *out = Param(plan_->ctx.get(), slot, e.param_name);
      return Status::OK();
    }
    case ExprKind::kUnary: {
      ExprRef inner;
      RELGRAPH_RETURN_IF_ERROR(BindExpr(*e.left, schema, &inner));
      if (e.unary_op == UnaryOp::kNot) {
        *out = Not(std::move(inner));
      } else {
        *out = Sub(Lit(int64_t{0}), std::move(inner));
      }
      return Status::OK();
    }
    case ExprKind::kBinary: {
      ExprRef l, r;
      RELGRAPH_RETURN_IF_ERROR(BindExpr(*e.left, schema, &l));
      RELGRAPH_RETURN_IF_ERROR(BindExpr(*e.right, schema, &r));
      switch (e.binary_op) {
        case BinaryOp::kAdd: *out = Add(std::move(l), std::move(r)); break;
        case BinaryOp::kSub: *out = Sub(std::move(l), std::move(r)); break;
        case BinaryOp::kMul: *out = Mul(std::move(l), std::move(r)); break;
        case BinaryOp::kDiv: *out = Div(std::move(l), std::move(r)); break;
        case BinaryOp::kAnd: *out = And(std::move(l), std::move(r)); break;
        case BinaryOp::kOr: *out = Or(std::move(l), std::move(r)); break;
        default:
          *out = Cmp(ToCompareOp(e.binary_op), std::move(l), std::move(r));
      }
      return Status::OK();
    }
    case ExprKind::kFuncCall: {
      if (e.func_name == "IS_NULL" || e.func_name == "IS_NOT_NULL") {
        ExprRef inner;
        RELGRAPH_RETURN_IF_ERROR(BindExpr(*e.args[0], schema, &inner));
        *out = IsNull(std::move(inner), e.func_name == "IS_NOT_NULL");
        return Status::OK();
      }
      if (e.window != nullptr) {
        return Status::NotSupported(
            "window function allowed only as a top-level select item");
      }
      return Status::NotSupported(
          "aggregate " + e.func_name +
          " not allowed here (only in the select list of an aggregate query)");
    }
    case ExprKind::kSubquery: {
      // The subquery compiles to its own pipeline, evaluated into an
      // anonymous slot at *bind* time — once per execution, right before
      // the main plan opens. This keeps the paper's
      // `d2s = (select min(d2s) ...)` fresh across re-executions of a
      // prepared statement (the old planner folded it into the plan,
      // which is why no plan could outlive one execution).
      // Its columns resolve in its own FROM, never against a MERGE row.
      ExecRef sub;
      const MergeStmt* merge = std::exchange(merge_, nullptr);
      Status planned = PlanSelect(*e.subquery, &sub);
      merge_ = merge;
      RELGRAPH_RETURN_IF_ERROR(planned);
      if (sub->OutputSchema().NumColumns() != 1) {
        return Status::InvalidArgument(
            "scalar subquery must produce one column");
      }
      size_t slot = plan_->ctx->AddAnonymousSlot();
      plan_->subqueries.push_back({slot, std::move(sub)});
      *out = BoundSlot(plan_->ctx.get(), slot);
      return Status::OK();
    }
  }
  return Status::Internal("unhandled expression kind");
}

// ----- FROM ------------------------------------------------------------------

Status Planner::PlanFromItem(const FromItem& item, FromPlan* out) {
  if (item.kind == FromKind::kTable) {
    RELGRAPH_RETURN_IF_ERROR(FindTable(item.table_name, &out->base_table));
    out->alias = item.alias.empty() ? item.table_name : item.alias;
    if (!item.column_aliases.empty()) {
      return Status::NotSupported("column alias list on a base table");
    }
    out->prefixed_schema =
        PrefixSchema(out->base_table->schema(), out->alias + ".");
    return Status::OK();
  }
  // Derived table.
  ExecRef sub;
  RELGRAPH_RETURN_IF_ERROR(PlanSelect(*item.subquery, &sub));
  Schema sub_schema = sub->OutputSchema();
  std::vector<std::string> names;
  if (!item.column_aliases.empty()) {
    if (item.column_aliases.size() != sub_schema.NumColumns()) {
      return Status::InvalidArgument(
          "derived table column list arity mismatch: " + item.alias);
    }
    names = item.column_aliases;
  } else {
    names.reserve(sub_schema.NumColumns());
    for (const auto& c : sub_schema.columns()) names.push_back(Suffix(c.name));
  }
  for (auto& n : names) n = item.alias + "." + n;
  out->alias = item.alias;
  out->plan = std::make_unique<RenameExecutor>(std::move(sub), names);
  out->prefixed_schema = out->plan->OutputSchema();
  return Status::OK();
}

Status Planner::PlanFrom(const SelectStmt& sel, ExecRef* out) {
  std::vector<FromPlan> items;
  items.reserve(sel.from.size());
  for (const auto& fi : sel.from) {
    FromPlan fp;
    RELGRAPH_RETURN_IF_ERROR(PlanFromItem(fi, &fp));
    items.push_back(std::move(fp));
  }

  std::vector<const Expr*> conjuncts;
  FlattenAnd(sel.where.get(), &conjuncts);
  std::vector<bool> used(conjuncts.size(), false);

  // The MIN rule (SQLite's min/max optimization): `select min(col) from T
  // [where ...]` whose access path reads `col` in order needs only its
  // first row that passes the WHERE. NULLs have no index entry (an open
  // tree's domain has none), so that row holds the minimum; the aggregate
  // stays on top, so an empty input still yields one NULL row. The shape
  // has one from-item, so `min_column` is empty whenever FROM joins.
  std::string min_column;
  if (const Expr* arg = MinRuleColumn(sel)) {
    std::string resolved;
    if (ResolveColumn(arg->qualifier, arg->column, items[0].prefixed_schema,
                      &resolved)
            .ok()) {
      min_column = items[0].base_table->schema()
                       .column(items[0].prefixed_schema.Find(resolved))
                       .name;
    }
  }
  bool first_row_only = false;

  // Predicate pushdown: a conjunct whose columns all come from one from-item
  // filters that item before it joins (inner joins only, which is all this
  // dialect has). This is what makes `q.nid = :mid and q.f = 2` in the
  // E-operator statements scan a one-row frontier instead of all of
  // TVisited — the plan the paper credits the RDBMS optimizer with.
  std::vector<std::vector<size_t>> pushed(items.size());
  for (size_t c = 0; c < conjuncts.size(); c++) {
    for (size_t i = 0; i < items.size(); i++) {
      if (AllRefsResolveIn(*conjuncts[c], items[i].prefixed_schema,
                           items[i].alias)) {
        pushed[i].push_back(c);
        used[c] = true;
        break;
      }
    }
  }

  // Materialize a from-item as an executor with alias-prefixed columns and
  // its pushed filters applied. For base tables, ChooseAccessPath turns
  // the pushed conjuncts into an index range scan — the access path the
  // F/E-operator SELECTs (`... where f = 2`, `... where f = 0 and d2s =
  // (select min(d2s) ...)`) get from a real RDBMS optimizer, and the same
  // key range the native OpenSet reads. The conjuncts still filter
  // residually, so the plans stay exactly equivalent; with equal index
  // keys the scan order also matches the filtered full scan (index ties
  // break on scan position), keeping TOP-1 picks identical.
  auto materialize = [&](size_t idx, ExecRef* result) -> Status {
    FromPlan& fp = items[idx];
    const Schema& schema = fp.prefixed_schema;
    std::vector<ExprRef> filters;
    KeyProbe probe;
    if (fp.base_table != nullptr) {
      std::vector<const Expr*> own;
      for (size_t c : pushed[idx]) own.push_back(conjuncts[c]);
      RELGRAPH_RETURN_IF_ERROR(ChooseAccessPath(
          own, schema, fp.base_table, /*use_qualifier=*/false, min_column,
          &probe, &filters));
    } else {
      for (size_t c : pushed[idx]) {
        ExprRef bound;
        RELGRAPH_RETURN_IF_ERROR(BindExpr(*conjuncts[c], schema, &bound));
        filters.push_back(std::move(bound));
      }
    }

    ExecRef e;
    if (fp.plan != nullptr) {
      e = std::move(fp.plan);
    } else {
      ExecRef scan;
      if (!probe.column.empty()) {
        first_row_only = probe.column == min_column;
        // Bounds re-compute at every open of the (prepared) plan.
        scan = std::make_unique<IndexRangeScanExecutor>(
            fp.base_table, std::move(probe),
            first_row_only ? 1 : kFirstScanBatch);
      } else {
        scan = std::make_unique<SeqScanExecutor>(fp.base_table);
      }
      std::vector<std::string> names;
      for (const auto& c : fp.prefixed_schema.columns()) {
        names.push_back(c.name);
      }
      e = std::make_unique<RenameExecutor>(std::move(scan), names);
    }
    for (ExprRef& f : filters) {
      e = std::make_unique<FilterExecutor>(std::move(e), std::move(f));
    }
    *result = std::move(e);
    return Status::OK();
  };

  ExecRef acc;
  RELGRAPH_RETURN_IF_ERROR(materialize(0, &acc));
  for (size_t i = 1; i < items.size(); i++) {
    FromPlan& next = items[i];
    // Join key: the unused `col = col` conjuncts that link the accumulated
    // plan to `next`, both sides resolved against the joined schema as the
    // residual filter would bind them. The first link to an indexed column
    // of `next` makes an index nested-loop join (the plan the paper's RDBMS
    // optimizer picks for the E-operator); else the first INT link keys a
    // nested-loop join, so each left row visits only the right rows with
    // its key instead of the whole cross product.
    struct Link {
      size_t conjunct;
      JoinKey key;  // right: `next`'s column (its base name for a probe)
    };
    std::optional<Link> indexed, keyed;
    const Schema joined =
        ConcatSchemas(acc->OutputSchema(), next.prefixed_schema);
    const int width = static_cast<int>(acc->OutputSchema().NumColumns());
    for (size_t c = 0; c < conjuncts.size() && !indexed.has_value(); c++) {
      const Expr* e = conjuncts[c];
      std::string l, r;
      if (used[c] || e->kind != ExprKind::kBinary ||
          e->binary_op != BinaryOp::kEq ||
          e->left->kind != ExprKind::kColumnRef ||
          e->right->kind != ExprKind::kColumnRef ||
          !ResolveColumn(e->left->qualifier, e->left->column, joined, &l)
               .ok() ||
          !ResolveColumn(e->right->qualifier, e->right->column, joined, &r)
               .ok()) {
        continue;
      }
      int li = joined.Find(l);
      int ri = joined.Find(r);
      if ((li < width) == (ri < width)) continue;  // both on one side
      if (li > ri) {
        std::swap(l, r);
        std::swap(li, ri);
      }
      const std::string* inner =
          next.base_table == nullptr
              ? nullptr
              : &next.base_table->schema().column(ri - width).name;
      if (inner != nullptr && next.base_table->HasIndexOn(*inner)) {
        indexed = Link{c, {std::move(l), *inner}};
      } else if (!keyed.has_value() &&
                 joined.column(li).type == TypeId::kInt &&
                 joined.column(ri).type == TypeId::kInt) {
        keyed = Link{c, {std::move(l), std::move(r)}};
      }
    }

    if (indexed.has_value()) {
      used[indexed->conjunct] = true;
      std::vector<std::string> names;
      for (const auto& col : joined.columns()) names.push_back(col.name);
      ExecRef join = std::make_unique<IndexNestedLoopJoinExecutor>(
          std::move(acc), next.base_table, indexed->key.right,
          Col(indexed->key.left));
      acc = std::make_unique<RenameExecutor>(std::move(join), names);
      // Filters pushed onto the inner table apply right after the probe
      // (the renamed schema has the prefixed inner columns).
      for (size_t pc : pushed[i]) {
        ExprRef bound;
        RELGRAPH_RETURN_IF_ERROR(BindExpr(*conjuncts[pc], joined, &bound));
        acc = std::make_unique<FilterExecutor>(std::move(acc),
                                               std::move(bound));
      }
      continue;
    }
    ExecRef rhs;
    RELGRAPH_RETURN_IF_ERROR(materialize(i, &rhs));
    std::optional<JoinKey> key;
    if (keyed.has_value()) {
      used[keyed->conjunct] = true;
      key = std::move(keyed->key);
    }
    acc = std::make_unique<NestedLoopJoinExecutor>(
        std::move(acc), std::move(rhs), nullptr, std::move(key));
  }

  // Residual predicate.
  ExprRef residual;
  for (size_t c = 0; c < conjuncts.size(); c++) {
    if (used[c]) continue;
    ExprRef bound;
    RELGRAPH_RETURN_IF_ERROR(
        BindExpr(*conjuncts[c], acc->OutputSchema(), &bound));
    residual = residual == nullptr ? std::move(bound)
                                   : And(std::move(residual), std::move(bound));
  }
  if (residual != nullptr) {
    acc = std::make_unique<FilterExecutor>(std::move(acc), std::move(residual));
  }
  if (first_row_only) acc = std::make_unique<LimitExecutor>(std::move(acc), 1);
  *out = std::move(acc);
  return Status::OK();
}

// ----- SELECT ----------------------------------------------------------------

Status Planner::PlanSelect(const SelectStmt& sel, ExecRef* out) {
  ExecRef child;
  if (sel.from.empty()) {
    if (sel.where != nullptr) {
      return Status::NotSupported("WHERE without FROM");
    }
    std::vector<Tuple> one = {Tuple{}};
    child = std::make_unique<MaterializedExecutor>(std::move(one), Schema{});
  } else {
    RELGRAPH_RETURN_IF_ERROR(PlanFrom(sel, &child));
  }

  // ---- window function (at most one, as a top-level select item) ----
  int window_item = -1;
  std::string window_col;
  for (size_t i = 0; i < sel.items.size(); i++) {
    if (sel.items[i].expr == nullptr) continue;
    const Expr* w = FindWindowCall(*sel.items[i].expr);
    if (w == nullptr) continue;
    if (window_item >= 0) {
      return Status::NotSupported("multiple window functions in one SELECT");
    }
    if (w != sel.items[i].expr.get()) {
      return Status::NotSupported(
          "window function must be a bare select item");
    }
    if (w->func_name != "ROW_NUMBER" || !w->args.empty() || w->star_arg) {
      return Status::NotSupported("only ROW_NUMBER() OVER (...) is supported");
    }
    window_item = static_cast<int>(i);
    window_col = sel.items[i].alias.empty() ? "rownum" : sel.items[i].alias;

    std::vector<std::string> partition_cols;
    for (const auto& p : w->window->partition_by) {
      if (p->kind != ExprKind::kColumnRef) {
        return Status::NotSupported("PARTITION BY requires column references");
      }
      std::string resolved;
      RELGRAPH_RETURN_IF_ERROR(ResolveColumn(p->qualifier, p->column,
                                             child->OutputSchema(), &resolved));
      partition_cols.push_back(std::move(resolved));
    }
    std::vector<SortKey> order_keys;
    for (const auto& o : w->window->order_by) {
      SortKey key;
      RELGRAPH_RETURN_IF_ERROR(
          BindExpr(*o->expr, child->OutputSchema(), &key.expr));
      key.ascending = o->ascending;
      order_keys.push_back(std::move(key));
    }
    child = std::make_unique<WindowRowNumberExecutor>(
        std::move(child), std::move(partition_cols), std::move(order_keys),
        window_col);
  }

  const Schema& in_schema = child->OutputSchema();

  // ---- aggregate path ----
  bool has_aggregate = false;
  for (const auto& item : sel.items) {
    if (item.expr != nullptr && ContainsAggregate(*item.expr)) {
      has_aggregate = true;
      break;
    }
  }

  std::vector<ExprRef> project_exprs;
  std::vector<Column> project_cols;

  if (has_aggregate) {
    std::vector<std::string> group_cols;
    for (const auto& g : sel.group_by) {
      if (g->kind != ExprKind::kColumnRef) {
        return Status::NotSupported("GROUP BY requires column references");
      }
      std::string resolved;
      RELGRAPH_RETURN_IF_ERROR(
          ResolveColumn(g->qualifier, g->column, in_schema, &resolved));
      group_cols.push_back(std::move(resolved));
    }
    std::vector<AggSpec> specs;
    // Select items must be aggregate calls or grouped columns; record how
    // each item maps onto the aggregate output.
    struct ItemSlot { std::string column; TypeId type; };
    std::vector<ItemSlot> slots;
    for (size_t i = 0; i < sel.items.size(); i++) {
      const SelectItem& item = sel.items[i];
      if (item.expr == nullptr) {
        return Status::NotSupported("* in an aggregate query");
      }
      const Expr& e = *item.expr;
      if (e.kind == ExprKind::kFuncCall && IsAggregateName(e.func_name)) {
        AggSpec spec;
        if (e.func_name == "MIN") spec.op = AggOp::kMin;
        else if (e.func_name == "MAX") spec.op = AggOp::kMax;
        else if (e.func_name == "SUM") spec.op = AggOp::kSum;
        else spec.op = AggOp::kCount;
        if (!e.star_arg) {
          if (e.args.size() != 1) {
            return Status::InvalidArgument(e.func_name +
                                           " takes exactly one argument");
          }
          RELGRAPH_RETURN_IF_ERROR(
              BindExpr(*e.args[0], in_schema, &spec.expr));
        } else if (spec.op != AggOp::kCount) {
          return Status::InvalidArgument(e.func_name + "(*) is not valid");
        }
        spec.name = "agg" + std::to_string(specs.size() + 1);
        slots.push_back({spec.name, spec.op == AggOp::kCount
                                        ? TypeId::kInt
                                        : InferType(e, in_schema)});
        specs.push_back(std::move(spec));
      } else if (e.kind == ExprKind::kColumnRef) {
        std::string resolved;
        RELGRAPH_RETURN_IF_ERROR(
            ResolveColumn(e.qualifier, e.column, in_schema, &resolved));
        if (std::find(group_cols.begin(), group_cols.end(), resolved) ==
            group_cols.end()) {
          return Status::InvalidArgument("column " + resolved +
                                         " is not in GROUP BY");
        }
        slots.push_back({resolved, InferType(e, in_schema)});
      } else {
        return Status::NotSupported(
            "aggregate select items must be aggregates or grouped columns");
      }
    }
    child = std::make_unique<HashAggregateExecutor>(
        std::move(child), std::move(group_cols), std::move(specs));
    for (size_t i = 0; i < sel.items.size(); i++) {
      project_exprs.push_back(Col(slots[i].column));
      project_cols.push_back({ItemName(sel.items[i], i), slots[i].type});
    }
  } else {
    if (!sel.group_by.empty()) {
      return Status::NotSupported("GROUP BY without aggregates");
    }
    for (size_t i = 0; i < sel.items.size(); i++) {
      const SelectItem& item = sel.items[i];
      if (item.expr == nullptr) {  // bare *: expand every input column
        for (const auto& c : in_schema.columns()) {
          project_exprs.push_back(Col(c.name));
          project_cols.push_back({c.name, c.type});
        }
        continue;
      }
      if (static_cast<int>(i) == window_item) {
        project_exprs.push_back(Col(window_col));
        project_cols.push_back({window_col, TypeId::kInt});
        continue;
      }
      ExprRef bound;
      RELGRAPH_RETURN_IF_ERROR(BindExpr(*item.expr, in_schema, &bound));
      project_exprs.push_back(std::move(bound));
      project_cols.push_back(
          {ItemName(item, i), InferType(*item.expr, in_schema)});
    }
  }

  Schema project_schema{project_cols};

  // ---- ORDER BY: prefer sorting on the projected output; fall back to the
  // pre-projection schema when the key only exists there. ----
  std::vector<SortKey> outer_keys;
  bool sort_before_project = false;
  std::vector<SortKey> inner_keys;
  for (const auto& o : sel.order_by) {
    ExprRef bound;
    Status s = BindExpr(*o->expr, project_schema, &bound);
    if (s.ok()) {
      outer_keys.push_back({std::move(bound), o->ascending});
      continue;
    }
    RELGRAPH_RETURN_IF_ERROR(BindExpr(*o->expr, in_schema, &bound));
    if (sel.distinct) {
      return Status::NotSupported(
          "DISTINCT with an ORDER BY key that is not in the select list");
    }
    sort_before_project = true;
    inner_keys.push_back({std::move(bound), o->ascending});
  }
  if (sort_before_project && !outer_keys.empty()) {
    return Status::NotSupported(
        "ORDER BY mixes projected and pre-projection columns");
  }

  if (sort_before_project) {
    child = std::make_unique<SortExecutor>(std::move(child),
                                           std::move(inner_keys));
  }
  child = std::make_unique<ProjectExecutor>(
      std::move(child), std::move(project_exprs), project_schema);

  if (sel.distinct) {
    // DISTINCT = group by every output column with no aggregates. It runs
    // before ORDER BY: the aggregate emits its groups in key order.
    std::vector<std::string> names;
    for (const auto& c : project_schema.columns()) {
      if (std::find(names.begin(), names.end(), c.name) != names.end()) {
        return Status::NotSupported("DISTINCT with duplicate output names");
      }
      names.push_back(c.name);
    }
    child = std::make_unique<HashAggregateExecutor>(
        std::move(child), std::move(names), std::vector<AggSpec>{});
  }
  if (!outer_keys.empty()) {
    child = std::make_unique<SortExecutor>(std::move(child),
                                           std::move(outer_keys));
  }

  int64_t limit = -1;
  if (sel.top.has_value()) limit = *sel.top;
  if (sel.limit.has_value()) {
    limit = limit < 0 ? *sel.limit : std::min(limit, *sel.limit);
  }
  if (limit >= 0) {
    child = std::make_unique<LimitExecutor>(std::move(child), limit);
  }

  *out = std::move(child);
  return Status::OK();
}

// ----- DML -------------------------------------------------------------------

Status Planner::CompileInsert(const InsertStmt& ins) {
  Table* table = nullptr;
  RELGRAPH_RETURN_IF_ERROR(FindTable(ins.table, &table));
  plan_->table = table;
  const Schema& schema = table->schema();

  // Map the statement's column list onto table positions (identity when
  // the list is absent).
  std::vector<size_t> positions;
  if (ins.columns.empty()) {
    for (size_t i = 0; i < schema.NumColumns(); i++) positions.push_back(i);
  } else {
    for (const auto& name : ins.columns) {
      std::string resolved;
      RELGRAPH_RETURN_IF_ERROR(ResolveColumn("", name, schema, &resolved));
      positions.push_back(schema.IndexOf(resolved));
    }
  }

  if (ins.select != nullptr) {
    ExecRef src;
    RELGRAPH_RETURN_IF_ERROR(PlanSelect(*ins.select, &src));
    if (src->OutputSchema().NumColumns() != positions.size()) {
      return Status::InvalidArgument("INSERT ... SELECT arity mismatch");
    }
    // Rearrange the SELECT output into full-width table rows.
    std::vector<ExprRef> exprs(schema.NumColumns());
    for (size_t j = 0; j < positions.size(); j++) {
      exprs[positions[j]] = Col(src->OutputSchema().column(j).name);
    }
    for (size_t i = 0; i < exprs.size(); i++) {
      if (exprs[i] == nullptr) exprs[i] = NullLit();
    }
    plan_->root = std::make_unique<ProjectExecutor>(std::move(src),
                                                    std::move(exprs), schema);
    plan_->insert_from_select = true;
    return Status::OK();
  }

  // VALUES rows compile to full-width expression rows (missing columns
  // are NULL literals); evaluation and type coercion happen per
  // execution, where `:params` carry that execution's values.
  Schema empty;
  plan_->insert_rows.reserve(ins.rows.size());
  for (const auto& row : ins.rows) {
    if (row.size() != positions.size()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    std::vector<ExprRef> exprs(schema.NumColumns());
    for (size_t j = 0; j < row.size(); j++) {
      RELGRAPH_RETURN_IF_ERROR(
          BindExpr(*row[j], empty, &exprs[positions[j]]));
    }
    for (size_t i = 0; i < exprs.size(); i++) {
      if (exprs[i] == nullptr) exprs[i] = NullLit();
    }
    plan_->insert_rows.push_back(std::move(exprs));
  }
  return Status::OK();
}

Status Planner::CompileUpdateOrDelete(const std::string& table_name,
                                      const std::vector<SetItem>& set_items,
                                      const Expr* where_expr,
                                      bool is_delete) {
  Table* table = nullptr;
  RELGRAPH_RETURN_IF_ERROR(FindTable(table_name, &table));
  plan_->table = table;
  const Schema& schema = table->schema();
  std::vector<SetClause> sets;
  for (const auto& s : set_items) {
    SetClause clause;
    RELGRAPH_RETURN_IF_ERROR(
        ResolveColumn("", s.column, schema, &clause.column));
    RELGRAPH_RETURN_IF_ERROR(BindExpr(*s.expr, schema, &clause.expr));
    sets.push_back(std::move(clause));
  }

  // The access-path choice SELECT scans make, over the top-level
  // conjuncts: `... WHERE flag = 2`, `... AND dist = (SELECT MIN(dist)
  // ...)` and BSEG's `dist <= bound` read index ranges. The whole
  // predicate is still evaluated residually, so every plan stays exactly
  // equivalent to the full scan, and the key is evaluated per execution,
  // so bounds over `:params` or subquery slots see each execution's
  // bindings.
  std::vector<const Expr*> conjuncts;
  if (where_expr != nullptr) FlattenAnd(where_expr, &conjuncts);
  std::vector<ExprRef> bound;
  KeyProbe probe;
  RELGRAPH_RETURN_IF_ERROR(ChooseAccessPath(conjuncts, schema, table,
                                            /*use_qualifier=*/true,
                                            std::string(), &probe, &bound));
  ExprRef where;
  for (ExprRef& b : bound) {
    where = where == nullptr ? std::move(b) : And(std::move(where), std::move(b));
  }
  plan_->update =
      is_delete ? UpdatePlan::Delete(table, std::move(where), std::move(probe))
                : std::make_unique<UpdatePlan>(table, std::move(where),
                                               std::move(sets),
                                               std::move(probe));
  return plan_->update->status();
}

// ----- MERGE -----------------------------------------------------------------

Status Planner::CompileMerge(const MergeStmt& m) {
  Table* target = nullptr;
  RELGRAPH_RETURN_IF_ERROR(FindTable(m.target_table, &target));
  plan_->table = target;
  const Schema& target_schema = target->schema();

  // Plan the source with *plain* column names: MergePlan prefixes them
  // itself ("s.") for the matched branch.
  ExecRef source;
  if (m.source.kind == FromKind::kTable) {
    Table* src_table = nullptr;
    RELGRAPH_RETURN_IF_ERROR(FindTable(m.source.table_name, &src_table));
    source = std::make_unique<SeqScanExecutor>(src_table);
  } else {
    RELGRAPH_RETURN_IF_ERROR(PlanSelect(*m.source.subquery, &source));
  }
  if (!m.source.column_aliases.empty()) {
    if (m.source.column_aliases.size() != source->OutputSchema().NumColumns()) {
      return Status::InvalidArgument("MERGE source column list arity mismatch");
    }
    source = std::make_unique<RenameExecutor>(std::move(source),
                                              m.source.column_aliases);
  }
  const Schema source_schema = source->OutputSchema();

  // ON clause: exactly `target.k = source.k` (either order).
  if (m.on == nullptr || m.on->kind != ExprKind::kBinary ||
      m.on->binary_op != BinaryOp::kEq ||
      m.on->left->kind != ExprKind::kColumnRef ||
      m.on->right->kind != ExprKind::kColumnRef) {
    return Status::NotSupported(
        "MERGE ON must be <target>.<col> = <source>.<col>");
  }
  MergeSpec spec;
  for (int swap = 0; swap < 2; swap++) {
    const Expr& t_ref = swap == 0 ? *m.on->left : *m.on->right;
    const Expr& s_ref = swap == 0 ? *m.on->right : *m.on->left;
    bool t_side = t_ref.qualifier.empty() ||
                  CiEquals(t_ref.qualifier, m.target_alias);
    bool s_side =
        s_ref.qualifier.empty() || CiEquals(s_ref.qualifier, m.source.alias);
    if (!t_side || !s_side) continue;
    std::string t_col, s_col;
    if (!ResolveColumn("", t_ref.column, target_schema, &t_col).ok()) continue;
    if (!ResolveColumn("", s_ref.column, source_schema, &s_col).ok()) continue;
    spec.target_key_column = t_col;
    spec.source_key_column = s_col;
    break;
  }
  if (spec.target_key_column.empty()) {
    return Status::InvalidArgument(
        "MERGE ON condition does not name a target and a source column");
  }

  // Matched actions bind against the row MergePlan evaluates them over:
  // the target's columns under "t.", then the source's under "s.".
  const Schema combined = ConcatSchemas(PrefixSchema(target_schema, "t."),
                                        PrefixSchema(source_schema, "s."));
  merge_ = &m;
  if (m.matched_condition != nullptr) {
    RELGRAPH_RETURN_IF_ERROR(
        BindExpr(*m.matched_condition, combined, &spec.matched_condition));
  }
  for (const auto& s : m.matched_sets) {
    SetClause clause;
    RELGRAPH_RETURN_IF_ERROR(
        ResolveColumn("", s.column, target_schema, &clause.column));
    RELGRAPH_RETURN_IF_ERROR(BindExpr(*s.expr, combined, &clause.expr));
    spec.matched_sets.push_back(std::move(clause));
  }
  merge_ = nullptr;

  if (m.has_not_matched_clause) {
    std::vector<size_t> positions;
    if (m.insert_columns.empty()) {
      if (m.insert_values.size() != target_schema.NumColumns()) {
        return Status::InvalidArgument("MERGE insert arity mismatch");
      }
      for (size_t i = 0; i < target_schema.NumColumns(); i++) {
        positions.push_back(i);
      }
    } else {
      if (m.insert_values.size() != m.insert_columns.size()) {
        return Status::InvalidArgument("MERGE insert arity mismatch");
      }
      for (const auto& name : m.insert_columns) {
        std::string resolved;
        RELGRAPH_RETURN_IF_ERROR(
            ResolveColumn("", name, target_schema, &resolved));
        positions.push_back(target_schema.IndexOf(resolved));
      }
    }
    spec.insert_values.assign(target_schema.NumColumns(), NullLit());
    for (size_t j = 0; j < positions.size(); j++) {
      ExprRef bound;
      // Insert values see the plain source row (SQL: only source columns are
      // in scope for the NOT MATCHED branch).
      RELGRAPH_RETURN_IF_ERROR(
          BindExpr(*m.insert_values[j], source_schema, &bound));
      spec.insert_values[positions[j]] = std::move(bound);
    }
  }

  plan_->merge =
      std::make_unique<MergePlan>(target, source_schema, std::move(spec));
  plan_->root = std::move(source);
  return plan_->merge->status();
}

// ----- DDL -------------------------------------------------------------------

Status Planner::ExecuteCreateTable(const CreateTableStmt& ct) {
  std::vector<Column> cols;
  for (const auto& c : ct.columns) cols.push_back({c.name, c.type});
  TableOptions options;
  if (!ct.cluster_by.empty()) {
    options.storage = TableStorage::kClustered;
    Schema s{cols};
    std::string resolved;
    RELGRAPH_RETURN_IF_ERROR(ResolveColumn("", ct.cluster_by, s, &resolved));
    options.cluster_key = resolved;
    options.cluster_unique = ct.cluster_unique;
  }
  Table* out = nullptr;
  return db_->catalog()->CreateTable(ct.table, Schema{std::move(cols)},
                                     options, &out);
}

Status Planner::ExecuteCreateIndex(const CreateIndexStmt& ci) {
  Table* table = nullptr;
  RELGRAPH_RETURN_IF_ERROR(FindTable(ci.table, &table));
  std::vector<std::string> columns;
  for (const std::string& c : ci.columns) {
    RELGRAPH_RETURN_IF_ERROR(
        ResolveColumn("", c, table->schema(), &columns.emplace_back()));
  }
  // Catalog-owned DDL: the index lands and the catalog version bumps, so
  // cached plans get a chance to pick the new access path up.
  if (columns.size() == 1) {
    return db_->catalog()->CreateSecondaryIndex(table, columns[0], ci.unique,
                                                ci.index_name);
  }
  if (columns.size() != 2) {
    return Status::NotSupported(
        "an index names one column, or two for an open tree (flag, dist)");
  }
  if (ci.unique) {
    return Status::NotSupported("an open tree (flag, dist) is not UNIQUE");
  }
  return db_->catalog()->CreateOpenIndex(table, columns[0], columns[1],
                                         ci.index_name);
}

Status Planner::ExecuteDropIndex(const DropIndexStmt& di) {
  Table* table = nullptr;
  RELGRAPH_RETURN_IF_ERROR(FindTable(di.table, &table));
  return db_->catalog()->DropSecondaryIndex(table, di.index_name);
}

// ----- bind + execute --------------------------------------------------------

Status BindPreparedPlan(PreparedPlan* plan, const SqlParams& params) {
  BindContext* ctx = plan->ctx.get();
  ctx->ClearBindings();
  RELGRAPH_RETURN_IF_ERROR(ctx->BindNamed(params));
  // Scalar subqueries evaluate in registration order (inner before outer),
  // against the database's *current* data — exactly what re-planning from
  // text would have computed, minus the parse and plan.
  for (auto& sq : plan->subqueries) {
    std::vector<Tuple> rows;
    RELGRAPH_RETURN_IF_ERROR(Collect(sq.plan.get(), &rows));
    if (rows.size() > 1) {
      return Status::InvalidArgument("scalar subquery produced " +
                                     std::to_string(rows.size()) + " rows");
    }
    ctx->Set(sq.slot, rows.empty() ? Value::Null() : rows[0].value(0));
  }
  return Status::OK();
}

Status ExecutePreparedPlan(Database* db, const Statement& ast,
                           PreparedPlan* plan, SqlResult* result) {
  *result = SqlResult{};
  switch (plan->kind) {
    case StmtKind::kSelect: {
      result->schema = plan->root->OutputSchema();
      RELGRAPH_RETURN_IF_ERROR(Collect(plan->root.get(), &result->rows));
      result->affected = static_cast<int64_t>(result->rows.size());
      return Status::OK();
    }
    case StmtKind::kInsert: {
      if (plan->insert_from_select) {
        return InsertFromExecutor(plan->table, plan->root.get(),
                                  &result->affected);
      }
      const Schema& schema = plan->table->schema();
      for (const auto& row : plan->insert_rows) {
        std::vector<Value> values(schema.NumColumns());
        for (size_t i = 0; i < row.size(); i++) {
          Value v = row[i]->Evaluate(Tuple{});
          RELGRAPH_RETURN_IF_ERROR(
              CoerceValue(v, schema.column(i).type, &values[i]));
        }
        RELGRAPH_RETURN_IF_ERROR(plan->table->Insert(Tuple(std::move(values))));
        result->affected++;
      }
      return Status::OK();
    }
    case StmtKind::kUpdate:
    case StmtKind::kDelete:
      return plan->update->Run(&result->affected);
    case StmtKind::kMerge:
      return plan->merge->Run(plan->root.get(), &result->affected);
    default: {
      Planner planner(db);
      return planner.ExecuteDdl(ast);
    }
  }
}

}  // namespace relgraph::sql
