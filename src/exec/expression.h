#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/types/schema.h"
#include "src/types/tuple.h"
#include "src/types/value.h"

namespace relgraph {

/// Column-oriented view over a run of same-schema tuples — the unit the
/// batch-mode evaluator works on. Expressions evaluated against a RowBatch
/// produce one *column vector* per tree node (EvalBatch below), which hoists
/// virtual dispatch out of the per-row loop: one virtual call per node per
/// batch, instead of per row. The view borrows the tuples; it must not
/// outlive them.
class RowBatch {
 public:
  explicit RowBatch(const std::vector<Tuple>& rows)
      : rows_(rows.data()), num_rows_(rows.size()) {}
  /// Selection-vector form (a BatchSpan): only rows[sel[i]] for
  /// i < sel_n are part of the batch. num_rows() reports the *selected*
  /// count and row(i) maps through the selection, so expression kernels
  /// evaluate exactly the qualifying lanes and their output columns are
  /// compact (entry i of every column belongs to lane i). A null `sel`
  /// degrades to the dense span form.
  RowBatch(const Tuple* rows, size_t n, const uint32_t* sel, size_t sel_n)
      : rows_(rows), num_rows_(sel != nullptr ? sel_n : n), sel_(sel) {}

  size_t num_rows() const { return num_rows_; }
  const Tuple& row(size_t i) const {
    return rows_[sel_ != nullptr ? sel_[i] : i];
  }

 private:
  const Tuple* rows_;
  size_t num_rows_;  // selected count when sel_ is set
  const uint32_t* sel_ = nullptr;
};

/// One expression's output over a whole RowBatch. Two representations:
///
///  - *unboxed*: a contiguous int64 vector plus an optional null bitmap —
///    the fast path. Every column of the shortest-path workload (TVisited,
///    TEdges, the expansion view) is INT, so predicates and arithmetic
///    compile down to tight loops over plain machine words with no variant
///    dispatch per row;
///  - *boxed*: a Value vector for anything else (doubles, strings). The
///    column demotes itself automatically the first time a non-INT value
///    is appended, so mixed data stays correct.
///
/// Builders come in two flavors: Append() classifies value by value (used
/// by the generic fallback), while ResetIntFilled()/MutableInts()/SetNull()
/// let vectorized operators write the unboxed representation directly.
class ValueColumn {
 public:
  size_t size() const { return is_int_ ? ints_.size() : boxed_.size(); }
  bool is_int() const { return is_int_; }
  bool has_nulls() const { return is_int_ ? has_nulls_ : true; }

  bool IsNull(size_t i) const {
    return is_int_ ? (has_nulls_ && nulls_[i] != 0) : boxed_[i].IsNull();
  }
  /// Unboxed element (valid on the int path when !IsNull(i)).
  int64_t IntAt(size_t i) const { return ints_[i]; }
  const std::vector<int64_t>& ints() const { return ints_; }
  /// Boxed view of element i (constructs a Value on the int path).
  Value Get(size_t i) const {
    if (!is_int_) return boxed_[i];
    if (has_nulls_ && nulls_[i] != 0) return Value::Null();
    return Value(ints_[i]);
  }

  /// Restart as an empty int-optimistic column with room for n rows.
  void Reset(size_t n) {
    is_int_ = true;
    has_nulls_ = false;
    ints_.clear();
    ints_.reserve(n);
    nulls_.clear();
    boxed_.clear();
  }
  /// Restart as an int column of n slots, all non-null, values unset —
  /// the writer fills MutableInts() and flags exceptions via SetNull().
  void ResetIntFilled(size_t n) {
    is_int_ = true;
    has_nulls_ = false;
    ints_.resize(n);
    nulls_.clear();
    boxed_.clear();
  }
  std::vector<int64_t>& MutableInts() { return ints_; }
  void SetNull(size_t i) {
    if (!has_nulls_) {
      has_nulls_ = true;
      nulls_.assign(ints_.size(), 0);
    }
    nulls_[i] = 1;
  }
  /// Classifying append: stays unboxed for INT/NULL, demotes otherwise.
  void Append(Value v) {
    if (is_int_) {
      if (v.type() == TypeId::kInt) {
        ints_.push_back(v.AsInt());
        if (has_nulls_) nulls_.push_back(0);
        return;
      }
      if (v.IsNull()) {
        AppendNull();
        return;
      }
      DemoteToBoxed();
    }
    boxed_.push_back(std::move(v));
  }
  /// By-reference variant of Append: the int path reads the value without
  /// ever constructing a Value copy (the per-row cost of column loads).
  void AppendRef(const Value& v) {
    if (is_int_) {
      if (v.type() == TypeId::kInt) {
        ints_.push_back(v.AsInt());
        if (has_nulls_) nulls_.push_back(0);
        return;
      }
      if (v.IsNull()) {
        AppendNull();
        return;
      }
      DemoteToBoxed();
    }
    boxed_.push_back(v);
  }
  void AppendNull() {
    if (!is_int_) {
      boxed_.push_back(Value::Null());
      return;
    }
    if (!has_nulls_) {
      has_nulls_ = true;
      nulls_.assign(ints_.size(), 0);
    }
    ints_.push_back(0);
    nulls_.push_back(1);
  }

 private:
  void DemoteToBoxed() {
    boxed_.clear();
    boxed_.reserve(ints_.size() + 1);
    for (size_t i = 0; i < ints_.size(); i++) {
      boxed_.push_back(has_nulls_ && nulls_[i] ? Value::Null()
                                               : Value(ints_[i]));
    }
    is_int_ = false;
    ints_.clear();
    nulls_.clear();
  }

  bool is_int_ = true;
  bool has_nulls_ = false;
  std::vector<int64_t> ints_;
  std::vector<uint8_t> nulls_;  // parallel to ints_ once has_nulls_ is set
  std::vector<Value> boxed_;
};

/// The row an expression reads: one tuple (a Tuple converts implicitly),
/// or a (left, right) pair read as their concatenation without building
/// it — joins and MERGE's matched branch read their pairs this way.
/// Expressions read it by slot, so they must be bound (BindColumns) to the
/// schema of the whole row.
class RowView {
 public:
  RowView(const Tuple& row)
      : left_(&row), right_(nullptr), split_(row.NumValues()) {}
  RowView(const Tuple& left, const Tuple& right)
      : left_(&left), right_(&right), split_(left.NumValues()) {}

  const Value& value(size_t i) const {
    return i < split_ ? left_->value(i) : right_->value(i - split_);
  }

 private:
  const Tuple* left_;
  const Tuple* right_;
  size_t split_;  // columns of left_
};

class Expression;
using ExprRef = std::shared_ptr<const Expression>;

/// Scalar expression tree evaluated against one row. This is the
/// machinery behind every WHERE predicate, SELECT list item, join
/// condition, and MERGE action in the paper's SQL listings.
///
/// Every node also evaluates set-at-a-time via EvalBatch; the two entry
/// points always produce the same values (pinned by test_exec_batch.cc).
///
/// Nodes are immutable and shared: the SQL plan cache hands one tree to
/// many connections. Column references are built by name; BindColumns
/// returns a new tree whose column nodes carry their slot in one schema,
/// which every executor and prepared plan does once, when it is built, for
/// each expression it evaluates. Only bound trees are evaluated: an
/// unbound column has no slot to read. A tree without columns (literals,
/// parameters, subquery slots) evaluates against any row, `Tuple{}` too.
class Expression {
 public:
  virtual ~Expression() = default;
  virtual Value Evaluate(const RowView& row) const = 0;

  /// Evaluates the expression for every row of `batch` into one column.
  /// The base implementation is the scalar fallback (one Evaluate per row)
  /// so exotic nodes stay correct; the arithmetic/comparison/logic/column
  /// nodes override it with column-at-a-time loops that hoist virtual
  /// dispatch out of the row loop, and run unboxed int64 kernels when
  /// their inputs are int columns. AND/OR lose their short-circuit *work*
  /// saving in batch mode (both sides are evaluated for all rows) but keep
  /// their three-valued-logic results; expressions are side-effect free,
  /// so the streams cannot diverge.
  virtual void EvalBatch(const RowBatch& batch, ValueColumn* out) const;

  /// The step of BindColumns for this node: sets *out to a copy of the
  /// node bound to `schema`, or leaves it null when nothing under the node
  /// changes. Leaves without columns keep the default.
  virtual Status BindTo(const Schema& schema, ExprRef* out) const {
    (void)schema;
    (void)out;
    return Status::OK();
  }

  virtual std::string ToString() const = 0;
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

class BindContext;

/// References a column by name. Executors bind it to its slot when they are
/// built (BindColumns), so one expression works across plans with
/// compatible columns; it cannot be evaluated before.
ExprRef Col(std::string name);

/// Returns `expr` with every column reference bound to its slot in
/// `schema`: the bound nodes read the slot directly instead of resolving
/// the name per row. Nodes are never modified; changed subtrees are
/// copied. A tree already bound to `schema` comes back as itself, so
/// re-binding it allocates nothing. InvalidArgument names a column the
/// schema lacks. `out` may alias `expr`.
Status BindColumns(const ExprRef& expr, const Schema& schema, ExprRef* out);
/// Binds each expression of `exprs` in place.
Status BindColumns(std::vector<ExprRef>* exprs, const Schema& schema);
/// Prepared-statement parameter `:name`: reads slot `slot` of `ctx` at
/// evaluation time, so one compiled plan re-executes with fresh bindings.
/// Unbound slots read as NULL (BindContext::BindNamed guarantees named
/// slots are bound before a plan runs).
ExprRef Param(const BindContext* ctx, size_t slot, std::string name);
/// Scalar-subquery result slot, filled at bind time by the prepared
/// statement right before the main plan opens — the executor-layer
/// replacement for folding subqueries into the plan. ToString renders the
/// current value when bound (what EXPLAIN shows), "(subquery)" otherwise.
ExprRef BoundSlot(const BindContext* ctx, size_t slot);
/// Integer / double / string / NULL literals.
ExprRef Lit(int64_t v);
ExprRef Lit(double v);
ExprRef Lit(std::string v);
ExprRef Lit(Value v);
ExprRef NullLit();
/// Arithmetic and logic. Div is SQL division: NULL on division by zero,
/// integer division for two INTs.
ExprRef Add(ExprRef left, ExprRef right);
ExprRef Sub(ExprRef left, ExprRef right);
ExprRef Mul(ExprRef left, ExprRef right);
ExprRef Div(ExprRef left, ExprRef right);
ExprRef Cmp(CompareOp op, ExprRef left, ExprRef right);
ExprRef And(ExprRef left, ExprRef right);
ExprRef Or(ExprRef left, ExprRef right);
ExprRef Not(ExprRef inner);
/// SQL IS NULL / IS NOT NULL (distinct from `= NULL`, which is unknown).
ExprRef IsNull(ExprRef inner, bool negated = false);

/// Shorthand: column = integer literal, the most common predicate.
ExprRef ColEq(std::string name, int64_t v);

/// Below this many selected rows, batch consumers evaluate row-at-a-time
/// instead of materializing per-node columns: the FEM loop issues
/// thousands of tiny statements (single-digit-row frontiers), where
/// EvalBatch's fixed per-node setup outweighs its per-row savings. Both
/// paths are value-identical (pinned by test_exec_batch.cc), so this is
/// purely a cost-model cutoff.
inline constexpr size_t kMinVectorizedRows = 16;

/// The one scalar-vs-column decision every batch consumer (predicates,
/// projections, UPDATE SET lists) makes: row-at-a-time when the batch
/// selects fewer than kMinVectorizedRows lanes, dense or not.
inline bool EvalRowAtATime(const RowBatch& batch) {
  return batch.num_rows() < kMinVectorizedRows;
}

/// SQL boolean test: true only when the value is non-null and nonzero
/// (comparisons yield INT 0/1; NULL propagates as "unknown" = not true).
bool EvalPredicate(const Expression& expr, const RowView& row);

/// Batch form of EvalPredicate: keep->at(i) is 1 when row i passes. `scratch`
/// is caller-owned so its capacity survives across batches.
void EvalPredicateBatch(const Expression& expr, const RowBatch& batch,
                        ValueColumn* scratch, std::vector<char>* keep);

}  // namespace relgraph
