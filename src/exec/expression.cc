#include "src/exec/expression.h"

#include <algorithm>
#include <cassert>

#include "src/exec/bind_context.h"

namespace relgraph {

void Expression::EvalBatch(const RowBatch& batch, ValueColumn* out) const {
  // Scalar fallback: one Evaluate per row. Operator nodes override this
  // with column-at-a-time kernels.
  const size_t n = batch.num_rows();
  out->Reset(n);
  for (size_t i = 0; i < n; i++) {
    out->Append(Evaluate(batch.row(i), batch.schema()));
  }
}

namespace {

/// Thread-local LIFO pool of scratch columns for EvalBatch's interior
/// nodes. Borrow depth equals expression-tree depth, and a returned slot is
/// handed back to the next borrower at the same depth, so the vectors keep
/// their capacity across batches — steady-state batch evaluation allocates
/// nothing.
class ScratchPool {
 public:
  ValueColumn* Borrow() {
    if (next_ == cols_.size()) {
      cols_.push_back(std::make_unique<ValueColumn>());
    }
    return cols_[next_++].get();
  }
  void Return() { next_--; }

 private:
  std::vector<std::unique_ptr<ValueColumn>> cols_;
  size_t next_ = 0;
};

thread_local ScratchPool g_scratch_pool;

/// RAII borrow. Declare in evaluation order; destruction order being the
/// reverse keeps the pool's LIFO discipline.
class ScratchColumn {
 public:
  ScratchColumn() : col_(g_scratch_pool.Borrow()) {}
  ~ScratchColumn() { g_scratch_pool.Return(); }
  ScratchColumn(const ScratchColumn&) = delete;
  ScratchColumn& operator=(const ScratchColumn&) = delete;
  ValueColumn& operator*() { return *col_; }
  ValueColumn* get() { return col_; }

 private:
  ValueColumn* col_;
};

/// Unboxed binary kernel: both inputs are int columns; `f` combines two
/// non-null int64s. NULL in either input yields NULL (SQL arithmetic /
/// comparison semantics). The null-free loop is branchless per row — this
/// is the code the whole TVisited workload runs.
template <typename IntFn>
void IntBinaryKernel(const ValueColumn& l, const ValueColumn& r,
                     ValueColumn* out, IntFn f) {
  const size_t n = l.size();
  out->ResetIntFilled(n);
  std::vector<int64_t>& o = out->MutableInts();
  const std::vector<int64_t>& a = l.ints();
  const std::vector<int64_t>& b = r.ints();
  if (!l.has_nulls() && !r.has_nulls()) {
    for (size_t i = 0; i < n; i++) o[i] = f(a[i], b[i]);
    return;
  }
  for (size_t i = 0; i < n; i++) {
    if (l.IsNull(i) || r.IsNull(i)) {
      out->SetNull(i);
    } else {
      o[i] = f(a[i], b[i]);
    }
  }
}

/// Boxed binary kernel: the general path when either side left the int
/// representation. `combine` is the node's scalar Combine, so the two
/// evaluation modes share one semantics definition.
template <typename CombineFn>
void BoxedBinaryKernel(const ValueColumn& l, const ValueColumn& r,
                       ValueColumn* out, CombineFn combine) {
  const size_t n = l.size();
  out->Reset(n);
  for (size_t i = 0; i < n; i++) {
    out->Append(combine(l.Get(i), r.Get(i)));
  }
}

class ColumnExpr : public Expression {
 public:
  explicit ColumnExpr(std::string name) : name_(std::move(name)) {}
  Value Evaluate(const Tuple& tuple, const Schema& schema) const override {
    return tuple.value(schema.IndexOf(name_));
  }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    // The whole point of batch mode: the name -> position lookup happens
    // once here instead of once per row. row(i) gathers through the
    // batch's selection vector when one is attached, so every interior
    // kernel above this leaf sees a compact column and stays
    // selection-oblivious.
    const size_t n = batch.num_rows();
    out->Reset(n);
    const size_t idx = batch.schema().IndexOf(name_);
    for (size_t i = 0; i < n; i++) out->AppendRef(batch.row(i).value(idx));
  }
  std::string ToString() const override { return name_; }

 private:
  std::string name_;
};

class LiteralExpr : public Expression {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  Value Evaluate(const Tuple&, const Schema&) const override { return value_; }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    const size_t n = batch.num_rows();
    if (value_.type() == TypeId::kInt) {
      out->ResetIntFilled(n);
      std::vector<int64_t>& o = out->MutableInts();
      std::fill(o.begin(), o.end(), value_.AsInt());
      return;
    }
    out->Reset(n);
    if (value_.IsNull()) {
      for (size_t i = 0; i < n; i++) out->AppendNull();
    } else {
      for (size_t i = 0; i < n; i++) out->Append(value_);
    }
  }
  std::string ToString() const override { return value_.ToString(); }

 private:
  Value value_;
};

/// Shared body of the two slot-reading nodes: evaluation returns the
/// context slot's current value, batch mode broadcasts it like a literal.
class SlotReadExpr : public Expression {
 public:
  SlotReadExpr(const BindContext* ctx, size_t slot) : ctx_(ctx), slot_(slot) {}
  Value Evaluate(const Tuple&, const Schema&) const override {
    return ctx_->Get(slot_);
  }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    const Value& v = ctx_->Get(slot_);
    const size_t n = batch.num_rows();
    if (v.type() == TypeId::kInt) {
      out->ResetIntFilled(n);
      std::vector<int64_t>& o = out->MutableInts();
      std::fill(o.begin(), o.end(), v.AsInt());
      return;
    }
    out->Reset(n);
    if (v.IsNull()) {
      for (size_t i = 0; i < n; i++) out->AppendNull();
    } else {
      for (size_t i = 0; i < n; i++) out->AppendRef(v);
    }
  }

 protected:
  const BindContext* ctx_;
  size_t slot_;
};

class ParamExpr : public SlotReadExpr {
 public:
  ParamExpr(const BindContext* ctx, size_t slot, std::string name)
      : SlotReadExpr(ctx, slot), name_(std::move(name)) {}
  std::string ToString() const override { return ":" + name_; }

 private:
  std::string name_;
};

class BoundSlotExpr : public SlotReadExpr {
 public:
  using SlotReadExpr::SlotReadExpr;
  std::string ToString() const override {
    return ctx_->IsBound(slot_) ? ctx_->Get(slot_).ToString() : "(subquery)";
  }
};

class AddExpr : public Expression {
 public:
  AddExpr(ExprRef l, ExprRef r) : left_(std::move(l)), right_(std::move(r)) {}
  static Value Combine(const Value& lv, const Value& rv) {
    return lv.Add(rv);
  }
  Value Evaluate(const Tuple& t, const Schema& s) const override {
    return Combine(left_->Evaluate(t, s), right_->Evaluate(t, s));
  }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    ScratchColumn ls, rs;
    ValueColumn& l = *ls;
    ValueColumn& r = *rs;
    left_->EvalBatch(batch, &l);
    right_->EvalBatch(batch, &r);
    if (l.is_int() && r.is_int()) {
      IntBinaryKernel(l, r, out, [](int64_t a, int64_t b) { return a + b; });
    } else {
      BoxedBinaryKernel(l, r, out, Combine);
    }
  }
  std::string ToString() const override {
    return "(" + left_->ToString() + " + " + right_->ToString() + ")";
  }

 private:
  ExprRef left_, right_;
};

class SubExpr : public Expression {
 public:
  SubExpr(ExprRef l, ExprRef r) : left_(std::move(l)), right_(std::move(r)) {}
  static Value Combine(const Value& lv, const Value& rv) {
    if (lv.IsNull() || rv.IsNull()) return Value::Null();
    if (lv.type() == TypeId::kInt && rv.type() == TypeId::kInt) {
      return Value(lv.AsInt() - rv.AsInt());
    }
    return Value(lv.AsNumeric() - rv.AsNumeric());
  }
  Value Evaluate(const Tuple& t, const Schema& s) const override {
    return Combine(left_->Evaluate(t, s), right_->Evaluate(t, s));
  }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    ScratchColumn ls, rs;
    ValueColumn& l = *ls;
    ValueColumn& r = *rs;
    left_->EvalBatch(batch, &l);
    right_->EvalBatch(batch, &r);
    if (l.is_int() && r.is_int()) {
      IntBinaryKernel(l, r, out, [](int64_t a, int64_t b) { return a - b; });
    } else {
      BoxedBinaryKernel(l, r, out, Combine);
    }
  }
  std::string ToString() const override {
    return "(" + left_->ToString() + " - " + right_->ToString() + ")";
  }

 private:
  ExprRef left_, right_;
};

class MulExpr : public Expression {
 public:
  MulExpr(ExprRef l, ExprRef r) : left_(std::move(l)), right_(std::move(r)) {}
  static Value Combine(const Value& lv, const Value& rv) {
    if (lv.IsNull() || rv.IsNull()) return Value::Null();
    if (lv.type() == TypeId::kInt && rv.type() == TypeId::kInt) {
      return Value(lv.AsInt() * rv.AsInt());
    }
    return Value(lv.AsNumeric() * rv.AsNumeric());
  }
  Value Evaluate(const Tuple& t, const Schema& s) const override {
    return Combine(left_->Evaluate(t, s), right_->Evaluate(t, s));
  }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    ScratchColumn ls, rs;
    ValueColumn& l = *ls;
    ValueColumn& r = *rs;
    left_->EvalBatch(batch, &l);
    right_->EvalBatch(batch, &r);
    if (l.is_int() && r.is_int()) {
      IntBinaryKernel(l, r, out, [](int64_t a, int64_t b) { return a * b; });
    } else {
      BoxedBinaryKernel(l, r, out, Combine);
    }
  }
  std::string ToString() const override {
    return "(" + left_->ToString() + " * " + right_->ToString() + ")";
  }

 private:
  ExprRef left_, right_;
};

class DivExpr : public Expression {
 public:
  DivExpr(ExprRef l, ExprRef r) : left_(std::move(l)), right_(std::move(r)) {}
  static Value Combine(const Value& lv, const Value& rv) {
    if (lv.IsNull() || rv.IsNull()) return Value::Null();
    if (lv.type() == TypeId::kInt && rv.type() == TypeId::kInt) {
      if (rv.AsInt() == 0) return Value::Null();
      return Value(lv.AsInt() / rv.AsInt());
    }
    if (rv.AsNumeric() == 0) return Value::Null();
    return Value(lv.AsNumeric() / rv.AsNumeric());
  }
  Value Evaluate(const Tuple& t, const Schema& s) const override {
    return Combine(left_->Evaluate(t, s), right_->Evaluate(t, s));
  }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    ScratchColumn ls, rs;
    ValueColumn& l = *ls;
    ValueColumn& r = *rs;
    left_->EvalBatch(batch, &l);
    right_->EvalBatch(batch, &r);
    if (!l.is_int() || !r.is_int()) {
      BoxedBinaryKernel(l, r, out, Combine);
      return;
    }
    // Int division adds its own NULL source (division by zero), so it gets
    // a dedicated kernel instead of IntBinaryKernel.
    const size_t n = l.size();
    out->ResetIntFilled(n);
    std::vector<int64_t>& o = out->MutableInts();
    const std::vector<int64_t>& a = l.ints();
    const std::vector<int64_t>& b = r.ints();
    for (size_t i = 0; i < n; i++) {
      if (l.IsNull(i) || r.IsNull(i) || b[i] == 0) {
        out->SetNull(i);
      } else {
        o[i] = a[i] / b[i];
      }
    }
  }
  std::string ToString() const override {
    return "(" + left_->ToString() + " / " + right_->ToString() + ")";
  }

 private:
  ExprRef left_, right_;
};

const char* OpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

class CompareExpr : public Expression {
 public:
  CompareExpr(CompareOp op, ExprRef l, ExprRef r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}
  static Value Combine(CompareOp op, const Value& lv, const Value& rv) {
    if (lv.IsNull() || rv.IsNull()) return Value::Null();  // SQL unknown
    int c = lv.Compare(rv);
    bool result = false;
    switch (op) {
      case CompareOp::kEq: result = c == 0; break;
      case CompareOp::kNe: result = c != 0; break;
      case CompareOp::kLt: result = c < 0; break;
      case CompareOp::kLe: result = c <= 0; break;
      case CompareOp::kGt: result = c > 0; break;
      case CompareOp::kGe: result = c >= 0; break;
    }
    return Value(static_cast<int64_t>(result ? 1 : 0));
  }
  Value Evaluate(const Tuple& t, const Schema& s) const override {
    return Combine(op_, left_->Evaluate(t, s), right_->Evaluate(t, s));
  }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    ScratchColumn ls, rs;
    ValueColumn& l = *ls;
    ValueColumn& r = *rs;
    left_->EvalBatch(batch, &l);
    right_->EvalBatch(batch, &r);
    if (!l.is_int() || !r.is_int()) {
      BoxedBinaryKernel(l, r, out,
                        [op = op_](const Value& lv, const Value& rv) {
                          return Combine(op, lv, rv);
                        });
      return;
    }
    // Int comparisons (the body of every frontier predicate) run one
    // branchless kernel per operator over the unboxed columns.
    switch (op_) {
      case CompareOp::kEq:
        IntBinaryKernel(l, r, out,
                        [](int64_t a, int64_t b) -> int64_t { return a == b; });
        break;
      case CompareOp::kNe:
        IntBinaryKernel(l, r, out,
                        [](int64_t a, int64_t b) -> int64_t { return a != b; });
        break;
      case CompareOp::kLt:
        IntBinaryKernel(l, r, out,
                        [](int64_t a, int64_t b) -> int64_t { return a < b; });
        break;
      case CompareOp::kLe:
        IntBinaryKernel(l, r, out,
                        [](int64_t a, int64_t b) -> int64_t { return a <= b; });
        break;
      case CompareOp::kGt:
        IntBinaryKernel(l, r, out,
                        [](int64_t a, int64_t b) -> int64_t { return a > b; });
        break;
      case CompareOp::kGe:
        IntBinaryKernel(l, r, out,
                        [](int64_t a, int64_t b) -> int64_t { return a >= b; });
        break;
    }
  }
  std::string ToString() const override {
    return "(" + left_->ToString() + " " + OpName(op_) + " " +
           right_->ToString() + ")";
  }

 private:
  CompareOp op_;
  ExprRef left_, right_;
};

class AndExpr : public Expression {
 public:
  AndExpr(ExprRef l, ExprRef r) : left_(std::move(l)), right_(std::move(r)) {}
  Value Evaluate(const Tuple& t, const Schema& s) const override {
    Value lv = left_->Evaluate(t, s);
    if (!lv.IsNull() && lv.AsInt() == 0) return Value(int64_t{0});
    Value rv = right_->Evaluate(t, s);
    if (!rv.IsNull() && rv.AsInt() == 0) return Value(int64_t{0});
    if (lv.IsNull() || rv.IsNull()) return Value::Null();
    return Value(int64_t{1});
  }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    // Three-valued AND over fully evaluated sides: same truth table as the
    // short-circuiting scalar path (false dominates NULL).
    ScratchColumn ls, rs;
    ValueColumn& l = *ls;
    ValueColumn& r = *rs;
    left_->EvalBatch(batch, &l);
    right_->EvalBatch(batch, &r);
    const size_t n = l.size();
    if (l.is_int() && r.is_int()) {
      out->ResetIntFilled(n);
      std::vector<int64_t>& o = out->MutableInts();
      const std::vector<int64_t>& a = l.ints();
      const std::vector<int64_t>& b = r.ints();
      if (!l.has_nulls() && !r.has_nulls()) {
        for (size_t i = 0; i < n; i++) o[i] = (a[i] != 0) & (b[i] != 0);
        return;
      }
      for (size_t i = 0; i < n; i++) {
        const bool ln = l.IsNull(i), rn = r.IsNull(i);
        if (!ln && a[i] == 0) {
          o[i] = 0;
        } else if (!rn && b[i] == 0) {
          o[i] = 0;
        } else if (ln || rn) {
          out->SetNull(i);
        } else {
          o[i] = 1;
        }
      }
      return;
    }
    BoxedBinaryKernel(l, r, out, [](const Value& lv, const Value& rv) {
      if (!lv.IsNull() && lv.AsInt() == 0) return Value(int64_t{0});
      if (!rv.IsNull() && rv.AsInt() == 0) return Value(int64_t{0});
      if (lv.IsNull() || rv.IsNull()) return Value::Null();
      return Value(int64_t{1});
    });
  }
  std::string ToString() const override {
    return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
  }

 private:
  ExprRef left_, right_;
};

class OrExpr : public Expression {
 public:
  OrExpr(ExprRef l, ExprRef r) : left_(std::move(l)), right_(std::move(r)) {}
  Value Evaluate(const Tuple& t, const Schema& s) const override {
    Value lv = left_->Evaluate(t, s);
    if (!lv.IsNull() && lv.AsInt() != 0) return Value(int64_t{1});
    Value rv = right_->Evaluate(t, s);
    if (!rv.IsNull() && rv.AsInt() != 0) return Value(int64_t{1});
    if (lv.IsNull() || rv.IsNull()) return Value::Null();
    return Value(int64_t{0});
  }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    ScratchColumn ls, rs;
    ValueColumn& l = *ls;
    ValueColumn& r = *rs;
    left_->EvalBatch(batch, &l);
    right_->EvalBatch(batch, &r);
    const size_t n = l.size();
    if (l.is_int() && r.is_int()) {
      out->ResetIntFilled(n);
      std::vector<int64_t>& o = out->MutableInts();
      const std::vector<int64_t>& a = l.ints();
      const std::vector<int64_t>& b = r.ints();
      if (!l.has_nulls() && !r.has_nulls()) {
        for (size_t i = 0; i < n; i++) o[i] = (a[i] != 0) | (b[i] != 0);
        return;
      }
      for (size_t i = 0; i < n; i++) {
        const bool ln = l.IsNull(i), rn = r.IsNull(i);
        if (!ln && a[i] != 0) {
          o[i] = 1;
        } else if (!rn && b[i] != 0) {
          o[i] = 1;
        } else if (ln || rn) {
          out->SetNull(i);
        } else {
          o[i] = 0;
        }
      }
      return;
    }
    BoxedBinaryKernel(l, r, out, [](const Value& lv, const Value& rv) {
      if (!lv.IsNull() && lv.AsInt() != 0) return Value(int64_t{1});
      if (!rv.IsNull() && rv.AsInt() != 0) return Value(int64_t{1});
      if (lv.IsNull() || rv.IsNull()) return Value::Null();
      return Value(int64_t{0});
    });
  }
  std::string ToString() const override {
    return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
  }

 private:
  ExprRef left_, right_;
};

class IsNullExpr : public Expression {
 public:
  IsNullExpr(ExprRef inner, bool negated)
      : inner_(std::move(inner)), negated_(negated) {}
  Value Evaluate(const Tuple& t, const Schema& s) const override {
    bool is_null = inner_->Evaluate(t, s).IsNull();
    return Value(static_cast<int64_t>(is_null != negated_ ? 1 : 0));
  }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    ScratchColumn is_;
    ValueColumn& inner = *is_;
    inner_->EvalBatch(batch, &inner);
    const size_t n = inner.size();
    out->ResetIntFilled(n);
    std::vector<int64_t>& o = out->MutableInts();
    for (size_t i = 0; i < n; i++) {
      o[i] = inner.IsNull(i) != negated_ ? 1 : 0;
    }
  }
  std::string ToString() const override {
    return inner_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
  }

 private:
  ExprRef inner_;
  bool negated_;
};

class NotExpr : public Expression {
 public:
  explicit NotExpr(ExprRef inner) : inner_(std::move(inner)) {}
  static Value Combine(const Value& v) {
    if (v.IsNull()) return Value::Null();
    return Value(static_cast<int64_t>(v.AsInt() == 0 ? 1 : 0));
  }
  Value Evaluate(const Tuple& t, const Schema& s) const override {
    return Combine(inner_->Evaluate(t, s));
  }
  void EvalBatch(const RowBatch& batch, ValueColumn* out) const override {
    ScratchColumn is_;
    ValueColumn& inner = *is_;
    inner_->EvalBatch(batch, &inner);
    const size_t n = inner.size();
    if (inner.is_int()) {
      out->ResetIntFilled(n);
      std::vector<int64_t>& o = out->MutableInts();
      const std::vector<int64_t>& a = inner.ints();
      for (size_t i = 0; i < n; i++) {
        if (inner.IsNull(i)) {
          out->SetNull(i);
        } else {
          o[i] = a[i] == 0;
        }
      }
      return;
    }
    out->Reset(n);
    for (size_t i = 0; i < n; i++) out->Append(Combine(inner.Get(i)));
  }
  std::string ToString() const override {
    return "NOT " + inner_->ToString();
  }

 private:
  ExprRef inner_;
};

}  // namespace

ExprRef Col(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name));
}
ExprRef Param(const BindContext* ctx, size_t slot, std::string name) {
  return std::make_shared<ParamExpr>(ctx, slot, std::move(name));
}
ExprRef BoundSlot(const BindContext* ctx, size_t slot) {
  return std::make_shared<BoundSlotExpr>(ctx, slot);
}
ExprRef Lit(int64_t v) { return std::make_shared<LiteralExpr>(Value(v)); }
ExprRef Lit(double v) { return std::make_shared<LiteralExpr>(Value(v)); }
ExprRef Lit(std::string v) {
  return std::make_shared<LiteralExpr>(Value(std::move(v)));
}
ExprRef Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprRef NullLit() { return std::make_shared<LiteralExpr>(Value::Null()); }
ExprRef Add(ExprRef left, ExprRef right) {
  return std::make_shared<AddExpr>(std::move(left), std::move(right));
}
ExprRef Sub(ExprRef left, ExprRef right) {
  return std::make_shared<SubExpr>(std::move(left), std::move(right));
}
ExprRef Mul(ExprRef left, ExprRef right) {
  return std::make_shared<MulExpr>(std::move(left), std::move(right));
}
ExprRef Div(ExprRef left, ExprRef right) {
  return std::make_shared<DivExpr>(std::move(left), std::move(right));
}
ExprRef IsNull(ExprRef inner, bool negated) {
  return std::make_shared<IsNullExpr>(std::move(inner), negated);
}
ExprRef Cmp(CompareOp op, ExprRef left, ExprRef right) {
  return std::make_shared<CompareExpr>(op, std::move(left), std::move(right));
}
ExprRef And(ExprRef left, ExprRef right) {
  return std::make_shared<AndExpr>(std::move(left), std::move(right));
}
ExprRef Or(ExprRef left, ExprRef right) {
  return std::make_shared<OrExpr>(std::move(left), std::move(right));
}
ExprRef Not(ExprRef inner) { return std::make_shared<NotExpr>(std::move(inner)); }

ExprRef ColEq(std::string name, int64_t v) {
  return Cmp(CompareOp::kEq, Col(std::move(name)), Lit(v));
}

bool EvalPredicate(const Expression& expr, const Tuple& tuple,
                   const Schema& schema) {
  Value v = expr.Evaluate(tuple, schema);
  return !v.IsNull() && v.AsInt() != 0;
}

void EvalPredicateBatch(const Expression& expr, const RowBatch& batch,
                        ValueColumn* scratch, std::vector<char>* keep) {
  if (EvalRowAtATime(batch)) {
    keep->resize(batch.num_rows());
    for (size_t i = 0; i < batch.num_rows(); i++) {
      (*keep)[i] = EvalPredicate(expr, batch.row(i), batch.schema()) ? 1 : 0;
    }
    return;
  }
  expr.EvalBatch(batch, scratch);
  const size_t n = scratch->size();
  keep->resize(n);
  if (scratch->is_int() && !scratch->has_nulls()) {
    const std::vector<int64_t>& v = scratch->ints();
    for (size_t i = 0; i < n; i++) (*keep)[i] = v[i] != 0;
    return;
  }
  for (size_t i = 0; i < n; i++) {
    if (scratch->IsNull(i)) {
      (*keep)[i] = 0;
    } else if (scratch->is_int()) {
      (*keep)[i] = scratch->IntAt(i) != 0;
    } else {
      (*keep)[i] = scratch->Get(i).AsInt() != 0;
    }
  }
}

}  // namespace relgraph
