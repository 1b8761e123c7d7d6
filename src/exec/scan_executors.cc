#include "src/exec/scan_executors.h"

#include <algorithm>

namespace relgraph {

Schema PrefixSchema(const Schema& schema, const std::string& prefix) {
  std::vector<Column> cols;
  cols.reserve(schema.NumColumns());
  for (const auto& c : schema.columns()) {
    cols.push_back({prefix + c.name, c.type});
  }
  return Schema(std::move(cols));
}

bool ReadIteratorBatch(Table::Iterator* it, bool* exhausted, size_t max_rows,
                       std::vector<Tuple>* rows, std::vector<RowRef>* refs) {
  if (refs != nullptr) refs->clear();
  size_t n = 0;
  while (n < max_rows && !*exhausted) {
    if (n == rows->size()) rows->emplace_back();
    RowRef ref;
    if (!it->Next(&(*rows)[n], refs != nullptr ? &ref : nullptr)) {
      *exhausted = true;
      break;
    }
    if (refs != nullptr) refs->push_back(ref);
    n++;
  }
  rows->resize(n);
  return n > 0;
}

namespace {

/// Shared pull of the two table-iterator scans; doubles *batch_rows.
bool ScanBatch(Table::Iterator* it, bool* exhausted, size_t* batch_rows,
               Status* status, std::vector<Tuple>* rows, BatchSpan* out) {
  if (!ReadIteratorBatch(it, exhausted, *batch_rows, rows, nullptr)) {
    *status = it->status();
    return false;
  }
  *batch_rows = std::min(*batch_rows * 2, kExecBatchSize);
  *out = BatchSpan::Scratch(rows);
  return true;
}

}  // namespace

// ---------------------------------------------------------------- SeqScan

SeqScanExecutor::SeqScanExecutor(Table* table) : table_(table) {}

Status SeqScanExecutor::Open() {
  it_ = table_->Scan();
  exhausted_ = false;
  batch_rows_ = kFirstScanBatch;
  return Status::OK();
}

bool SeqScanExecutor::NextBatchSel(BatchSpan* out) {
  return ScanBatch(&it_, &exhausted_, &batch_rows_, &status_, &rows_, out);
}

const Schema& SeqScanExecutor::OutputSchema() const {
  return table_->schema();
}

// ---------------------------------------------------------- IndexRangeScan

bool KeyRangeFor(CompareOp op, int64_t k, int64_t* lo, int64_t* hi) {
  constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMaxKey = std::numeric_limits<int64_t>::max();
  switch (op) {
    case CompareOp::kEq: *lo = *hi = k; return true;
    case CompareOp::kLe: *lo = kMinKey; *hi = k; return true;
    case CompareOp::kLt:
      if (k == kMinKey) return false;
      *lo = kMinKey;
      *hi = k - 1;
      return true;
    case CompareOp::kGe: *lo = k; *hi = kMaxKey; return true;
    case CompareOp::kGt:
      if (k == kMaxKey) return false;
      *lo = k + 1;
      *hi = kMaxKey;
      return true;
    default:
      return false;  // <> has no contiguous range
  }
}

IndexRangeScanExecutor::IndexRangeScanExecutor(Table* table,
                                               std::string column, int64_t lo,
                                               int64_t hi)
    : table_(table), column_(std::move(column)), lo_(lo), hi_(hi) {}

IndexRangeScanExecutor::IndexRangeScanExecutor(Table* table,
                                               std::string column,
                                               CompareOp op, ExprRef key)
    : table_(table),
      column_(std::move(column)),
      lo_(std::numeric_limits<int64_t>::min()),
      hi_(std::numeric_limits<int64_t>::max()),
      key_(std::move(key)),
      op_(op) {}

void IndexRangeScanExecutor::ComputeRuntimeBounds() {
  lo_ = std::numeric_limits<int64_t>::min();
  hi_ = std::numeric_limits<int64_t>::max();
  Value v = key_->Evaluate(Tuple{}, Schema{});
  if (v.type() != TypeId::kInt) return;  // full range; residual filter decides
  int64_t lo, hi;
  if (KeyRangeFor(op_, v.AsInt(), &lo, &hi)) {
    lo_ = lo;
    hi_ = hi;
  }
}

Status IndexRangeScanExecutor::Open() {
  exhausted_ = false;
  batch_rows_ = kFirstScanBatch;
  if (key_ != nullptr) ComputeRuntimeBounds();
  return table_->ScanRange(column_, lo_, hi_, &it_);
}

void IndexRangeScanExecutor::Explain(int depth, std::string* out) const {
  Indent(depth, out);
  int64_t lo = lo_, hi = hi_;
  if (key_ != nullptr) {
    // Render the bounds the *current* bindings imply, so EXPLAIN on a
    // bound prepared statement shows real numbers; unbound slots read as
    // NULL, which leaves the range fully open.
    lo = std::numeric_limits<int64_t>::min();
    hi = std::numeric_limits<int64_t>::max();
    Value v = key_->Evaluate(Tuple{}, Schema{});
    if (v.type() == TypeId::kInt) KeyRangeFor(op_, v.AsInt(), &lo, &hi);
  }
  const bool open_lo = lo == std::numeric_limits<int64_t>::min();
  const bool open_hi = hi == std::numeric_limits<int64_t>::max();
  out->append("IndexRangeScan: " + table_->name() + "." + column_ + " in [" +
              (open_lo ? "-inf" : std::to_string(lo)) + ", " +
              (open_hi ? "+inf" : std::to_string(hi)) + "]" +
              (key_ != nullptr ? " (bound from " + key_->ToString() + ")" : "") +
              "\n");
}

bool IndexRangeScanExecutor::NextBatchSel(BatchSpan* out) {
  return ScanBatch(&it_, &exhausted_, &batch_rows_, &status_, &rows_, out);
}

const Schema& IndexRangeScanExecutor::OutputSchema() const {
  return table_->schema();
}

// ----------------------------------------------------------------- Filter

FilterExecutor::FilterExecutor(ExecRef child, ExprRef predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterExecutor::Open() { return child_->Init(); }

bool FilterExecutor::NextBatchSel(BatchSpan* out) {
  const Schema& in_schema = child_->OutputSchema();
  // Each child batch is consumed whole, so no lanes straddle calls and the
  // forwarded span never exceeds one child batch — the batch-size cap holds
  // through filter stacks. The predicate runs as one EvalPredicateBatch per
  // child batch over exactly the child's selected lanes.
  for (;;) {
    BatchSpan cs;
    if (!child_->NextBatchSel(&cs)) {
      status_ = child_->status();
      return false;
    }
    RowBatch batch(cs.rows, cs.num_rows, in_schema, cs.sel, cs.num_sel);
    EvalPredicateBatch(*predicate_, batch, &pred_scratch_, &keep_);
    const size_t lanes = cs.count();
    size_t k = 0;
    for (size_t i = 0; i < lanes; i++) k += keep_[i] != 0;
    if (k == 0) continue;
    if (k == lanes) {
      // Every lane passed: forward the child's span untouched (for a
      // stacked filter this also preserves the child's selection vector).
      *out = cs;
      return true;
    }
    if (k >= kSelVectorMinRows) {
      // Enough survivors to be worth the downstream indirection: keep the
      // child's rows where they are and carry the qualifying indices.
      // cs.index(i) composes with the child's own selection, so the
      // forwarded sel always indexes the underlying row storage.
      sel_.clear();
      sel_.reserve(k);
      for (size_t i = 0; i < lanes; i++) {
        if (keep_[i]) sel_.push_back(static_cast<uint32_t>(cs.index(i)));
      }
      *out = cs;
      out->sel = sel_.data();
      out->num_sel = sel_.size();
      return true;
    }
    // Few survivors: a compact copy is cheaper than the indirection. Slots
    // are overwritten in place, so recycled tuples keep their buffers.
    compact_.resize(k);
    for (size_t i = 0, n = 0; i < lanes; i++) {
      if (keep_[i]) cs.Take(i, &compact_[n++]);
    }
    *out = BatchSpan::Scratch(&compact_);
    return true;
  }
}

const Schema& FilterExecutor::OutputSchema() const {
  return child_->OutputSchema();
}

// ---------------------------------------------------------------- Project

ProjectExecutor::ProjectExecutor(ExecRef child, std::vector<ExprRef> exprs,
                                 Schema output_schema)
    : child_(std::move(child)),
      exprs_(std::move(exprs)),
      output_schema_(std::move(output_schema)) {}

Status ProjectExecutor::Open() {
  if (exprs_.size() != output_schema_.NumColumns()) {
    return Status::InvalidArgument("projection arity mismatch");
  }
  return child_->Init();
}

bool ProjectExecutor::NextBatchSel(BatchSpan* out) {
  BatchSpan span;
  if (!child_->NextBatchSel(&span)) {
    status_ = child_->status();
    return false;
  }
  const Schema& in_schema = child_->OutputSchema();
  // Reads the borrowed child span in place (no input copy); a sparse span
  // compacts here, as a side effect of producing fresh output rows. Wide
  // batches evaluate column-at-a-time — one column per select item over
  // the selected lanes, zipped back into rows — and tiny ones (the FEM
  // frontier statements) row-at-a-time, where per-node column setup costs
  // more than it saves.
  RowBatch batch(span.rows, span.num_rows, in_schema, span.sel, span.num_sel);
  const bool row_at_a_time = EvalRowAtATime(batch);
  const size_t width = exprs_.size();
  if (!row_at_a_time) {
    expr_cols_.resize(width);
    for (size_t k = 0; k < width; k++) {
      exprs_[k]->EvalBatch(batch, &expr_cols_[k]);
    }
  }
  // Output slots with the right arity are overwritten in place (no
  // allocation); slots a consumer moved from get rebuilt.
  const size_t n = batch.num_rows();
  rows_.resize(n);
  for (size_t i = 0; i < n; i++) {
    Tuple& dst = rows_[i];
    if (dst.NumValues() != width) dst = Tuple(std::vector<Value>(width));
    for (size_t k = 0; k < width; k++) {
      if (row_at_a_time) {
        dst.value(k) = exprs_[k]->Evaluate(batch.row(i), in_schema);
        continue;
      }
      const ValueColumn& col = expr_cols_[k];
      if (col.is_int() && !col.IsNull(i)) {
        dst.value(k).SetInt(col.IntAt(i));  // no temporary Value
      } else if (col.is_int()) {
        dst.value(k).SetNull();
      } else {
        dst.value(k) = col.Get(i);
      }
    }
  }
  *out = BatchSpan::Scratch(&rows_);
  return true;
}

const Schema& ProjectExecutor::OutputSchema() const { return output_schema_; }

// ------------------------------------------------------------------ Limit

LimitExecutor::LimitExecutor(ExecRef child, int64_t limit)
    : child_(std::move(child)), limit_(limit) {}

Status LimitExecutor::Open() {
  produced_ = 0;
  return child_->Init();
}

bool LimitExecutor::NextBatchSel(BatchSpan* out) {
  if (produced_ >= limit_) return false;
  if (!child_->NextBatchSel(out)) {
    status_ = child_->status();
    return false;
  }
  const size_t left = static_cast<size_t>(limit_ - produced_);
  if (out->count() > left) {
    (out->dense() ? out->num_rows : out->num_sel) = left;
  }
  produced_ += static_cast<int64_t>(out->count());
  return true;
}

const Schema& LimitExecutor::OutputSchema() const {
  return child_->OutputSchema();
}

// ----------------------------------------------------------- Materialized

MaterializedExecutor::MaterializedExecutor(std::vector<Tuple> tuples,
                                           Schema schema)
    : tuples_(std::move(tuples)), schema_(std::move(schema)) {}

Status MaterializedExecutor::Open() {
  pos_ = 0;
  return Status::OK();
}

bool MaterializedExecutor::NextBatchSel(BatchSpan* out) {
  return ReplayWindow(tuples_, &pos_, out);
}

const Schema& MaterializedExecutor::OutputSchema() const { return schema_; }

// ----------------------------------------------------------------- Rename

RenameExecutor::RenameExecutor(ExecRef child, std::vector<std::string> names)
    : child_(std::move(child)) {
  std::vector<Column> cols;
  const Schema& in = child_->OutputSchema();
  cols.reserve(in.NumColumns());
  for (size_t i = 0; i < in.NumColumns(); i++) {
    cols.push_back({names[i], in.column(i).type});
  }
  schema_ = Schema(std::move(cols));
}

Status RenameExecutor::Open() { return child_->Init(); }

bool RenameExecutor::NextBatchSel(BatchSpan* out) {
  if (!child_->NextBatchSel(out)) {
    status_ = child_->status();
    return false;
  }
  return true;
}

const Schema& RenameExecutor::OutputSchema() const { return schema_; }

}  // namespace relgraph
