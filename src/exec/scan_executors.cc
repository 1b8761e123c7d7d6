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

size_t ReadIteratorBatch(Table::Iterator* it, bool* exhausted,
                         size_t max_rows, std::vector<Tuple>* rows,
                         std::vector<RowRef>* refs) {
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
  return n;
}

namespace {

/// Shared pull of the two table-iterator scans; doubles *batch_rows.
bool ScanBatch(Table::Iterator* it, bool* exhausted, size_t* batch_rows,
               Status* status, std::vector<Tuple>* rows, BatchSpan* out) {
  const size_t n = ReadIteratorBatch(it, exhausted, *batch_rows, rows, nullptr);
  if (n == 0) {
    *status = it->status();
    TrimSlots(rows);
    return false;
  }
  *batch_rows = std::min(*batch_rows * 2, kExecBatchSize);
  *out = BatchSpan::Scratch(rows, n);
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

bool RuntimeKeyRange(CompareOp op, const Value& key, int64_t* lo,
                     int64_t* hi) {
  *lo = std::numeric_limits<int64_t>::min();
  *hi = std::numeric_limits<int64_t>::max();
  if (key.IsNull()) return false;
  if (key.type() == TypeId::kInt) KeyRangeFor(op, key.AsInt(), lo, hi);
  return true;
}

bool KeyProbe::Bounds(int64_t* lo_out, int64_t* hi_out) const {
  if (key != nullptr) {
    return RuntimeKeyRange(op, key->Evaluate(Tuple{}), lo_out, hi_out);
  }
  *lo_out = lo;
  *hi_out = hi;
  return true;
}

Status KeyProbe::Open(Table* table, Table::Iterator* it, bool* any) const {
  if (column.empty()) {
    *it = table->Scan();
    *any = true;
    return Status::OK();
  }
  int64_t from, to;
  *any = Bounds(&from, &to);
  if (!*any) return Status::OK();
  if (!prefix_column.empty()) {
    return table->ScanRange(prefix_column, prefix, column, from, to, it);
  }
  return table->ScanRange(column, from, to, it);
}

IndexRangeScanExecutor::IndexRangeScanExecutor(Table* table, KeyProbe probe,
                                               size_t first_batch)
    : table_(table), probe_(std::move(probe)), first_batch_(first_batch) {}

Status IndexRangeScanExecutor::Open() {
  batch_rows_ = first_batch_;
  bool any;
  RELGRAPH_RETURN_IF_ERROR(probe_.Open(table_, &it_, &any));
  // A NULL key: no row can match, so nothing is read.
  exhausted_ = !any;
  return Status::OK();
}

void IndexRangeScanExecutor::Explain(int depth, std::string* out) const {
  Indent(depth, out);
  // A runtime key renders the bounds the *current* bindings imply, so
  // EXPLAIN on a bound prepared statement shows real numbers; unbound
  // slots read as NULL, which leaves the range fully open.
  int64_t lo, hi;
  probe_.Bounds(&lo, &hi);
  const bool open_lo = lo == std::numeric_limits<int64_t>::min();
  const bool open_hi = hi == std::numeric_limits<int64_t>::max();
  out->append("IndexRangeScan: " + table_->name() + "." +
              (probe_.prefix_column.empty()
                   ? std::string()
                   : probe_.prefix_column + " = " +
                         std::to_string(probe_.prefix) + ", ") +
              probe_.column + " in [" +
              (open_lo ? "-inf" : std::to_string(lo)) + ", " +
              (open_hi ? "+inf" : std::to_string(hi)) + "]" +
              (probe_.key != nullptr
                   ? " (bound from " + probe_.key->ToString() + ")"
                   : "") +
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
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  bind_status_ =
      BindColumns(predicate_, child_->OutputSchema(), &predicate_);
}

Status FilterExecutor::Open() {
  RELGRAPH_RETURN_IF_ERROR(bind_status_);
  return child_->Init();
}

bool FilterExecutor::NextBatchSel(BatchSpan* out) {
  if (!status_.ok()) return false;  // a failed Init, or a failed child
  // Each child batch is consumed whole, so no lanes straddle calls and the
  // forwarded span never exceeds one child batch — the batch-size cap holds
  // through filter stacks. The predicate runs as one EvalPredicateBatch per
  // child batch over exactly the child's selected lanes.
  for (;;) {
    BatchSpan cs;
    if (!child_->NextBatchSel(&cs)) {
      status_ = child_->status();
      TrimSlots(&compact_);
      return false;
    }
    RowBatch batch(cs.rows, cs.num_rows, cs.sel, cs.num_sel);
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
    if (compact_.size() < k) compact_.resize(k);
    for (size_t i = 0, n = 0; i < lanes; i++) {
      if (keep_[i]) cs.Take(i, &compact_[n++]);
    }
    *out = BatchSpan::Scratch(&compact_, k);
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
      output_schema_(std::move(output_schema)) {
  bind_status_ = BindColumns(&exprs_, child_->OutputSchema());
}

Status ProjectExecutor::Open() {
  RELGRAPH_RETURN_IF_ERROR(bind_status_);
  if (exprs_.size() != output_schema_.NumColumns()) {
    return Status::InvalidArgument("projection arity mismatch");
  }
  return child_->Init();
}

bool ProjectExecutor::NextBatchSel(BatchSpan* out) {
  if (!status_.ok()) return false;  // a failed Init, or a failed child
  BatchSpan span;
  if (!child_->NextBatchSel(&span)) {
    status_ = child_->status();
    TrimSlots(&rows_);
    return false;
  }
  // Reads the borrowed child span in place (no input copy); a sparse span
  // compacts here, as a side effect of producing fresh output rows. Wide
  // batches evaluate column-at-a-time — one column per select item over
  // the selected lanes, zipped back into rows — and tiny ones (the FEM
  // frontier statements) row-at-a-time, where per-node column setup costs
  // more than it saves.
  RowBatch batch(span.rows, span.num_rows, span.sel, span.num_sel);
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
  if (rows_.size() < n) rows_.resize(n);
  for (size_t i = 0; i < n; i++) {
    Tuple& dst = rows_[i];
    if (dst.NumValues() != width) dst = Tuple(std::vector<Value>(width));
    for (size_t k = 0; k < width; k++) {
      if (row_at_a_time) {
        dst.value(k) = exprs_[k]->Evaluate(batch.row(i));
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
  *out = BatchSpan::Scratch(&rows_, n);
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
    : tuples_(std::move(tuples)),
      size_(tuples_.size()),
      schema_(std::move(schema)) {}

Status MaterializedExecutor::Open() {
  pos_ = 0;
  return Status::OK();
}

bool MaterializedExecutor::NextBatchSel(BatchSpan* out) {
  return ReplayWindow(tuples_, size_, &pos_, out);
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
