#include "src/exec/window_executor.h"

#include <algorithm>

#include "src/exec/scan_executors.h"

namespace relgraph {

namespace {

/// Slots of the named columns in `schema`; InvalidArgument for a name it
/// lacks.
Status ResolveColumns(const Schema& schema,
                      const std::vector<std::string>& names,
                      std::vector<size_t>* slots) {
  slots->clear();
  for (const auto& name : names) {
    const int idx = schema.Find(name);
    if (idx < 0) return Status::InvalidArgument("no column " + name);
    slots->push_back(static_cast<size_t>(idx));
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------ SortedWindowRowNumber

SortedWindowRowNumberExecutor::SortedWindowRowNumberExecutor(
    ExecRef child, std::vector<std::string> partition_cols,
    std::string out_column)
    : child_(std::move(child)), partition_cols_(std::move(partition_cols)) {
  const Schema& in = child_->OutputSchema();
  bind_status_ = ResolveColumns(in, partition_cols_, &part_idx_);
  std::vector<Column> cols = in.columns();
  cols.push_back({std::move(out_column), TypeId::kInt});
  output_schema_ = Schema(std::move(cols));
}

Status SortedWindowRowNumberExecutor::Open() {
  RELGRAPH_RETURN_IF_ERROR(bind_status_);
  prev_key_.clear();
  have_prev_ = false;
  row_number_ = 0;
  return child_->Init();
}

void SortedWindowRowNumberExecutor::Number(const Tuple& in, Tuple* out) {
  bool boundary = !have_prev_;
  if (have_prev_) {
    for (size_t k = 0; k < part_idx_.size(); k++) {
      if (prev_key_[k].Compare(in.value(part_idx_[k])) != 0) {
        boundary = true;
        break;
      }
    }
  }
  if (boundary) {
    row_number_ = 0;
    prev_key_.clear();
    for (size_t pi : part_idx_) prev_key_.push_back(in.value(pi));
    have_prev_ = true;
  }
  row_number_++;
  const size_t width = in.NumValues() + 1;
  if (out->NumValues() == width) {
    // Reused output slot: overwrite in place, no allocation.
    for (size_t i = 0; i + 1 < width; i++) out->value(i) = in.value(i);
    out->value(width - 1).SetInt(row_number_);
    return;
  }
  std::vector<Value> values;
  values.reserve(width);
  for (size_t i = 0; i + 1 < width; i++) values.push_back(in.value(i));
  values.emplace_back(row_number_);
  *out = Tuple(std::move(values));
}

bool SortedWindowRowNumberExecutor::NextBatchSel(BatchSpan* out) {
  BatchSpan in;
  if (!child_->NextBatchSel(&in)) {
    status_ = child_->status();
    TrimSlots(&rows_);
    return false;
  }
  const size_t n = in.count();
  if (rows_.size() < n) rows_.resize(n);
  for (size_t i = 0; i < n; i++) Number(in.row(i), &rows_[i]);
  *out = BatchSpan::Scratch(&rows_, n);
  return true;
}

const Schema& SortedWindowRowNumberExecutor::OutputSchema() const {
  return output_schema_;
}

// ------------------------------------------------------ WindowRowNumber

WindowRowNumberExecutor::WindowRowNumberExecutor(
    ExecRef child, std::vector<std::string> partition_cols,
    std::vector<SortKey> order_keys, std::string out_column)
    : child_(std::move(child)),
      partition_cols_(std::move(partition_cols)),
      order_keys_(std::move(order_keys)),
      out_column_(std::move(out_column)) {
  const Schema& in = child_->OutputSchema();
  bind_status_ = ResolveColumns(in, partition_cols_, &part_idx_);
  if (bind_status_.ok()) bind_status_ = BindSortKeys(&order_keys_, in);
  std::vector<Column> cols = in.columns();
  cols.push_back({out_column_, TypeId::kInt});
  output_schema_ = Schema(std::move(cols));
  // The sort + numbering pipeline is built once; every Init() refills the
  // sorted input in place and re-opens it.
  auto input = std::make_unique<MaterializedExecutor>(std::vector<Tuple>{}, in);
  input_ = input.get();
  stream_ = std::make_unique<SortedWindowRowNumberExecutor>(
      std::move(input), partition_cols_, out_column_);
}

Status WindowRowNumberExecutor::Open() {
  RELGRAPH_RETURN_IF_ERROR(bind_status_);
  std::vector<Tuple>& input = *input_->slots();
  size_t n;
  RELGRAPH_RETURN_IF_ERROR(CollectInto(child_.get(), &input, &n));

  // One sort orders by (partition, order-keys); partitions are then
  // contiguous runs — the standard single-pass window plan. Partition
  // columns compare through pre-resolved indices (not the expression
  // comparator), and the order keys are bound to their slots.
  auto cmp_partition = [&](const Tuple& a, const Tuple& b) {
    for (size_t pi : part_idx_) {
      int c = a.value(pi).Compare(b.value(pi));
      if (c != 0) return c;
    }
    return 0;
  };
  std::stable_sort(input.begin(), input.begin() + n,
                   [&](const Tuple& a, const Tuple& b) {
                     int c = cmp_partition(a, b);
                     if (c != 0) return c < 0;
                     return CompareBySortKeys(a, b, order_keys_) < 0;
                   });

  // The sorted rows are the only materialization: row numbers are
  // assigned on the fly by the streaming operator as consumers pull.
  input_->set_size(n);
  return stream_->Init();
}

bool WindowRowNumberExecutor::NextBatchSel(BatchSpan* out) {
  if (!stream_->NextBatchSel(out)) {
    status_ = stream_->status();
    input_->set_size(0);
    TrimSlots(input_->slots());
    return false;
  }
  return true;
}

const Schema& WindowRowNumberExecutor::OutputSchema() const {
  return output_schema_;
}

}  // namespace relgraph
