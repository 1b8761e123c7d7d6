#include "src/exec/window_executor.h"

#include <algorithm>

#include "src/exec/scan_executors.h"

namespace relgraph {

// ------------------------------------------------ SortedWindowRowNumber

SortedWindowRowNumberExecutor::SortedWindowRowNumberExecutor(
    ExecRef child, std::vector<std::string> partition_cols,
    std::string out_column)
    : child_(std::move(child)), partition_cols_(std::move(partition_cols)) {
  std::vector<Column> cols = child_->OutputSchema().columns();
  cols.push_back({std::move(out_column), TypeId::kInt});
  output_schema_ = Schema(std::move(cols));
}

Status SortedWindowRowNumberExecutor::Open() {
  prev_key_.clear();
  have_prev_ = false;
  row_number_ = 0;
  const Schema& in = child_->OutputSchema();
  part_idx_.clear();
  part_idx_.reserve(partition_cols_.size());
  for (const auto& p : partition_cols_) part_idx_.push_back(in.IndexOf(p));
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
    return false;
  }
  const size_t n = in.count();
  rows_.resize(n);
  for (size_t i = 0; i < n; i++) Number(in.row(i), &rows_[i]);
  *out = BatchSpan::Scratch(&rows_);
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
  std::vector<Column> cols = child_->OutputSchema().columns();
  cols.push_back({out_column_, TypeId::kInt});
  output_schema_ = Schema(std::move(cols));
}

Status WindowRowNumberExecutor::Open() {
  stream_.reset();
  std::vector<Tuple> input;
  RELGRAPH_RETURN_IF_ERROR(Collect(child_.get(), &input));

  const Schema& in_schema = child_->OutputSchema();
  std::vector<size_t> part_idx;
  part_idx.reserve(partition_cols_.size());
  for (const auto& p : partition_cols_) part_idx.push_back(in_schema.IndexOf(p));

  // One sort orders by (partition, order-keys); partitions are then
  // contiguous runs — the standard single-pass window plan. Partition
  // columns compare through pre-resolved indices (not the expression
  // comparator) so the sort costs no per-comparison name lookups.
  auto cmp_partition = [&](const Tuple& a, const Tuple& b) {
    for (size_t pi : part_idx) {
      int c = a.value(pi).Compare(b.value(pi));
      if (c != 0) return c;
    }
    return 0;
  };
  std::stable_sort(input.begin(), input.end(),
                   [&](const Tuple& a, const Tuple& b) {
                     int c = cmp_partition(a, b);
                     if (c != 0) return c < 0;
                     return CompareBySortKeys(a, b, order_keys_, in_schema) < 0;
                   });

  // The sorted vector is the only materialization: row numbers are
  // assigned on the fly by the streaming operator as consumers pull.
  stream_ = std::make_unique<SortedWindowRowNumberExecutor>(
      std::make_unique<MaterializedExecutor>(std::move(input), in_schema),
      partition_cols_, out_column_);
  return stream_->Init();
}

bool WindowRowNumberExecutor::NextBatchSel(BatchSpan* out) {
  if (stream_ == nullptr) return false;  // Init() failed or never ran
  if (!stream_->NextBatchSel(out)) {
    status_ = stream_->status();
    return false;
  }
  return true;
}

const Schema& WindowRowNumberExecutor::OutputSchema() const {
  return output_schema_;
}

}  // namespace relgraph
