#include "src/exec/join_executors.h"

#include <algorithm>

namespace relgraph {

// ---------------------------------------------------------- NestedLoopJoin

NestedLoopJoinExecutor::NestedLoopJoinExecutor(ExecRef left, ExecRef right,
                                               ExprRef predicate,
                                               std::optional<JoinKey> key)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      key_(std::move(key)) {
  output_schema_ =
      ConcatSchemas(left_->OutputSchema(), right_->OutputSchema());
  if (key_.has_value()) {
    left_key_idx_ = left_->OutputSchema().Find(key_->left);
    right_key_idx_ = right_->OutputSchema().Find(key_->right);
  }
  if (predicate_ != nullptr) {
    bind_status_ = BindColumns(predicate_, output_schema_, &predicate_);
  }
}

void NestedLoopJoinExecutor::Explain(int depth, std::string* out) const {
  Indent(depth, out);
  out->append("NestedLoopJoin");
  if (key_.has_value()) {
    out->append(": key ").append(key_->left).append(" = ").append(
        key_->right);
    if (predicate_ != nullptr) {
      out->append(" residual ").append(predicate_->ToString());
    }
  } else if (predicate_ != nullptr) {
    out->append(": ").append(predicate_->ToString());
  } else {
    out->append(" (cross)");
  }
  out->append("\n");
  left_->Explain(depth + 1, out);
  right_->Explain(depth + 1, out);
}

Status NestedLoopJoinExecutor::Open() {
  RELGRAPH_RETURN_IF_ERROR(bind_status_);
  if (key_.has_value() && (left_key_idx_ < 0 || right_key_idx_ < 0)) {
    return Status::InvalidArgument(std::string("nested-loop join key ")
                                       .append(key_->left)
                                       .append(" = ")
                                       .append(key_->right)
                                       .append(" not in its inputs"));
  }
  RELGRAPH_RETURN_IF_ERROR(left_->Init());
  RELGRAPH_RETURN_IF_ERROR(
      CollectInto(right_.get(), &right_rows_, &num_right_));
  key_index_.clear();
  mixed_right_keys_ = false;
  if (key_.has_value()) {
    key_index_.reserve(num_right_);
    for (size_t pos = 0; pos < num_right_; pos++) {
      const Value& k = right_rows_[pos].value(right_key_idx_);
      if (k.type() == TypeId::kInt) {
        key_index_.emplace_back(k.AsInt(), pos);
      } else if (!k.IsNull()) {
        mixed_right_keys_ = true;
      }
    }
    std::sort(key_index_.begin(), key_index_.end());
  }
  left_span_ = BatchSpan{};
  left_lane_ = 0;
  return Status::OK();
}

void NestedLoopJoinExecutor::StartLeftRow() {
  right_pos_ = 0;
  right_end_ = num_right_;
  via_index_ = false;
  compare_keys_ = false;
  if (!key_.has_value()) return;
  const Value& k = left_span_.row(left_lane_).value(left_key_idx_);
  if (k.IsNull()) {
    right_end_ = 0;
  } else if (k.type() == TypeId::kInt && !mixed_right_keys_) {
    const auto [lo, hi] = std::equal_range(
        key_index_.begin(), key_index_.end(),
        std::pair<int64_t, size_t>(k.AsInt(), 0),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    right_pos_ = static_cast<size_t>(lo - key_index_.begin());
    right_end_ = static_cast<size_t>(hi - key_index_.begin());
    via_index_ = true;
  } else {
    compare_keys_ = true;
  }
}

bool NestedLoopJoinExecutor::NextBatchSel(BatchSpan* out) {
  if (!status_.ok()) return false;  // a failed Init, or a failed child
  size_t n = 0;
  while (n < kExecBatchSize) {
    if (left_lane_ >= left_span_.count()) {
      if (!left_->NextBatchSel(&left_span_)) {
        status_ = left_->status();
        break;
      }
      left_lane_ = 0;
      StartLeftRow();
    }
    const Tuple& left = left_span_.row(left_lane_);
    while (n < kExecBatchSize && right_pos_ < right_end_) {
      const size_t pos = via_index_ ? key_index_[right_pos_].second : right_pos_;
      right_pos_++;
      const Tuple& right = right_rows_[pos];
      if (compare_keys_) {
        const Value& rk = right.value(right_key_idx_);
        if (rk.IsNull() || left.value(left_key_idx_).Compare(rk) != 0) {
          continue;
        }
      }
      // The predicate reads the (left, right) pair; only a passing pair
      // is concatenated, into a recycled output slot.
      if (predicate_ != nullptr &&
          !EvalPredicate(*predicate_, RowView(left, right))) {
        continue;
      }
      if (n == rows_.size()) rows_.emplace_back();
      rows_[n++].AssignConcat(left, right);
    }
    if (right_pos_ >= right_end_ && ++left_lane_ < left_span_.count()) {
      StartLeftRow();
    }
  }
  if (n == 0) {  // the stream ended
    TrimSlots(&rows_);
    TrimSlots(&right_rows_);
    num_right_ = right_pos_ = right_end_ = 0;
    return false;
  }
  *out = BatchSpan::Scratch(&rows_, n);
  return true;
}

const Schema& NestedLoopJoinExecutor::OutputSchema() const {
  return output_schema_;
}

// ----------------------------------------------------- IndexNestedLoopJoin

IndexNestedLoopJoinExecutor::IndexNestedLoopJoinExecutor(
    ExecRef outer, Table* inner, std::string inner_column, ExprRef outer_key,
    ExprRef residual)
    : outer_(std::move(outer)),
      inner_(inner),
      inner_column_(std::move(inner_column)),
      outer_key_(std::move(outer_key)),
      residual_(std::move(residual)) {
  output_schema_ = ConcatSchemas(outer_->OutputSchema(), inner_->schema());
  bind_status_ =
      BindColumns(outer_key_, outer_->OutputSchema(), &outer_key_);
  if (bind_status_.ok() && residual_ != nullptr) {
    bind_status_ = BindColumns(residual_, output_schema_, &residual_);
  }
}

Status IndexNestedLoopJoinExecutor::Open() {
  RELGRAPH_RETURN_IF_ERROR(bind_status_);
  if (!inner_->HasIndexOn(inner_column_)) {
    return Status::InvalidArgument("index nested-loop join requires index on " +
                                   inner_column_);
  }
  outer_span_ = BatchSpan{};
  outer_lane_ = 0;
  inner_open_ = false;
  return outer_->Init();
}

bool IndexNestedLoopJoinExecutor::OpenNextOuter() {
  for (;;) {
    if (outer_lane_ >= outer_span_.count()) {
      if (!outer_->NextBatchSel(&outer_span_)) {
        status_ = outer_->status();
        return false;
      }
      outer_lane_ = 0;
    }
    Value key = outer_key_->Evaluate(outer_span_.row(outer_lane_));
    if (key.IsNull()) {  // NULL keys join nothing
      outer_lane_++;
      continue;
    }
    status_ = inner_->ScanRange(inner_column_, key.AsInt(), key.AsInt(),
                                &inner_it_);
    if (!status_.ok()) return false;
    inner_open_ = true;
    return true;
  }
}

bool IndexNestedLoopJoinExecutor::NextBatchSel(BatchSpan* out) {
  if (!status_.ok()) return false;  // never resume a failed probe
  size_t n = 0;
  while (n < kExecBatchSize) {
    if (!inner_open_ && !OpenNextOuter()) break;
    if (!inner_it_.Next(&inner_tuple_, nullptr)) {
      if (!inner_it_.status().ok()) {
        status_ = inner_it_.status();
        break;
      }
      inner_open_ = false;
      outer_lane_++;
      continue;
    }
    const Tuple& outer_row = outer_span_.row(outer_lane_);
    if (residual_ != nullptr &&
        !EvalPredicate(*residual_, RowView(outer_row, inner_tuple_))) {
      continue;
    }
    if (n == rows_.size()) rows_.emplace_back();
    rows_[n++].AssignConcat(outer_row, inner_tuple_);
  }
  if (n == 0) {  // the stream ended
    TrimSlots(&rows_);
    return false;
  }
  *out = BatchSpan::Scratch(&rows_, n);
  return true;
}

const Schema& IndexNestedLoopJoinExecutor::OutputSchema() const {
  return output_schema_;
}

}  // namespace relgraph
