#include "src/exec/join_executors.h"

namespace relgraph {

// ---------------------------------------------------------- NestedLoopJoin

NestedLoopJoinExecutor::NestedLoopJoinExecutor(ExecRef left, ExecRef right,
                                               ExprRef predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)) {
  output_schema_ =
      ConcatSchemas(left_->OutputSchema(), right_->OutputSchema());
}

Status NestedLoopJoinExecutor::Open() {
  RELGRAPH_RETURN_IF_ERROR(left_->Init());
  right_rows_.clear();
  RELGRAPH_RETURN_IF_ERROR(Collect(right_.get(), &right_rows_));
  left_span_ = BatchSpan{};
  left_lane_ = 0;
  right_pos_ = 0;
  return Status::OK();
}

bool NestedLoopJoinExecutor::NextBatchSel(BatchSpan* out) {
  size_t n = 0;
  while (n < kExecBatchSize) {
    if (left_lane_ >= left_span_.count()) {
      if (!left_->NextBatchSel(&left_span_)) {
        status_ = left_->status();
        break;
      }
      left_lane_ = 0;
      right_pos_ = 0;
    }
    const Tuple& left = left_span_.row(left_lane_);
    while (n < kExecBatchSize && right_pos_ < right_rows_.size()) {
      if (n == rows_.size()) rows_.emplace_back();
      rows_[n] = ConcatTuples(left, right_rows_[right_pos_++]);
      if (predicate_ == nullptr ||
          EvalPredicate(*predicate_, rows_[n], output_schema_)) {
        n++;
      }
    }
    if (right_pos_ >= right_rows_.size()) {
      left_lane_++;
      right_pos_ = 0;
    }
  }
  rows_.resize(n);
  *out = BatchSpan::Scratch(&rows_);
  return n > 0;
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
}

Status IndexNestedLoopJoinExecutor::Open() {
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
    Value key = outer_key_->Evaluate(outer_span_.row(outer_lane_),
                                     outer_->OutputSchema());
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
    if (n == rows_.size()) rows_.emplace_back();
    rows_[n] = ConcatTuples(outer_span_.row(outer_lane_), inner_tuple_);
    if (residual_ == nullptr ||
        EvalPredicate(*residual_, rows_[n], output_schema_)) {
      n++;
    }
  }
  rows_.resize(n);
  *out = BatchSpan::Scratch(&rows_);
  return n > 0;
}

const Schema& IndexNestedLoopJoinExecutor::OutputSchema() const {
  return output_schema_;
}

}  // namespace relgraph
