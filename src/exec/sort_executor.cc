#include "src/exec/sort_executor.h"

#include <algorithm>

namespace relgraph {

int CompareBySortKeys(const Tuple& a, const Tuple& b,
                      const std::vector<SortKey>& keys) {
  for (const auto& key : keys) {
    Value va = key.expr->Evaluate(a);
    Value vb = key.expr->Evaluate(b);
    int c = va.Compare(vb);
    if (c != 0) return key.ascending ? c : -c;
  }
  return 0;
}

Status BindSortKeys(std::vector<SortKey>* keys, const Schema& schema) {
  for (SortKey& k : *keys) {
    RELGRAPH_RETURN_IF_ERROR(BindColumns(k.expr, schema, &k.expr));
  }
  return Status::OK();
}

SortExecutor::SortExecutor(ExecRef child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {
  bind_status_ = BindSortKeys(&keys_, child_->OutputSchema());
}

Status SortExecutor::Open() {
  RELGRAPH_RETURN_IF_ERROR(bind_status_);
  rows_.clear();
  pos_ = 0;
  RELGRAPH_RETURN_IF_ERROR(Collect(child_.get(), &rows_));
  if (rows_.size() < 2) return Status::OK();

  // Decorate-sort: every key expression evaluates exactly once per row —
  // as one EvalBatch column over the whole input — and the comparator
  // reads the precomputed columns, instead of re-evaluating expressions
  // (with their per-comparison schema lookups) O(n log n) times. Batch
  // and scalar evaluation are value-identical (test_exec_batch.cc), and
  // ValueColumn::Get reproduces the exact Values Evaluate would return,
  // so the sort order is unchanged.
  const size_t n = rows_.size();
  std::vector<ValueColumn> key_cols(keys_.size());
  RowBatch batch(rows_);
  for (size_t k = 0; k < keys_.size(); k++) {
    keys_[k].expr->EvalBatch(batch, &key_cols[k]);
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; i++) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys_.size(); k++) {
      const ValueColumn& col = key_cols[k];
      int c;
      if (col.is_int() && !col.has_nulls()) {
        const int64_t va = col.IntAt(a), vb = col.IntAt(b);
        c = va < vb ? -1 : (va > vb ? 1 : 0);
      } else {
        c = col.Get(a).Compare(col.Get(b));
      }
      if (c != 0) return keys_[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  std::vector<Tuple> sorted;
  sorted.reserve(n);
  for (size_t i = 0; i < n; i++) sorted.push_back(std::move(rows_[order[i]]));
  rows_ = std::move(sorted);
  return Status::OK();
}

bool SortExecutor::NextBatchSel(BatchSpan* out) {
  return ReplayWindow(rows_, rows_.size(), &pos_, out);
}

const Schema& SortExecutor::OutputSchema() const {
  return child_->OutputSchema();
}

}  // namespace relgraph
