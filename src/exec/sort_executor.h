#pragma once

#include <vector>

#include "src/exec/executor.h"
#include "src/exec/expression.h"

namespace relgraph {

struct SortKey {
  ExprRef expr;
  bool ascending = true;
};

/// ORDER BY: materializes the child and emits in key order (stable sort, so
/// equal keys preserve input order — matters for deterministic row_number
/// ties).
class SortExecutor : public Executor {
 public:
  SortExecutor(ExecRef child, std::vector<SortKey> keys);
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append("Sort:");
    for (const auto& k : keys_) {
      out->append(" ").append(k.expr->ToString());
      if (!k.ascending) out->append(" DESC");
    }
    out->append("\n");
    child_->Explain(depth + 1, out);
  }

 protected:
  Status Open() override;

 private:
  ExecRef child_;
  std::vector<SortKey> keys_;  // bound to the child's schema
  Status bind_status_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

/// Binds every key expression of `keys` to `schema` (BindColumns).
Status BindSortKeys(std::vector<SortKey>* keys, const Schema& schema);

/// Compares two tuples under a sort-key list bound to their schema;
/// shared with the window executor.
int CompareBySortKeys(const Tuple& a, const Tuple& b,
                      const std::vector<SortKey>& keys);

}  // namespace relgraph
