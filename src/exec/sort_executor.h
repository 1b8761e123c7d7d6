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
      out->append(" " + k.expr->ToString() + (k.ascending ? "" : " DESC"));
    }
    out->append("\n");
    child_->Explain(depth + 1, out);
  }

 protected:
  Status Open() override;

 private:
  ExecRef child_;
  std::vector<SortKey> keys_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

/// Compares two tuples under a sort-key list; shared with the window
/// executor.
int CompareBySortKeys(const Tuple& a, const Tuple& b,
                      const std::vector<SortKey>& keys, const Schema& schema);

}  // namespace relgraph
