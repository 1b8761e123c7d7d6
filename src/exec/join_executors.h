#pragma once

#include <string>
#include <vector>

#include "src/catalog/table.h"
#include "src/exec/executor.h"
#include "src/exec/expression.h"

namespace relgraph {

/// Block nested-loop join: the right input is materialized once, then each
/// left tuple is paired against it under `predicate` (evaluated over the
/// concatenated schema). This is the E-operator's fallback plan when TEdges
/// has no index — the paper's NoIndex configuration.
class NestedLoopJoinExecutor : public Executor {
 public:
  NestedLoopJoinExecutor(ExecRef left, ExecRef right, ExprRef predicate);
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append(predicate_ == nullptr
                    ? "NestedLoopJoin (cross)\n"
                    : "NestedLoopJoin: " + predicate_->ToString() + "\n");
    left_->Explain(depth + 1, out);
    right_->Explain(depth + 1, out);
  }

 protected:
  Status Open() override;

 private:
  ExecRef left_;
  ExecRef right_;
  ExprRef predicate_;
  Schema output_schema_;
  std::vector<Tuple> right_rows_;
  // The left side is walked lane by lane through its borrowed span, which
  // stays valid because left_ is only pulled again once every lane has
  // been paired with every right row.
  BatchSpan left_span_;
  size_t left_lane_ = 0;
  size_t right_pos_ = 0;
  std::vector<Tuple> rows_;  // scratch: the joined batch
};

/// Index nested-loop join: for each outer tuple, evaluates `outer_key` and
/// probes the inner table's index on `inner_column` for equal keys. This is
/// the plan the RDBMS optimizer picks for the E-operator join
/// `TVisited ⋈ TEdges ON TVisited.nid = TEdges.fid` when TEdges is indexed
/// (the paper's Index / CluIndex configurations). An optional residual
/// predicate is applied to the concatenated row — the BSEG pruning rule
/// `out.cost + q.d2s + lb < minCost` lands there.
class IndexNestedLoopJoinExecutor : public Executor {
 public:
  IndexNestedLoopJoinExecutor(ExecRef outer, Table* inner,
                              std::string inner_column, ExprRef outer_key,
                              ExprRef residual = nullptr);
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append("IndexNestedLoopJoin: probe " + inner_->name() + "." +
                inner_column_ + " = " + outer_key_->ToString());
    if (residual_ != nullptr) {
      out->append(" residual " + residual_->ToString());
    }
    out->append("\n");
    outer_->Explain(depth + 1, out);
  }

 protected:
  Status Open() override;

 private:
  /// Advances to the next outer row with a non-NULL key and opens its inner
  /// range scan; false when the outer side is exhausted or on error.
  bool OpenNextOuter();

  ExecRef outer_;
  Table* inner_;
  std::string inner_column_;
  ExprRef outer_key_;
  ExprRef residual_;
  Schema output_schema_;
  // Probes walk the outer child's borrowed span lane by lane, so a
  // filtered outer (the E-operator's frontier restriction) flows into the
  // join without ever being compacted. The span stays valid because the
  // outer child is only pulled again once every lane has been probed.
  BatchSpan outer_span_;
  size_t outer_lane_ = 0;
  Tuple inner_tuple_;  // reused across probes
  Table::Iterator inner_it_;
  bool inner_open_ = false;
  std::vector<Tuple> rows_;  // scratch: the joined batch
};

}  // namespace relgraph
