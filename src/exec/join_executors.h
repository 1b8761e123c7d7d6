#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/catalog/table.h"
#include "src/exec/executor.h"
#include "src/exec/expression.h"

namespace relgraph {

/// Equality key of a keyed nested-loop join: `left` names a column of the
/// left input, `right` one of the right input.
struct JoinKey {
  std::string left;
  std::string right;
};

/// Block nested-loop join: the right input is materialized once, then each
/// left tuple is paired against it under `predicate` (evaluated over the
/// concatenated schema). This is the E-operator's plan when TEdges has no
/// index — the paper's NoIndex configuration — and the SQL planner's join
/// when the next from-item has no index to probe.
///
/// With a `key`, Open also sorts (key, position) pairs of the right rows,
/// and each left row visits only the right rows whose key equals its own,
/// in their materialized order: the output sequence is exactly that of the
/// cross product filtered on `left = right`. NULL keys join nothing. Keys
/// that are not INT (column types are advisory) are compared value by
/// value over every right row, so they too match the filtered cross product.
class NestedLoopJoinExecutor : public Executor {
 public:
  NestedLoopJoinExecutor(ExecRef left, ExecRef right, ExprRef predicate,
                         std::optional<JoinKey> key = std::nullopt);
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override;

 protected:
  Status Open() override;

 private:
  /// Points [right_pos_, right_end_) at the right rows the current left
  /// row may pair with.
  void StartLeftRow();

  ExecRef left_;
  ExecRef right_;
  ExprRef predicate_;  // bound to the output schema
  Status bind_status_;
  std::optional<JoinKey> key_;
  int left_key_idx_ = -1;
  int right_key_idx_ = -1;
  Schema output_schema_;
  // The materialized right side: its first num_right_ slots, refilled in
  // place on every Open().
  std::vector<Tuple> right_rows_;
  size_t num_right_ = 0;
  // Keyed joins: (INT key, right position), sorted; NULL keys left out.
  std::vector<std::pair<int64_t, size_t>> key_index_;
  // Some right key is neither NULL nor INT: every left row compares keys
  // over all right rows instead of probing key_index_.
  bool mixed_right_keys_ = false;
  // The left side is walked lane by lane through its borrowed span, which
  // stays valid because left_ is only pulled again once every lane has
  // been paired with every right row.
  BatchSpan left_span_;
  size_t left_lane_ = 0;
  // Current left row's candidates: positions in key_index_ when
  // via_index_, else in right_rows_ (compared on the key when compare_keys_).
  size_t right_pos_ = 0;
  size_t right_end_ = 0;
  bool via_index_ = false;
  bool compare_keys_ = false;
  std::vector<Tuple> rows_;  // scratch: the joined batch
};

/// Index nested-loop join: for each outer tuple, evaluates `outer_key` and
/// probes the inner table's index on `inner_column` for equal keys. This is
/// the plan the RDBMS optimizer picks for the E-operator join
/// `TVisited ⋈ TEdges ON TVisited.nid = TEdges.fid` when TEdges is indexed
/// (the paper's Index / CluIndex configurations). An optional residual
/// predicate is applied to the (outer, inner) pair before it is
/// concatenated — the pruning rule `out.cost + q.d2s + lb < minCost`
/// lands there.
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
  ExprRef outer_key_;  // bound to the outer schema
  ExprRef residual_;   // bound to the output schema
  Status bind_status_;
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
