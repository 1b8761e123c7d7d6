#pragma once

#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/exec/expression.h"
#include "src/exec/scan_executors.h"
#include "src/exec/sort_executor.h"

namespace relgraph {

/// Streaming row_number(): assumes the child emits rows already ordered so
/// that every partition is one contiguous run (and rows within a partition
/// arrive in the desired ORDER BY order). Appends a 1-based INT row number
/// that resets at each partition boundary. O(1) state — only the previous
/// row's partition key is retained — so nothing is materialized; downstream
/// `rownum = 1` filters (the paper's dedup) stream row by row.
class SortedWindowRowNumberExecutor : public Executor {
 public:
  SortedWindowRowNumberExecutor(ExecRef child,
                                std::vector<std::string> partition_cols,
                                std::string out_column = "rownum");
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append("StreamingWindowRowNumber: partition by");
    for (const auto& p : partition_cols_) out->append(" " + p);
    out->append(" (sorted input) -> " +
                output_schema_.column(output_schema_.NumColumns() - 1).name +
                "\n");
    child_->Explain(depth + 1, out);
  }

 protected:
  Status Open() override;

 private:
  /// Appends the row number for `in` (advancing the partition state) and
  /// writes the widened tuple to `out`.
  void Number(const Tuple& in, Tuple* out);

  ExecRef child_;
  std::vector<std::string> partition_cols_;
  std::vector<size_t> part_idx_;
  Status bind_status_;
  Schema output_schema_;
  std::vector<Value> prev_key_;  // previous row's partition column values
  bool have_prev_ = false;
  int64_t row_number_ = 0;
  std::vector<Tuple> rows_;  // scratch: the numbered batch
};

/// The SQL:2003 window function the paper leans on (§2.2, Listing 2(3)):
///
///   row_number() OVER (PARTITION BY <cols> ORDER BY <keys>)
///
/// Physical plan: one stable sort of the child by (partition columns, order
/// keys) — partitions become contiguous runs — feeding the streaming
/// operator above. The sorted input is the only materialization; the
/// numbered output is produced a batch at a time, which halves the
/// operator's peak memory versus the old build-the-whole-output plan and
/// lets the E-operator's `rownum = 1` dedup stream. Selecting `rownum = 1`
/// keeps, per expanded node, the single occurrence with minimal distance —
/// carrying its non-aggregate columns (p2s!) along, which is exactly why
/// the paper prefers this over the aggregate+re-join formulation.
class WindowRowNumberExecutor : public Executor {
 public:
  WindowRowNumberExecutor(ExecRef child, std::vector<std::string> partition_cols,
                          std::vector<SortKey> order_keys,
                          std::string out_column = "rownum");
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append("WindowRowNumber: partition by");
    for (const auto& p : partition_cols_) out->append(" " + p);
    out->append(" order by");
    for (const auto& k : order_keys_) {
      out->append(" ").append(k.expr->ToString());
    }
    out->append(" -> " + output_schema_.column(
                             output_schema_.NumColumns() - 1).name + "\n");
    child_->Explain(depth + 1, out);
  }

 protected:
  Status Open() override;

 private:
  ExecRef child_;
  std::vector<std::string> partition_cols_;
  std::vector<size_t> part_idx_;
  std::vector<SortKey> order_keys_;  // bound to the child's schema
  std::string out_column_;
  Status bind_status_;
  Schema output_schema_;
  /// Sort + streaming-number pipeline, built once over `input_`, whose
  /// slots every Init() refills with the freshly sorted input.
  std::unique_ptr<SortedWindowRowNumberExecutor> stream_;
  MaterializedExecutor* input_;  // owned by stream_
};

}  // namespace relgraph
