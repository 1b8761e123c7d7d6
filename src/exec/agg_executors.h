#pragma once

#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/exec/expression.h"

namespace relgraph {

enum class AggOp { kMin, kMax, kSum, kCount };

struct AggSpec {
  AggOp op;
  ExprRef expr;       // ignored for COUNT(*) (may be null)
  std::string name;   // output column name
};

/// One aggregate's accumulator (MIN/MAX/SUM value + COUNT tally).
struct AggState {
  Value acc;  // NULL until the first non-NULL input
  int64_t count = 0;
};

/// Hash aggregation: GROUP BY `group_cols` with the given aggregates.
/// Output schema = group columns followed by one column per aggregate.
/// With no group columns this is a scalar aggregate and emits exactly one
/// row even over empty input (MIN/MAX/SUM of nothing = NULL, COUNT = 0) —
/// the paper's termination probes (`select min(d2s) from TVisited where
/// f=0`) rely on that SQL behaviour.
///
/// The build is vectorized: the child drains through NextBatchSel (so a
/// filter underneath forwards selection vectors instead of compacting),
/// group columns are gathered and hashed a batch at a time, and each lane
/// probes an open-addressing table of group indices. Output order is made
/// deterministic by a final sort of the group keys under Value::Compare —
/// the exact order the previous std::map build produced, so results stay
/// bit-identical to the scalar oracle.
class HashAggregateExecutor : public Executor {
 public:
  HashAggregateExecutor(ExecRef child, std::vector<std::string> group_cols,
                        std::vector<AggSpec> aggs);
  /// Serves windows of the materialized result directly (Materialized-style
  /// zero-copy replay).
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append("HashAggregate:");
    for (const auto& g : group_cols_) out->append(" " + g);
    for (const auto& a : aggs_) out->append(" " + a.name);
    out->append("\n");
    child_->Explain(depth + 1, out);
  }

 protected:
  /// Runs the whole build; pulls then replay the result.
  Status Open() override;

 private:
  /// Doubles the bucket array and reinserts every group from its stored
  /// hash (keys are never rehashed).
  void Rehash(size_t new_cap);

  ExecRef child_;
  std::vector<std::string> group_cols_;
  std::vector<AggSpec> aggs_;  // arguments bound to the child's schema
  Status bind_status_;
  Schema output_schema_;
  std::vector<Tuple> results_;
  size_t pos_ = 0;

  // Build state, kept as members so prepared statements that re-Init()
  // the same plan (the FEM loop runs thousands of aggregate statements)
  // recycle every allocation. group g's key occupies the flat slice
  // group_key_values_[g * group_cols_.size() ..] (one contiguous array —
  // a per-group vector would cost an allocation per distinct group and
  // scatter the final sort's accesses), its hash is group_hashes_[g], and
  // its accumulators the flat slice states_[g * aggs_.size() ..];
  // buckets_ holds group indices (open addressing, linear probe,
  // power-of-two capacity).
  std::vector<Value> group_key_values_;
  std::vector<uint64_t> group_hashes_;
  std::vector<AggState> states_;
  std::vector<uint32_t> buckets_;
  std::vector<ValueColumn> key_cols_;   // gathered group columns, per batch
  std::vector<ValueColumn> agg_cols_;   // evaluated aggregate args, per batch
  std::vector<uint64_t> row_hashes_;    // per-lane key hashes, per batch
};

/// Convenience for the auxiliary statements: runs a scalar aggregate plan
/// and returns its single value.
Status EvalScalarAggregate(Executor* child, AggOp op, ExprRef expr,
                           Value* out);

}  // namespace relgraph
