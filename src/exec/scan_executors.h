#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/catalog/table.h"
#include "src/exec/executor.h"
#include "src/exec/expression.h"

namespace relgraph {

/// Rows in the first batch of a table scan. Both scans double their batch
/// from here up to kExecBatchSize: a consumer after the first match (TOP 1,
/// the meeting-node probe, Next()) stops reading near the match, while a
/// long scan reaches full batches by its seventh pull.
inline constexpr size_t kFirstScanBatch = 16;

/// Full-table scan (the paper's NoIndex access path).
class SeqScanExecutor : public Executor {
 public:
  explicit SeqScanExecutor(Table* table);
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append("SeqScan: " + table_->name() + "\n");
  }

 protected:
  Status Open() override;

 private:
  Table* table_;
  Table::Iterator it_;
  bool exhausted_ = false;  // iterator returned false; don't pull it again
  size_t batch_rows_ = kFirstScanBatch;  // rows the next pull reads
  std::vector<Tuple> rows_;  // scratch: the current batch
};

/// Reads up to `max_rows` rows of `it` into the first slots of `rows` —
/// and, when `refs` is non-null, their RowRefs — overwriting existing
/// slots so recycled tuples keep their buffers; slots past the rows read
/// are kept for the next batch. `exhausted` latches once the iterator
/// reports false (end of stream *or* error), so a failed iterator is never
/// resumed: that would skip the bad row and overwrite its error status.
/// Returns the number of rows read; on 0 the caller reads it->status().
size_t ReadIteratorBatch(Table::Iterator* it, bool* exhausted,
                         size_t max_rows, std::vector<Tuple>* rows,
                         std::vector<RowRef>* refs);

/// Key range [*lo, *hi] covering `column OP k` with the column on the
/// left-hand side. Returns false, leaving *lo and *hi as they were, when
/// the comparison yields no usable range (an open bound that would
/// overflow); callers fall back to a full
/// range or a sequential scan — the predicate always re-applies
/// residually, so the range only needs to *cover* the matching keys.
bool KeyRangeFor(CompareOp op, int64_t k, int64_t* lo, int64_t* hi);

/// Key range [*lo, *hi] a runtime key probes for `column OP key`, where
/// `key` is the value a literal, a `:param` or a scalar-subquery slot has
/// when the statement executes. This is the one place a runtime key
/// becomes a range: index range scans and UPDATE/DELETE plans both call
/// it. A non-INT key, or a bound that would overflow, gives the full key
/// range (the predicate re-applies residually). Returns false when no row
/// can match: `column OP NULL` is never true. The range is then left
/// full, which is how EXPLAIN shows an unbound key.
bool RuntimeKeyRange(CompareOp op, const Value& key, int64_t* lo,
                     int64_t* hi);

/// The rows one key-range access reads: `[prefix_column = prefix AND]
/// lo <= column <= hi` through Table::ScanRange, which probes the cluster
/// tree, a secondary index or an open tree (prefix_column, column) when
/// the table has one and filters a full scan otherwise. A non-null `key`
/// — a literal, a `:param` or a scalar-subquery slot — replaces [lo, hi]
/// at every Open by RuntimeKeyRange(op, key), so one compiled plan probes
/// fresh bounds on every execution. SELECT scans (IndexRangeScanExecutor)
/// and UPDATE/DELETE plans (UpdatePlan) both read one; an empty `column`
/// reads every row (Table::Scan).
struct KeyProbe {
  std::string prefix_column{};  // non-empty: an open tree's flag = prefix
  int64_t prefix = 0;
  std::string column{};
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  CompareOp op = CompareOp::kEq;
  ExprRef key{};

  /// The range Open reads now; false for a NULL key, which no row can
  /// match (the range is then left full, which is how EXPLAIN shows an
  /// unbound key).
  bool Bounds(int64_t* lo_out, int64_t* hi_out) const;
  /// Points `it` at the rows the probe selects now; *any = false, leaving
  /// `it` as it was, when Bounds finds that no row can match.
  Status Open(Table* table, Table::Iterator* it, bool* any) const;
};

/// Key-range scan over the rows a KeyProbe selects. `first_batch` sizes
/// the first pull: 1 under a LIMIT 1 that wants only the first row, so
/// the scan reads one row instead of kFirstScanBatch.
class IndexRangeScanExecutor : public Executor {
 public:
  IndexRangeScanExecutor(Table* table, KeyProbe probe,
                         size_t first_batch = kFirstScanBatch);
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override;

 protected:
  Status Open() override;

 private:
  Table* table_;
  KeyProbe probe_;
  size_t first_batch_ = kFirstScanBatch;
  Table::Iterator it_;
  bool exhausted_ = false;  // iterator returned false; don't pull it again
  size_t batch_rows_ = kFirstScanBatch;  // see kFirstScanBatch
  std::vector<Tuple> rows_;  // scratch: the current batch
};

/// Executors that evaluate expressions bind them to their input schema
/// (BindColumns) when they are built; an unknown column fails Init() with
/// InvalidArgument.

/// WHERE clause: forwards child tuples satisfying the predicate.
///
/// Per child batch the predicate runs once, and the survivors are
/// forwarded in the cheapest legal representation — the child's span
/// untouched when every lane passes (zero copies), a selection vector
/// over the child's rows when at least kSelVectorMinRows lanes survive
/// (still zero copies), and a dense compacted batch only below that
/// threshold, where the indirection would cost downstream more than the
/// copy. Batches with no survivors are skipped, so every span forwarded
/// is non-empty and never larger than one child batch.
class FilterExecutor : public Executor {
 public:
  FilterExecutor(ExecRef child, ExprRef predicate);
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append("Filter: " + predicate_->ToString() + "\n");
    child_->Explain(depth + 1, out);
  }

 protected:
  Status Open() override;

 private:
  ExecRef child_;
  ExprRef predicate_;  // bound to the child's schema
  Status bind_status_;
  ValueColumn pred_scratch_;  // EvalBatch output column
  std::vector<char> keep_;    // per-lane predicate verdicts
  std::vector<uint32_t> sel_;  // backs forwarded selection vectors
  std::vector<Tuple> compact_;  // scratch: compacted survivors
};

/// SELECT list: evaluates one expression per output column.
class ProjectExecutor : public Executor {
 public:
  ProjectExecutor(ExecRef child, std::vector<ExprRef> exprs,
                  Schema output_schema);
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append("Project:");
    for (const auto& e : exprs_) out->append(" ").append(e->ToString());
    out->append("\n");
    child_->Explain(depth + 1, out);
  }

 protected:
  Status Open() override;

 private:
  ExecRef child_;
  std::vector<ExprRef> exprs_;  // bound to the child's schema
  Status bind_status_;
  Schema output_schema_;
  std::vector<ValueColumn> expr_cols_;  // one column per select item
  std::vector<Tuple> rows_;  // scratch: the projected batch
};

/// TOP n / LIMIT n.
class LimitExecutor : public Executor {
 public:
  LimitExecutor(ExecRef child, int64_t limit);
  /// Forwards the child's spans, cutting the last one short.
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append("Limit: " + std::to_string(limit_) + "\n");
    child_->Explain(depth + 1, out);
  }

 protected:
  Status Open() override;

 private:
  ExecRef child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

/// Replays an in-memory tuple vector (used for VALUES lists and for
/// materialized intermediate results such as the E-operator output fed to
/// the M-operator).
class MaterializedExecutor : public Executor {
 public:
  MaterializedExecutor(std::vector<Tuple> tuples, Schema schema);
  /// Serves windows of the owned vector directly — the zero-copy source
  /// the whole batched pipeline leans on.
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append("Materialized: " + std::to_string(size_) + " row(s)\n");
  }

  /// For an owner that refills the rows between runs, in place (the
  /// window operator's sorted input): it overwrites the first n slots,
  /// then calls set_size(n); the slots past n keep their storage.
  std::vector<Tuple>* slots() { return &tuples_; }
  void set_size(size_t n) { size_ = n; }

 protected:
  Status Open() override;

 private:
  std::vector<Tuple> tuples_;
  size_t size_;  // rows replayed: the first size_ of tuples_
  Schema schema_;
  size_t pos_ = 0;
};

/// Renames the child's columns (SQL AS aliases; used to build the "t.x"/
/// "s.x" combined schemas for MERGE and join predicates).
class RenameExecutor : public Executor {
 public:
  RenameExecutor(ExecRef child, std::vector<std::string> new_names);
  /// Renaming only touches the schema, so spans pass straight through.
  bool NextBatchSel(BatchSpan* out) override;
  const Schema& OutputSchema() const override;
  void Explain(int depth, std::string* out) const override {
    Indent(depth, out);
    out->append("Rename: -> " + schema_.ToString() + "\n");
    child_->Explain(depth + 1, out);
  }

 protected:
  Status Open() override;

 private:
  ExecRef child_;
  Schema schema_;
};

/// Prefixes every column name of `schema` with `prefix` (e.g. "out.").
Schema PrefixSchema(const Schema& schema, const std::string& prefix);

}  // namespace relgraph
