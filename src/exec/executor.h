#pragma once

#include <memory>
#include <vector>

#include "src/common/config.h"
#include "src/common/status.h"
#include "src/types/schema.h"
#include "src/types/tuple.h"

namespace relgraph {

/// A borrowed batch plus an optional selection vector: the unit of flow
/// between operators. `rows[0..num_rows)` are owned by the producer and
/// valid until its next pull. When `sel` is non-null, only the lanes
/// `rows[sel[0..num_sel)]` are part of the stream (sel is strictly
/// ascending); when null, the batch is dense and num_sel is ignored.
///
/// Contract: consumers iterate lanes with count()/row(i) and must never
/// reorder or mutate through the span. Only materialization boundaries
/// (Sort, Collect, MERGE's source drain, DML apply, wire serialization)
/// may compact; pass-through operators (Project, Rename, Join outer sides,
/// aggregation builds) must consume the selection in place.
///
/// `scratch` is the one exception to "never mutate": it is set (equal to
/// `rows`) when the rows live in a buffer the producer rewrites in full on
/// its next pull — scans, a compacting Filter, Project, joins, window
/// numbering. A consumer that keeps rows may then move lanes out through
/// Take() instead of copying them. Replayed storage (Materialized, Sort,
/// HashAggregate) leaves it null, so a re-Init() replays unchanged rows.
struct BatchSpan {
  const Tuple* rows = nullptr;
  size_t num_rows = 0;
  const uint32_t* sel = nullptr;  // nullptr = dense
  size_t num_sel = 0;
  Tuple* scratch = nullptr;  // non-null = lanes may be moved out

  /// Dense span over a producer's scratch buffer.
  static BatchSpan Scratch(std::vector<Tuple>* buf) {
    return BatchSpan{buf->data(), buf->size(), nullptr, 0, buf->data()};
  }

  /// Number of selected lanes.
  size_t count() const { return sel != nullptr ? num_sel : num_rows; }
  /// Maps lane i to its index in rows.
  size_t index(size_t i) const { return sel != nullptr ? sel[i] : i; }
  const Tuple& row(size_t i) const { return rows[index(i)]; }
  bool dense() const { return sel == nullptr; }

  /// Hands lane i to a consumer that keeps it: moved out of scratch
  /// storage, copied otherwise.
  void Take(size_t i, Tuple* out) const {
    if (scratch != nullptr) {
      *out = std::move(scratch[index(i)]);
    } else {
      *out = row(i);
    }
  }
  /// Appends every lane to `out` (Take semantics).
  void AppendTo(std::vector<Tuple>* out) const;
};

/// Pull executor: Init() once, then pull until the stream ends; check
/// status() afterwards to distinguish end-of-stream from error. Physical
/// plans for the paper's SQL statements are built by composing these
/// executors (see src/core/fem.cc for the F/E/M plans).
///
/// NextBatchSel is the only pull an operator implements: up to
/// kExecBatchSize lanes per virtual call, with the selection vector left
/// in place wherever a filter produced one. Next() is a row-at-a-time
/// adapter over it for callers that want the first match or a short walk.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Opens (or re-opens) the stream. Every plan may be re-Init()ed to run
  /// again — prepared statements re-run their compiled plans this way.
  Status Init() {
    status_ = Status::OK();
    cursor_ = BatchSpan{};
    cursor_lane_ = 0;
    return Open();
  }

  /// Points `out` at the next non-empty span of at most kExecBatchSize
  /// lanes (see BatchSpan for the borrow and iteration contract). Returns
  /// false when the stream is exhausted or on error — check status() to
  /// tell the two apart. Pulling again after false keeps returning false.
  virtual bool NextBatchSel(BatchSpan* out) = 0;

  /// Row-at-a-time adapter: walks the current span lane by lane, pulling
  /// the next one when it runs out. Do not mix with NextBatchSel between
  /// two Init() calls — each would skip the lanes the other consumed.
  bool Next(Tuple* out);

  virtual const Schema& OutputSchema() const = 0;

  /// Appends this node (and its inputs, indented) to `out` — the plan tree
  /// behind EXPLAIN. One line per operator, physical choices spelled out
  /// (e.g. IndexNestedLoopJoin vs NestedLoopJoin, pushed-down filters).
  virtual void Explain(int depth, std::string* out) const;

  const Status& status() const { return status_; }

 protected:
  /// Operator-specific part of Init(): open the inputs, reset pull state.
  virtual Status Open() = 0;

  /// Explain helper: two spaces per depth level.
  static void Indent(int depth, std::string* out) {
    out->append(static_cast<size_t>(depth) * 2, ' ');
  }

  Status status_;

 private:
  BatchSpan cursor_;  // Next()'s current span
  size_t cursor_lane_ = 0;
};

using ExecRef = std::unique_ptr<Executor>;

/// Shared pull of the replay producers (Materialized, Sort, HashAggregate):
/// serves the next window of up to kExecBatchSize rows of `rows` in place,
/// advancing *pos. Zero copies, and the rows are never offered for moving,
/// so a re-Init() that rewinds *pos replays them unchanged.
inline bool ReplayWindow(const std::vector<Tuple>& rows, size_t* pos,
                         BatchSpan* out) {
  const size_t left = rows.size() - *pos;
  const size_t n = left < kExecBatchSize ? left : kExecBatchSize;
  if (n == 0) return false;
  *out = BatchSpan{rows.data() + *pos, n, nullptr, 0, nullptr};
  *pos += n;
  return true;
}

/// Drains `exec` into a vector (Init + NextBatchSel*), moving rows out of
/// scratch spans. Errors propagate.
Status Collect(Executor* exec, std::vector<Tuple>* out);

}  // namespace relgraph
