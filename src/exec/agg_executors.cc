#include "src/exec/agg_executors.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace relgraph {

namespace {

/// Folds one already-evaluated input value into the accumulator. The
/// argument expressions are evaluated per batch (EvalBatch) by the callers,
/// so this is the whole per-row cost of aggregation.
void AccumulateValue(AggOp op, const Value& v, AggState* state) {
  if (op == AggOp::kCount) {
    if (!v.IsNull()) state->count++;
    return;
  }
  if (v.IsNull()) return;  // SQL aggregates skip NULLs
  if (state->acc.IsNull()) {
    state->acc = v;
    return;
  }
  switch (op) {
    case AggOp::kMin:
      if (v.Compare(state->acc) < 0) state->acc = v;
      break;
    case AggOp::kMax:
      if (v.Compare(state->acc) > 0) state->acc = v;
      break;
    case AggOp::kSum:
      state->acc = state->acc.Add(v);
      break;
    case AggOp::kCount:
      break;
  }
}

/// Lane-indexed fold that never constructs a Value on the unboxed int
/// path — the per-row cost of the whole grouped build once the probe is
/// out of the way.
void AccumulateLane(AggOp op, const ValueColumn& col, size_t i,
                    AggState* state) {
  if (col.is_int()) {
    if (col.IsNull(i)) return;  // COUNT skips NULLs too
    if (op == AggOp::kCount) {
      state->count++;
      return;
    }
    const int64_t v = col.IntAt(i);
    if (state->acc.type() == TypeId::kInt) {
      switch (op) {
        case AggOp::kMin:
          if (v < state->acc.AsInt()) state->acc.SetInt(v);
          break;
        case AggOp::kMax:
          if (v > state->acc.AsInt()) state->acc.SetInt(v);
          break;
        case AggOp::kSum:
          state->acc.SetInt(state->acc.AsInt() + v);
          break;
        case AggOp::kCount:
          break;
      }
      return;
    }
    AccumulateValue(op, Value(v), state);
    return;
  }
  AccumulateValue(op, col.Get(i), state);
}

Value Finalize(const AggSpec& spec, const AggState& state) {
  if (spec.op == AggOp::kCount) return Value(state.count);
  return state.acc;
}

constexpr uint32_t kEmptyBucket = UINT32_MAX;
constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}

/// Group-key hash, consistent with Value::Compare (the table's equality):
/// Compare treats cross-numeric-type values as equal (INT 1 == DOUBLE 1.0)
/// and NULLs as equal, so numerics hash through their double value and
/// NULL hashes to a constant. Value::Hash() itself is representation-
/// dependent and would split such groups.
uint64_t GroupValueHash(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return 0x9E3779B97F4A7C15ULL;
    case TypeId::kInt:
      return std::hash<double>()(static_cast<double>(v.AsInt()));
    case TypeId::kDouble:
      return std::hash<double>()(v.AsDouble());
    case TypeId::kVarchar:
      return std::hash<std::string>()(v.AsString());
  }
  return 0;
}

/// Does lane i of the gathered key columns equal the stored key at `key`
/// (`num_keys` contiguous values) under Value::Compare semantics? Mirrors
/// the old std::map comparator: NULLs compare equal, numerics compare
/// numerically across types.
bool LaneEqualsKey(const std::vector<ValueColumn>& cols, size_t i,
                   const Value* key, size_t num_keys) {
  for (size_t j = 0; j < num_keys; j++) {
    const ValueColumn& c = cols[j];
    const Value& k = key[j];
    if (c.is_int()) {
      if (c.IsNull(i)) {
        if (!k.IsNull()) return false;
        continue;
      }
      const int64_t v = c.IntAt(i);
      if (k.type() == TypeId::kInt) {
        if (k.AsInt() != v) return false;
      } else if (k.type() == TypeId::kDouble) {
        if (k.AsDouble() != static_cast<double>(v)) return false;
      } else {
        return false;
      }
      continue;
    }
    const Value lane = c.Get(i);
    if (lane.IsNull() || k.IsNull()) {
      if (lane.IsNull() != k.IsNull()) return false;
      continue;
    }
    if ((lane.type() == TypeId::kVarchar) != (k.type() == TypeId::kVarchar)) {
      return false;  // Compare would assert; typed schemas never mix these
    }
    if (lane.Compare(k) != 0) return false;
  }
  return true;
}

}  // namespace

HashAggregateExecutor::HashAggregateExecutor(
    ExecRef child, std::vector<std::string> group_cols,
    std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)) {
  std::vector<Column> cols;
  const Schema& in = child_->OutputSchema();
  for (const auto& g : group_cols_) {
    const int idx = in.Find(g);
    if (idx < 0 && bind_status_.ok()) {
      bind_status_ = Status::InvalidArgument("no group column " + g);
    }
    cols.push_back({g, idx >= 0 ? in.column(idx).type : TypeId::kInt});
  }
  for (auto& a : aggs_) {
    if (a.expr == nullptr || !bind_status_.ok()) continue;
    bind_status_ = BindColumns(a.expr, in, &a.expr);
  }
  for (const auto& a : aggs_) {
    // COUNT yields INT; MIN/MAX/SUM keep the input's numeric type (INT for
    // every aggregate the path-finding statements use).
    cols.push_back({a.name, TypeId::kInt});
  }
  output_schema_ = Schema(std::move(cols));
}

void HashAggregateExecutor::Rehash(size_t new_cap) {
  buckets_.assign(new_cap, kEmptyBucket);
  const size_t mask = new_cap - 1;
  for (uint32_t g = 0; g < group_hashes_.size(); g++) {
    size_t b = group_hashes_[g] & mask;
    while (buckets_[b] != kEmptyBucket) b = (b + 1) & mask;
    buckets_[b] = g;
  }
}

Status HashAggregateExecutor::Open() {
  RELGRAPH_RETURN_IF_ERROR(bind_status_);
  results_.clear();
  pos_ = 0;
  RELGRAPH_RETURN_IF_ERROR(child_->Init());

  const Schema& in = child_->OutputSchema();
  std::vector<size_t> group_idx;
  group_idx.reserve(group_cols_.size());
  for (const auto& g : group_cols_) group_idx.push_back(in.IndexOf(g));

  group_key_values_.clear();
  group_hashes_.clear();
  states_.clear();
  Rehash(64);  // tiny statements stay tiny; the load-factor check grows it
  size_t mask = buckets_.size() - 1;

  const size_t num_aggs = aggs_.size();
  const size_t num_keys = group_idx.size();
  key_cols_.resize(num_keys);
  agg_cols_.resize(num_aggs);

  BatchSpan span;
  while (child_->NextBatchSel(&span)) {
    const size_t n = span.count();
    RowBatch rb(span.rows, span.num_rows, span.sel, span.num_sel);
    // Gather the group columns once per batch — hoists the per-row value()
    // indexing and int/boxed classification out of the probe loop — and
    // evaluate each aggregate argument as one column.
    for (size_t j = 0; j < num_keys; j++) {
      ValueColumn& col = key_cols_[j];
      col.Reset(n);
      const size_t idx = group_idx[j];
      for (size_t i = 0; i < n; i++) col.AppendRef(rb.row(i).value(idx));
    }
    for (size_t k = 0; k < num_aggs; k++) {
      if (aggs_[k].expr != nullptr) aggs_[k].expr->EvalBatch(rb, &agg_cols_[k]);
    }
    // Batch-hash the key lanes (unboxed int columns never box a Value).
    row_hashes_.assign(n, kHashSeed);
    for (size_t j = 0; j < num_keys; j++) {
      const ValueColumn& col = key_cols_[j];
      if (col.is_int()) {
        for (size_t i = 0; i < n; i++) {
          const uint64_t hv =
              col.IsNull(i)
                  ? 0x9E3779B97F4A7C15ULL
                  : std::hash<double>()(static_cast<double>(col.IntAt(i)));
          row_hashes_[i] = HashCombine(row_hashes_[i], hv);
        }
      } else {
        for (size_t i = 0; i < n; i++) {
          row_hashes_[i] = HashCombine(row_hashes_[i], GroupValueHash(col.Get(i)));
        }
      }
    }
    // Probe/insert each lane, then fold its aggregate inputs.
    for (size_t i = 0; i < n; i++) {
      const uint64_t h = row_hashes_[i];
      size_t b = h & mask;
      uint32_t g;
      for (;;) {
        g = buckets_[b];
        if (g == kEmptyBucket) {
          g = static_cast<uint32_t>(group_hashes_.size());
          for (size_t j = 0; j < num_keys; j++) {
            group_key_values_.push_back(key_cols_[j].Get(i));
          }
          group_hashes_.push_back(h);
          states_.resize(states_.size() + num_aggs);
          buckets_[b] = g;
          if (group_hashes_.size() * 4 >= buckets_.size() * 3) {
            Rehash(buckets_.size() * 2);
            mask = buckets_.size() - 1;
          }
          break;
        }
        if (group_hashes_[g] == h &&
            LaneEqualsKey(key_cols_, i,
                          group_key_values_.data() +
                              static_cast<size_t>(g) * num_keys,
                          num_keys)) {
          break;
        }
        b = (b + 1) & mask;
      }
      // data() + offset, not &states_[...]: with no aggregates (DISTINCT)
      // states_ is empty and indexing it is undefined.
      AggState* gs = states_.data() + static_cast<size_t>(g) * num_aggs;
      for (size_t k = 0; k < num_aggs; k++) {
        if (aggs_[k].expr == nullptr) {
          gs[k].count++;  // COUNT(*)
        } else {
          AccumulateLane(aggs_[k].op, agg_cols_[k], i, &gs[k]);
        }
      }
    }
  }
  RELGRAPH_RETURN_IF_ERROR(child_->status());

  if (group_hashes_.empty() && group_cols_.empty()) {
    // Scalar aggregate over empty input: one all-default row.
    std::vector<AggState> empty(num_aggs);
    std::vector<Value> row;
    for (size_t i = 0; i < num_aggs; i++) {
      row.push_back(Finalize(aggs_[i], empty[i]));
    }
    results_.push_back(Tuple(std::move(row)));
    return Status::OK();
  }

  // Deterministic output: sort the (unique) group keys under the same
  // lexicographic Value::Compare order the std::map build used. Keys live
  // in one flat array, so the comparator touches contiguous memory.
  const Value* kv = group_key_values_.data();
  std::vector<uint32_t> order(group_hashes_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const Value* ka = kv + static_cast<size_t>(a) * num_keys;
    const Value* kb = kv + static_cast<size_t>(b) * num_keys;
    for (size_t i = 0; i < num_keys; i++) {
      int c = ka[i].Compare(kb[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });

  results_.reserve(order.size());
  std::vector<Value> row;
  for (uint32_t g : order) {
    row.clear();
    row.reserve(num_keys + num_aggs);
    const Value* key = kv + static_cast<size_t>(g) * num_keys;
    for (size_t i = 0; i < num_keys; i++) row.push_back(key[i]);
    for (size_t i = 0; i < num_aggs; i++) {
      row.push_back(Finalize(aggs_[i], states_[static_cast<size_t>(g) * num_aggs + i]));
    }
    results_.push_back(Tuple(std::move(row)));
  }
  return Status::OK();
}

bool HashAggregateExecutor::NextBatchSel(BatchSpan* out) {
  return ReplayWindow(results_, results_.size(), &pos_, out);
}

const Schema& HashAggregateExecutor::OutputSchema() const {
  return output_schema_;
}

}  // namespace relgraph
