#include "src/exec/dml_executors.h"

#include <unordered_map>

#include "src/exec/scan_executors.h"

namespace relgraph {

Status InsertFromExecutor(Table* table, Executor* source, int64_t* inserted) {
  *inserted = 0;
  RELGRAPH_RETURN_IF_ERROR(source->Init());
  BatchSpan span;
  while (source->NextBatchSel(&span)) {
    for (size_t i = 0; i < span.count(); i++) {
      RELGRAPH_RETURN_IF_ERROR(table->Insert(span.row(i)));
      (*inserted)++;
    }
  }
  return source->status();
}

// Every UPDATE plan ends here: evaluate SET clauses over the matched rows,
// then apply (the collect-then-apply split keeps the scan stable under row
// movement). Both the WHERE predicate and the SET expressions run in batch
// mode — one EvalBatch column per scan batch.
Status UpdateCandidates(Table* table, Table::Iterator it, ExprRef predicate,
                        const std::vector<SetClause>& sets, int64_t* affected) {
  *affected = 0;
  const Schema& schema = table->schema();
  std::vector<std::pair<size_t, ExprRef>> resolved;
  resolved.reserve(sets.size());
  for (const auto& s : sets) {
    int idx = schema.Find(s.column);
    if (idx < 0) return Status::InvalidArgument("no column " + s.column);
    resolved.emplace_back(static_cast<size_t>(idx), s.expr);
  }
  // The pre-image goes to UpdateRow, which moves index entries by it.
  std::vector<std::tuple<RowRef, Tuple, Tuple>> pending;  // ref, old, new
  std::vector<Tuple> rows;
  std::vector<RowRef> refs;
  ValueColumn pred_scratch;
  std::vector<char> keep;
  std::vector<uint32_t> sel;
  std::vector<ValueColumn> set_cols(resolved.size());
  bool exhausted = false;
  while (ReadIteratorBatch(&it, &exhausted, kExecBatchSize, &rows, &refs)) {
    // Matched rows stay where the scan put them; a selection vector over
    // the scan batch replaces the old compact-into-`matched` copy.
    const uint32_t* selp = nullptr;
    size_t lanes = rows.size();
    if (predicate != nullptr) {
      RowBatch batch(rows, schema);
      EvalPredicateBatch(*predicate, batch, &pred_scratch, &keep);
      sel.clear();
      for (size_t i = 0; i < rows.size(); i++) {
        if (keep[i]) sel.push_back(static_cast<uint32_t>(i));
      }
      if (sel.empty()) continue;
      selp = sel.data();
      lanes = sel.size();
    }
    // SET expressions see the *old* rows — one column per clause when the
    // match set is big enough to amortize it, row-at-a-time otherwise.
    RowBatch mbatch(rows.data(), rows.size(), schema, selp, lanes);
    const bool row_at_a_time = EvalRowAtATime(mbatch);
    if (!row_at_a_time) {
      for (size_t k = 0; k < resolved.size(); k++) {
        resolved[k].second->EvalBatch(mbatch, &set_cols[k]);
      }
    }
    for (size_t i = 0; i < lanes; i++) {
      const size_t r = selp != nullptr ? selp[i] : i;
      Tuple updated = rows[r];
      for (size_t k = 0; k < resolved.size(); k++) {
        updated.value(resolved[k].first) =
            row_at_a_time ? resolved[k].second->Evaluate(rows[r], schema)
                          : set_cols[k].Get(i);
      }
      pending.emplace_back(refs[r], std::move(rows[r]), std::move(updated));
    }
  }
  RELGRAPH_RETURN_IF_ERROR(it.status());
  for (const auto& [row_ref, old_row, new_row] : pending) {
    RELGRAPH_RETURN_IF_ERROR(table->UpdateRow(row_ref, old_row, new_row));
    (*affected)++;
  }
  return Status::OK();
}

Status UpdateWhere(Table* table, ExprRef predicate,
                   const std::vector<SetClause>& sets, int64_t* affected) {
  return UpdateCandidates(table, table->Scan(), std::move(predicate), sets,
                          affected);
}

Status UpdateWhereIndexedDynamic(Table* table, const std::string& index_column,
                                 CompareOp op, const ExprRef& key,
                                 ExprRef predicate,
                                 const std::vector<SetClause>& sets,
                                 int64_t* affected) {
  Value v = key->Evaluate(Tuple{}, Schema{});
  if (v.IsNull()) {
    // `column OP NULL` is never true, and `predicate` includes it: no row
    // can match (the frontier mark once the open set is empty).
    *affected = 0;
    return Status::OK();
  }
  if (v.type() != TypeId::kInt) {
    // Non-INT keys never match an INT index probe profitably; run the
    // full-scan plan the text interface would have picked.
    return UpdateWhere(table, std::move(predicate), sets, affected);
  }
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  KeyRangeFor(op, v.AsInt(), &lo, &hi);  // overflow keeps the full range
  Table::Iterator it;
  RELGRAPH_RETURN_IF_ERROR(table->ScanRange(index_column, lo, hi, &it));
  return UpdateCandidates(table, std::move(it), std::move(predicate), sets,
                          affected);
}

Status DeleteWhere(Table* table, ExprRef predicate, int64_t* affected) {
  *affected = 0;
  const Schema& schema = table->schema();
  std::vector<RowRef> pending;
  Table::Iterator it = table->Scan();
  std::vector<Tuple> rows;
  std::vector<RowRef> refs;
  ValueColumn pred_scratch;
  std::vector<char> keep;
  bool exhausted = false;
  while (ReadIteratorBatch(&it, &exhausted, kExecBatchSize, &rows, &refs)) {
    if (predicate == nullptr) {
      pending.insert(pending.end(), refs.begin(), refs.end());
      continue;
    }
    RowBatch batch(rows, schema);
    EvalPredicateBatch(*predicate, batch, &pred_scratch, &keep);
    for (size_t i = 0; i < rows.size(); i++) {
      if (keep[i]) pending.push_back(refs[i]);
    }
  }
  RELGRAPH_RETURN_IF_ERROR(it.status());
  for (const auto& row_ref : pending) {
    RELGRAPH_RETURN_IF_ERROR(table->DeleteRow(row_ref));
    (*affected)++;
  }
  return Status::OK();
}

Status MergeInto(Table* target, Executor* source, const MergeSpec& spec,
                 int64_t* affected) {
  *affected = 0;
  const Schema& target_schema = target->schema();
  const Schema& source_schema = source->OutputSchema();
  int tgt_key_idx = target_schema.Find(spec.target_key_column);
  if (tgt_key_idx < 0) {
    return Status::InvalidArgument("MERGE target lacks key column " +
                                   spec.target_key_column);
  }
  // Without a unique index the planner falls back to a hash match: one scan
  // of the target builds key -> row, then each source row probes the map
  // (this is how an RDBMS executes MERGE on an unindexed target).
  const bool use_index = target->HasIndexOn(spec.target_key_column);
  std::unordered_map<int64_t, std::pair<RowRef, Tuple>> hash_side;
  if (!use_index) {
    Table::Iterator it = target->Scan();
    Tuple t;
    RowRef ref;
    while (it.Next(&t, &ref)) {
      const Value& key = t.value(tgt_key_idx);
      if (key.IsNull()) continue;
      hash_side.emplace(key.AsInt(), std::make_pair(ref, t));
    }
    RELGRAPH_RETURN_IF_ERROR(it.status());
  }
  int src_key_idx = source_schema.Find(spec.source_key_column);
  if (src_key_idx < 0) {
    return Status::InvalidArgument("MERGE source lacks key column " +
                                   spec.source_key_column);
  }
  if (!spec.insert_values.empty() &&
      spec.insert_values.size() != target_schema.NumColumns()) {
    return Status::InvalidArgument("MERGE insert arity mismatch");
  }

  // Combined row namespace for the matched branch: t.<col> then s.<col>.
  Schema combined = ConcatSchemas(PrefixSchema(target_schema, "t."),
                                  PrefixSchema(source_schema, "s."));
  std::vector<std::pair<size_t, ExprRef>> resolved_sets;
  resolved_sets.reserve(spec.matched_sets.size());
  for (const auto& s : spec.matched_sets) {
    int idx = target_schema.Find(s.column);
    if (idx < 0) return Status::InvalidArgument("no column " + s.column);
    resolved_sets.emplace_back(static_cast<size_t>(idx), s.expr);
  }

  // SQL MERGE semantics: the source is evaluated against the target's
  // *pre-statement* state (the standard's snapshot rule; also sidesteps
  // the Halloween problem when the source subquery reads the target). The
  // source therefore drains completely — through Collect, so a
  // SELECT-backed source (the paper's windowed expansion subquery) still
  // runs its whole pipeline in batch mode — before any merge action runs.
  // The per-row probe/update/insert below is inherently row-at-a-time:
  // each action sees the effect of the previous source row on the target.
  std::vector<Tuple> src_rows;
  RELGRAPH_RETURN_IF_ERROR(Collect(source, &src_rows));
  {
    for (size_t si = 0; si < src_rows.size(); si++) {
      const Tuple& src = src_rows[si];
      const Value& key = src.value(src_key_idx);
      if (key.IsNull()) continue;
      Tuple existing;
      RowRef ref;
      Status found;
      if (use_index) {
        found = target->LookupUnique(spec.target_key_column, key.AsInt(),
                                     &existing, &ref);
      } else {
        auto it = hash_side.find(key.AsInt());
        if (it != hash_side.end()) {
          ref = it->second.first;
          existing = it->second.second;
          found = Status::OK();
        } else {
          found = Status::NotFound("");
        }
      }
      if (found.ok()) {
        Tuple joined = ConcatTuples(existing, src);
        if (spec.matched_condition != nullptr &&
            !EvalPredicate(*spec.matched_condition, joined, combined)) {
          continue;
        }
        if (resolved_sets.empty()) continue;
        Tuple updated = existing;
        for (const auto& [idx, expr] : resolved_sets) {
          updated.value(idx) = expr->Evaluate(joined, combined);
        }
        RELGRAPH_RETURN_IF_ERROR(target->UpdateRow(ref, existing, updated));
        if (spec.observer != nullptr) spec.observer(updated);
        if (!use_index) hash_side[key.AsInt()] = {ref, updated};
        (*affected)++;
      } else if (found.IsNotFound()) {
        if (spec.insert_values.empty()) continue;
        std::vector<Value> values;
        values.reserve(spec.insert_values.size());
        for (const auto& e : spec.insert_values) {
          values.push_back(e->Evaluate(src, source_schema));
        }
        Tuple fresh(std::move(values));
        RowRef fresh_ref;
        RELGRAPH_RETURN_IF_ERROR(target->Insert(fresh, &fresh_ref));
        if (spec.observer != nullptr) spec.observer(fresh);
        if (!use_index) hash_side[key.AsInt()] = {fresh_ref, fresh};
        (*affected)++;
      } else {
        return found;
      }
    }
  }
  return source->status();
}

}  // namespace relgraph
