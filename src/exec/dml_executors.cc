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

UpdatePlan::UpdatePlan(Table* table, ExprRef predicate,
                       std::vector<SetClause> sets, KeyProbe probe)
    : table_(table), predicate_(std::move(predicate)),
      probe_(std::move(probe)) {
  const Schema& schema = table_->schema();
  if (predicate_ != nullptr) {
    status_ = BindColumns(predicate_, schema, &predicate_);
  }
  sets_.reserve(sets.size());
  for (auto& s : sets) {
    if (!status_.ok()) return;
    int idx = schema.Find(s.column);
    if (idx < 0) {
      status_ = Status::InvalidArgument("no column " + s.column);
      return;
    }
    status_ = BindColumns(s.expr, schema, &s.expr);
    sets_.emplace_back(static_cast<size_t>(idx), std::move(s.expr));
  }
  set_cols_.resize(sets_.size());
}

std::unique_ptr<UpdatePlan> UpdatePlan::Delete(Table* table,
                                               ExprRef predicate,
                                               KeyProbe probe) {
  auto plan = std::make_unique<UpdatePlan>(table, std::move(predicate),
                                           std::vector<SetClause>{},
                                           std::move(probe));
  plan->delete_ = true;
  return plan;
}

Status UpdatePlan::Run(int64_t* affected) {
  *affected = 0;
  RELGRAPH_RETURN_IF_ERROR(status_);
  bool any;
  RELGRAPH_RETURN_IF_ERROR(probe_.Open(table_, &candidates_, &any));
  // `column OP NULL` is never true, and the predicate includes it: no row
  // can match (the frontier mark once the open set is empty).
  if (!any) return Status::OK();
  return Run(&candidates_, affected);
}

// Every UPDATE and DELETE ends here: match the candidates, evaluate the
// SET clauses over the matched rows, then apply (the collect-then-apply
// split keeps the scan stable under row movement). Both the WHERE
// predicate and the SET expressions run in batch mode — one EvalBatch
// column per scan batch — or row at a time for small batches.
Status UpdatePlan::Run(Table::Iterator* it, int64_t* affected) {
  *affected = 0;
  RELGRAPH_RETURN_IF_ERROR(status_);
  // The pre-image goes to UpdateRow, which moves index entries by it.
  size_t pending = 0;
  pending_refs_.clear();
  bool exhausted = false;
  while (size_t n = ReadIteratorBatch(it, &exhausted, kExecBatchSize, &rows_,
                                      &refs_)) {
    // Matched rows stay where the scan put them; a selection vector over
    // the scan batch picks them out.
    const uint32_t* selp = nullptr;
    size_t lanes = n;
    if (predicate_ != nullptr) {
      RowBatch batch(rows_.data(), n, nullptr, 0);
      EvalPredicateBatch(*predicate_, batch, &pred_scratch_, &keep_);
      sel_.clear();
      for (size_t i = 0; i < n; i++) {
        if (keep_[i]) sel_.push_back(static_cast<uint32_t>(i));
      }
      if (sel_.empty()) continue;
      selp = sel_.data();
      lanes = sel_.size();
    }
    if (delete_) {
      for (size_t i = 0; i < lanes; i++) {
        pending_refs_.push_back(refs_[selp != nullptr ? selp[i] : i]);
      }
      continue;
    }
    // SET expressions see the *old* rows — one column per clause when the
    // match set is big enough to amortize it, row-at-a-time otherwise.
    RowBatch mbatch(rows_.data(), n, selp, lanes);
    const bool row_at_a_time = EvalRowAtATime(mbatch);
    if (!row_at_a_time) {
      for (size_t k = 0; k < sets_.size(); k++) {
        sets_[k].second->EvalBatch(mbatch, &set_cols_[k]);
      }
    }
    if (pending_old_.size() < pending + lanes) {
      pending_old_.resize(pending + lanes);
      pending_new_.resize(pending + lanes);
    }
    for (size_t i = 0; i < lanes; i++, pending++) {
      const size_t r = selp != nullptr ? selp[i] : i;
      pending_refs_.push_back(refs_[r]);
      pending_old_[pending] = rows_[r];
      Tuple& updated = pending_new_[pending];
      updated = rows_[r];
      for (size_t k = 0; k < sets_.size(); k++) {
        updated.value(sets_[k].first) =
            row_at_a_time ? sets_[k].second->Evaluate(rows_[r])
                          : set_cols_[k].Get(i);
      }
    }
  }
  RELGRAPH_RETURN_IF_ERROR(it->status());
  for (size_t i = 0; i < pending_refs_.size(); i++) {
    RELGRAPH_RETURN_IF_ERROR(
        delete_ ? table_->DeleteRow(pending_refs_[i])
                : table_->UpdateRow(pending_refs_[i], pending_old_[i],
                                    pending_new_[i]));
    (*affected)++;
  }
  TrimSlots(&rows_);
  TrimSlots(&pending_old_);
  TrimSlots(&pending_new_);
  return Status::OK();
}

MergePlan::MergePlan(Table* target, const Schema& source_schema,
                     MergeSpec spec)
    : target_(target),
      spec_(std::move(spec)) {
  const Schema& target_schema = target_->schema();
  status_ = [&]() -> Status {
    int tgt_key_idx = target_schema.Find(spec_.target_key_column);
    if (tgt_key_idx < 0) {
      return Status::InvalidArgument("MERGE target lacks key column " +
                                     spec_.target_key_column);
    }
    int src_key_idx = source_schema.Find(spec_.source_key_column);
    if (src_key_idx < 0) {
      return Status::InvalidArgument("MERGE source lacks key column " +
                                     spec_.source_key_column);
    }
    if (!spec_.insert_values.empty() &&
        spec_.insert_values.size() != target_schema.NumColumns()) {
      return Status::InvalidArgument("MERGE insert arity mismatch");
    }
    target_key_idx_ = static_cast<size_t>(tgt_key_idx);
    source_key_idx_ = static_cast<size_t>(src_key_idx);
    // Combined row namespace for the matched branch: t.<col> then s.<col>.
    const Schema combined = ConcatSchemas(PrefixSchema(target_schema, "t."),
                                          PrefixSchema(source_schema, "s."));
    if (spec_.matched_condition != nullptr) {
      RELGRAPH_RETURN_IF_ERROR(BindColumns(spec_.matched_condition, combined,
                                           &spec_.matched_condition));
    }
    for (auto& s : spec_.matched_sets) {
      int idx = target_schema.Find(s.column);
      if (idx < 0) return Status::InvalidArgument("no column " + s.column);
      RELGRAPH_RETURN_IF_ERROR(BindColumns(s.expr, combined, &s.expr));
      sets_.emplace_back(static_cast<size_t>(idx), s.expr);
    }
    RELGRAPH_RETURN_IF_ERROR(
        BindColumns(&spec_.insert_values, source_schema));
    return Status::OK();
  }();
  // Without a unique index the plan falls back to a hash match: one scan
  // of the target builds key -> row, then each source row probes the map
  // (this is how an RDBMS executes MERGE on an unindexed target).
  use_index_ = target_->HasIndexOn(spec_.target_key_column);
  fresh_ = Tuple(std::vector<Value>(spec_.insert_values.size()));
}

Status MergePlan::Run(const Tuple* rows, size_t n, int64_t* affected) {
  *affected = 0;
  RELGRAPH_RETURN_IF_ERROR(status_);
  hash_side_.clear();
  if (!use_index_) {
    Table::Iterator it = target_->Scan();
    Tuple t;
    RowRef ref;
    while (it.Next(&t, &ref)) {
      const Value& key = t.value(target_key_idx_);
      if (key.IsNull()) continue;
      hash_side_.emplace(key.AsInt(), std::make_pair(ref, t));
    }
    RELGRAPH_RETURN_IF_ERROR(it.status());
  }
  // SQL MERGE semantics: the source was evaluated against the target's
  // *pre-statement* state (the standard's snapshot rule; also sidesteps
  // the Halloween problem when the source subquery reads the target). The
  // per-row probe/update/insert below is inherently row-at-a-time: each
  // action sees the effect of the previous source row on the target.
  for (size_t si = 0; si < n; si++) {
    const Tuple& src = rows[si];
    const Value& key = src.value(source_key_idx_);
    if (key.IsNull()) continue;
    RowRef ref;
    Status found;
    if (use_index_) {
      found = target_->LookupUnique(spec_.target_key_column, key.AsInt(),
                                    &existing_, &ref);
    } else {
      auto it = hash_side_.find(key.AsInt());
      if (it != hash_side_.end()) {
        ref = it->second.first;
        existing_ = it->second.second;
      } else {
        found = Status::NotFound("");
      }
    }
    if (found.ok()) {
      const RowView pair(existing_, src);
      if (spec_.matched_condition != nullptr &&
          !EvalPredicate(*spec_.matched_condition, pair)) {
        continue;
      }
      if (sets_.empty()) continue;
      updated_ = existing_;
      for (const auto& [idx, expr] : sets_) {
        updated_.value(idx) = expr->Evaluate(pair);
      }
      RELGRAPH_RETURN_IF_ERROR(target_->UpdateRow(ref, existing_, updated_));
      if (spec_.observer != nullptr) spec_.observer(updated_);
      if (!use_index_) hash_side_[key.AsInt()] = {ref, updated_};
      (*affected)++;
    } else if (found.IsNotFound()) {
      if (spec_.insert_values.empty()) continue;
      for (size_t k = 0; k < spec_.insert_values.size(); k++) {
        fresh_.value(k) = spec_.insert_values[k]->Evaluate(src);
      }
      RowRef fresh_ref;
      RELGRAPH_RETURN_IF_ERROR(target_->Insert(fresh_, &fresh_ref));
      if (spec_.observer != nullptr) spec_.observer(fresh_);
      if (!use_index_) hash_side_[key.AsInt()] = {fresh_ref, fresh_};
      (*affected)++;
    } else {
      return found;
    }
  }
  return Status::OK();
}

Status MergePlan::Run(Executor* source, int64_t* affected) {
  *affected = 0;
  RELGRAPH_RETURN_IF_ERROR(status_);
  size_t n = 0;
  RELGRAPH_RETURN_IF_ERROR(CollectInto(source, &source_rows_, &n));
  Status merged = Run(source_rows_.data(), n, affected);
  TrimSlots(&source_rows_);
  return merged;
}

}  // namespace relgraph
