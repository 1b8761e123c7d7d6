#include "src/core/fem.h"

#include <algorithm>

#include "src/common/timer.h"
#include "src/exec/agg_executors.h"
#include "src/exec/dml_executors.h"
#include "src/exec/join_executors.h"
#include "src/exec/scan_executors.h"
#include "src/exec/window_executor.h"

namespace relgraph {

const char* SqlModeName(SqlMode m) {
  return m == SqlMode::kNsql ? "NSQL" : "TSQL";
}

Schema ExpansionSchema() {
  return Schema({{"nid", TypeId::kInt},
                 {"cost", TypeId::kInt},
                 {"pid", TypeId::kInt},
                 {"aid", TypeId::kInt}});
}

/// One direction's prepared E/M plan and what it was built for.
struct FemEngine::ExpandPlan {
  EdgeRelation rel;
  uint64_t catalog_version = 0;
  std::unique_ptr<DedupLeast> expand;  // EdgeJoin -> project -> DedupLeast
  std::unique_ptr<MergeRows> merge;

  /// A relation is identified by its table and columns; a relation on
  /// shards by its columns alone (one engine serves one session).
  bool BuiltFor(const EdgeRelation& r, uint64_t version) const {
    return version == catalog_version && r.table == rel.table &&
           r.join_column == rel.join_column &&
           r.emit_column == rel.emit_column &&
           r.parent_column == rel.parent_column &&
           r.cost_column == rel.cost_column &&
           static_cast<bool>(r.shard_join) == static_cast<bool>(rel.shard_join);
  }
};

FemEngine::FemEngine(Database* db, VisitedTable* visited, SqlMode mode)
    : db_(db), visited_(visited), mode_(mode) {
  opposite_l_slot_ = params_.AddNamedSlot("opposite_l");
  min_cost_slot_ = params_.AddNamedSlot("min_cost");
  meeting_plan_ = std::make_unique<FilterExecutor>(
      std::make_unique<SeqScanExecutor>(visited_->table()),
      Cmp(CompareOp::kEq, Add(Col("d2s"), Col("d2t")),
          Param(&params_, min_cost_slot_, "min_cost")));
}

FemEngine::~FemEngine() = default;

// --------------------------------------------------------------- F-operator

Status FemEngine::MarkFrontier(const DirCols& dir, const FrontierSpec& spec,
                               int64_t* marked) {
  ScopedTimer timer(&stats_.f_operator_us);
  db_->RecordStatement([&] {
    ExprRef frontier_pred = spec.ToPredicate("nid", dir.dist);
    return "UPDATE " + visited_->table()->name() + " SET " + dir.flag +
           "=2 WHERE " + dir.flag + "=0 AND " + dir.dist + "<Max" +
           (frontier_pred != nullptr ? " AND " + frontier_pred->ToString()
                                     : std::string());
  });
  // flag=0 AND dist < infinity AND <spec>, through the direction's open
  // tree, or the nid tree for a node, when the strategy provides one.
  return visited_->open(dir)->Mark(spec, marked);
}

Status FemEngine::FinalizeFrontier(const DirCols& dir) {
  ScopedTimer timer(&stats_.f_operator_us);
  db_->RecordStatement([&] {
    return "UPDATE " + visited_->table()->name() + " SET " + dir.flag +
           "=1 WHERE " + dir.flag + "=2";
  });
  int64_t affected;
  return visited_->open(dir)->Finalize(&affected);
}

// ----------------------------------------------------- auxiliary statements
// The statements' SQL text is unchanged. PickMid and MinOpenDistance read
// the same row, OpenSet::Least: the first entry of the direction's
// open tree, whose dist is the inner MIN and whose nid the outer TOP 1
// (one filtered full scan on NoIndex). MinCost reads the scalar VisitedTable
// folds from every row it seeds and every row MERGE writes.

Status FemEngine::PickMid(const DirCols& dir, node_id_t* mid, bool* found) {
  ScopedTimer timer(&stats_.aux_us);
  db_->RecordStatement([&] {
    const std::string& table = visited_->table()->name();
    return "SELECT TOP 1 nid FROM " + table + " WHERE " + dir.flag +
           "=0 AND " + dir.dist + "=(SELECT MIN(" + dir.dist + ") FROM " +
           table + " WHERE " + dir.flag + "=0)";
  });
  weight_t min_dist;
  RELGRAPH_RETURN_IF_ERROR(visited_->open(dir)->Least(&min_dist, mid));
  *found = min_dist < kInfinity;
  return Status::OK();
}

Status FemEngine::MinOpenDistance(const DirCols& dir, weight_t* out) {
  ScopedTimer timer(&stats_.aux_us);
  db_->RecordStatement([&] {
    return "SELECT MIN(" + dir.dist + ") FROM " + visited_->table()->name() +
           " WHERE " + dir.flag + "=0";
  });
  node_id_t nid;
  return visited_->open(dir)->Least(out, &nid);
}

Status FemEngine::MinCost(weight_t* out) {
  ScopedTimer timer(&stats_.aux_us);
  db_->RecordStatement(
      [&] { return "SELECT MIN(d2s+d2t) FROM " + visited_->table()->name(); });
  *out = visited_->MinPathCost();
  return Status::OK();
}

Status FemEngine::MeetingNode(weight_t min_cost, node_id_t* out) {
  // Untimed here: this is the first statement of path recovery, and the
  // caller's recovery timer already covers it.
  db_->RecordStatement([&] {
    return "SELECT nid FROM " + visited_->table()->name() +
           " WHERE d2s+d2t=" + std::to_string(min_cost);
  });
  params_.Set(min_cost_slot_, Value(min_cost));
  RELGRAPH_RETURN_IF_ERROR(meeting_plan_->Init());
  if (meeting_plan_->Next(&meeting_row_)) {
    *out = meeting_row_.value(visited_->table()->schema().IndexOf("nid"))
               .AsInt();
    return Status::OK();
  }
  RELGRAPH_RETURN_IF_ERROR(meeting_plan_->status());
  return Status::NotFound("no node on a path of length " +
                          std::to_string(min_cost));
}

// ------------------------------------------------------ shared E/M plans

ExecRef EdgeJoin(ExecRef outer, Table* table, const std::string& column,
                 const std::string& probe_column, ExprRef residual) {
  if (table->HasIndexOn(column)) {
    return std::make_unique<IndexNestedLoopJoinExecutor>(
        std::move(outer), table, column, Col(probe_column),
        std::move(residual));
  }
  // NoIndex strategy: a nested-loop join against one full scan of the
  // table, keyed on the join column like the SQL planner's.
  return std::make_unique<NestedLoopJoinExecutor>(
      std::move(outer), std::make_unique<SeqScanExecutor>(table),
      std::move(residual), JoinKey{probe_column, column});
}

ExecRef EdgeJoin(ExecRef outer, const EdgeRelation& rel,
                 const std::string& probe_column,
                 const std::string& dist_column, ExprRef bound,
                 ExprRef residual) {
  if (!rel.shard_join) {
    return EdgeJoin(std::move(outer), rel.table, rel.join_column,
                    probe_column, std::move(residual));
  }
  ExecRef joined = rel.shard_join(std::move(outer), probe_column, dist_column,
                                  std::move(bound));
  if (residual == nullptr) return joined;
  return std::make_unique<FilterExecutor>(std::move(joined),
                                          std::move(residual));
}

DedupLeast::DedupLeast(SqlMode mode, const std::function<ExecRef()>& plan,
                       const std::string& key, const std::string& cost,
                       const std::string& tie)
    : mode_(mode) {
  ExecRef input = plan();
  schema_ = input->OutputSchema();
  const int k = schema_.Find(key), c = schema_.Find(cost),
            t = schema_.Find(tie);
  if (k < 0 || c < 0 || t < 0) {
    status_ = Status::InvalidArgument("dedup on " + key + " by (" + cost +
                                      ", " + tie + ") over " +
                                      schema_.ToString());
    return;
  }
  key_idx_ = static_cast<size_t>(k);
  cost_idx_ = static_cast<size_t>(c);
  tie_idx_ = static_cast<size_t>(t);
  if (mode_ == SqlMode::kNsql) {
    // row_number() OVER (PARTITION BY key ORDER BY cost, tie) ... WHERE
    // rownum = 1, projected back to the input columns.
    ExecRef window = std::make_unique<WindowRowNumberExecutor>(
        std::move(input), std::vector<std::string>{key},
        std::vector<SortKey>{{Col(cost), true}, {Col(tie), true}});
    ExecRef dedup = std::make_unique<FilterExecutor>(std::move(window),
                                                     ColEq("rownum", 1));
    std::vector<ExprRef> exprs;
    for (const Column& col : schema_.columns()) exprs.push_back(Col(col.name));
    nsql_ = std::make_unique<ProjectExecutor>(std::move(dedup),
                                              std::move(exprs), schema_);
    return;
  }
  // First pass — Definition 2(1): minCost(x, c) via GROUP BY + MIN.
  agg_ = std::make_unique<HashAggregateExecutor>(
      std::move(input), std::vector<std::string>{key},
      std::vector<AggSpec>{{AggOp::kMin, Col(cost), "mincost"}});
  // Second pass — Definition 2(2): a second run of the input, re-joined to
  // the group minima to recover the columns the aggregate dropped.
  again_ = plan();
}

DedupLeast::~DedupLeast() = default;

Status DedupLeast::Run() {
  size_ = 0;
  RELGRAPH_RETURN_IF_ERROR(status_);
  if (mode_ == SqlMode::kNsql) return CollectInto(nsql_.get(), &rows_, &size_);
  // First pass: the group minima, one aggregate row per key, in key order.
  RELGRAPH_RETURN_IF_ERROR(agg_->Init());
  minima_.clear();
  BatchSpan span;
  while (agg_->NextBatchSel(&span)) {
    for (size_t i = 0; i < span.count(); i++) {
      const Tuple& t = span.row(i);
      minima_.emplace_back(t.value(0).AsInt(), t.value(1).AsInt());
    }
  }
  RELGRAPH_RETURN_IF_ERROR(agg_->status());
  // Second pass: each group's slot keeps the row whose cost equals the
  // group minimum; ties on cost are broken by the least `tie` (the
  // "primary key constraint" dedup the paper mentions in §3.3).
  TrimSlots(&rows_);
  if (rows_.size() < minima_.size()) rows_.resize(minima_.size());
  taken_.assign(minima_.size(), 0);
  RELGRAPH_RETURN_IF_ERROR(again_->Init());
  while (again_->NextBatchSel(&span)) {
    for (size_t i = 0; i < span.count(); i++) {
      const Tuple& t = span.row(i);
      const int64_t k = t.value(key_idx_).AsInt();
      auto it = std::lower_bound(
          minima_.begin(), minima_.end(), k,
          [](const std::pair<int64_t, int64_t>& m, int64_t key) {
            return m.first < key;
          });
      if (it == minima_.end() || it->first != k ||
          t.value(cost_idx_).AsInt() != it->second) {
        continue;
      }
      const size_t g = static_cast<size_t>(it - minima_.begin());
      if (taken_[g] == 0 ||
          t.value(tie_idx_).AsInt() < rows_[g].value(tie_idx_).AsInt()) {
        span.Take(i, &rows_[g]);
        taken_[g] = 1;
      }
    }
  }
  RELGRAPH_RETURN_IF_ERROR(again_->status());
  // A group the second run leaves without a row (its input changed
  // between the runs, as shard data can) is dropped, not served stale.
  for (size_t g = 0; g < minima_.size(); g++) {
    if (taken_[g] == 0) continue;
    if (size_ != g) std::swap(rows_[size_], rows_[g]);
    size_++;
  }
  return Status::OK();
}

MergeRows::MergeRows(Database* db, SqlMode mode, Table* target,
                     const Schema& schema, MergeSpec spec)
    : db_(db) {
  if (mode == SqlMode::kNsql && db->SupportsMerge()) {
    merge_ = std::make_unique<MergePlan>(target, schema, std::move(spec));
    return;
  }
  // Statement 1: UPDATE target ... FROM source WHERE target.key =
  // source.key AND <matched condition> (a MERGE with no insert branch is
  // exactly this plan: probe + conditional update).
  MergeSpec update = spec;
  update.insert_values.clear();
  merge_ = std::make_unique<MergePlan>(target, schema, std::move(update));
  // Statement 2: INSERT INTO target SELECT ... FROM source WHERE NOT EXISTS
  // (SELECT 1 FROM target WHERE target.key = source.key).
  MergeSpec insert = std::move(spec);
  insert.matched_condition = nullptr;
  insert.matched_sets.clear();
  insert_ = std::make_unique<MergePlan>(target, schema, std::move(insert));
}

MergeRows::~MergeRows() = default;

const Status& MergeRows::status() const {
  if (!merge_->status().ok() || insert_ == nullptr) return merge_->status();
  return insert_->status();
}

Status MergeRows::Run(const Tuple* rows, size_t n, int64_t* affected) {
  if (insert_ == nullptr) return merge_->Run(rows, n, affected);
  int64_t updated = 0;
  RELGRAPH_RETURN_IF_ERROR(merge_->Run(rows, n, &updated));
  db_->RecordStatement();  // the INSERT below is the second statement
  int64_t inserted = 0;
  RELGRAPH_RETURN_IF_ERROR(insert_->Run(rows, n, &inserted));
  *affected = updated + inserted;
  return Status::OK();
}

// ---------------------------------------------------------- E/M-operators

ExecRef FemEngine::BuildJoinProject(const DirCols& dir,
                                    const EdgeRelation& rel) {
  // Frontier: SELECT * FROM TVisited WHERE flag = 2 — an index range probe
  // on the flag column under Index/CluIndex, a filtered scan under NoIndex.
  // Theorem-1 pruning: dist + cost + l_opposite < minCost. Inactive while
  // no s-t path is known (min_cost = kInfinity dwarfs any real sum). Shards
  // apply it as dist + cost < minCost - l_opposite before they ship.
  ExprRef opposite_l = Param(&params_, opposite_l_slot_, "opposite_l");
  ExprRef min_cost = Param(&params_, min_cost_slot_, "min_cost");
  ExecRef joined = EdgeJoin(
      visited_->open(dir)->FrontierScan(), rel, "nid", dir.dist,
      Sub(min_cost, opposite_l),
      Cmp(CompareOp::kLt,
          Add(Add(Col(dir.dist), Col(rel.cost_column)), opposite_l),
          min_cost));
  // Project to (nid, cost, pid, aid): the expanded node, its tentative
  // distance, its on-graph parent, and the frontier anchor it came from.
  std::vector<ExprRef> exprs = {
      Col(rel.emit_column), Add(Col(dir.dist), Col(rel.cost_column)),
      Col(rel.parent_column), Col("nid")};
  return std::make_unique<ProjectExecutor>(std::move(joined), std::move(exprs),
                                           ExpansionSchema());
}

MergeSpec FemEngine::VisitedMergeSpec(const DirCols& dir) {
  MergeSpec spec;
  spec.target_key_column = "nid";
  spec.source_key_column = "nid";
  spec.observer = visited_->ChangeObserver();
  spec.matched_condition =
      Cmp(CompareOp::kGt, Col("t." + dir.dist), Col("s.cost"));
  spec.matched_sets = {{dir.dist, Col("s.cost")},
                       {dir.pred, Col("s.pid")},
                       {dir.anchor, Col("s.aid")},
                       {dir.flag, Lit(int64_t{0})}};
  if (dir.forward) {
    spec.insert_values = {Col("nid"),        Col("cost"),
                          Col("pid"),        Col("aid"),
                          Lit(int64_t{0}),   Lit(kInfinity),
                          Lit(kInvalidNode), Lit(kInvalidNode),
                          Lit(int64_t{0})};
  } else {
    spec.insert_values = {Col("nid"),        Lit(kInfinity),
                          Lit(kInvalidNode), Lit(kInvalidNode),
                          Lit(int64_t{0}),   Col("cost"),
                          Col("pid"),        Col("aid"),
                          Lit(int64_t{0})};
  }
  return spec;
}

Status FemEngine::PlanFor(const DirCols& dir, const EdgeRelation& rel,
                          ExpandPlan** out) {
  std::unique_ptr<ExpandPlan>& plan = plans_[dir.forward ? 1 : 0];
  const uint64_t version = db_->catalog()->version();
  if (plan == nullptr || !plan->BuiltFor(rel, version)) {
    auto fresh = std::make_unique<ExpandPlan>();
    fresh->rel = rel;
    fresh->catalog_version = version;
    // The two new SQL features degrade independently: PostgreSQL 9.0 has
    // the window function but not MERGE, so its NSQL plan still
    // window-dedups but merges via update+insert (§5.2).
    fresh->expand = std::make_unique<DedupLeast>(
        mode_, [&] { return BuildJoinProject(dir, rel); }, "nid", "cost",
        "pid");
    RELGRAPH_RETURN_IF_ERROR(fresh->expand->status());
    fresh->merge = std::make_unique<MergeRows>(
        db_, mode_, visited_->table(), ExpansionSchema(),
        VisitedMergeSpec(dir));
    RELGRAPH_RETURN_IF_ERROR(fresh->merge->status());
    plan = std::move(fresh);
  }
  *out = plan.get();
  return Status::OK();
}

Status FemEngine::ExpandAndMerge(const DirCols& dir, const EdgeRelation& rel,
                                 weight_t opposite_l, weight_t min_cost,
                                 int64_t* affected) {
  stats_.expansions++;
  // The combined expansion statement — Listing 4(2) shape.
  db_->RecordStatement([&] {
    const std::string& table = visited_->table()->name();
    return "MERGE " + table +
           " AS target USING (SELECT nid,pid,cost FROM (SELECT out." +
           rel.emit_column + ", out." + rel.parent_column + ", out." +
           rel.cost_column + "+q." + dir.dist +
           ", row_number() OVER (PARTITION BY out." + rel.emit_column +
           " ORDER BY out." + rel.cost_column + "+q." + dir.dist +
           ") AS rownum FROM " + table + " q, " +
           (rel.shard_join ? std::string("TEdges@shards")
                           : rel.table->name()) +
           " out WHERE q.nid=out." + rel.join_column + " AND q." + dir.flag +
           "=2 AND out." + rel.cost_column + "+q." + dir.dist + "+" +
           std::to_string(opposite_l) + "<" + std::to_string(min_cost) +
           ") tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN "
           "MATCHED AND target." +
           dir.dist + ">source.cost THEN UPDATE SET " + dir.dist +
           "=source.cost," + dir.pred + "=source.pid," + dir.flag +
           "=0 WHEN NOT MATCHED THEN INSERT ...";
  });
  ExpandPlan* plan;
  {
    ScopedTimer timer(&stats_.e_operator_us);
    RELGRAPH_RETURN_IF_ERROR(PlanFor(dir, rel, &plan));
    params_.Set(opposite_l_slot_, Value(opposite_l));
    params_.Set(min_cost_slot_, Value(min_cost));
    RELGRAPH_RETURN_IF_ERROR(plan->expand->Run());
  }
  ScopedTimer timer(&stats_.m_operator_us);
  return plan->merge->Run(plan->expand->rows().data(), plan->expand->size(),
                          affected);
}

}  // namespace relgraph
