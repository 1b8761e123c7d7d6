#include "src/core/fem.h"

#include <map>
#include <unordered_map>

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

FemEngine::FemEngine(Database* db, VisitedTable* visited, SqlMode mode)
    : db_(db), visited_(visited), mode_(mode) {}

// --------------------------------------------------------------- F-operator

Status FemEngine::MarkFrontier(const DirCols& dir, const FrontierSpec& spec,
                               int64_t* marked) {
  ScopedTimer timer(&stats_.f_operator_us);
  ExprRef frontier_pred = spec.ToPredicate(dir);
  db_->RecordStatement("UPDATE " + visited_->table()->name() + " SET " +
                       dir.flag + "=2 WHERE " + dir.flag + "=0 AND " +
                       dir.dist + "<Max" +
                       (frontier_pred != nullptr
                            ? " AND " + frontier_pred->ToString()
                            : std::string()));
  // flag=0 AND dist < infinity AND <spec>. The reachability conjunct keeps
  // rows seeded by the opposite direction (dist = infinity) out of this
  // direction's frontier. VisitedTable routes the update through the nid or
  // dist index when the strategy provides one.
  return visited_->MarkFrontier(dir, spec, marked);
}

Status FemEngine::FinalizeFrontier(const DirCols& dir) {
  ScopedTimer timer(&stats_.f_operator_us);
  db_->RecordStatement("UPDATE " + visited_->table()->name() + " SET " +
                       dir.flag + "=1 WHERE " + dir.flag + "=2");
  int64_t affected;
  return visited_->FinalizeFrontier(dir, &affected);
}

// ----------------------------------------------------- auxiliary statements
// The statements' SQL text is unchanged. PickMid and MinOpenDistance read
// the same row, VisitedTable::LeastOpen: the first entry of the direction's
// open tree, whose dist is the inner MIN and whose nid the outer TOP 1
// (one filtered full scan on NoIndex). MinCost reads the scalar VisitedTable
// folds from every row it seeds and every row MERGE writes.

Status FemEngine::PickMid(const DirCols& dir, node_id_t* mid, bool* found) {
  ScopedTimer timer(&stats_.aux_us);
  db_->RecordStatement("SELECT TOP 1 nid FROM " + visited_->table()->name() +
                       " WHERE " + dir.flag + "=0 AND " + dir.dist +
                       "=(SELECT MIN(" + dir.dist + ") FROM " +
                       visited_->table()->name() + " WHERE " + dir.flag +
                       "=0)");
  weight_t min_dist;
  RELGRAPH_RETURN_IF_ERROR(visited_->LeastOpen(dir, &min_dist, mid));
  *found = min_dist < kInfinity;
  return Status::OK();
}

Status FemEngine::MinOpenDistance(const DirCols& dir, weight_t* out) {
  ScopedTimer timer(&stats_.aux_us);
  db_->RecordStatement("SELECT MIN(" + dir.dist + ") FROM " +
                       visited_->table()->name() + " WHERE " + dir.flag +
                       "=0");
  node_id_t nid;
  return visited_->LeastOpen(dir, out, &nid);
}

Status FemEngine::MinCost(weight_t* out) {
  ScopedTimer timer(&stats_.aux_us);
  db_->RecordStatement("SELECT MIN(d2s+d2t) FROM " +
                       visited_->table()->name());
  *out = visited_->MinPathCost();
  return Status::OK();
}

Status FemEngine::MeetingNode(weight_t min_cost, node_id_t* out) {
  // Untimed here: this is the first statement of path recovery, and the
  // caller's recovery timer already covers it.
  db_->RecordStatement("SELECT nid FROM " + visited_->table()->name() +
                       " WHERE d2s+d2t=" + std::to_string(min_cost));
  FilterExecutor plan(std::make_unique<SeqScanExecutor>(visited_->table()),
                      Cmp(CompareOp::kEq, Add(Col("d2s"), Col("d2t")),
                          Lit(min_cost)));
  RELGRAPH_RETURN_IF_ERROR(plan.Init());
  Tuple t;
  if (plan.Next(&t)) {
    *out = t.value(visited_->table()->schema().IndexOf("nid")).AsInt();
    return Status::OK();
  }
  RELGRAPH_RETURN_IF_ERROR(plan.status());
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
                 const std::string& dist_column, weight_t bound,
                 ExprRef residual) {
  if (!rel.shard_join) {
    return EdgeJoin(std::move(outer), rel.table, rel.join_column,
                    probe_column, std::move(residual));
  }
  ExecRef joined =
      rel.shard_join(std::move(outer), probe_column, dist_column, bound);
  if (residual == nullptr) return joined;
  return std::make_unique<FilterExecutor>(std::move(joined),
                                          std::move(residual));
}

Status DedupLeast(SqlMode mode, const std::function<ExecRef()>& plan,
                  const std::string& key, const std::string& cost,
                  const std::string& tie, std::vector<Tuple>* rows) {
  ExecRef input = plan();
  const Schema schema = input->OutputSchema();
  if (mode == SqlMode::kNsql) {
    // row_number() OVER (PARTITION BY key ORDER BY cost, tie) ... WHERE
    // rownum = 1, projected back to the input columns.
    ExecRef window = std::make_unique<WindowRowNumberExecutor>(
        std::move(input), std::vector<std::string>{key},
        std::vector<SortKey>{{Col(cost), true}, {Col(tie), true}});
    ExecRef dedup = std::make_unique<FilterExecutor>(std::move(window),
                                                     ColEq("rownum", 1));
    std::vector<ExprRef> exprs;
    for (const Column& c : schema.columns()) exprs.push_back(Col(c.name));
    ProjectExecutor project(std::move(dedup), std::move(exprs), schema);
    return Collect(&project, rows);
  }
  // First pass — Definition 2(1): minCost(x, c) via GROUP BY + MIN.
  std::unordered_map<int64_t, int64_t> min_by_key;
  {
    HashAggregateExecutor agg(
        std::move(input), std::vector<std::string>{key},
        std::vector<AggSpec>{{AggOp::kMin, Col(cost), "mincost"}});
    std::vector<Tuple> agg_rows;
    RELGRAPH_RETURN_IF_ERROR(Collect(&agg, &agg_rows));
    for (const auto& t : agg_rows) {
      min_by_key[t.value(0).AsInt()] = t.value(1).AsInt();
    }
  }
  // Second pass — Definition 2(2): re-join to recover the columns the
  // aggregate dropped, keeping rows whose cost equals the group minimum.
  // Ties on cost are broken by the least `tie` (the "primary key
  // constraint" dedup the paper mentions in §3.3).
  const size_t key_idx = schema.IndexOf(key);
  const size_t cost_idx = schema.IndexOf(cost);
  const size_t tie_idx = schema.IndexOf(tie);
  ExecRef again = plan();
  RELGRAPH_RETURN_IF_ERROR(again->Init());
  std::map<int64_t, Tuple> best;
  BatchSpan span;
  while (again->NextBatchSel(&span)) {
    for (size_t i = 0; i < span.count(); i++) {
      const Tuple& t = span.row(i);
      const int64_t k = t.value(key_idx).AsInt();
      auto it = min_by_key.find(k);
      if (it == min_by_key.end() || t.value(cost_idx).AsInt() != it->second) {
        continue;
      }
      auto [pos, inserted] = best.try_emplace(k);
      if (inserted ||
          t.value(tie_idx).AsInt() < pos->second.value(tie_idx).AsInt()) {
        span.Take(i, &pos->second);
      }
    }
  }
  RELGRAPH_RETURN_IF_ERROR(again->status());
  rows->reserve(best.size());
  for (auto& [k, tuple] : best) rows->push_back(std::move(tuple));
  return Status::OK();
}

Status MergeRows(Database* db, SqlMode mode, Table* target,
                 std::vector<Tuple> rows, const Schema& schema,
                 const MergeSpec& spec, int64_t* affected) {
  if (mode == SqlMode::kNsql && db->SupportsMerge()) {
    MaterializedExecutor source(std::move(rows), schema);
    return MergeInto(target, &source, spec, affected);
  }
  // Statement 1: UPDATE target ... FROM source WHERE target.key =
  // source.key AND <matched condition> (a MERGE with no insert branch is
  // exactly this plan: probe + conditional update).
  int64_t updated = 0;
  {
    MergeSpec update = spec;
    update.insert_values.clear();
    MaterializedExecutor source(rows, schema);
    RELGRAPH_RETURN_IF_ERROR(MergeInto(target, &source, update, &updated));
  }
  db->RecordStatement();  // the INSERT below is the second statement
  // Statement 2: INSERT INTO target SELECT ... FROM source WHERE NOT EXISTS
  // (SELECT 1 FROM target WHERE target.key = source.key).
  int64_t inserted = 0;
  {
    MergeSpec insert = spec;
    insert.matched_condition = nullptr;
    insert.matched_sets.clear();
    MaterializedExecutor source(std::move(rows), schema);
    RELGRAPH_RETURN_IF_ERROR(MergeInto(target, &source, insert, &inserted));
  }
  *affected = updated + inserted;
  return Status::OK();
}

// ---------------------------------------------------------- E/M-operators

ExecRef FemEngine::BuildJoinProject(const DirCols& dir, const EdgeRelation& rel,
                                    weight_t opposite_l, weight_t min_cost) {
  // Frontier: SELECT * FROM TVisited WHERE flag = 2 — an index range probe
  // on the flag column under Index/CluIndex, a filtered scan under NoIndex.
  // Theorem-1 pruning: dist + cost + l_opposite < minCost. Inactive while
  // no s-t path is known (min_cost = kInfinity dwarfs any real sum). Shards
  // apply it as dist + cost < minCost - l_opposite before they ship.
  ExecRef joined = EdgeJoin(
      visited_->FrontierScan(dir), rel, "nid", dir.dist,
      min_cost - opposite_l,
      Cmp(CompareOp::kLt,
          Add(Add(Col(dir.dist), Col(rel.cost_column)), Lit(opposite_l)),
          Lit(min_cost)));
  // Project to (nid, cost, pid, aid): the expanded node, its tentative
  // distance, its on-graph parent, and the frontier anchor it came from.
  std::vector<ExprRef> exprs = {
      Col(rel.emit_column), Add(Col(dir.dist), Col(rel.cost_column)),
      Col(rel.parent_column), Col("nid")};
  return std::make_unique<ProjectExecutor>(std::move(joined), std::move(exprs),
                                           ExpansionSchema());
}

Status FemEngine::MergeIntoVisited(const DirCols& dir, std::vector<Tuple> rows,
                                   int64_t* affected) {
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
  return MergeRows(db_, mode_, visited_->table(), std::move(rows),
                   ExpansionSchema(), spec, affected);
}

Status FemEngine::ExpandAndMerge(const DirCols& dir, const EdgeRelation& rel,
                                 weight_t opposite_l, weight_t min_cost,
                                 int64_t* affected) {
  stats_.expansions++;
  // The combined expansion statement — Listing 4(2) shape.
  db_->RecordStatement(
      "MERGE " + visited_->table()->name() +
      " AS target USING (SELECT nid,pid,cost FROM (SELECT out." +
      rel.emit_column + ", out." + rel.parent_column + ", out." +
      rel.cost_column + "+q." + dir.dist +
      ", row_number() OVER (PARTITION BY out." + rel.emit_column +
      " ORDER BY out." + rel.cost_column + "+q." + dir.dist +
      ") AS rownum FROM " + visited_->table()->name() + " q, " +
      (rel.shard_join ? std::string("TEdges@shards") : rel.table->name()) +
      " out WHERE q.nid=out." + rel.join_column +
      " AND q." + dir.flag + "=2 AND out." + rel.cost_column + "+q." +
      dir.dist + "+" + std::to_string(opposite_l) + "<" +
      std::to_string(min_cost) +
      ") tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN "
      "MATCHED AND target." + dir.dist + ">source.cost THEN UPDATE SET " +
      dir.dist + "=source.cost," + dir.pred + "=source.pid," + dir.flag +
      "=0 WHEN NOT MATCHED THEN INSERT ...");
  // The two new SQL features degrade independently: PostgreSQL 9.0 has the
  // window function but not MERGE, so its NSQL plan still window-dedups but
  // merges via update+insert (§5.2).
  std::vector<Tuple> rows;
  {
    ScopedTimer timer(&stats_.e_operator_us);
    RELGRAPH_RETURN_IF_ERROR(DedupLeast(
        mode_,
        [&] { return BuildJoinProject(dir, rel, opposite_l, min_cost); },
        "nid", "cost", "pid", &rows));
  }
  ScopedTimer timer(&stats_.m_operator_us);
  return MergeIntoVisited(dir, std::move(rows), affected);
}

}  // namespace relgraph
