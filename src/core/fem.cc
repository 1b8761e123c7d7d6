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
    : db_(db), visited_(visited), mode_(mode) {
  // MERGE is an NSQL-mode feature; an engine without it (PostgreSQL 9.0
  // profile) degrades the M-operator to update+insert automatically, which
  // is what the paper does in §5.2 "Extensive Studies".
}

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
// The statements' SQL text is unchanged; their results now come from
// VisitedTable's incremental aggregates (plus, for the TOP-1 row fetch, a
// dist-index probe), so none of them scans TVisited any more.

Status FemEngine::PickMid(const DirCols& dir, node_id_t* mid, bool* found) {
  ScopedTimer timer(&stats_.aux_us);
  db_->RecordStatement("SELECT TOP 1 nid FROM " + visited_->table()->name() +
                       " WHERE " + dir.flag + "=0 AND " + dir.dist +
                       "=(SELECT MIN(" + dir.dist + ") FROM " +
                       visited_->table()->name() + " WHERE " + dir.flag +
                       "=0)");
  *found = false;
  // Inner subquery: SELECT MIN(dist) WHERE f=0.
  weight_t min_dist = visited_->MinOpenDist(dir);
  if (min_dist >= kInfinity) return Status::OK();
  // Outer query: SELECT TOP 1 nid WHERE f=0 AND dist = :min.
  return visited_->FirstOpenAt(dir, min_dist, mid, found);
}

Status FemEngine::MinOpenDistance(const DirCols& dir, weight_t* out) {
  ScopedTimer timer(&stats_.aux_us);
  db_->RecordStatement("SELECT MIN(" + dir.dist + ") FROM " +
                       visited_->table()->name() + " WHERE " + dir.flag +
                       "=0");
  *out = visited_->MinOpenDist(dir);
  return Status::OK();
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

Status FemEngine::CountOpen(const DirCols& dir, int64_t* out) {
  ScopedTimer timer(&stats_.aux_us);
  db_->RecordStatement("SELECT COUNT(*) FROM " + visited_->table()->name() +
                       " WHERE " + dir.flag + "=0");
  *out = visited_->OpenCount(dir);
  return Status::OK();
}

// -------------------------------------------------------------- E-operator

ExecRef FemEngine::BuildJoinProject(const DirCols& dir, const EdgeRelation& rel,
                                    weight_t opposite_l, weight_t min_cost) {
  // Frontier: SELECT * FROM TVisited WHERE flag = 2 — an index range probe
  // on the flag column under Index/CluIndex, a filtered scan under NoIndex.
  ExecRef frontier = visited_->FrontierScan(dir);

  // Theorem-1 pruning: dist + cost + l_opposite < minCost. Inactive while
  // no s-t path is known (min_cost = kInfinity dwarfs any real sum).
  ExprRef prune = Cmp(
      CompareOp::kLt,
      Add(Add(Col(dir.dist), Col(rel.cost_column)), Lit(opposite_l)),
      Lit(min_cost));

  ExecRef joined;
  if (rel.table->HasIndexOn(rel.join_column)) {
    joined = std::make_unique<IndexNestedLoopJoinExecutor>(
        std::move(frontier), rel.table, rel.join_column, Col("nid"), prune);
  } else {
    // NoIndex strategy: the only plan is a nested-loop join against a full
    // scan of the edge table.
    ExprRef on = Cmp(CompareOp::kEq, Col("nid"), Col(rel.join_column));
    joined = std::make_unique<NestedLoopJoinExecutor>(
        std::move(frontier), std::make_unique<SeqScanExecutor>(rel.table),
        And(on, prune));
  }

  // Project to (nid, cost, pid, aid): the expanded node, its tentative
  // distance, its on-graph parent, and the frontier anchor it came from.
  std::vector<ExprRef> exprs = {
      Col(rel.emit_column), Add(Col(dir.dist), Col(rel.cost_column)),
      Col(rel.parent_column), Col("nid")};
  return std::make_unique<ProjectExecutor>(std::move(joined), std::move(exprs),
                                           ExpansionSchema());
}

Status FemEngine::BuildExpansionNsql(const DirCols& dir,
                                     const EdgeRelation& rel,
                                     weight_t opposite_l, weight_t min_cost,
                                     std::vector<Tuple>* rows) {
  // row_number() OVER (PARTITION BY nid ORDER BY cost) ... WHERE rownum = 1.
  ExecRef window = std::make_unique<WindowRowNumberExecutor>(
      BuildJoinProject(dir, rel, opposite_l, min_cost),
      std::vector<std::string>{"nid"},
      std::vector<SortKey>{{Col("cost"), true}, {Col("pid"), true}});
  ExecRef dedup = std::make_unique<FilterExecutor>(std::move(window),
                                                   ColEq("rownum", 1));
  ExecRef project = std::make_unique<ProjectExecutor>(
      std::move(dedup),
      std::vector<ExprRef>{Col("nid"), Col("cost"), Col("pid"), Col("aid")},
      ExpansionSchema());
  return Collect(project.get(), rows);
}

Status FemEngine::BuildExpansionTsql(const DirCols& dir,
                                     const EdgeRelation& rel,
                                     weight_t opposite_l, weight_t min_cost,
                                     std::vector<Tuple>* rows) {
  // First pass — Definition 2(1): minCost(x, c) via GROUP BY + MIN.
  std::unordered_map<int64_t, weight_t> min_by_node;
  {
    ExecRef agg = std::make_unique<HashAggregateExecutor>(
        BuildJoinProject(dir, rel, opposite_l, min_cost),
        std::vector<std::string>{"nid"},
        std::vector<AggSpec>{{AggOp::kMin, Col("cost"), "mincost"}});
    std::vector<Tuple> agg_rows;
    RELGRAPH_RETURN_IF_ERROR(Collect(agg.get(), &agg_rows));
    for (const auto& t : agg_rows) {
      min_by_node[t.value(0).AsInt()] = t.value(1).AsInt();
    }
  }
  // Second pass — Definition 2(2): re-join to recover the parent column the
  // aggregate dropped, keeping rows whose cost equals the group minimum.
  // Ties on cost are broken by the smallest pid (the "primary key
  // constraint" dedup the paper mentions in §3.3).
  ExecRef again = BuildJoinProject(dir, rel, opposite_l, min_cost);
  RELGRAPH_RETURN_IF_ERROR(again->Init());
  std::map<int64_t, Tuple> best;
  BatchSpan span;
  while (again->NextBatchSel(&span)) {
    for (size_t i = 0; i < span.count(); i++) {
      const Tuple& t = span.row(i);
      int64_t nid = t.value(0).AsInt();
      weight_t cost = t.value(1).AsInt();
      auto it = min_by_node.find(nid);
      if (it == min_by_node.end() || cost != it->second) continue;
      auto [pos, inserted] = best.try_emplace(nid);
      if (inserted || t.value(2).AsInt() < pos->second.value(2).AsInt()) {
        span.Take(i, &pos->second);
      }
    }
  }
  RELGRAPH_RETURN_IF_ERROR(again->status());
  rows->reserve(best.size());
  for (auto& [nid, tuple] : best) rows->push_back(std::move(tuple));
  return Status::OK();
}

// -------------------------------------------------------------- M-operator

Status FemEngine::MergeNsql(const DirCols& dir, std::vector<Tuple> rows,
                            int64_t* affected) {
  MaterializedExecutor source(std::move(rows), ExpansionSchema());
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
  return MergeInto(visited_->table(), &source, spec, affected);
}

Status FemEngine::MergeTsql(const DirCols& dir, std::vector<Tuple> rows,
                            int64_t* affected) {
  // Statement 1: UPDATE TVisited ... FROM ek WHERE TVisited.nid = ek.nid
  // AND TVisited.dist > ek.cost (a MERGE with no insert branch is exactly
  // this plan: probe + conditional update).
  int64_t updated = 0;
  {
    MaterializedExecutor source(rows, ExpansionSchema());
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
    RELGRAPH_RETURN_IF_ERROR(
        MergeInto(visited_->table(), &source, spec, &updated));
  }
  db_->RecordStatement();  // the INSERT below is the second statement
  // Statement 2: INSERT INTO TVisited SELECT ... FROM ek WHERE NOT EXISTS
  // (SELECT 1 FROM TVisited v WHERE v.nid = ek.nid).
  int64_t inserted = 0;
  {
    MaterializedExecutor source(std::move(rows), ExpansionSchema());
    MergeSpec spec;
    spec.target_key_column = "nid";
    spec.source_key_column = "nid";
    spec.observer = visited_->ChangeObserver();
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
    RELGRAPH_RETURN_IF_ERROR(
        MergeInto(visited_->table(), &source, spec, &inserted));
  }
  *affected = updated + inserted;
  return Status::OK();
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
      rel.table->name() + " out WHERE q.nid=out." + rel.join_column +
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
  const bool window_e = mode_ == SqlMode::kNsql;
  const bool merge_m = mode_ == SqlMode::kNsql && db_->SupportsMerge();

  std::vector<Tuple> rows;
  {
    ScopedTimer timer(&stats_.e_operator_us);
    if (window_e) {
      RELGRAPH_RETURN_IF_ERROR(
          BuildExpansionNsql(dir, rel, opposite_l, min_cost, &rows));
    } else {
      RELGRAPH_RETURN_IF_ERROR(
          BuildExpansionTsql(dir, rel, opposite_l, min_cost, &rows));
    }
  }
  ScopedTimer timer(&stats_.m_operator_us);
  if (merge_m) {
    return MergeNsql(dir, std::move(rows), affected);
  }
  return MergeTsql(dir, std::move(rows), affected);
}

Status FemEngine::MergeExpansion(const DirCols& dir, std::vector<Tuple> rows,
                                 int64_t* affected) {
  db_->RecordStatement(
      "MERGE " + visited_->table()->name() +
      " AS target USING ek AS source ON source.nid=target.nid WHEN MATCHED "
      "AND target." + dir.dist + ">source.cost THEN UPDATE SET " + dir.dist +
      "=source.cost," + dir.pred + "=source.pid," + dir.flag +
      "=0 WHEN NOT MATCHED THEN INSERT ...");
  ScopedTimer timer(&stats_.m_operator_us);
  if (mode_ == SqlMode::kNsql && db_->SupportsMerge()) {
    return MergeNsql(dir, std::move(rows), affected);
  }
  return MergeTsql(dir, std::move(rows), affected);
}

}  // namespace relgraph
