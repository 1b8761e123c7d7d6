#include "src/core/sql_path_finder.h"

#include <algorithm>

#include "src/common/timer.h"

namespace relgraph {

namespace {

/// SQL integer literal for a Value-bound parameter map.
sql::SqlParams P(std::initializer_list<std::pair<const char*, int64_t>> kv) {
  sql::SqlParams params;
  for (const auto& [k, v] : kv) params.emplace(k, Value(v));
  return params;
}

}  // namespace

Status SqlPathFinder::Create(GraphStore* graph, SqlPathFinderOptions options,
                             std::unique_ptr<SqlPathFinder>* out) {
  return Build(graph, std::move(options), /*prepared=*/true, out);
}

Status internal::CreateTextSqlPathFinder(GraphStore* graph,
                                         SqlPathFinderOptions options,
                                         std::unique_ptr<SqlPathFinder>* out) {
  return SqlPathFinder::Build(graph, std::move(options), /*prepared=*/false,
                              out);
}

Status SqlPathFinder::Build(GraphStore* graph, SqlPathFinderOptions options,
                            bool prepared,
                            std::unique_ptr<SqlPathFinder>* out) {
  if (options.algorithm != Algorithm::kDJ &&
      options.algorithm != Algorithm::kBSDJ &&
      options.algorithm != Algorithm::kBBFS) {
    return Status::NotSupported(
        "SqlPathFinder supports DJ, BSDJ, and BBFS (BSEG path recovery "
        "needs the native finder's segment anchors)");
  }
  auto finder = std::unique_ptr<SqlPathFinder>(new SqlPathFinder());
  finder->graph_ = graph;
  finder->options_ = std::move(options);
  finder->conn_ = std::make_unique<sql::SqlEngine>(graph->db());

  const std::string& v = finder->options_.visited_table;
  const bool dj = finder->options_.algorithm == Algorithm::kDJ;

  // Working-table DDL. DJ uses the paper's §3.3 schema; the bi-directional
  // algorithms extend it with the §4.1 backward columns. A leftover table
  // from a previous finder with the same name is dropped.
  Status dropped = finder->conn_->Execute("drop table " + v);
  (void)dropped;  // NotFound on first use is expected
  RELGRAPH_RETURN_IF_ERROR(finder->conn_->Execute(
      dj ? "create table " + v +
               " (nid int, d2s int, p2s int, f int) cluster by (nid) unique"
         : "create table " + v +
               " (nid int, d2s int, p2s int, f int, d2t int, p2t int, b int) "
               "cluster by (nid) unique"));
  // Physical tuning, once per working table: one open tree per direction,
  // (f, d2s) and for the bidirectional algorithms (b, d2t), the design of
  // every native open set. The planner turns `f = 0 and d2s = (select
  // min(d2s) ...)` into one two-column probe and `f = 2` into a probe of
  // the frontier alone, and the open minimum reads one entry (the MIN
  // rule), so the frontier statements read rows in proportion to the
  // frontier, not to the open set.
  RELGRAPH_RETURN_IF_ERROR(finder->conn_->Execute(
      "create index ix_" + v + "_f_d2s on " + v + " (f, d2s)"));
  if (!dj) {
    RELGRAPH_RETURN_IF_ERROR(finder->conn_->Execute(
        "create index ix_" + v + "_b_d2t on " + v + " (b, d2t)"));
  }

  // Statement templates (the Listings, with :parameters where the paper has
  // client-side variables).
  Statements& s = finder->stmts_;
  if (dj) {
    s.seed = "insert into " + v + " (nid, d2s, p2s, f) values (:s, 0, :s, 0)";
  } else {
    s.seed = "insert into " + v +
             " values (:s, 0, :s, 0, :inf, 0 - 1, 0), "
             "(:t, :inf, 0 - 1, 0, 0, :t, 0)";
  }
  s.pick_mid = "select top 1 nid from " + v +
               " where f = 0 and d2s = (select min(d2s) from " + v +
               " where f = 0)";
  s.expand_forward =
      finder->BuildExpandSql(graph->Forward(), /*forward=*/true,
                             /*set_frontier=*/!dj);
  s.expand_backward = finder->BuildExpandSql(graph->Backward(),
                                             /*forward=*/false,
                                             /*set_frontier=*/true);
  s.finalize_mid = "update " + v + " set f = 1 where nid = :mid";
  s.target_reached = "select nid from " + v + " where f = 1 and nid = :t";
  // Set-at-a-time frontier control (Listing 4(1,3)). The `d2s < :inf`
  // guards keep rows discovered only by the opposite direction out of this
  // direction's frontier.
  s.mark_frontier_fwd =
      "update " + v +
      " set f = 2 where f = 0 and d2s < :inf and d2s = (select min(d2s) from " +
      v + " where f = 0 and d2s < :inf)";
  s.mark_frontier_bwd =
      "update " + v +
      " set b = 2 where b = 0 and d2t < :inf and d2t = (select min(d2t) from " +
      v + " where b = 0 and d2t < :inf)";
  if (finder->options_.algorithm == Algorithm::kBBFS) {
    s.mark_frontier_fwd =
        "update " + v + " set f = 2 where f = 0 and d2s < :inf";
    s.mark_frontier_bwd =
        "update " + v + " set b = 2 where b = 0 and d2t < :inf";
  }
  s.finalize_frontier_fwd = "update " + v + " set f = 1 where f = 2";
  s.finalize_frontier_bwd = "update " + v + " set b = 1 where b = 2";
  s.min_open_fwd =
      "select min(d2s) from " + v + " where f = 0 and d2s < :inf";
  s.min_open_bwd =
      "select min(d2t) from " + v + " where b = 0 and d2t < :inf";
  s.count_open_fwd =
      "select count(*) from " + v + " where f = 0 and d2s < :inf";
  s.count_open_bwd =
      "select count(*) from " + v + " where b = 0 and d2t < :inf";
  s.min_cost = "select min(d2s + d2t) from " + v;  // Listing 4(5)
  s.meet_node =
      "select top 1 nid from " + v + " where d2s + d2t = :minCost";
  s.pred_fwd = "select p2s from " + v + " where nid = :x";  // Listing 3(3)
  s.pred_bwd = "select p2t from " + v + " where nid = :x";

  // Statement templates -> Template slots (the Listing texts plus the
  // bookkeeping statements Find() issues around them). Prepared, each
  // template is parsed and planned exactly once, here; a full Find()
  // afterwards performs zero parses/plans — only binds. The text oracle
  // disables the plan cache so every execution pays the paper's literal
  // parse+plan cost.
  SqlPathFinder* f = finder.get();
  f->t_truncate_ = {"truncate " + v, nullptr};
  f->t_seed_ = {s.seed, nullptr};
  f->t_pick_mid_ = {s.pick_mid, nullptr};
  f->t_expand_fwd_ = {s.expand_forward, nullptr};
  f->t_expand_bwd_ = {s.expand_backward, nullptr};
  f->t_finalize_mid_ = {s.finalize_mid, nullptr};
  f->t_mark_fwd_ = {s.mark_frontier_fwd, nullptr};
  f->t_mark_bwd_ = {s.mark_frontier_bwd, nullptr};
  f->t_fin_fwd_ = {s.finalize_frontier_fwd, nullptr};
  f->t_fin_bwd_ = {s.finalize_frontier_bwd, nullptr};
  f->t_min_open_fwd_ = {s.min_open_fwd, nullptr};
  f->t_min_open_bwd_ = {s.min_open_bwd, nullptr};
  f->t_count_open_fwd_ = {s.count_open_fwd, nullptr};
  f->t_count_open_bwd_ = {s.count_open_bwd, nullptr};
  f->t_min_cost_ = {s.min_cost, nullptr};
  f->t_meet_ = {s.meet_node, nullptr};
  f->t_pred_fwd_ = {s.pred_fwd, nullptr};
  f->t_pred_bwd_ = {s.pred_bwd, nullptr};
  f->t_dist_at_ = {"select d2s from " + v + " where nid = :x", nullptr};
  f->t_count_all_ = {"select count(*) from " + v, nullptr};

  if (prepared) {
    // Prepare exactly the statements each algorithm issues: DJ's working
    // table lacks the §4.1 backward columns, so the bidirectional
    // templates don't even compile against it (and vice versa, DJ's
    // node-at-a-time statements are dead weight for the set algorithms).
    std::vector<Template*> used = {&f->t_truncate_, &f->t_seed_,
                                   &f->t_expand_fwd_, &f->t_pred_fwd_,
                                   &f->t_count_all_};
    if (dj) {
      used.insert(used.end(), {&f->t_pick_mid_, &f->t_finalize_mid_,
                               &f->t_dist_at_});
    } else {
      used.insert(used.end(),
                  {&f->t_expand_bwd_, &f->t_mark_fwd_, &f->t_mark_bwd_,
                   &f->t_fin_fwd_, &f->t_fin_bwd_, &f->t_min_open_fwd_,
                   &f->t_min_open_bwd_, &f->t_count_open_fwd_,
                   &f->t_count_open_bwd_, &f->t_min_cost_, &f->t_meet_,
                   &f->t_pred_bwd_});
    }
    for (Template* t : used) {
      RELGRAPH_RETURN_IF_ERROR(f->conn_->Prepare(t->text, &t->handle));
    }
  } else {
    f->conn_->SetPlanCacheCapacity(0);
  }

  *out = std::move(finder);
  return Status::OK();
}

Status SqlPathFinder::Exec(Template& t, sql::SqlResult* result,
                           const sql::SqlParams& params) {
  if (t.handle != nullptr) return t.handle->Execute(params, result);
  return conn_->Execute(t.text, result, params);
}

Status SqlPathFinder::Scalar(Template& t, Value* out,
                             const sql::SqlParams& params) {
  if (t.handle != nullptr) return t.handle->QueryScalar(params, out);
  return conn_->QueryScalar(t.text, out, params);
}

std::string SqlPathFinder::BuildExpandSql(const EdgeRelation& rel,
                                          bool forward,
                                          bool set_frontier) const {
  const std::string& v = options_.visited_table;
  const bool dj = options_.algorithm == Algorithm::kDJ;
  const std::string dist = forward ? "d2s" : "d2t";
  const std::string pred = forward ? "p2s" : "p2t";
  const std::string flag = forward ? "f" : "b";
  // DJ expands one node (q.nid = :mid); the set algorithms expand every
  // marked frontier row (q.f = 2) and add the Theorem-1 pruning term.
  std::string frontier_pred =
      set_frontier ? "q." + flag + " = 2" : "q.nid = :mid";
  std::string prune =
      set_frontier ? " and out.cost + q." + dist + " + :lb < :minCost" : "";

  std::string insert_cols, insert_vals;
  if (dj) {
    insert_cols = "(nid, d2s, p2s, f)";
    insert_vals = "(nid, cost, p2s, 0)";
  } else if (forward) {
    insert_cols = "(nid, d2s, p2s, f, d2t, p2t, b)";
    insert_vals = "(nid, cost, p2s, 0, :inf, 0 - 1, 0)";
  } else {
    insert_cols = "(nid, d2s, p2s, f, d2t, p2t, b)";
    insert_vals = "(nid, :inf, 0 - 1, 0, cost, p2s, 0)";
  }

  // Listing 2(3,4) / Listing 4(2): expansion join, window dedup, MERGE.
  return "merge into " + v +
         " as target using ("
         "select nid, p2s, cost from ("
         "select out." + rel.emit_column + ", out." + rel.parent_column +
         ", out.cost + q." + dist +
         ", row_number() over (partition by out." + rel.emit_column +
         " order by out.cost + q." + dist + ") as rownum "
         "from " + v + " q, " + rel.table->name() + " out "
         "where q.nid = out." + rel.join_column + " and " + frontier_pred +
         prune +
         ") tmp (nid, p2s, cost, rownum) where rownum = 1"
         ") as source (nid, p2s, cost) "
         "on (source.nid = target.nid) "
         "when matched and target." + dist + " > source.cost then update set " +
         dist + " = source.cost, " + pred + " = source.p2s, " + flag + " = 0 "
         "when not matched then insert " + insert_cols + " values " +
         insert_vals;
}

Status SqlPathFinder::Find(node_id_t s, node_id_t t, PathQueryResult* result) {
  *result = PathQueryResult{};
  Timer total;
  int64_t statements_before = graph_->db()->stats().statements;
  Status status = options_.algorithm == Algorithm::kDJ
                      ? RunDj(s, t, result)
                      : RunBidirectional(s, t, result);
  result->stats.total_us = total.ElapsedMicros();
  result->stats.statements =
      graph_->db()->stats().statements - statements_before;
  return status;
}

Status SqlPathFinder::RunDj(node_id_t s, node_id_t t,
                            PathQueryResult* result) {
  RELGRAPH_RETURN_IF_ERROR(Exec(t_truncate_, nullptr));
  RELGRAPH_RETURN_IF_ERROR(Exec(t_seed_, nullptr, P({{"s", s}})));

  for (int64_t iter = 0; iter < options_.max_iterations; iter++) {
    Value mid_v;
    RELGRAPH_RETURN_IF_ERROR(Scalar(t_pick_mid_, &mid_v));
    if (mid_v.IsNull()) break;  // no candidate left: t unreachable
    node_id_t mid = mid_v.AsInt();

    // Note on Algorithm 1 line 5: the paper breaks when the expansion
    // affects zero tuples. Zero affected rows only means *this* node's
    // neighbors already hold better distances — other candidates may remain
    // — so we keep the loop keyed on candidate exhaustion and target
    // finalization instead (same worst-case n iterations, never early-stops
    // on a correct instance).
    sql::SqlResult r;
    RELGRAPH_RETURN_IF_ERROR(Exec(t_expand_fwd_, &r, P({{"mid", mid}})));
    result->stats.expansions++;
    RELGRAPH_RETURN_IF_ERROR(Exec(t_finalize_mid_, nullptr, P({{"mid", mid}})));
    if (mid == t) {  // Listing 3(1): target finalized
      result->found = true;
      break;
    }
  }
  if (!result->found) return Status::OK();

  Value dist;
  RELGRAPH_RETURN_IF_ERROR(Scalar(t_dist_at_, &dist, P({{"x", t}})));
  result->distance = dist.AsInt();
  RELGRAPH_RETURN_IF_ERROR(RecoverChain(t_pred_fwd_, t, s, &result->path));
  std::reverse(result->path.begin(), result->path.end());

  Value vst;
  RELGRAPH_RETURN_IF_ERROR(Scalar(t_count_all_, &vst));
  result->stats.visited_rows = vst.AsInt();
  return Status::OK();
}

Status SqlPathFinder::RunBidirectional(node_id_t s, node_id_t t,
                                       PathQueryResult* result) {
  RELGRAPH_RETURN_IF_ERROR(Exec(t_truncate_, nullptr));
  if (s == t) {
    result->found = true;
    result->distance = 0;
    result->path = {s};
    return Status::OK();
  }
  RELGRAPH_RETURN_IF_ERROR(
      Exec(t_seed_, nullptr, P({{"s", s}, {"t", t}, {"inf", kInfinity}})));

  weight_t min_cost = kInfinity;
  weight_t lf = 0, lb = 0;
  int64_t nf = 1, nb = 1;

  for (int64_t iter = 0;
       lf + lb <= min_cost && nf > 0 && nb > 0 &&
       iter < options_.max_iterations;
       iter++) {
    const bool forward = nf <= nb;
    Template& mark = forward ? t_mark_fwd_ : t_mark_bwd_;
    Template& expand = forward ? t_expand_fwd_ : t_expand_bwd_;
    Template& fin = forward ? t_fin_fwd_ : t_fin_bwd_;
    Template& min_open = forward ? t_min_open_fwd_ : t_min_open_bwd_;
    Template& count_open = forward ? t_count_open_fwd_ : t_count_open_bwd_;

    sql::SqlResult r;
    RELGRAPH_RETURN_IF_ERROR(Exec(mark, &r, P({{"inf", kInfinity}})));
    if (r.affected == 0) {  // this direction has no reachable candidate left
      (forward ? nf : nb) = 0;
      continue;
    }
    RELGRAPH_RETURN_IF_ERROR(Exec(
        expand, &r,
        P({{"lb", forward ? lb : lf},
           {"minCost", min_cost},
           {"inf", kInfinity}})));
    result->stats.expansions++;
    RELGRAPH_RETURN_IF_ERROR(Exec(fin, nullptr));

    Value v;
    RELGRAPH_RETURN_IF_ERROR(Scalar(min_open, &v, P({{"inf", kInfinity}})));
    (forward ? lf : lb) = v.IsNull() ? kInfinity : v.AsInt();
    RELGRAPH_RETURN_IF_ERROR(Scalar(count_open, &v, P({{"inf", kInfinity}})));
    (forward ? nf : nb) = v.AsInt();
    RELGRAPH_RETURN_IF_ERROR(Scalar(t_min_cost_, &v));
    min_cost = v.IsNull() ? kInfinity : v.AsInt();
  }

  Value vst;
  RELGRAPH_RETURN_IF_ERROR(Scalar(t_count_all_, &vst));
  result->stats.visited_rows = vst.AsInt();

  if (min_cost >= kInfinity) return Status::OK();  // not found
  result->found = true;
  result->distance = min_cost;

  // §4.3 lines 17-20: locate one node on the shortest path, then walk the
  // p2s chain to s and the p2t chain to t.
  Value meet_v;
  RELGRAPH_RETURN_IF_ERROR(
      Scalar(t_meet_, &meet_v, P({{"minCost", min_cost}})));
  if (meet_v.IsNull()) {
    return Status::Internal("minCost has no witness row");
  }
  node_id_t meet = meet_v.AsInt();

  std::vector<node_id_t> fwd_chain;  // meet .. s
  RELGRAPH_RETURN_IF_ERROR(RecoverChain(t_pred_fwd_, meet, s, &fwd_chain));
  std::reverse(fwd_chain.begin(), fwd_chain.end());  // s .. meet
  std::vector<node_id_t> bwd_chain;  // meet .. t
  RELGRAPH_RETURN_IF_ERROR(RecoverChain(t_pred_bwd_, meet, t, &bwd_chain));

  result->path = std::move(fwd_chain);
  result->path.insert(result->path.end(), bwd_chain.begin() + 1,
                      bwd_chain.end());
  return Status::OK();
}

Status SqlPathFinder::RecoverChain(Template& pred_stmt, node_id_t from,
                                   node_id_t origin,
                                   std::vector<node_id_t>* out) {
  out->clear();
  out->push_back(from);
  node_id_t x = from;
  // The chain length is bounded by the visited-set size; use the graph's
  // node count as the safety valve.
  for (int64_t guard = 0; x != origin && guard <= graph_->num_nodes() + 1;
       guard++) {
    Value pred;
    RELGRAPH_RETURN_IF_ERROR(Scalar(pred_stmt, &pred, P({{"x", x}})));
    if (pred.IsNull()) {
      return Status::Corruption("broken predecessor chain at node " +
                                std::to_string(x));
    }
    x = pred.AsInt();
    out->push_back(x);
  }
  if (x != origin) {
    return Status::Corruption("predecessor chain does not reach origin");
  }
  return Status::OK();
}

}  // namespace relgraph
