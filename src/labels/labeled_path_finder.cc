#include "src/labels/labeled_path_finder.h"

#include "src/common/timer.h"

namespace relgraph {

Status LabeledPathFinder::Create(GraphStore* graph, const LabelIndex* labels,
                                 LabeledPathFinderOptions options,
                                 std::unique_ptr<LabeledPathFinder>* out) {
  auto finder = std::unique_ptr<LabeledPathFinder>(new LabeledPathFinder());
  finder->graph_ = graph;
  finder->labels_ = labels;
  // The fallback's DDL bumps the catalog version, so it runs before the
  // probe prepares its statements — otherwise the first Distance() would
  // replan them.
  RELGRAPH_RETURN_IF_ERROR(
      SqlPathFinder::Create(graph, options.fallback, &finder->fallback_));
  RELGRAPH_RETURN_IF_ERROR(LabelProbe::Create(labels, &finder->probe_));
  // The hop statement joins the graph's edges to the labels, so the walk
  // needs both in one database; a partial index cannot certify d(v, t).
  const EdgeRelation fwd = graph->Forward();
  if (labels->complete() && labels->db() == graph->db() &&
      fwd.table != nullptr) {
    sql::SqlEngine conn(graph->db());
    RELGRAPH_RETURN_IF_ERROR(conn.Prepare(
        "select top 1 e." + fwd.emit_column + ", e." + fwd.cost_column +
            " from " + fwd.table->name() + " e, " + labels->out_name() +
            " lo, " + labels->in_name() + " li where e." + fwd.join_column +
            " = :u and lo.nid = e." + fwd.emit_column +
            " and li.nid = :t and li.hub = lo.hub and e." + fwd.cost_column +
            " + lo.dist + li.dist = :r",
        &finder->hop_stmt_));
  }
  *out = std::move(finder);
  return Status::OK();
}

Status LabeledPathFinder::Distance(node_id_t s, node_id_t t,
                                   PathQueryResult* result,
                                   bool* served_from_labels) {
  if (served_from_labels != nullptr) *served_from_labels = false;
  if (labels_->stale(graph_->mutation_epoch())) {
    // The graph moved since the build: the labels may answer with a path
    // that no longer exists (or miss a shorter one). Never serve them.
    counters_.stale_fallbacks++;
    counters_.fallbacks++;
    return fallback_->Find(s, t, result);
  }
  Timer timer;
  LabelProbeResult probe;
  RELGRAPH_RETURN_IF_ERROR(probe_->Distance(s, t, &probe));
  if (!probe.answered) {
    counters_.inexact_fallbacks++;
    counters_.fallbacks++;
    return fallback_->Find(s, t, result);
  }
  *result = PathQueryResult{};
  result->found = probe.found;
  result->distance = probe.found ? probe.distance : kInfinity;
  result->stats.statements = probe.statements;
  result->stats.total_us = timer.ElapsedMicros();
  counters_.label_hits++;
  if (served_from_labels != nullptr) *served_from_labels = true;
  return Status::OK();
}

Status LabeledPathFinder::Find(node_id_t s, node_id_t t,
                               PathQueryResult* result) {
  if (hop_stmt_ != nullptr && !labels_->stale(graph_->mutation_epoch())) {
    bool walked = false;
    RELGRAPH_RETURN_IF_ERROR(Walk(s, t, result, &walked));
    if (walked) {
      counters_.path_hits++;
      return Status::OK();
    }
  }
  counters_.path_fallbacks++;
  counters_.fallbacks++;
  return fallback_->Find(s, t, result);
}

Status LabeledPathFinder::Walk(node_id_t s, node_id_t t,
                               PathQueryResult* result, bool* walked) {
  *walked = false;
  Timer timer;
  LabelProbeResult probe;
  RELGRAPH_RETURN_IF_ERROR(probe_->Distance(s, t, &probe));
  if (!probe.answered) return Status::OK();
  PathQueryResult r;
  r.found = probe.found;
  r.stats.statements = probe.statements;
  if (probe.found) {
    Timer hop_timer;
    r.distance = probe.distance;
    r.path.push_back(s);
    sql::SqlParams params;
    params.emplace("t", Value(static_cast<int64_t>(t)));
    sql::SqlResult hop;
    // Invariant: rest = d(u, t). Each hop keeps it by taking an edge whose
    // cost plus its head's label distance to t is exactly `rest`.
    weight_t rest = probe.distance;
    node_id_t u = s;
    for (int64_t hops = 0; u != t; hops++) {
      if (hops == graph_->num_nodes()) {
        return Status::OK();  // circling a zero-weight cycle
      }
      params.insert_or_assign("u", Value(static_cast<int64_t>(u)));
      params.insert_or_assign("r", Value(static_cast<int64_t>(rest)));
      RELGRAPH_RETURN_IF_ERROR(hop_stmt_->Execute(params, &hop));
      r.stats.statements++;
      if (hop.rows.empty()) return Status::OK();
      u = hop.rows[0].value(0).AsInt();
      rest -= hop.rows[0].value(1).AsInt();
      r.path.push_back(u);
    }
    r.stats.path_recovery_us = hop_timer.ElapsedMicros();
  }
  r.stats.total_us = timer.ElapsedMicros();
  *result = std::move(r);
  *walked = true;
  return Status::OK();
}

}  // namespace relgraph
