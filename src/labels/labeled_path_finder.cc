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
  counters_.path_fallbacks++;
  counters_.fallbacks++;
  return fallback_->Find(s, t, result);
}

}  // namespace relgraph
