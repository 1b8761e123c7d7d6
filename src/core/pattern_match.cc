#include "src/core/pattern_match.h"

#include "src/core/fem.h"
#include "src/exec/scan_executors.h"

namespace relgraph {

Status LabelPathMatcher::Run(GraphStore* graph,
                             const std::vector<int64_t>& labels, int64_t limit,
                             PatternMatchResult* out) {
  *out = PatternMatchResult{};
  if (labels.empty()) return Status::InvalidArgument("empty label pattern");
  Database* db = graph->db();
  const int64_t stmt0 = db->stats().statements;
  const EdgeRelation rel = graph->Forward();

  // Visited relation: one row per partial match, one column per matched
  // pattern position. Kept materialized between iterations (the "view" an
  // RDBMS would pipeline); columns are named c0..ck.
  // Appended, not `"c" + ...`: GCC 12 at -O3 reports a false -Wrestrict
  // when a literal is prepended to a std::string.
  auto col_name = [](size_t i) {
    return std::string("c").append(std::to_string(i));
  };

  std::vector<Tuple> visited;
  Schema visited_schema({{col_name(0), TypeId::kInt}});
  {
    // Initialization: data nodes carrying the first label.
    db->RecordStatement();
    ExecRef scan = std::make_unique<FilterExecutor>(
        std::make_unique<SeqScanExecutor>(graph->nodes()),
        ColEq("label", labels[0]));
    ExecRef project = std::make_unique<ProjectExecutor>(
        std::move(scan), std::vector<ExprRef>{Col("nid")}, visited_schema);
    RELGRAPH_RETURN_IF_ERROR(Collect(project.get(), &visited));
  }

  for (size_t k = 1; k < labels.size(); k++) {
    out->iterations++;
    db->RecordStatement();
    // Expand: visited ⋈ TEdges on c_{k-1} = fid, then label-check the new
    // endpoint against TNodes (an index join when the node table allows).
    ExecRef frontier =
        std::make_unique<MaterializedExecutor>(std::move(visited),
                                               visited_schema);
    ExecRef with_edge = EdgeJoin(std::move(frontier), rel.table,
                                 rel.join_column, col_name(k - 1));
    ExecRef with_label =
        EdgeJoin(std::move(with_edge), graph->nodes(), "nid",
                 rel.emit_column, ColEq("label", labels[k]));
    // Merge: the widened tuple set becomes the next visited relation.
    std::vector<Column> cols = visited_schema.columns();
    cols.push_back({col_name(k), TypeId::kInt});
    Schema next_schema(std::move(cols));
    std::vector<ExprRef> exprs;
    for (size_t i = 0; i < k; i++) exprs.push_back(Col(col_name(i)));
    exprs.push_back(Col(rel.emit_column));
    ExecRef project = std::make_unique<ProjectExecutor>(
        std::move(with_label), std::move(exprs), next_schema);
    std::vector<Tuple> next;
    RELGRAPH_RETURN_IF_ERROR(Collect(project.get(), &next));
    visited = std::move(next);
    visited_schema = std::move(next_schema);
    if (visited.empty()) break;
  }

  out->count = static_cast<int64_t>(visited.size());
  for (const auto& t : visited) {
    if (static_cast<int64_t>(out->matches.size()) >= limit) break;
    std::vector<node_id_t> match;
    match.reserve(t.NumValues());
    for (size_t i = 0; i < t.NumValues(); i++) {
      match.push_back(t.value(i).AsInt());
    }
    out->matches.push_back(std::move(match));
  }
  out->statements = db->stats().statements - stmt0;
  return Status::OK();
}

}  // namespace relgraph
