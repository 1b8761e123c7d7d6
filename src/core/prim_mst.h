#pragma once

#include <vector>

#include "src/core/fem.h"
#include "src/graph/graph_store.h"

namespace relgraph {

struct MstResult {
  /// True when every node was reached (single connected component).
  bool connected = false;
  weight_t total_weight = 0;
  /// Tree edges as (parent=p2s, child=nid, weight).
  std::vector<Edge> tree_edges;
  int64_t iterations = 0;
  int64_t statements = 0;
};

/// Prim's minimal-spanning-tree algorithm expressed in the FEM framework
/// (paper §3.1's second showcase): each node u carries (p2s, w, f); the
/// F-operator picks the cheapest non-tree candidate, the E-operator joins
/// it with TEdges, and the M-operator keeps the cheaper attachment cost —
/// the same select/expand/merge skeleton as shortest paths, with edge
/// weight in place of accumulated distance.
///
/// The tree table TMst is laid out like TVisited (CreateKeyedTable): keyed
/// on nid, with an open tree on (f, w), under WorkingTableStrategy. Each
/// round reads its open set through that tree: the cheapest candidate is
/// the tree's first entry (ties go to the least row locator), the mark
/// probes nid, and the frontier and the reset read the f = 2 range.
///
/// Runs on the undirected interpretation of the stored graph (the paper's
/// MST case); the graph should contain both edge directions.
class PrimMst {
 public:
  static Status Run(GraphStore* graph, SqlMode mode, node_id_t root,
                    MstResult* out);
};

}  // namespace relgraph
