#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/graph/graph_store.h"
#include "src/labels/label_index.h"

namespace relgraph {

struct LabelBuildOptions {
  /// How many hubs to process, in pruned-landmark order (total degree
  /// descending, node id ascending as the tie-break). < 0 processes every
  /// vertex — a *complete* index, which answers all pairs exactly. A
  /// smaller budget trades exactness for build time: answers become upper
  /// bounds and only witness-at-endpoint probes are certified (the rest
  /// fall back to FEM).
  int64_t max_hubs = -1;
  /// Working-table name; must be unique per concurrent builder in one
  /// database. The table is dropped when construction finishes.
  std::string work_table = "LabelW";
  /// Per-hub safety valve on BFS rounds; a correct run never reaches it.
  int64_t max_iterations = 10'000'000;
};

/// Statement counts of one construction run — how much SQL the pipeline
/// issued (benches report this next to wall clock).
struct LabelBuildStats {
  int64_t hubs = 0;
  int64_t statements = 0;
  int64_t rounds = 0;   // frontier rounds summed over hubs and directions
  int64_t entries = 0;  // label rows materialized (both directions)
  int64_t build_us = 0;
};

/// Constructs hub labels (pruned landmark labeling, Akiba et al. — the
/// "Shortest Paths in Microseconds" structure) as a batched
/// prepared-statement SQL pipeline over the graph tables: the same
/// MERGE/UPDATE frontier idioms the FEM operators use, one pruned Dijkstra
/// per hub per direction, label rows emitted with INSERT..SELECT. Every
/// statement is prepared once and re-bound per hub, so the whole build
/// performs a constant number of parses/plans.
///
/// The working table W (nid, d, f) has one open tree (f, d), the design
/// of every FEM open set: the open minimum is its first f = 0 entry (the
/// MIN rule), the mark one two-column probe and the frontier a probe of
/// f = 2. Per hub h (forward shown; backward swaps the edge relation and
/// the two label tables):
///
///   truncate W; insert into W values (:h, 0, 0)
///   loop:
///     F  update W set f = 2
///        where f = 0 and d = (select min(d) from W where f = 0)
///     P  merge .. when matched and cov <= d then update set f = 1
///        (cov = min over common hubs of existing labels — the PLL prune;
///         pruned vertices are neither labeled nor expanded; the frontier
///         probes its own LabelsIn by nid, and LabelsOut(h) keys the join
///         on hub)
///     L  insert into LabelsIn (nid, hub, dist)
///        select nid, :h, d from W where f = 2
///     E  merge into W using (frontier x TEdges, window-deduplicated) ..
///        (a reached or improved row is open again: f = 0)
///     M  update W set f = 1 where f = 2
///
/// Every round reads rows in proportion to its frontier, not to the open
/// set or to the hub's label count.
///
/// Prune joins only consult labels of *previously processed* hubs (a
/// vertex enters the frontier at most once per BFS and its current-hub
/// label row is emitted after the prune step), which is exactly the
/// PLL invariant that keeps emitted distances exact.
class LabelBuilder {
 public:
  /// Builds labels for `graph` into tables <prefix>LabelsOut/In/Meta in
  /// graph->db(), where prefix = graph's table prefix is NOT assumed —
  /// pass it via `prefix` (empty for the default single-graph database).
  /// Fails with AlreadyExists when label tables of this prefix exist. A
  /// failed build drops the tables it created, so it can be retried.
  static Status Build(GraphStore* graph, const std::string& prefix,
                      LabelBuildOptions options,
                      std::unique_ptr<LabelIndex>* out,
                      LabelBuildStats* stats = nullptr);
};

namespace label_internal {

/// The build pipeline's SQL text, shared with the tests that pin its plans.
/// `w` is the working table, `lo`/`li` the LabelsOut/LabelsIn tables.

/// DDL creating the working table and its open tree (f, d).
std::vector<std::string> WorkTableDdl(const std::string& w);
/// The frontier mark's open minimum: the first f = 0 entry of the tree.
std::string MinOpenSql(const std::string& w);
/// The prune MERGE's source: (nid, cov) per frontier vertex that shares a
/// hub with h in the labels built so far; cov is the shortest distance
/// through such a hub.
std::string PruneSourceSql(const std::string& w, const std::string& lo,
                           const std::string& li, bool forward);
/// The expansion MERGE's source: (nid, cost) per vertex one edge of `rel`
/// past the frontier, deduplicated to its cheapest cost.
std::string ExpandSourceSql(const std::string& w, const EdgeRelation& rel);

}  // namespace label_internal

}  // namespace relgraph
