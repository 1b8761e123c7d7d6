#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/exec/executor.h"
#include "src/exec/expression.h"
#include "src/graph/memgraph.h"

namespace relgraph {

/// Physical indexing of the keyed relations — the paper's Figure 8(c)
/// knobs. One strategy governs a graph's TNodes and TEdges, the TVisited
/// tables searched over it, its SegTable and its shards; CreateKeyedTable
/// says how each is laid out.
enum class IndexStrategy {
  kNoIndex,   // heap TEdges, no access path: joins degrade to scans
  kIndex,     // heap TEdges + non-clustered B+-trees on fid and tid
  kCluIndex,  // two clustered copies: TEdges by fid, TEdgesIn by tid
};

const char* IndexStrategyName(IndexStrategy s);

/// One open tree of a FEM working table (Table::CreateOpenIndex): the rows
/// with a dist below kInfinity, keyed (flag, dist).
struct OpenTree {
  std::string flag;
  std::string dist;
};

/// Creates the empty relation `name`, keyed on the INT column `key`, the
/// way `strategy` stores it:
///  - kCluIndex: clustered on `key`;
///  - kIndex: a heap with a B+-tree on `key`;
///  - kNoIndex: a bare heap, so every key-range read is a filtered scan.
/// `unique` rejects duplicate keys wherever the key has a tree. Unless the
/// strategy is kNoIndex, one open tree per entry of `open_trees` is built
/// too, so the FEM rounds pick, mark and expand their open rows by range
/// reads.
Status CreateKeyedTable(Catalog* catalog, IndexStrategy strategy,
                        const std::string& name, Schema schema,
                        const std::string& key, bool unique, Table** out,
                        const std::vector<OpenTree>& open_trees = {});

/// The strategy of a construction-internal working table (SegTable's work
/// tables, Prim's TMst) over a graph stored under `graph`: the same, but
/// Index in place of NoIndex. Every round's MERGE probes such a table on
/// its unique key, and the paper's Fig 8(c) varies only the SegTable and
/// TVisited indexes.
IndexStrategy WorkingTableStrategy(IndexStrategy graph);

/// The canonical TEdges(fid, tid, cost) schema and its row encoding, shared
/// by every physical copy of the edge relation (GraphStore's clustered
/// pair, the sharded partitions).
Schema EdgeTableSchema();
Tuple EdgeTableRow(const Edge& e);

struct GraphStoreOptions {
  /// How TNodes and TEdges are stored; a SegTable built over the graph and
  /// the TVisited tables of its finders follow the same strategy.
  IndexStrategy strategy = IndexStrategy::kCluIndex;
  /// Table-name prefix so several graphs can coexist in one database.
  std::string prefix;
};

/// One adjacency relation as the FEM operators consume it: which table to
/// join against, which column carries the frontier side of the join, which
/// column names the expanded node, and which column names the expanded
/// node's predecessor/successor on the original graph. Base edge tables
/// bind parent to the frontier endpoint; SegTable relations bind it to the
/// precomputed `pid`.
struct EdgeRelation {
  Table* table = nullptr;
  std::string join_column;    // matches the frontier node id
  std::string emit_column;    // the newly reached node id
  std::string parent_column;  // predecessor (fwd) / successor (bwd)
  std::string cost_column = "cost";
  /// Set instead of `table` for a relation on shards: joins `outer` on
  /// `probe_column` = join_column, yielding outer's columns, then TEdges'.
  /// The shards apply the E-operator's pruning and combining first: they
  /// may drop every row with outer.`dist_column` + cost >= `bound`, and
  /// keep per emitted node only the least (dist + cost, frontier node).
  /// So the join is exact only as the input of DedupLeast over those keys.
  /// `bound` is evaluated at each Init (it reads the prepared plan's
  /// parameters), so one join serves every round.
  std::function<ExecRef(ExecRef outer, const std::string& probe_column,
                        const std::string& dist_column, ExprRef bound)>
      shard_join = nullptr;
};

/// Relational storage of one graph, matching the paper's Figure 1:
/// TNodes(nid) and TEdges(fid, tid, cost), stored under the chosen index
/// strategy. With kCluIndex the reverse adjacency lives in a second
/// clustered copy (TEdgesIn by tid) so backward expansions are indexed too,
/// mirroring the paper's symmetric TOutSegs/TInSegs arrangement.
class GraphStore {
 public:
  /// InvalidArgument when an edge weight is negative: the FEM searches
  /// need non-negative weights.
  static Status Create(Database* db, const EdgeList& list,
                       GraphStoreOptions options,
                       std::unique_ptr<GraphStore>* out);

  /// Adjacency for forward expansion (join on fid, emit tid).
  EdgeRelation Forward() const;
  /// Adjacency for backward expansion (join on tid, emit fid).
  EdgeRelation Backward() const;

  Table* nodes() const { return nodes_; }
  Database* db() const { return db_; }
  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return num_edges_; }
  weight_t min_weight() const { return min_weight_; }
  IndexStrategy strategy() const { return options_.strategy; }

  /// Counts graph mutations (AddEdge/RemoveEdge) since construction.
  /// Derived structures (hub labels, sketches) record the epoch they were
  /// built at; a moved epoch means their answers may no longer match the
  /// graph. Unlike the catalog version this only moves on *data* changes,
  /// so unrelated DDL (working tables, indexes) doesn't invalidate them.
  uint64_t mutation_epoch() const {
    return mutation_epoch_.load(std::memory_order_acquire);
  }

  /// Appends one edge to every physical copy/index (dynamic updates);
  /// InvalidArgument for a negative weight, before anything is written.
  Status AddEdge(const Edge& e);

  /// Removes one edge matching (from, to, weight) from every physical
  /// copy/index; NotFound when no such edge exists. `min_weight()` is left
  /// untouched: deleting an edge can only raise the true minimum, and a
  /// stale smaller bound only makes the frontier rules more conservative,
  /// never incorrect.
  Status RemoveEdge(const Edge& e);

 private:
  GraphStore() = default;

  Database* db_ = nullptr;
  GraphStoreOptions options_;
  Table* nodes_ = nullptr;
  Table* edges_out_ = nullptr;  // kCluIndex: clustered by fid; else the heap
  Table* edges_in_ = nullptr;   // kCluIndex: clustered by tid; else == out
  int64_t num_nodes_ = 0;
  int64_t num_edges_ = 0;
  weight_t min_weight_ = kInfinity;
  std::atomic<uint64_t> mutation_epoch_{0};
};

}  // namespace relgraph
