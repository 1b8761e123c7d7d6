#include "src/graph/graph_store.h"

#include <algorithm>
#include <utility>

namespace relgraph {

const char* IndexStrategyName(IndexStrategy s) {
  switch (s) {
    case IndexStrategy::kNoIndex:
      return "NoIndex";
    case IndexStrategy::kIndex:
      return "Index";
    case IndexStrategy::kCluIndex:
      return "CluIndex";
  }
  return "?";
}

Schema EdgeTableSchema() {
  return Schema({{"fid", TypeId::kInt},
                 {"tid", TypeId::kInt},
                 {"cost", TypeId::kInt}});
}

Tuple EdgeTableRow(const Edge& e) {
  return Tuple({Value(e.from), Value(e.to), Value(e.weight)});
}

Status CreateKeyedTable(Catalog* catalog, IndexStrategy strategy,
                        const std::string& name, Schema schema,
                        const std::string& key, bool unique, Table** out,
                        const std::vector<OpenTree>& open_trees) {
  TableOptions topts;
  if (strategy == IndexStrategy::kCluIndex) {
    topts.storage = TableStorage::kClustered;
    topts.cluster_key = key;
    topts.cluster_unique = unique;
  }
  RELGRAPH_RETURN_IF_ERROR(
      catalog->CreateTable(name, std::move(schema), topts, out));
  CreatedTables created{catalog, {name}};
  if (strategy == IndexStrategy::kIndex) {
    RELGRAPH_RETURN_IF_ERROR(catalog->CreateSecondaryIndex(*out, key, unique));
  }
  if (strategy != IndexStrategy::kNoIndex) {
    for (const OpenTree& tree : open_trees) {
      RELGRAPH_RETURN_IF_ERROR(
          catalog->CreateOpenIndex(*out, tree.flag, tree.dist));
    }
  }
  created.names.clear();
  return Status::OK();
}

CreatedTables::~CreatedTables() {
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    // Best effort: the build's own error is the one the caller gets.
    Status dropped = catalog->DropTable(*it);
    (void)dropped;
  }
}

IndexStrategy WorkingTableStrategy(IndexStrategy graph) {
  return graph == IndexStrategy::kNoIndex ? IndexStrategy::kIndex : graph;
}

namespace {
// Set Dijkstra, Theorem 1's pruning and TVisited's open trees all assume
// distances never fall along a path.
Status CheckWeight(const Edge& e) {
  if (e.weight >= 0) return Status::OK();
  return Status::InvalidArgument(
      "negative weight " + std::to_string(e.weight) + " on edge " +
      std::to_string(e.from) + "->" + std::to_string(e.to));
}
}  // namespace

Status GraphStore::Create(Database* db, const EdgeList& list,
                          GraphStoreOptions options,
                          std::unique_ptr<GraphStore>* out) {
  for (const Edge& e : list.edges) RELGRAPH_RETURN_IF_ERROR(CheckWeight(e));
  auto store = std::unique_ptr<GraphStore>(new GraphStore());
  store->db_ = db;
  store->options_ = options;
  store->num_nodes_ = list.num_nodes;
  store->num_edges_ = static_cast<int64_t>(list.edges.size());
  store->min_weight_ = list.MinWeight();
  Catalog* catalog = db->catalog();
  const std::string& p = options.prefix;

  // TNodes(nid, label): label supports the pattern-matching extension and
  // defaults to a hash bucket of the id.
  RELGRAPH_RETURN_IF_ERROR(CreateKeyedTable(
      catalog, options.strategy, p + "TNodes",
      Schema({{"nid", TypeId::kInt}, {"label", TypeId::kInt}}), "nid",
      /*unique=*/true, &store->nodes_));
  for (node_id_t u = 0; u < list.num_nodes; u++) {
    RELGRAPH_RETURN_IF_ERROR(
        store->nodes_->Insert(Tuple({Value(u), Value(u % 16)})));
  }

  if (options.strategy == IndexStrategy::kCluIndex) {
    // Two clustered copies; rows inserted in cluster-key order, so each
    // append splits the last leaf with every entry kept on the left and
    // the tree comes out packed (the clustered bulk-load a real RDBMS
    // would do).
    RELGRAPH_RETURN_IF_ERROR(CreateKeyedTable(
        catalog, options.strategy, p + "TEdges", EdgeTableSchema(), "fid",
        /*unique=*/false, &store->edges_out_));
    RELGRAPH_RETURN_IF_ERROR(CreateKeyedTable(
        catalog, options.strategy, p + "TEdgesIn", EdgeTableSchema(), "tid",
        /*unique=*/false, &store->edges_in_));
    std::vector<Edge> sorted = list.edges;
    std::sort(sorted.begin(), sorted.end(),
              [](const Edge& a, const Edge& b) { return a.from < b.from; });
    for (const auto& e : sorted) {
      RELGRAPH_RETURN_IF_ERROR(store->edges_out_->Insert(EdgeTableRow(e)));
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Edge& a, const Edge& b) { return a.to < b.to; });
    for (const auto& e : sorted) {
      RELGRAPH_RETURN_IF_ERROR(store->edges_in_->Insert(EdgeTableRow(e)));
    }
  } else {
    // One heap serves both directions. Under Index it is loaded first and
    // indexed after, on fid and on tid, as a bulk index build would be.
    RELGRAPH_RETURN_IF_ERROR(catalog->CreateTable(
        p + "TEdges", EdgeTableSchema(), TableOptions{}, &store->edges_out_));
    store->edges_in_ = store->edges_out_;
    for (const auto& e : list.edges) {
      RELGRAPH_RETURN_IF_ERROR(store->edges_out_->Insert(EdgeTableRow(e)));
    }
    if (options.strategy == IndexStrategy::kIndex) {
      RELGRAPH_RETURN_IF_ERROR(catalog->CreateSecondaryIndex(
          store->edges_out_, "fid", /*unique=*/false));
      RELGRAPH_RETURN_IF_ERROR(catalog->CreateSecondaryIndex(
          store->edges_out_, "tid", /*unique=*/false));
    }
  }
  *out = std::move(store);
  return Status::OK();
}

EdgeRelation GraphStore::Forward() const {
  return EdgeRelation{edges_out_, "fid", "tid", "fid", "cost"};
}

EdgeRelation GraphStore::Backward() const {
  return EdgeRelation{edges_in_, "tid", "fid", "tid", "cost"};
}

Status GraphStore::AddEdge(const Edge& e) {
  RELGRAPH_RETURN_IF_ERROR(CheckWeight(e));
  RELGRAPH_RETURN_IF_ERROR(edges_out_->Insert(EdgeTableRow(e)));
  if (edges_in_ != edges_out_) {
    RELGRAPH_RETURN_IF_ERROR(edges_in_->Insert(EdgeTableRow(e)));
  }
  num_edges_++;
  min_weight_ = std::min(min_weight_, e.weight);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

namespace {

/// Deletes one row matching (fid, tid, cost) from an edge table, reading
/// the key range `key_col` = `key`.
Status RemoveOneEdgeRow(Table* table, const std::string& key_col, int64_t key,
                        const Edge& e) {
  Table::Iterator it;
  RELGRAPH_RETURN_IF_ERROR(table->ScanRange(key_col, key, key, &it));
  Tuple row;
  RowRef ref;
  while (it.Next(&row, &ref)) {
    if (row.value(0).AsInt() == e.from && row.value(1).AsInt() == e.to &&
        row.value(2).AsInt() == e.weight) {
      return table->DeleteRow(ref);
    }
  }
  RELGRAPH_RETURN_IF_ERROR(it.status());
  return Status::NotFound("no edge (" + std::to_string(e.from) + ", " +
                          std::to_string(e.to) + ", " +
                          std::to_string(e.weight) + ")");
}

}  // namespace

Status GraphStore::RemoveEdge(const Edge& e) {
  RELGRAPH_RETURN_IF_ERROR(RemoveOneEdgeRow(edges_out_, "fid", e.from, e));
  if (edges_in_ != edges_out_) {
    RELGRAPH_RETURN_IF_ERROR(RemoveOneEdgeRow(edges_in_, "tid", e.to, e));
  }
  num_edges_--;
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

}  // namespace relgraph
