#include "src/dist/sharded_graph.h"

#include <algorithm>
#include <utility>

namespace relgraph {

namespace {

/// Creates one shard-local adjacency table under the chosen strategy and
/// bulk-loads `edges` (already the shard's partition) in cluster-key order.
Status BuildShardTable(Catalog* catalog, const std::string& name,
                       const std::string& key_col, IndexStrategy strategy,
                       std::vector<Edge> edges, bool sort_by_from,
                       Table** out) {
  RELGRAPH_RETURN_IF_ERROR(CreateKeyedTable(catalog, strategy, name,
                                            EdgeTableSchema(), key_col,
                                            /*unique=*/false, out));
  if (strategy == IndexStrategy::kCluIndex) {
    std::sort(edges.begin(), edges.end(),
              [sort_by_from](const Edge& a, const Edge& b) {
                return sort_by_from ? a.from < b.from : a.to < b.to;
              });
  }
  for (const auto& e : edges) {
    RELGRAPH_RETURN_IF_ERROR((*out)->Insert(EdgeTableRow(e)));
  }
  return Status::OK();
}

}  // namespace

Status ShardedGraphStore::Create(const EdgeList& list,
                                 ShardedGraphOptions options,
                                 std::unique_ptr<ShardedGraphStore>* out) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  auto store = std::unique_ptr<ShardedGraphStore>(new ShardedGraphStore());
  store->options_ = options;
  store->num_nodes_ = list.num_nodes;
  store->num_edges_ = static_cast<int64_t>(list.edges.size());
  store->min_weight_ = list.MinWeight();

  // Partition once: forward rows by Owner(fid), backward rows by Owner(tid).
  std::vector<std::vector<Edge>> out_part(options.num_shards);
  std::vector<std::vector<Edge>> in_part(options.num_shards);
  for (const auto& e : list.edges) {
    out_part[store->OwnerShard(e.from)].push_back(e);
    in_part[store->OwnerShard(e.to)].push_back(e);
  }

  store->shards_.resize(options.num_shards);
  for (int i = 0; i < options.num_shards; i++) {
    Shard& shard = store->shards_[i];
    // Shard databases are read by the concurrent requests of many query
    // sessions; their buffer pools must serve concurrent readers no matter
    // what the caller's options say.
    DatabaseOptions shard_opts = options.shard_db_options;
    shard_opts.concurrent_readers = true;
    shard.db = std::make_unique<Database>(shard_opts);
    Catalog* catalog = shard.db->catalog();
    RELGRAPH_RETURN_IF_ERROR(
        BuildShardTable(catalog, "TEdges", "fid", options.strategy,
                        std::move(out_part[i]), /*sort_by_from=*/true,
                        &shard.out_edges));
    RELGRAPH_RETURN_IF_ERROR(
        BuildShardTable(catalog, "TEdgesIn", "tid", options.strategy,
                        std::move(in_part[i]), /*sort_by_from=*/false,
                        &shard.in_edges));
  }
  *out = std::move(store);
  return Status::OK();
}

}  // namespace relgraph
