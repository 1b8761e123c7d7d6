#include "src/dist/shard_snapshot.h"

#include <cstring>
#include <vector>

#include "src/dist/snapshot_manifest.h"
#include "src/net/wire.h"
#include "src/storage/disk_manager.h"

namespace relgraph {

namespace {

/// Manifest magic ("RGSS": relgraph shard snapshot) and format version,
/// independent of the page-file format version underneath.
constexpr uint32_t kSnapshotMagic = 0x52475353;
constexpr uint16_t kSnapshotVersion = 1;

std::string EncodeManifest(const ShardSnapshotInfo& info,
                           const TablePersistentState& out_edges,
                           const TablePersistentState& in_edges) {
  net::WireWriter w;
  w.PutU32(kSnapshotMagic);
  w.PutU16(kSnapshotVersion);
  w.PutI32(info.shard);
  w.PutI32(info.num_shards);
  w.PutU8(static_cast<uint8_t>(info.strategy));
  w.PutI64(info.num_nodes);
  w.PutI64(info.num_edges);
  w.PutI64(info.min_weight);
  EncodeTableState(&w, out_edges);
  EncodeTableState(&w, in_edges);
  return w.Take();
}

Status DecodeManifest(const std::string& payload, ShardSnapshotInfo* info,
                      TablePersistentState* out_edges,
                      TablePersistentState* in_edges) {
  net::WireReader r(payload);
  uint32_t magic;
  uint16_t version;
  uint8_t strategy;
  RELGRAPH_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != kSnapshotMagic) {
    return Status::Corruption("snapshot manifest magic mismatch");
  }
  RELGRAPH_RETURN_IF_ERROR(r.GetU16(&version));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("snapshot manifest version " +
                                   std::to_string(version) + " (expected " +
                                   std::to_string(kSnapshotVersion) + ")");
  }
  RELGRAPH_RETURN_IF_ERROR(r.GetI32(&info->shard));
  RELGRAPH_RETURN_IF_ERROR(r.GetI32(&info->num_shards));
  RELGRAPH_RETURN_IF_ERROR(r.GetU8(&strategy));
  if (strategy > static_cast<uint8_t>(IndexStrategy::kCluIndex)) {
    return Status::Corruption("snapshot manifest strategy unknown");
  }
  info->strategy = static_cast<IndexStrategy>(strategy);
  RELGRAPH_RETURN_IF_ERROR(r.GetI64(&info->num_nodes));
  RELGRAPH_RETURN_IF_ERROR(r.GetI64(&info->num_edges));
  RELGRAPH_RETURN_IF_ERROR(r.GetI64(&info->min_weight));
  if (info->num_shards < 1 || info->shard < 0 ||
      info->shard >= info->num_shards) {
    return Status::Corruption("snapshot manifest shard identity out of range");
  }
  RELGRAPH_RETURN_IF_ERROR(DecodeTableState(&r, out_edges));
  RELGRAPH_RETURN_IF_ERROR(DecodeTableState(&r, in_edges));
  return r.Finish();
}

/// Reads the manifest page (the snapshot's last page) through the CRC
/// check and parses it.
Status ReadManifest(DiskManager* disk, ShardSnapshotInfo* info,
                    TablePersistentState* out_edges,
                    TablePersistentState* in_edges) {
  std::string payload;
  RELGRAPH_RETURN_IF_ERROR(ReadManifestPage(disk, &payload));
  return DecodeManifest(payload, info, out_edges, in_edges);
}

}  // namespace

Status WriteShardSnapshot(const ShardedGraphStore& store, int shard,
                          const std::string& path) {
  if (shard < 0 || shard >= store.num_shards()) {
    return Status::InvalidArgument("shard out of range");
  }
  Database* db = store.shards_[shard].db.get();
  if (db == nullptr) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " is not populated in this store");
  }
  ShardSnapshotInfo info;
  info.shard = shard;
  info.num_shards = store.num_shards();
  info.strategy = store.strategy();
  info.num_nodes = store.num_nodes();
  info.num_edges = store.num_edges();
  info.min_weight = store.min_weight();
  TablePersistentState out_edges, in_edges;
  RELGRAPH_RETURN_IF_ERROR(
      store.shards_[shard].out_edges->ExportState(&out_edges));
  RELGRAPH_RETURN_IF_ERROR(
      store.shards_[shard].in_edges->ExportState(&in_edges));
  return WriteDatabaseSnapshot(db, EncodeManifest(info, out_edges, in_edges),
                               path);
}

Status ReadShardSnapshotInfo(const std::string& path,
                             ShardSnapshotInfo* info) {
  std::unique_ptr<DiskManager> disk;
  RELGRAPH_RETURN_IF_ERROR(
      DiskManager::Open(path, OpenMode::kOpenExisting, &disk));
  TablePersistentState out_edges, in_edges;
  return ReadManifest(disk.get(), info, &out_edges, &in_edges);
}

Status VerifySnapshotPages(const std::string& path, int64_t* pages_verified) {
  if (pages_verified != nullptr) *pages_verified = 0;
  std::unique_ptr<DiskManager> disk;
  RELGRAPH_RETURN_IF_ERROR(
      DiskManager::Open(path, OpenMode::kOpenExisting, &disk));
  char page[kPageSize];
  for (page_id_t id = 0; id < disk->num_pages(); id++) {
    RELGRAPH_RETURN_IF_ERROR(disk->ReadPage(id, page));
    if (pages_verified != nullptr) (*pages_verified)++;
  }
  return Status::OK();
}

Status LoadShardSnapshot(const std::string& path,
                         const DatabaseOptions& db_options,
                         bool verify_structure,
                         std::unique_ptr<ShardedGraphStore>* out,
                         ShardSnapshotInfo* info) {
  std::unique_ptr<DiskManager> disk;
  RELGRAPH_RETURN_IF_ERROR(
      DiskManager::Open(path, OpenMode::kOpenExisting, &disk));

  ShardSnapshotInfo manifest_info;
  TablePersistentState out_state, in_state;
  RELGRAPH_RETURN_IF_ERROR(
      ReadManifest(disk.get(), &manifest_info, &out_state, &in_state));

  if (verify_structure) {
    // Full scrub first: every page must pass its checksum before any
    // structural walk trusts the bytes.
    char page[kPageSize];
    for (page_id_t id = 0; id < disk->num_pages(); id++) {
      RELGRAPH_RETURN_IF_ERROR(disk->ReadPage(id, page));
    }
  }

  auto store = std::unique_ptr<ShardedGraphStore>(new ShardedGraphStore());
  store->options_.num_shards = manifest_info.num_shards;
  store->options_.strategy = manifest_info.strategy;
  store->options_.shard_db_options = db_options;
  store->num_nodes_ = manifest_info.num_nodes;
  store->num_edges_ = manifest_info.num_edges;
  store->min_weight_ = manifest_info.min_weight;
  store->shards_.resize(manifest_info.num_shards);

  ShardedGraphStore::Shard& shard = store->shards_[manifest_info.shard];
  DatabaseOptions shard_opts = db_options;
  shard_opts.in_memory = false;
  shard_opts.path = path;
  // Shard databases serve concurrent requests of many query sessions.
  shard_opts.concurrent_readers = true;
  shard.db = std::make_unique<Database>(shard_opts, std::move(disk));

  std::unique_ptr<Table> out_table, in_table;
  RELGRAPH_RETURN_IF_ERROR(
      Table::Attach(shard.db->buffer_pool(), out_state, &out_table));
  RELGRAPH_RETURN_IF_ERROR(
      Table::Attach(shard.db->buffer_pool(), in_state, &in_table));
  shard.out_edges = out_table.get();
  shard.in_edges = in_table.get();
  RELGRAPH_RETURN_IF_ERROR(
      shard.db->catalog()->AttachTable(std::move(out_table)));
  RELGRAPH_RETURN_IF_ERROR(
      shard.db->catalog()->AttachTable(std::move(in_table)));

  if (verify_structure) {
    RELGRAPH_RETURN_IF_ERROR(shard.out_edges->CheckConsistency());
    RELGRAPH_RETURN_IF_ERROR(shard.in_edges->CheckConsistency());
  }

  if (info != nullptr) *info = manifest_info;
  *out = std::move(store);
  return Status::OK();
}

}  // namespace relgraph
