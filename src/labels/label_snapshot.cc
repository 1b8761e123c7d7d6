#include "src/labels/label_snapshot.h"

#include "src/dist/snapshot_manifest.h"
#include "src/net/wire.h"
#include "src/storage/disk_manager.h"

namespace relgraph {

namespace {

/// Manifest magic ("RGLS": relgraph label snapshot) and format version,
/// distinct from the shard-snapshot manifest so a mixed-up file path is a
/// typed refusal, not a misparse.
constexpr uint32_t kLabelSnapshotMagic = 0x52474C53;
constexpr uint16_t kLabelSnapshotVersion = 1;

std::string EncodeManifest(const std::string& prefix,
                           const TablePersistentState& out_state,
                           const TablePersistentState& in_state,
                           const TablePersistentState& meta_state) {
  net::WireWriter w;
  w.PutU32(kLabelSnapshotMagic);
  w.PutU16(kLabelSnapshotVersion);
  w.PutBytes(prefix);
  EncodeTableState(&w, out_state);
  EncodeTableState(&w, in_state);
  EncodeTableState(&w, meta_state);
  return w.Take();
}

Status DecodeManifest(const std::string& payload, std::string* prefix,
                      TablePersistentState* out_state,
                      TablePersistentState* in_state,
                      TablePersistentState* meta_state) {
  net::WireReader r(payload);
  uint32_t magic;
  uint16_t version;
  RELGRAPH_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != kLabelSnapshotMagic) {
    return Status::Corruption("label snapshot manifest magic mismatch");
  }
  RELGRAPH_RETURN_IF_ERROR(r.GetU16(&version));
  if (version != kLabelSnapshotVersion) {
    return Status::InvalidArgument(
        "label snapshot manifest version " + std::to_string(version) +
        " (expected " + std::to_string(kLabelSnapshotVersion) + ")");
  }
  RELGRAPH_RETURN_IF_ERROR(r.GetBytes(prefix));
  RELGRAPH_RETURN_IF_ERROR(DecodeTableState(&r, out_state));
  RELGRAPH_RETURN_IF_ERROR(DecodeTableState(&r, in_state));
  RELGRAPH_RETURN_IF_ERROR(DecodeTableState(&r, meta_state));
  return r.Finish();
}

}  // namespace

Status WriteLabelSnapshot(const LabelIndex& index, const std::string& path) {
  Database* db = index.db();
  Table* out_table = db->catalog()->GetTable(index.out_name());
  Table* in_table = db->catalog()->GetTable(index.in_name());
  Table* meta_table = db->catalog()->GetTable(index.meta_name());
  if (out_table == nullptr || in_table == nullptr || meta_table == nullptr) {
    return Status::InvalidArgument(
        "label tables missing from the index's database");
  }
  TablePersistentState out_state, in_state, meta_state;
  RELGRAPH_RETURN_IF_ERROR(out_table->ExportState(&out_state));
  RELGRAPH_RETURN_IF_ERROR(in_table->ExportState(&in_state));
  RELGRAPH_RETURN_IF_ERROR(meta_table->ExportState(&meta_state));
  return WriteDatabaseSnapshot(
      db, EncodeManifest(index.prefix(), out_state, in_state, meta_state),
      path);
}

Status LoadLabelSnapshot(const std::string& path,
                         const DatabaseOptions& db_options,
                         RestoredLabelIndex* out) {
  std::unique_ptr<DiskManager> disk;
  RELGRAPH_RETURN_IF_ERROR(
      DiskManager::Open(path, OpenMode::kOpenExisting, &disk));

  std::string payload;
  RELGRAPH_RETURN_IF_ERROR(ReadManifestPage(disk.get(), &payload));
  std::string prefix;
  TablePersistentState out_state, in_state, meta_state;
  RELGRAPH_RETURN_IF_ERROR(
      DecodeManifest(payload, &prefix, &out_state, &in_state, &meta_state));

  // Full scrub before trusting any byte: label serving reads pages lazily,
  // so a corrupt page would otherwise surface only when (if ever) a probe
  // touches it. Every page must pass its checksum up front.
  {
    char page[kPageSize];
    for (page_id_t id = 0; id < disk->num_pages(); id++) {
      RELGRAPH_RETURN_IF_ERROR(disk->ReadPage(id, page));
    }
  }

  DatabaseOptions opts = db_options;
  opts.in_memory = false;
  opts.path = path;
  // Label databases serve one probe engine per concurrent session.
  opts.concurrent_readers = true;
  auto db = std::make_unique<Database>(opts, std::move(disk));

  for (TablePersistentState* state : {&out_state, &in_state, &meta_state}) {
    std::unique_ptr<Table> table;
    RELGRAPH_RETURN_IF_ERROR(
        Table::Attach(db->buffer_pool(), *state, &table));
    RELGRAPH_RETURN_IF_ERROR(db->catalog()->AttachTable(std::move(table)));
  }

  std::unique_ptr<LabelIndex> index;
  RELGRAPH_RETURN_IF_ERROR(LabelIndex::Attach(db.get(), prefix, &index));
  out->db = std::move(db);
  out->index = std::move(index);
  return Status::OK();
}

}  // namespace relgraph
