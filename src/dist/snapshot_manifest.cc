#include "src/dist/snapshot_manifest.h"

#include <cstring>

#include "src/db/database.h"

namespace relgraph {

void EncodeTableState(net::WireWriter* w, const TablePersistentState& st) {
  w->PutBytes(st.name);
  w->PutU32(static_cast<uint32_t>(st.schema.NumColumns()));
  for (const auto& col : st.schema.columns()) {
    w->PutBytes(col.name);
    w->PutU8(static_cast<uint8_t>(col.type));
  }
  w->PutU8(st.options.storage == TableStorage::kClustered ? 1 : 0);
  w->PutBytes(st.options.cluster_key);
  w->PutU8(st.options.cluster_unique ? 1 : 0);
  w->PutI64(st.num_rows);
  w->PutI64(st.next_tie);
  w->PutI32(st.heap_first);
  w->PutI32(st.heap_last);
  w->PutI32(st.clustered_root);
  w->PutI64(st.clustered_entries);
  w->PutU32(static_cast<uint32_t>(st.indexes.size()));
  for (const auto& idx : st.indexes) {
    w->PutBytes(idx.name);
    w->PutBytes(idx.column);
    w->PutU8(idx.unique ? 1 : 0);
    w->PutI32(idx.root);
    w->PutI64(idx.entries);
  }
}

Status DecodeTableState(net::WireReader* r, TablePersistentState* st) {
  RELGRAPH_RETURN_IF_ERROR(r->GetBytes(&st->name));
  uint32_t ncols;
  RELGRAPH_RETURN_IF_ERROR(r->GetU32(&ncols));
  if (ncols > kPageSize) {
    return Status::Corruption("manifest column count implausible");
  }
  std::vector<Column> columns;
  for (uint32_t i = 0; i < ncols; i++) {
    Column col;
    uint8_t type;
    RELGRAPH_RETURN_IF_ERROR(r->GetBytes(&col.name));
    RELGRAPH_RETURN_IF_ERROR(r->GetU8(&type));
    if (type > static_cast<uint8_t>(TypeId::kVarchar)) {
      return Status::Corruption("manifest column type " +
                                std::to_string(type) + " unknown");
    }
    col.type = static_cast<TypeId>(type);
    columns.push_back(std::move(col));
  }
  st->schema = Schema(std::move(columns));
  uint8_t storage, cluster_unique;
  RELGRAPH_RETURN_IF_ERROR(r->GetU8(&storage));
  if (storage > 1) {
    return Status::Corruption("manifest storage kind unknown");
  }
  st->options.storage =
      storage == 1 ? TableStorage::kClustered : TableStorage::kHeap;
  RELGRAPH_RETURN_IF_ERROR(r->GetBytes(&st->options.cluster_key));
  RELGRAPH_RETURN_IF_ERROR(r->GetU8(&cluster_unique));
  st->options.cluster_unique = cluster_unique != 0;
  RELGRAPH_RETURN_IF_ERROR(r->GetI64(&st->num_rows));
  RELGRAPH_RETURN_IF_ERROR(r->GetI64(&st->next_tie));
  RELGRAPH_RETURN_IF_ERROR(r->GetI32(&st->heap_first));
  RELGRAPH_RETURN_IF_ERROR(r->GetI32(&st->heap_last));
  RELGRAPH_RETURN_IF_ERROR(r->GetI32(&st->clustered_root));
  RELGRAPH_RETURN_IF_ERROR(r->GetI64(&st->clustered_entries));
  uint32_t nidx;
  RELGRAPH_RETURN_IF_ERROR(r->GetU32(&nidx));
  if (nidx > kPageSize) {
    return Status::Corruption("manifest index count implausible");
  }
  for (uint32_t i = 0; i < nidx; i++) {
    TablePersistentState::IndexState is;
    uint8_t u;
    RELGRAPH_RETURN_IF_ERROR(r->GetBytes(&is.name));
    RELGRAPH_RETURN_IF_ERROR(r->GetBytes(&is.column));
    RELGRAPH_RETURN_IF_ERROR(r->GetU8(&u));
    is.unique = u != 0;
    RELGRAPH_RETURN_IF_ERROR(r->GetI32(&is.root));
    RELGRAPH_RETURN_IF_ERROR(r->GetI64(&is.entries));
    st->indexes.push_back(std::move(is));
  }
  return Status::OK();
}

Status ReadManifestPage(DiskManager* disk, std::string* payload) {
  const page_id_t manifest_page = disk->num_pages() - 1;
  if (manifest_page < 0) {
    return Status::Corruption("snapshot holds no pages");
  }
  char page[kPageSize];
  RELGRAPH_RETURN_IF_ERROR(disk->ReadPage(manifest_page, page));
  uint32_t len;
  std::memcpy(&len, page, 4);
  if (len > kPageSize - 4) {
    return Status::Corruption("snapshot manifest length implausible");
  }
  payload->assign(page + 4, len);
  return Status::OK();
}

Status WriteDatabaseSnapshot(Database* db, const std::string& manifest,
                             const std::string& path) {
  if (manifest.size() + 4 > kPageSize) {
    return Status::Internal("snapshot manifest exceeds one page (" +
                            std::to_string(manifest.size()) + " bytes)");
  }
  // Flush so the disk manager (not the pool) holds every current page.
  RELGRAPH_RETURN_IF_ERROR(db->buffer_pool()->FlushAll());

  const std::string tmp = path + ".tmp";
  std::unique_ptr<DiskManager> snap;
  RELGRAPH_RETURN_IF_ERROR(DiskManager::Open(tmp, OpenMode::kCreate, &snap));
  DiskManager* src = db->disk();
  char page[kPageSize];
  for (page_id_t id = 0; id < src->num_pages(); id++) {
    RELGRAPH_RETURN_IF_ERROR(src->ReadPage(id, page));
    snap->AllocatePage();  // sequential: snapshot ids mirror source ids
    RELGRAPH_RETURN_IF_ERROR(snap->WritePage(id, page));
  }
  std::memset(page, 0, kPageSize);
  const uint32_t len = static_cast<uint32_t>(manifest.size());
  std::memcpy(page, &len, 4);
  std::memcpy(page + 4, manifest.data(), manifest.size());
  const page_id_t manifest_page = snap->AllocatePage();
  RELGRAPH_RETURN_IF_ERROR(snap->WritePage(manifest_page, page));
  RELGRAPH_RETURN_IF_ERROR(snap->Sync());
  snap.reset();
  return AtomicRename(tmp, path);
}

}  // namespace relgraph
