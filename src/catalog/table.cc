#include "src/catalog/table.h"

#include <cassert>
#include <cstring>

namespace relgraph {

namespace {

/// 8-byte payload of a secondary index over a *clustered* table: the row's
/// (unique) cluster key value.
std::string EncodeClusterKey(int64_t key) {
  std::string out(sizeof(int64_t), '\0');
  std::memcpy(out.data(), &key, sizeof(int64_t));
  return out;
}

int64_t DecodeClusterKey(std::string_view payload) {
  int64_t key;
  std::memcpy(&key, payload.data(), sizeof(int64_t));
  return key;
}

}  // namespace

size_t Table::FixedWidth(const Schema& schema) {
  size_t n = schema.NumColumns();
  return (n + 7) / 8 + 8 * n;
}

Status Table::Create(BufferPool* pool, std::string name, Schema schema,
                     TableOptions options, std::unique_ptr<Table>* out) {
  auto table = std::unique_ptr<Table>(new Table());
  table->pool_ = pool;
  table->name_ = std::move(name);
  table->schema_ = std::move(schema);
  table->options_ = std::move(options);

  if (table->options_.storage == TableStorage::kClustered) {
    for (const auto& col : table->schema_.columns()) {
      if (col.type == TypeId::kVarchar) {
        return Status::NotSupported(
            "clustered storage requires a fixed-width schema");
      }
    }
    int idx = table->schema_.Find(table->options_.cluster_key);
    if (idx < 0) {
      return Status::InvalidArgument("cluster key column not in schema");
    }
    if (table->schema_.column(idx).type != TypeId::kInt) {
      return Status::NotSupported("cluster key must be INT");
    }
    table->cluster_key_idx_ = static_cast<size_t>(idx);
    table->fixed_width_ = FixedWidth(table->schema_);
    RELGRAPH_RETURN_IF_ERROR(
        BTree::Create(pool, static_cast<uint16_t>(table->fixed_width_),
                      &table->clustered_));
  } else {
    RELGRAPH_RETURN_IF_ERROR(HeapFile::Create(pool, &table->heap_));
  }
  *out = std::move(table);
  return Status::OK();
}

TablePersistentState Table::ExportState() const {
  TablePersistentState st;
  st.name = name_;
  st.schema = schema_;
  st.options = options_;
  st.num_rows = num_rows_;
  st.next_tie = next_tie_;
  if (options_.storage == TableStorage::kClustered) {
    st.clustered_root = clustered_.root();
    st.clustered_entries = clustered_.num_entries();
  } else {
    st.heap_first = heap_.first_page();
    st.heap_last = heap_.last_page();
  }
  for (const auto& idx : indexes_) {
    TablePersistentState::IndexState is;
    is.name = idx.name;
    is.column = idx.column;
    is.unique = idx.unique;
    is.root = idx.tree.root();
    is.entries = idx.tree.num_entries();
    st.indexes.push_back(std::move(is));
  }
  return st;
}

Status Table::Attach(BufferPool* pool, const TablePersistentState& state,
                     std::unique_ptr<Table>* out) {
  auto table = std::unique_ptr<Table>(new Table());
  table->pool_ = pool;
  table->name_ = state.name;
  table->schema_ = state.schema;
  table->options_ = state.options;
  table->num_rows_ = state.num_rows;
  table->next_tie_ = state.next_tie;

  if (table->options_.storage == TableStorage::kClustered) {
    int idx = table->schema_.Find(table->options_.cluster_key);
    if (idx < 0 || table->schema_.column(idx).type != TypeId::kInt) {
      return Status::Corruption("manifest cluster key '" +
                                table->options_.cluster_key +
                                "' is not an INT column of table " +
                                table->name_);
    }
    table->cluster_key_idx_ = static_cast<size_t>(idx);
    table->fixed_width_ = FixedWidth(table->schema_);
    table->clustered_ =
        BTree::Open(pool, state.clustered_root,
                    static_cast<uint16_t>(table->fixed_width_),
                    state.clustered_entries);
  } else {
    table->heap_ = HeapFile::Open(pool, state.heap_first, state.heap_last);
  }
  for (const auto& is : state.indexes) {
    int col = table->schema_.Find(is.column);
    if (col < 0 || table->schema_.column(col).type != TypeId::kInt) {
      return Status::Corruption("manifest index column '" + is.column +
                                "' is not an INT column of table " +
                                table->name_);
    }
    SecondaryIndex si;
    si.name = is.name;
    si.column = is.column;
    si.column_idx = static_cast<size_t>(col);
    si.unique = is.unique;
    si.tree = BTree::Open(pool, is.root, /*payload_size=*/8, is.entries);
    table->indexes_.push_back(std::move(si));
  }
  *out = std::move(table);
  return Status::OK();
}

Status Table::CheckConsistency() const {
  if (options_.storage == TableStorage::kClustered) {
    RELGRAPH_RETURN_IF_ERROR(clustered_.CheckIntegrity());
    if (clustered_.num_entries() != num_rows_) {
      return Status::Corruption(
          "table " + name_ + ": clustered tree has " +
          std::to_string(clustered_.num_entries()) + " entries, row count is " +
          std::to_string(num_rows_));
    }
  } else {
    int64_t live = 0;
    RELGRAPH_RETURN_IF_ERROR(heap_.CheckConsistency(&live));
    if (live != num_rows_) {
      return Status::Corruption("table " + name_ + ": heap holds " +
                                std::to_string(live) +
                                " live records, row count is " +
                                std::to_string(num_rows_));
    }
  }
  for (const auto& idx : indexes_) {
    RELGRAPH_RETURN_IF_ERROR(idx.tree.CheckIntegrity());
  }
  return Status::OK();
}

std::string Table::SerializeClustered(const Tuple& tuple) const {
  std::string bytes = tuple.Serialize(schema_);
  // NULL columns shrink the serialization below the fixed width; pad so the
  // tree's fixed-size payload contract holds (padding is ignored on read).
  bytes.resize(fixed_width_, 0);
  return bytes;
}

Status Table::Insert(const Tuple& tuple, RowRef* ref) {
  if (tuple.NumValues() != schema_.NumColumns()) {
    return Status::InvalidArgument("arity mismatch on insert into " + name_);
  }
  if (options_.storage == TableStorage::kClustered) {
    const Value& keyval = tuple.value(cluster_key_idx_);
    if (keyval.IsNull()) {
      return Status::InvalidArgument("NULL cluster key");
    }
    BtKey key{keyval.AsInt(), options_.cluster_unique ? 0 : next_tie_++};
    RELGRAPH_RETURN_IF_ERROR(clustered_.Insert(key, SerializeClustered(tuple),
                                               options_.cluster_unique));
    RELGRAPH_RETURN_IF_ERROR(InsertClusteredIndexEntriesFor(tuple, key));
    num_rows_++;
    if (ref != nullptr) ref->key = key;
    return Status::OK();
  }
  Rid rid;
  // Uniqueness must be checked before touching the heap so a duplicate key
  // does not leave an orphan row.
  for (auto& idx : indexes_) {
    if (!idx.unique) continue;
    const Value& v = tuple.value(idx.column_idx);
    if (v.IsNull()) continue;
    BtKey probe{v.AsInt(), 0};
    std::string ignored;
    if (idx.tree.SearchExact(probe, &ignored).ok()) {
      return Status::AlreadyExists("duplicate key on index " + idx.column);
    }
  }
  RELGRAPH_RETURN_IF_ERROR(heap_.Insert(tuple.Serialize(schema_), &rid));
  RELGRAPH_RETURN_IF_ERROR(InsertIndexEntriesFor(tuple, rid));
  num_rows_++;
  if (ref != nullptr) ref->rid = rid;
  return Status::OK();
}

Status Table::InsertIndexEntriesFor(const Tuple& tuple, const Rid& rid) {
  for (auto& idx : indexes_) {
    const Value& v = tuple.value(idx.column_idx);
    if (v.IsNull()) continue;  // NULLs are not indexed
    BtKey key{v.AsInt(), idx.unique ? 0 : RidTie(rid)};
    RELGRAPH_RETURN_IF_ERROR(idx.tree.Insert(key, EncodeRid(rid), idx.unique));
  }
  return Status::OK();
}

Status Table::DeleteIndexEntriesFor(const Tuple& tuple, const Rid& rid) {
  for (auto& idx : indexes_) {
    const Value& v = tuple.value(idx.column_idx);
    if (v.IsNull()) continue;
    BtKey key{v.AsInt(), idx.unique ? 0 : RidTie(rid)};
    RELGRAPH_RETURN_IF_ERROR(idx.tree.Delete(key));
  }
  return Status::OK();
}

// Secondary entries over a clustered table use the (unique) cluster key as
// both the duplicate tiebreaker and the payload.
Status Table::InsertClusteredIndexEntriesFor(const Tuple& tuple,
                                             const BtKey& key) {
  for (auto& idx : indexes_) {
    const Value& v = tuple.value(idx.column_idx);
    if (v.IsNull()) continue;
    BtKey entry{v.AsInt(), idx.unique ? 0 : key.key};
    RELGRAPH_RETURN_IF_ERROR(
        idx.tree.Insert(entry, EncodeClusterKey(key.key), idx.unique));
  }
  return Status::OK();
}

Status Table::DeleteClusteredIndexEntriesFor(const Tuple& tuple,
                                             const BtKey& key) {
  for (auto& idx : indexes_) {
    const Value& v = tuple.value(idx.column_idx);
    if (v.IsNull()) continue;
    BtKey entry{v.AsInt(), idx.unique ? 0 : key.key};
    RELGRAPH_RETURN_IF_ERROR(idx.tree.Delete(entry));
  }
  return Status::OK();
}

Status Table::CreateSecondaryIndex(const std::string& column, bool unique,
                                   const std::string& name) {
  if (options_.storage == TableStorage::kClustered &&
      !options_.cluster_unique) {
    return Status::NotSupported(
        "secondary indexes on clustered tables require a unique cluster key");
  }
  if (options_.storage == TableStorage::kClustered &&
      column == options_.cluster_key) {
    return Status::AlreadyExists("cluster key already indexes " + column);
  }
  int idx = schema_.Find(column);
  if (idx < 0) return Status::InvalidArgument("no column " + column);
  if (schema_.column(idx).type != TypeId::kInt) {
    return Status::NotSupported("only INT columns can be indexed");
  }
  for (const auto& existing : indexes_) {
    if (existing.column == column) {
      return Status::AlreadyExists("index on " + column + " already exists");
    }
  }
  SecondaryIndex si;
  si.name = name.empty() ? column : name;
  si.column = column;
  si.column_idx = static_cast<size_t>(idx);
  si.unique = unique;
  RELGRAPH_RETURN_IF_ERROR(BTree::Create(pool_, 8, &si.tree));
  // Backfill existing rows.
  if (options_.storage == TableStorage::kClustered) {
    BTree::Iterator it = clustered_.ScanAll();
    BtKey key;
    std::string record;
    while (it.Next(&key, &record)) {
      Tuple tuple;
      RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, record, &tuple));
      const Value& v = tuple.value(si.column_idx);
      if (v.IsNull()) continue;
      BtKey entry{v.AsInt(), si.unique ? 0 : key.key};
      RELGRAPH_RETURN_IF_ERROR(
          si.tree.Insert(entry, EncodeClusterKey(key.key), si.unique));
    }
    RELGRAPH_RETURN_IF_ERROR(it.status());
  } else {
    HeapFile::Iterator it = heap_.Scan();
    Rid rid;
    std::string record;
    while (it.Next(&rid, &record)) {
      Tuple tuple;
      RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, record, &tuple));
      const Value& v = tuple.value(si.column_idx);
      if (v.IsNull()) continue;
      BtKey key{v.AsInt(), si.unique ? 0 : RidTie(rid)};
      RELGRAPH_RETURN_IF_ERROR(si.tree.Insert(key, EncodeRid(rid), si.unique));
    }
  }
  indexes_.push_back(std::move(si));
  return Status::OK();
}

Status Table::DropSecondaryIndex(const std::string& name) {
  for (int pass = 0; pass < 2; pass++) {  // by name first, then by column
    for (size_t i = 0; i < indexes_.size(); i++) {
      const std::string& key = pass == 0 ? indexes_[i].name
                                         : indexes_[i].column;
      if (key == name) {
        // The definition goes even when the tree cannot be walked, so a
        // damaged index can always be dropped; its pages then leak and
        // the status says why.
        Status freed = indexes_[i].tree.Destroy();
        indexes_.erase(indexes_.begin() + static_cast<ptrdiff_t>(i));
        return freed;
      }
    }
  }
  if (options_.storage == TableStorage::kClustered &&
      name == options_.cluster_key) {
    return Status::InvalidArgument("cannot drop the cluster key of " + name_);
  }
  return Status::NotFound("no index " + name + " on " + name_);
}

bool Table::HasIndexOn(const std::string& column) const {
  if (options_.storage == TableStorage::kClustered &&
      column == options_.cluster_key) {
    return true;
  }
  for (const auto& idx : indexes_) {
    if (idx.column == column) return true;
  }
  return false;
}

Status Table::LookupUnique(const std::string& column, int64_t key, Tuple* out,
                           RowRef* ref) {
  access_stats_.point_lookups.fetch_add(1, std::memory_order_relaxed);
  if (options_.storage == TableStorage::kClustered &&
      column == options_.cluster_key) {
    if (!options_.cluster_unique) {
      return Status::InvalidArgument("no unique access path on " + column);
    }
    BtKey k{key, 0};
    std::string payload;
    RELGRAPH_RETURN_IF_ERROR(clustered_.SearchExact(k, &payload));
    RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, payload, out));
    if (ref != nullptr) ref->key = k;
    return Status::OK();
  }
  for (auto& idx : indexes_) {
    if (idx.column != column) continue;
    if (!idx.unique) {
      return Status::InvalidArgument("index on " + column + " is not unique");
    }
    std::string payload;
    RELGRAPH_RETURN_IF_ERROR(idx.tree.SearchExact(BtKey{key, 0}, &payload));
    if (options_.storage == TableStorage::kClustered) {
      BtKey k{DecodeClusterKey(payload), 0};
      std::string record;
      RELGRAPH_RETURN_IF_ERROR(clustered_.SearchExact(k, &record));
      RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, record, out));
      if (ref != nullptr) ref->key = k;
      return Status::OK();
    }
    Rid rid = DecodeRid(payload);
    std::string record;
    RELGRAPH_RETURN_IF_ERROR(heap_.Get(rid, &record));
    RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, record, out));
    if (ref != nullptr) ref->rid = rid;
    return Status::OK();
  }
  return Status::InvalidArgument("no unique index on " + column);
}

Status Table::UpdateRow(const RowRef& ref, const Tuple& tuple) {
  if (tuple.NumValues() != schema_.NumColumns()) {
    return Status::InvalidArgument("arity mismatch on update of " + name_);
  }
  if (options_.storage == TableStorage::kClustered) {
    const Value& keyval = tuple.value(cluster_key_idx_);
    if (keyval.IsNull() || keyval.AsInt() != ref.key.key) {
      return Status::NotSupported("cluster key is immutable under update");
    }
    if (!indexes_.empty()) {
      // Read the old row so secondary entries whose key changed move.
      std::string old_payload;
      RELGRAPH_RETURN_IF_ERROR(clustered_.SearchExact(ref.key, &old_payload));
      Tuple old_tuple;
      RELGRAPH_RETURN_IF_ERROR(
          Tuple::Deserialize(schema_, old_payload, &old_tuple));
      RELGRAPH_RETURN_IF_ERROR(
          clustered_.UpdatePayload(ref.key, SerializeClustered(tuple)));
      for (auto& idx : indexes_) {
        const Value& oldv = old_tuple.value(idx.column_idx);
        const Value& newv = tuple.value(idx.column_idx);
        if (oldv.Compare(newv) == 0) continue;
        if (!oldv.IsNull()) {
          BtKey entry{oldv.AsInt(), idx.unique ? 0 : ref.key.key};
          RELGRAPH_RETURN_IF_ERROR(idx.tree.Delete(entry));
        }
        if (!newv.IsNull()) {
          BtKey entry{newv.AsInt(), idx.unique ? 0 : ref.key.key};
          RELGRAPH_RETURN_IF_ERROR(idx.tree.Insert(
              entry, EncodeClusterKey(ref.key.key), idx.unique));
        }
      }
      return Status::OK();
    }
    return clustered_.UpdatePayload(ref.key, SerializeClustered(tuple));
  }
  // Heap: read the old tuple first so index entries can be maintained.
  std::string old_bytes;
  RELGRAPH_RETURN_IF_ERROR(heap_.Get(ref.rid, &old_bytes));
  Tuple old_tuple;
  RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, old_bytes, &old_tuple));

  std::string new_bytes = tuple.Serialize(schema_);
  Status st = heap_.Update(ref.rid, new_bytes);
  Rid rid = ref.rid;
  if (st.IsResourceExhausted()) {
    // Row grew: relocate it. All index entries must follow the new RID.
    RELGRAPH_RETURN_IF_ERROR(DeleteIndexEntriesFor(old_tuple, ref.rid));
    RELGRAPH_RETURN_IF_ERROR(heap_.Delete(ref.rid));
    RELGRAPH_RETURN_IF_ERROR(heap_.Insert(new_bytes, &rid));
    RELGRAPH_RETURN_IF_ERROR(InsertIndexEntriesFor(tuple, rid));
    return Status::OK();
  }
  RELGRAPH_RETURN_IF_ERROR(st);
  // In-place update: refresh only the indexes whose key changed.
  for (auto& idx : indexes_) {
    const Value& oldv = old_tuple.value(idx.column_idx);
    const Value& newv = tuple.value(idx.column_idx);
    if (oldv.Compare(newv) == 0) continue;
    if (!oldv.IsNull()) {
      BtKey key{oldv.AsInt(), idx.unique ? 0 : RidTie(rid)};
      RELGRAPH_RETURN_IF_ERROR(idx.tree.Delete(key));
    }
    if (!newv.IsNull()) {
      BtKey key{newv.AsInt(), idx.unique ? 0 : RidTie(rid)};
      RELGRAPH_RETURN_IF_ERROR(idx.tree.Insert(key, EncodeRid(rid), idx.unique));
    }
  }
  return Status::OK();
}

Status Table::DeleteRow(const RowRef& ref) {
  if (options_.storage == TableStorage::kClustered) {
    if (!indexes_.empty()) {
      std::string payload;
      RELGRAPH_RETURN_IF_ERROR(clustered_.SearchExact(ref.key, &payload));
      Tuple tuple;
      RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, payload, &tuple));
      RELGRAPH_RETURN_IF_ERROR(
          DeleteClusteredIndexEntriesFor(tuple, ref.key));
    }
    RELGRAPH_RETURN_IF_ERROR(clustered_.Delete(ref.key));
    num_rows_--;
    return Status::OK();
  }
  std::string bytes;
  RELGRAPH_RETURN_IF_ERROR(heap_.Get(ref.rid, &bytes));
  Tuple tuple;
  RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, bytes, &tuple));
  RELGRAPH_RETURN_IF_ERROR(DeleteIndexEntriesFor(tuple, ref.rid));
  RELGRAPH_RETURN_IF_ERROR(heap_.Delete(ref.rid));
  num_rows_--;
  return Status::OK();
}

Table::Iterator Table::Scan() {
  Iterator it;
  it.table_ = this;
  it.full_scan_ = true;
  if (options_.storage == TableStorage::kClustered) {
    it.kind_ = Iterator::Kind::kClustered;
    it.bt_it_ = clustered_.ScanAll();
  } else {
    it.kind_ = Iterator::Kind::kHeap;
    it.heap_it_ = heap_.Scan();
  }
  return it;
}

Status Table::ScanRange(const std::string& column, int64_t lo, int64_t hi,
                        Iterator* out) {
  // Fields are assigned in place: callers that re-open one iterator per
  // probe (the index nested-loop join) keep its row buffer's capacity.
  out->table_ = this;
  out->full_scan_ = false;
  out->filter_col_ = -1;
  if (options_.storage == TableStorage::kClustered &&
      column == options_.cluster_key) {
    out->kind_ = Iterator::Kind::kClustered;
    out->bt_it_ = clustered_.Scan(lo, hi);
    return Status::OK();
  }
  for (auto& idx : indexes_) {
    if (idx.column != column) continue;
    out->kind_ = Iterator::Kind::kSecondary;
    out->bt_it_ = idx.tree.Scan(lo, hi);
    return Status::OK();
  }
  const int col = schema_.Find(column);
  if (col < 0) return Status::InvalidArgument("no column " + column);
  if (schema_.column(col).type == TypeId::kVarchar) {
    return Status::InvalidArgument("no integer range on VARCHAR " + column);
  }
  *out = Scan();
  out->filter_col_ = col;
  out->lo_ = lo;
  out->hi_ = hi;
  return Status::OK();
}

bool Table::Iterator::InRange(const Tuple& tuple) const {
  const Value& v = tuple.value(static_cast<size_t>(filter_col_));
  if (v.IsNull()) return false;
  if (v.type() == TypeId::kInt) return v.AsInt() >= lo_ && v.AsInt() <= hi_;
  const double d = v.AsNumeric();
  return d >= static_cast<double>(lo_) && d <= static_cast<double>(hi_);
}

bool Table::Iterator::Next(Tuple* tuple, RowRef* ref) {
  switch (kind_) {
    case Kind::kHeap: {
      Rid rid;
      do {
        if (!heap_it_.Next(&rid, &buffer_)) {
          status_ = heap_it_.status();
          return false;
        }
        status_ = Tuple::Deserialize(table_->schema_, buffer_, tuple);
        if (!status_.ok()) return false;
        table_->access_stats_.full_scan_rows.fetch_add(
            1, std::memory_order_relaxed);
      } while (filter_col_ >= 0 && !InRange(*tuple));
      if (ref != nullptr) ref->rid = rid;
      return true;
    }
    case Kind::kClustered: {
      BtKey key;
      do {
        if (!bt_it_.Next(&key, &buffer_)) {
          status_ = bt_it_.status();
          return false;
        }
        status_ = Tuple::Deserialize(table_->schema_, buffer_, tuple);
        if (!status_.ok()) return false;
        (full_scan_ ? table_->access_stats_.full_scan_rows
                    : table_->access_stats_.index_scan_rows)
            .fetch_add(1, std::memory_order_relaxed);
      } while (filter_col_ >= 0 && !InRange(*tuple));
      if (ref != nullptr) ref->key = key;
      return true;
    }
    case Kind::kSecondary: {
      BtKey key;
      std::string payload;
      if (!bt_it_.Next(&key, &payload)) {
        status_ = bt_it_.status();
        return false;
      }
      if (table_->options_.storage == TableStorage::kClustered) {
        // Payload names the row's cluster key; fetch it from the base tree.
        BtKey base{DecodeClusterKey(payload), 0};
        status_ = table_->clustered_.SearchExact(base, &buffer_);
        if (!status_.ok()) return false;
        status_ = Tuple::Deserialize(table_->schema_, buffer_, tuple);
        if (!status_.ok()) return false;
        if (ref != nullptr) ref->key = base;
        table_->access_stats_.index_scan_rows.fetch_add(
            1, std::memory_order_relaxed);
        return true;
      }
      Rid rid = DecodeRid(payload);
      status_ = table_->heap_.Get(rid, &buffer_);
      if (!status_.ok()) return false;
      status_ = Tuple::Deserialize(table_->schema_, buffer_, tuple);
      if (!status_.ok()) return false;
      if (ref != nullptr) ref->rid = rid;
      table_->access_stats_.index_scan_rows.fetch_add(
          1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

Status Table::Destroy() {
  if (options_.storage == TableStorage::kClustered) {
    RELGRAPH_RETURN_IF_ERROR(clustered_.Destroy());
  } else {
    RELGRAPH_RETURN_IF_ERROR(heap_.Destroy());
  }
  for (auto& idx : indexes_) {
    RELGRAPH_RETURN_IF_ERROR(idx.tree.Destroy());
  }
  return Status::OK();
}

Status Table::Truncate() {
  RELGRAPH_RETURN_IF_ERROR(Destroy());
  num_rows_ = 0;
  next_tie_ = 1;
  if (options_.storage == TableStorage::kClustered) {
    RELGRAPH_RETURN_IF_ERROR(BTree::Create(
        pool_, static_cast<uint16_t>(fixed_width_), &clustered_));
  } else {
    RELGRAPH_RETURN_IF_ERROR(HeapFile::Create(pool_, &heap_));
  }
  for (auto& idx : indexes_) {
    RELGRAPH_RETURN_IF_ERROR(BTree::Create(pool_, 8, &idx.tree));
  }
  return Status::OK();
}

}  // namespace relgraph
