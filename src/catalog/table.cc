#include "src/catalog/table.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <utility>

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

/// Record buffer of the point reads (LookupUnique, ReadRow): one per
/// thread, since shard tables serve concurrent readers, and kept across
/// calls so a read allocates nothing once warm.
std::string& ReadBuffer() {
  thread_local std::string buffer;
  return buffer;
}

/// An open tree files a row at flag * kOpenFlagStride + dist: exact and
/// order-preserving for flag in {0, 1, 2} and 0 <= dist < kInfinity.
constexpr int64_t kOpenFlagStride = int64_t{1} << 61;
static_assert(kInfinity <= kOpenFlagStride,
              "open-tree distances must fit below the flag stride");

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

Status Table::ExportState(TablePersistentState* out) const {
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
    if (idx.open()) {
      return Status::NotSupported("table " + name_ + " has open tree " +
                                  idx.name +
                                  ", which a snapshot manifest cannot record");
    }
    TablePersistentState::IndexState is;
    is.name = idx.name;
    is.column = idx.column;
    is.unique = idx.unique;
    is.root = idx.tree.root();
    is.entries = idx.tree.num_entries();
    st.indexes.push_back(std::move(is));
  }
  *out = std::move(st);
  return Status::OK();
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
  if (indexes_.empty()) return Status::OK();
  for (const auto& idx : indexes_) {
    RELGRAPH_RETURN_IF_ERROR(idx.tree.CheckIntegrity());
  }
  // Every indexable row has its entry, naming it; equal counts then leave
  // no room for a stray entry. The storage walk above bounds this scan.
  std::vector<int64_t> indexable(indexes_.size(), 0);
  std::vector<std::array<int64_t, 3>> tails(indexes_.size());
  std::string payload;
  RELGRAPH_RETURN_IF_ERROR(
      ForEachRow([&](const Tuple& row, const RowRef& ref) -> Status {
        for (size_t i = 0; i < indexes_.size(); i++) {
          const SecondaryIndex& idx = indexes_[i];
          if (const int flag = idx.TailFlag(row); flag >= 0) tails[i][flag]++;
          int64_t key;
          if (!idx.KeyOf(row, &key)) continue;
          indexable[i]++;
          Status found =
              idx.tree.SearchExact(EntryOf(idx, key, ref), &payload);
          if (found.IsNotFound() ||
              (found.ok() && payload != PayloadOf(ref))) {
            return Status::Corruption("table " + name_ + ": index " +
                                      idx.name +
                                      " lacks the entry of a row with key " +
                                      std::to_string(key));
          }
          RELGRAPH_RETURN_IF_ERROR(found);
        }
        return Status::OK();
      }));
  for (size_t i = 0; i < indexes_.size(); i++) {
    if (indexes_[i].tree.num_entries() != indexable[i]) {
      return Status::Corruption(
          "table " + name_ + ": index " + indexes_[i].name + " has " +
          std::to_string(indexes_[i].tree.num_entries()) + " entries for " +
          std::to_string(indexable[i]) + " indexable rows");
    }
    if (indexes_[i].tail != tails[i]) {
      return Status::Corruption("table " + name_ + ": open tree " +
                                indexes_[i].name +
                                " miscounts its kInfinity rows");
    }
  }
  return Status::OK();
}

std::string_view Table::SerializeRow(const Tuple& tuple) {
  tuple.SerializeTo(schema_, &row_buffer_);
  if (options_.storage == TableStorage::kClustered) {
    // NULL columns shrink the serialization below the fixed width; pad so
    // the tree's fixed-size payload contract holds (padding is ignored on
    // read).
    row_buffer_.resize(fixed_width_, 0);
  }
  return row_buffer_;
}

Status Table::Insert(const Tuple& tuple, RowRef* ref) {
  if (tuple.NumValues() != schema_.NumColumns()) {
    return Status::InvalidArgument("arity mismatch on insert into " + name_);
  }
  RELGRAPH_RETURN_IF_ERROR(CheckOpenDomain(tuple));
  RowRef at;
  if (options_.storage == TableStorage::kClustered) {
    const Value& keyval = tuple.value(cluster_key_idx_);
    if (keyval.IsNull()) {
      return Status::InvalidArgument("NULL cluster key");
    }
    at.key = BtKey{keyval.AsInt(), options_.cluster_unique ? 0 : next_tie_++};
    RELGRAPH_RETURN_IF_ERROR(clustered_.Insert(
        at.key, SerializeRow(tuple), options_.cluster_unique));
  } else {
    // Uniqueness must be checked before touching the heap so a duplicate
    // key does not leave an orphan row.
    for (auto& idx : indexes_) {
      if (!idx.unique) continue;
      const Value& v = tuple.value(idx.column_idx);
      if (v.IsNull()) continue;
      BtKey probe{v.AsInt(), 0};
      if (idx.tree.SearchExact(probe, &ReadBuffer()).ok()) {
        return Status::AlreadyExists("duplicate key on index " + idx.column);
      }
    }
    RELGRAPH_RETURN_IF_ERROR(heap_.Insert(SerializeRow(tuple), &at.rid));
  }
  RELGRAPH_RETURN_IF_ERROR(InsertIndexEntries(tuple, at));
  num_rows_++;
  if (ref != nullptr) *ref = at;
  return Status::OK();
}

bool Table::SecondaryIndex::KeyOf(const Tuple& tuple, int64_t* key) const {
  const Value& v = tuple.value(column_idx);
  if (v.IsNull()) return false;  // NULLs are not indexed
  if (!open()) {
    *key = v.AsInt();
    return true;
  }
  if (v.AsInt() >= kInfinity) return false;  // counted in the tail instead
  *key = tuple.value(static_cast<size_t>(prefix_idx)).AsInt() *
             kOpenFlagStride +
         v.AsInt();
  return true;
}

int Table::SecondaryIndex::TailFlag(const Tuple& tuple) const {
  if (!open()) return -1;
  const Value& dist = tuple.value(column_idx);
  const Value& flag = tuple.value(static_cast<size_t>(prefix_idx));
  // Writes admit only domain rows; the bounds keep a damaged row read by
  // CheckConsistency from indexing past the counts.
  if (dist.IsNull() || dist.AsInt() != kInfinity || flag.IsNull() ||
      flag.AsInt() < 0 || flag.AsInt() > 2) {
    return -1;
  }
  return static_cast<int>(flag.AsInt());
}

Status Table::CheckOpenDomain(const Tuple& tuple) const {
  for (const auto& idx : indexes_) {
    if (!idx.open()) continue;
    const Value& flag = tuple.value(static_cast<size_t>(idx.prefix_idx));
    const Value& dist = tuple.value(idx.column_idx);
    if (flag.IsNull() || dist.IsNull() || flag.AsInt() < 0 ||
        flag.AsInt() > 2 || dist.AsInt() < 0 || dist.AsInt() > kInfinity) {
      return Status::InvalidArgument(
          "row of " + name_ + " is outside open tree " + idx.name +
          ": needs flag in {0, 1, 2} and dist in [0, kInfinity], got (" +
          flag.ToString() + ", " + dist.ToString() + ")");
    }
  }
  return Status::OK();
}

// Secondary entries over a heap name the row by RID; over a clustered table
// by its (unique) cluster key, which also orders duplicates.
int64_t Table::TieOf(const RowRef& ref) const {
  return options_.storage == TableStorage::kClustered ? ref.key.key
                                                      : RidTie(ref.rid);
}

std::string Table::PayloadOf(const RowRef& ref) const {
  return options_.storage == TableStorage::kClustered
             ? EncodeClusterKey(ref.key.key)
             : EncodeRid(ref.rid);
}

Status Table::InsertIndexEntries(const Tuple& tuple, const RowRef& ref) {
  for (auto& idx : indexes_) {
    int64_t key;
    if (!idx.KeyOf(tuple, &key)) {
      idx.CountTail(tuple, 1);
      continue;
    }
    RELGRAPH_RETURN_IF_ERROR(
        idx.tree.Insert(EntryOf(idx, key, ref), PayloadOf(ref), idx.unique));
  }
  return Status::OK();
}

Status Table::DeleteIndexEntries(const Tuple& tuple, const RowRef& ref) {
  for (auto& idx : indexes_) {
    int64_t key;
    if (!idx.KeyOf(tuple, &key)) {
      idx.CountTail(tuple, -1);
      continue;
    }
    RELGRAPH_RETURN_IF_ERROR(idx.tree.Delete(EntryOf(idx, key, ref)));
  }
  return Status::OK();
}

Status Table::UpdateIndexEntries(const Tuple& old_tuple, const Tuple& tuple,
                                 const RowRef& ref) {
  for (auto& idx : indexes_) {
    int64_t old_key = 0, new_key = 0;
    const bool had = idx.KeyOf(old_tuple, &old_key);
    const bool has = idx.KeyOf(tuple, &new_key);
    if (!had) idx.CountTail(old_tuple, -1);
    if (!has) idx.CountTail(tuple, 1);
    if (had == has && old_key == new_key) continue;
    if (had) {
      RELGRAPH_RETURN_IF_ERROR(idx.tree.Delete(EntryOf(idx, old_key, ref)));
    }
    if (has) {
      RELGRAPH_RETURN_IF_ERROR(idx.tree.Insert(EntryOf(idx, new_key, ref),
                                               PayloadOf(ref), idx.unique));
    }
  }
  return Status::OK();
}

Status Table::CreateSecondaryIndex(const std::string& column, bool unique,
                                   const std::string& name) {
  if (options_.storage == TableStorage::kClustered &&
      column == options_.cluster_key) {
    return Status::AlreadyExists("cluster key already indexes " + column);
  }
  for (const auto& existing : indexes_) {
    if (!existing.open() && existing.column == column) {
      return Status::AlreadyExists("index on " + column + " already exists");
    }
  }
  SecondaryIndex si;
  si.name = name.empty() ? column : name;
  si.column = column;
  si.unique = unique;
  return AddIndex(std::move(si));
}

Status Table::CreateOpenIndex(const std::string& flag_column,
                              const std::string& dist_column,
                              const std::string& name) {
  const int flag = schema_.Find(flag_column);
  if (flag < 0) return Status::InvalidArgument("no column " + flag_column);
  if (schema_.column(flag).type != TypeId::kInt) {
    return Status::NotSupported("only INT columns can be indexed");
  }
  if (flag_column == dist_column) {
    return Status::InvalidArgument("open tree names column " + flag_column +
                                   " twice");
  }
  SecondaryIndex si;
  si.name = name.empty() ? flag_column + "_" + dist_column : name;
  for (const auto& existing : indexes_) {
    if (existing.name == si.name ||
        (existing.prefix_idx == flag && existing.column == dist_column)) {
      return Status::AlreadyExists("index " + si.name + " already exists");
    }
  }
  si.column = dist_column;
  si.unique = false;
  si.prefix_idx = flag;
  return AddIndex(std::move(si));
}

// Validates `si.column`, builds the tree and backfills existing rows; an
// open tree first checks that every row lies in its key domain.
Status Table::AddIndex(SecondaryIndex si) {
  if (options_.storage == TableStorage::kClustered &&
      !options_.cluster_unique) {
    return Status::NotSupported(
        "secondary indexes on clustered tables require a unique cluster key");
  }
  int idx = schema_.Find(si.column);
  if (idx < 0) return Status::InvalidArgument("no column " + si.column);
  if (schema_.column(idx).type != TypeId::kInt) {
    return Status::NotSupported("only INT columns can be indexed");
  }
  si.column_idx = static_cast<size_t>(idx);
  RELGRAPH_RETURN_IF_ERROR(BTree::Create(pool_, 8, &si.tree));
  indexes_.push_back(std::move(si));
  SecondaryIndex& added = indexes_.back();
  // Entries go in sorted by key, so the tree's rightmost splits pack it.
  std::vector<std::pair<BtKey, std::string>> entries;
  Status st = ForEachRow([&](const Tuple& tuple, const RowRef& ref) {
    RELGRAPH_RETURN_IF_ERROR(CheckOpenDomain(tuple));
    int64_t key;
    if (added.KeyOf(tuple, &key)) {
      entries.emplace_back(EntryOf(added, key, ref), PayloadOf(ref));
    } else {
      added.CountTail(tuple, 1);
    }
    return Status::OK();
  });
  if (st.ok()) {
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [entry, payload] : entries) {
      st = added.tree.Insert(entry, payload, added.unique);
      if (!st.ok()) break;
    }
  }
  if (!st.ok()) {
    // A failed build leaves no definition behind; its pages go back.
    (void)added.tree.Destroy();
    indexes_.pop_back();
  }
  return st;
}

Status Table::ForEachRow(
    const std::function<Status(const Tuple&, const RowRef&)>& fn) const {
  std::string record;
  Tuple tuple;
  RowRef ref;
  if (options_.storage == TableStorage::kClustered) {
    BTree::Iterator it = clustered_.ScanAll();
    while (it.Next(&ref.key, &record)) {
      RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, record, &tuple));
      RELGRAPH_RETURN_IF_ERROR(fn(tuple, ref));
    }
    return it.status();
  }
  HeapFile::Iterator it = heap_.Scan();
  while (it.Next(&ref.rid, &record)) {
    RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, record, &tuple));
    RELGRAPH_RETURN_IF_ERROR(fn(tuple, ref));
  }
  return it.status();
}

Status Table::DropSecondaryIndex(const std::string& name) {
  for (int pass = 0; pass < 2; pass++) {  // by name first, then by column
    for (size_t i = 0; i < indexes_.size(); i++) {
      const SecondaryIndex& idx = indexes_[i];
      if (pass == 0 ? idx.name == name
                    : !idx.open() && idx.column == name) {
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
    if (!idx.open() && idx.column == column) return true;
  }
  return false;
}

std::string Table::OpenTreeDist(const std::string& flag_column) const {
  const int flag = schema_.Find(flag_column);
  for (const auto& idx : indexes_) {
    if (flag >= 0 && idx.prefix_idx == flag) return idx.column;
  }
  return std::string();
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
    std::string& payload = ReadBuffer();
    RELGRAPH_RETURN_IF_ERROR(clustered_.SearchExact(k, &payload));
    RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, payload, out));
    if (ref != nullptr) ref->key = k;
    return Status::OK();
  }
  for (auto& idx : indexes_) {
    if (idx.open() || idx.column != column) continue;
    if (!idx.unique) {
      return Status::InvalidArgument("index on " + column + " is not unique");
    }
    std::string& record = ReadBuffer();
    RELGRAPH_RETURN_IF_ERROR(idx.tree.SearchExact(BtKey{key, 0}, &record));
    if (options_.storage == TableStorage::kClustered) {
      BtKey k{DecodeClusterKey(record), 0};
      RELGRAPH_RETURN_IF_ERROR(clustered_.SearchExact(k, &record));
      RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, record, out));
      if (ref != nullptr) ref->key = k;
      return Status::OK();
    }
    Rid rid = DecodeRid(record);
    RELGRAPH_RETURN_IF_ERROR(heap_.Get(rid, &record));
    RELGRAPH_RETURN_IF_ERROR(Tuple::Deserialize(schema_, record, out));
    if (ref != nullptr) ref->rid = rid;
    return Status::OK();
  }
  return Status::InvalidArgument("no unique index on " + column);
}

Status Table::ReadRow(const RowRef& ref, Tuple* out) const {
  std::string& record = ReadBuffer();
  if (options_.storage == TableStorage::kClustered) {
    RELGRAPH_RETURN_IF_ERROR(clustered_.SearchExact(ref.key, &record));
  } else {
    RELGRAPH_RETURN_IF_ERROR(heap_.Get(ref.rid, &record));
  }
  return Tuple::Deserialize(schema_, record, out);
}

Status Table::UpdateRow(const RowRef& ref, const Tuple& old_tuple,
                        const Tuple& tuple) {
  if (tuple.NumValues() != schema_.NumColumns()) {
    return Status::InvalidArgument("arity mismatch on update of " + name_);
  }
  RELGRAPH_RETURN_IF_ERROR(CheckOpenDomain(tuple));
  if (options_.storage == TableStorage::kClustered) {
    const Value& keyval = tuple.value(cluster_key_idx_);
    if (keyval.IsNull() || keyval.AsInt() != ref.key.key) {
      return Status::NotSupported("cluster key is immutable under update");
    }
    RELGRAPH_RETURN_IF_ERROR(
        clustered_.UpdatePayload(ref.key, SerializeRow(tuple)));
    return UpdateIndexEntries(old_tuple, tuple, ref);
  }
  const std::string_view new_bytes = SerializeRow(tuple);
  Status st = heap_.Update(ref.rid, new_bytes);
  if (st.IsResourceExhausted()) {
    // Row grew: relocate it. All index entries must follow the new RID.
    RELGRAPH_RETURN_IF_ERROR(DeleteIndexEntries(old_tuple, ref));
    RELGRAPH_RETURN_IF_ERROR(heap_.Delete(ref.rid));
    RowRef moved;
    RELGRAPH_RETURN_IF_ERROR(heap_.Insert(new_bytes, &moved.rid));
    return InsertIndexEntries(tuple, moved);
  }
  RELGRAPH_RETURN_IF_ERROR(st);
  // In-place update: refresh only the entries whose key changed.
  return UpdateIndexEntries(old_tuple, tuple, ref);
}

Status Table::DeleteRow(const RowRef& ref) {
  if (!indexes_.empty()) {
    Tuple tuple;
    RELGRAPH_RETURN_IF_ERROR(ReadRow(ref, &tuple));
    RELGRAPH_RETURN_IF_ERROR(DeleteIndexEntries(tuple, ref));
  }
  if (options_.storage == TableStorage::kClustered) {
    RELGRAPH_RETURN_IF_ERROR(clustered_.Delete(ref.key));
  } else {
    RELGRAPH_RETURN_IF_ERROR(heap_.Delete(ref.rid));
  }
  num_rows_--;
  return Status::OK();
}

Table::Iterator Table::Scan() {
  Iterator it;
  StartScan(&it);
  return it;
}

void Table::StartScan(Iterator* out) {
  // Fields are assigned in place, keeping the iterator's row buffer.
  out->table_ = this;
  out->full_scan_ = true;
  out->filter_col_ = -1;
  out->prefix_col_ = -1;
  out->tail_ = false;
  if (options_.storage == TableStorage::kClustered) {
    out->kind_ = Iterator::Kind::kClustered;
    out->bt_it_ = clustered_.ScanAll();
  } else {
    out->kind_ = Iterator::Kind::kHeap;
    out->heap_it_ = heap_.Scan();
  }
}

Status Table::ScanRange(const std::string& column, int64_t lo, int64_t hi,
                        Iterator* out) {
  // Fields are assigned in place: callers that re-open one iterator per
  // probe (the index nested-loop join) keep its row buffer's capacity.
  out->table_ = this;
  out->full_scan_ = false;
  out->filter_col_ = -1;
  out->prefix_col_ = -1;
  out->tail_ = false;
  if (options_.storage == TableStorage::kClustered &&
      column == options_.cluster_key) {
    out->kind_ = Iterator::Kind::kClustered;
    out->bt_it_ = clustered_.Scan(lo, hi);
    return Status::OK();
  }
  for (auto& idx : indexes_) {
    if (idx.open() || idx.column != column) continue;
    out->kind_ = Iterator::Kind::kSecondary;
    out->bt_it_ = idx.tree.Scan(lo, hi);
    return Status::OK();
  }
  return FilteredScan(-1, 0, column, lo, hi, out);
}

Status Table::ScanRange(const std::string& prefix_column, int64_t prefix,
                        const std::string& column, int64_t lo, int64_t hi,
                        Iterator* out) {
  const int prefix_col = schema_.Find(prefix_column);
  if (prefix_col < 0) {
    return Status::InvalidArgument("no column " + prefix_column);
  }
  for (auto& idx : indexes_) {
    if (idx.prefix_idx != prefix_col || idx.column != column) continue;
    // The domain holds flags 0..2 and dists 0..kInfinity: the tree's
    // entries cover every dist below kInfinity, its tail count the rest.
    out->table_ = this;
    out->full_scan_ = false;
    out->kind_ = Iterator::Kind::kSecondary;
    const bool flag_in_domain = prefix >= 0 && prefix <= 2;
    const int64_t tree_lo = std::max<int64_t>(lo, 0);
    const int64_t tree_hi = std::min(hi, kInfinity - 1);
    if (flag_in_domain && tree_lo <= tree_hi) {
      const int64_t base = prefix * kOpenFlagStride;
      out->bt_it_ = idx.tree.Scan(base + tree_lo, base + tree_hi);
    } else {
      out->bt_it_ = idx.tree.Scan(1, 0);  // no entry in range
    }
    out->tail_ = flag_in_domain && lo <= kInfinity && hi >= kInfinity &&
                 idx.tail[static_cast<size_t>(prefix)] > 0;
    out->filter_col_ = static_cast<int>(idx.column_idx);
    out->prefix_col_ = prefix_col;
    out->lo_ = out->hi_ = kInfinity;
    out->prefix_ = prefix;
    return Status::OK();
  }
  return FilteredScan(prefix_col, prefix, column, lo, hi, out);
}

Status Table::FirstInRange(const std::string& prefix_column, int64_t prefix,
                           const std::string& column, int64_t lo, int64_t hi,
                           Iterator* it, Tuple* out, bool* found) {
  RELGRAPH_RETURN_IF_ERROR(
      ScanRange(prefix_column, prefix, column, lo, hi, it));
  *found = false;
  if (!it->full_scan_) {  // the tree yields its rows in `column` order
    *found = it->Next(out, nullptr);
    return it->status();
  }
  const size_t col = static_cast<size_t>(it->filter_col_);
  Tuple t;
  while (it->Next(&t, nullptr)) {
    if (!*found || t.value(col) < out->value(col)) {
      *out = t;
      *found = true;
    }
  }
  return it->status();
}

Status Table::FilteredScan(int prefix_col, int64_t prefix,
                           const std::string& column, int64_t lo, int64_t hi,
                           Iterator* out) {
  const int col = schema_.Find(column);
  if (col < 0) return Status::InvalidArgument("no column " + column);
  for (int c : {prefix_col, col}) {
    if (c >= 0 && schema_.column(c).type == TypeId::kVarchar) {
      return Status::InvalidArgument("no integer range on VARCHAR " +
                                     schema_.column(c).name);
    }
  }
  StartScan(out);
  out->filter_col_ = col;
  out->prefix_col_ = prefix_col;
  out->lo_ = lo;
  out->hi_ = hi;
  out->prefix_ = prefix;
  return Status::OK();
}

bool Table::Iterator::InRange(const Tuple& tuple) const {
  if (prefix_col_ >= 0) {
    const Value& p = tuple.value(static_cast<size_t>(prefix_col_));
    if (p.IsNull()) return false;
    const bool equal = p.type() == TypeId::kInt
                           ? p.AsInt() == prefix_
                           : p.AsNumeric() == static_cast<double>(prefix_);
    if (!equal) return false;
  }
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
        if (!status_.ok() || !tail_) return false;
        // The tree's entries are read; the flag's kInfinity rows, which it
        // does not store, follow in Scan() order (the filter set up by
        // ScanRange survives the switch).
        const int filter_col = filter_col_, prefix_col = prefix_col_;
        table_->StartScan(this);
        filter_col_ = filter_col;
        prefix_col_ = prefix_col;
        return Next(tuple, ref);
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
    idx.tail = {};
  }
  return Status::OK();
}

}  // namespace relgraph
