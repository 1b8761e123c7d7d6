#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/config.h"
#include "src/common/status.h"
#include "src/index/btree.h"
#include "src/storage/heap_file.h"
#include "src/types/tuple.h"

namespace relgraph {

/// Physical organization of a table — the paper's Figure 8(c) index
/// strategies map onto these:
///  - kHeap + no index        = "NoIndex"
///  - kHeap + secondary index = "Index" (non-clustered B+-tree -> RID)
///  - kClustered              = "CluIndex" (rows live in B+-tree leaves,
///                               ordered by the cluster key)
enum class TableStorage { kHeap, kClustered };

struct TableOptions {
  TableStorage storage = TableStorage::kHeap;
  /// Column the clustered tree is keyed on (kClustered only).
  std::string cluster_key;
  /// Reject duplicate cluster keys (e.g. TVisited clustered on nid).
  bool cluster_unique = false;
};

/// Stable reference to a row, valid until that row is deleted or moved by a
/// growing update. Heap rows are addressed by RID; clustered rows by their
/// B+-tree key.
struct RowRef {
  Rid rid;      // heap storage
  BtKey key;    // clustered storage
};

/// Row-access accounting, split by access path. The FEM hot-loop work is
/// asserted scan-free against these counters (no full-table row reads in the
/// auxiliary statements), and benches can report physical row traffic.
/// Atomic because shard-local tables serve concurrent reader connections
/// under the distributed coordinator; relaxed tallies, nothing orders on
/// them.
struct TableAccessStats {
  std::atomic<int64_t> full_scan_rows{0};   // rows read by a full scan
  std::atomic<int64_t> index_scan_rows{0};  // rows read through an index
  std::atomic<int64_t> point_lookups{0};    // LookupUnique() probes

  void Reset() {
    full_scan_rows.store(0, std::memory_order_relaxed);
    index_scan_rows.store(0, std::memory_order_relaxed);
    point_lookups.store(0, std::memory_order_relaxed);
  }
};

/// Persisted identity of a table: everything a snapshot manifest must
/// record to re-attach the table over an existing page file. Page ids here
/// refer to pages of the file the table lives in; payload widths are not
/// stored because they are derivable (secondary payloads are always 8
/// bytes, clustered payloads are FixedWidth(schema)).
struct TablePersistentState {
  std::string name;
  Schema schema;
  TableOptions options;
  int64_t num_rows = 0;
  int64_t next_tie = 1;
  page_id_t heap_first = kInvalidPageId;  // kHeap storage
  page_id_t heap_last = kInvalidPageId;
  page_id_t clustered_root = kInvalidPageId;  // kClustered storage
  int64_t clustered_entries = 0;
  struct IndexState {
    std::string name;
    std::string column;
    bool unique = false;
    page_id_t root = kInvalidPageId;
    int64_t entries = 0;
  };
  std::vector<IndexState> indexes;
};

/// A relational table: schema + physical storage + secondary indexes.
/// Indexed columns must be INT (node ids, distances, flags — everything the
/// graph workloads index). All mutations keep secondary indexes consistent.
class Table {
 public:
  /// Creating tables goes through Catalog; tests may call this directly.
  static Status Create(BufferPool* pool, std::string name, Schema schema,
                       TableOptions options, std::unique_ptr<Table>* out);

  /// Captures the table's persisted identity for a snapshot manifest.
  TablePersistentState ExportState() const;

  /// Reconstructs a table over `pool` from a previously exported state
  /// (the pages the state's ids reference must already exist in the
  /// pool's backing file). Validates the state against the schema —
  /// missing or non-INT cluster/index columns are Corruption, since they
  /// can only come from a damaged or forged manifest. Structural
  /// validation of the referenced pages is separate (CheckConsistency /
  /// CheckIntegrity); snapshot loading runs both.
  static Status Attach(BufferPool* pool, const TablePersistentState& state,
                       std::unique_ptr<Table>* out);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const TableOptions& options() const { return options_; }
  int64_t num_rows() const { return num_rows_; }

  /// Inserts a row; `ref` (optional) receives its stable reference.
  Status Insert(const Tuple& tuple, RowRef* ref = nullptr);

  /// Builds a non-clustered B+-tree on `column` (must be INT). Existing rows
  /// are indexed immediately. `unique` rejects duplicates.
  ///
  /// Heap tables index `column -> RID`. Clustered tables (which must have a
  /// *unique* cluster key) index `column -> cluster key`, so an index probe
  /// costs one extra tree descent — the classic secondary-on-clustered
  /// layout. All mutations keep both kinds consistent.
  /// `name` is the SQL-level index name (CREATE INDEX <name> ...); it is
  /// only used to resolve DROP INDEX and defaults to the column name.
  Status CreateSecondaryIndex(const std::string& column, bool unique,
                              const std::string& name = std::string());

  /// Drops the secondary index named `name` (falling back to a column
  /// match, since the engine keys indexes by column) and frees its tree's
  /// pages. The cluster tree is the table's storage and cannot be dropped.
  /// A tree that fails its Destroy walk is still dropped; its pages leak
  /// and the walk's status is returned.
  Status DropSecondaryIndex(const std::string& name);

  /// True when lookups on `column` can use an index (secondary or cluster).
  bool HasIndexOn(const std::string& column) const;

  /// Point lookup through a *unique* access path on `column`.
  Status LookupUnique(const std::string& column, int64_t key, Tuple* out,
                      RowRef* ref);

  /// Overwrites the row at `ref`. The new tuple must keep the cluster key
  /// unchanged for clustered tables.
  Status UpdateRow(const RowRef& ref, const Tuple& tuple);

  Status DeleteRow(const RowRef& ref);

  /// Streaming reader. `Scan()` visits every row (cluster-key order for
  /// clustered tables, physical order for heaps).
  class Iterator {
   public:
    bool Next(Tuple* tuple, RowRef* ref);
    const Status& status() const { return status_; }

   private:
    friend class Table;
    enum class Kind { kHeap, kClustered, kSecondary };
    /// Filtered full scan: whether the row's filter column is in range.
    bool InRange(const Tuple& tuple) const;

    Table* table_ = nullptr;
    Kind kind_ = Kind::kHeap;
    bool full_scan_ = false;  // full scan vs index probe, for access stats
    int filter_col_ = -1;     // >= 0: yield only rows with lo_ <= col <= hi_
    int64_t lo_ = 0, hi_ = 0;
    HeapFile::Iterator heap_it_;
    BTree::Iterator bt_it_;
    Status status_;
    std::string buffer_;  // reused across rows (hot path of every scan)
  };

  Iterator Scan();

  /// Visits the rows with lo <= column <= hi, for any INT or DOUBLE column;
  /// NULLs never match and lo > hi matches nothing. This is the one
  /// key-range access path, and the table picks how to serve it: through
  /// the cluster tree or a secondary index when `column` has one (rows
  /// counted under `index_scan_rows`, in key order), otherwise as a full
  /// scan that skips rows out of range (every row read counted under
  /// `full_scan_rows`, in Scan() order).
  /// InvalidArgument for a column the table does not have or a VARCHAR one.
  Status ScanRange(const std::string& column, int64_t lo, int64_t hi,
                   Iterator* out);

  /// Removes every row but keeps schema and index definitions (the
  /// algorithms reset TVisited between queries with this). The old pages
  /// are freed for reuse (Destroy) before fresh, empty structures are
  /// built, so a per-query truncate costs no file growth.
  Status Truncate();

  /// Frees every page of the table's storage and secondary indexes via
  /// HeapFile/BTree::Destroy, leaving each structure detached; only
  /// Truncate or the table's destruction may follow. Structures are freed
  /// one at a time: on a walk failure (Corruption, IOError) the ones not
  /// yet freed stay intact, and a retry skips the detached ones.
  Status Destroy();

  /// Serialized width of this table's rows, if fixed (no VARCHAR columns).
  static size_t FixedWidth(const Schema& schema);

  /// Structural validation of the table's storage: heap chain or clustered
  /// tree invariants, secondary-index tree invariants, and the stored row
  /// count against the live-record count. Returns Status::Corruption on
  /// the first violation. Safe against corrupted pages (bounded walks,
  /// never out-of-bounds); the snapshot loader and relgraph_fsck run this.
  Status CheckConsistency() const;

  const TableAccessStats& access_stats() const { return access_stats_; }
  void ResetAccessStats() { access_stats_.Reset(); }

 private:
  Table() = default;

  struct SecondaryIndex {
    std::string name;  // SQL-level index name (DROP INDEX resolves on it)
    std::string column;
    size_t column_idx;
    bool unique;
    BTree tree;
  };

  Status InsertIndexEntriesFor(const Tuple& tuple, const Rid& rid);
  Status DeleteIndexEntriesFor(const Tuple& tuple, const Rid& rid);
  Status InsertClusteredIndexEntriesFor(const Tuple& tuple, const BtKey& key);
  Status DeleteClusteredIndexEntriesFor(const Tuple& tuple, const BtKey& key);
  std::string SerializeClustered(const Tuple& tuple) const;
  static int64_t RidTie(const Rid& rid) {
    return (static_cast<int64_t>(rid.page_id) << 16) |
           static_cast<int64_t>(rid.slot);
  }

  BufferPool* pool_ = nullptr;
  std::string name_;
  Schema schema_;
  TableOptions options_;
  size_t cluster_key_idx_ = 0;
  size_t fixed_width_ = 0;   // clustered payload width
  int64_t next_tie_ = 1;     // duplicate cluster keys get increasing ties
  HeapFile heap_;
  BTree clustered_;
  std::vector<SecondaryIndex> indexes_;
  int64_t num_rows_ = 0;
  TableAccessStats access_stats_;
};

}  // namespace relgraph
