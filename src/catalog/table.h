#pragma once

#include <array>
#include <atomic>
#include <functional>
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
  /// NotSupported for a table with an open tree: the manifest records
  /// single-column indexes only, and re-attaching an open tree as one
  /// would index the wrong keys.
  Status ExportState(TablePersistentState* out) const;

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

  /// Builds the *open tree* over (`flag_column`, `dist_column`), both INT
  /// and distinct: a non-unique B+-tree keyed flag * 2^61 + dist — exact
  /// and order-preserving, since kInfinity < 2^61 — with ties broken on
  /// the row's RID or cluster key, like any non-unique index. Rows whose
  /// dist is kInfinity get no entry; the tree counts them per flag
  /// instead, and a probe whose range reaches kInfinity reads them after
  /// its entries. It serves the two-column form of ScanRange exactly. From
  /// then on every row written must hold a flag in {0, 1, 2} and a dist in
  /// [0, kInfinity]; Insert and UpdateRow reject any other with
  /// InvalidArgument before writing anything. Existing rows are checked
  /// and indexed immediately. The open tree is not an index on either
  /// column alone (HasIndexOn, LookupUnique and the one-column ScanRange
  /// ignore it). `name` is its SQL-level name (DROP INDEX resolves on it)
  /// and defaults to "<flag_column>_<dist_column>".
  Status CreateOpenIndex(const std::string& flag_column,
                         const std::string& dist_column,
                         const std::string& name = std::string());

  /// Drops the secondary index named `name` (falling back to a column
  /// match, since the engine keys indexes by column) and frees its tree's
  /// pages. The cluster tree is the table's storage and cannot be dropped.
  /// A tree that fails its Destroy walk is still dropped; its pages leak
  /// and the walk's status is returned.
  Status DropSecondaryIndex(const std::string& name);

  /// True when lookups on `column` can use an index (secondary or cluster).
  bool HasIndexOn(const std::string& column) const;

  /// The dist column of the first open tree on `flag_column`; empty when
  /// there is none.
  std::string OpenTreeDist(const std::string& flag_column) const;

  /// Point lookup through a *unique* access path on `column`.
  Status LookupUnique(const std::string& column, int64_t key, Tuple* out,
                      RowRef* ref);

  /// Overwrites the row at `ref`, whose current image is `old_tuple`; the
  /// caller vouches for that pre-image (a scan or lookup just read it), and
  /// the secondary entries move by it without re-reading the row. The new
  /// tuple must keep the cluster key unchanged for clustered tables.
  Status UpdateRow(const RowRef& ref, const Tuple& old_tuple,
                   const Tuple& tuple);

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
    /// Filtered full scan: whether the row's filter columns are in range.
    bool InRange(const Tuple& tuple) const;

    Table* table_ = nullptr;
    Kind kind_ = Kind::kHeap;
    bool full_scan_ = false;  // full scan vs index probe, for access stats
    int filter_col_ = -1;     // >= 0: yield only rows with lo_ <= col <= hi_
    int prefix_col_ = -1;     // >= 0: ... and with prefix column = prefix_
    int64_t lo_ = 0, hi_ = 0, prefix_ = 0;
    // An open-tree probe whose range reaches kInfinity: once the tree's
    // entries are read, a scan filtered as above yields the flag's
    // kInfinity rows.
    bool tail_ = false;
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

  /// Visits the rows with prefix_column = prefix AND lo <= column <= hi.
  /// The open tree on (prefix_column, column) serves it, in (column, RID
  /// or cluster key) order: its entries, then, when the range reaches
  /// kInfinity and the flag has such rows, a full scan filtered to them
  /// (counted under `full_scan_rows`). Without a tree a full scan filters
  /// on both columns, in Scan() order. Either way the rows are the same.
  /// InvalidArgument as for the one-column form.
  Status ScanRange(const std::string& prefix_column, int64_t prefix,
                   const std::string& column, int64_t lo, int64_t hi,
                   Iterator* out);

  /// The row the two-column ScanRange over the same range orders first by
  /// `column`: the first row the open tree yields when the table has one;
  /// otherwise, by one filtered full scan, the first row in Scan() order
  /// holding the range's least `column` value. `found` = false when the
  /// range is empty. `it` is the caller's iterator, reused so the read
  /// keeps its row buffer. InvalidArgument as for ScanRange.
  Status FirstInRange(const std::string& prefix_column, int64_t prefix,
                      const std::string& column, int64_t lo, int64_t hi,
                      Iterator* it, Tuple* out, bool* found);

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
  /// tree invariants, secondary-index tree invariants, the stored row
  /// count against the live-record count, and one entry, naming the row,
  /// per indexable row in every secondary tree (a non-NULL key; for an
  /// open tree, a dist below kInfinity) and no other entry, and each open
  /// tree's per-flag count of its kInfinity rows. Returns
  /// Status::Corruption on the first violation. Safe against corrupted
  /// pages (bounded walks, never out-of-bounds); the snapshot loader and
  /// relgraph_fsck run this.
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
    int prefix_idx = -1;  // >= 0: an open tree keyed (prefix, column)
    BTree tree;
    /// Open tree: rows per flag whose dist is kInfinity (no entry).
    std::array<int64_t, 3> tail{};

    bool open() const { return prefix_idx >= 0; }
    /// The entry key `tuple` is filed under; false when the row has no
    /// entry (a NULL key, or for an open tree a dist of kInfinity).
    bool KeyOf(const Tuple& tuple, int64_t* key) const;
    /// Open tree: the flag whose tail count holds `tuple` (a row the
    /// domain check admitted, with dist kInfinity), else -1.
    int TailFlag(const Tuple& tuple) const;
    /// Adds `delta` to the tail count `tuple` belongs to, if any; writes
    /// call it only for a row KeyOf gives no entry.
    void CountTail(const Tuple& tuple, int64_t delta) {
      if (const int flag = TailFlag(tuple); flag >= 0) tail[flag] += delta;
    }
  };

  /// Rejects a row outside an open tree's key domain.
  Status CheckOpenDomain(const Tuple& tuple) const;
  /// A row's place in secondary entries: the tie that orders duplicate
  /// keys and the 8-byte payload (RID or cluster key) that names the row.
  int64_t TieOf(const RowRef& ref) const;
  std::string PayloadOf(const RowRef& ref) const;
  BtKey EntryOf(const SecondaryIndex& idx, int64_t key,
                const RowRef& ref) const {
    return BtKey{key, idx.unique ? 0 : TieOf(ref)};
  }
  Status InsertIndexEntries(const Tuple& tuple, const RowRef& ref);
  Status DeleteIndexEntries(const Tuple& tuple, const RowRef& ref);
  /// Moves the entries whose key differs between the two images.
  Status UpdateIndexEntries(const Tuple& old_tuple, const Tuple& tuple,
                            const RowRef& ref);
  Status AddIndex(SecondaryIndex si);
  /// Visits every row with its reference, outside the access counters
  /// (index builds and consistency checks are not query reads).
  Status ForEachRow(
      const std::function<Status(const Tuple&, const RowRef&)>& fn) const;
  Status ReadRow(const RowRef& ref, Tuple* out) const;
  /// Full-scan form of both ScanRange overloads (prefix_col < 0: none).
  Status FilteredScan(int prefix_col, int64_t prefix,
                      const std::string& column, int64_t lo, int64_t hi,
                      Iterator* out);
  /// Serializes a row to be written into row_buffer_, padded to the fixed
  /// width for a clustered table; the view is valid until the next write.
  std::string_view SerializeRow(const Tuple& tuple);
  /// Points `out` at a full scan, keeping its row buffer.
  void StartScan(Iterator* out);
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
  // Serialized image of the row being inserted or updated, reused by every
  // write (writes are single-threaded per table).
  std::string row_buffer_;
};

}  // namespace relgraph
