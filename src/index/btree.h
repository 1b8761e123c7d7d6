#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/config.h"
#include "src/common/status.h"
#include "src/storage/buffer_pool.h"

namespace relgraph {

/// Composite B+-tree key: a primary 64-bit key plus a 64-bit tiebreaker.
/// Unique indexes use tie = 0; non-unique indexes (e.g. the clustered edge
/// table keyed by `fid`, which has one entry per outgoing edge) use a
/// monotone sequence number as the tiebreaker so duplicate primary keys
/// stay distinct and ordered.
struct BtKey {
  int64_t key = 0;
  int64_t tie = 0;

  int Compare(const BtKey& other) const {
    if (key != other.key) return key < other.key ? -1 : 1;
    if (tie != other.tie) return tie < other.tie ? -1 : 1;
    return 0;
  }
  bool operator==(const BtKey& other) const { return Compare(other) == 0; }
  bool operator<(const BtKey& other) const { return Compare(other) < 0; }
};

/// Page-based B+-tree with fixed-size payloads, stored through the buffer
/// pool (so index probes participate in buffer-hit/miss accounting exactly
/// like the paper's RDBMS indexes).
///
/// Payloads are opaque byte strings of a fixed width chosen at creation:
///  - non-clustered index: payload = encoded RID (8 bytes) into a heap file;
///  - clustered table:     payload = the serialized tuple itself (fixed-width
///    schema), i.e. the table *is* the tree — the paper's "CluIndex" layout.
///
/// Design notes: single-writer (no latching; the engine is single-threaded
/// per Database); leaf splits are 50/50 except that an entry past the end
/// of the last leaf starts a new one, so inserts in key order (clustered
/// loads, index builds) fill every leaf; deletes do not rebalance
/// (underflowed nodes are tolerated; the workloads here delete rarely and
/// truncate or drop whole tables instead, which returns the tree's pages
/// for reuse through Destroy()).
class BTree {
 public:
  BTree() = default;

  /// Creates an empty tree whose leaf payloads are `payload_size` bytes.
  static Status Create(BufferPool* pool, uint16_t payload_size, BTree* out);

  /// Re-opens an existing tree from its persisted identity (root page,
  /// payload width, entry count — what the snapshot manifest records).
  /// Callers that attach untrusted files run CheckIntegrity() afterwards.
  static BTree Open(BufferPool* pool, page_id_t root, uint16_t payload_size,
                    int64_t num_entries);

  /// Inserts (key -> payload). With `unique` set, an equal primary key part
  /// (ignoring the tiebreaker) fails with AlreadyExists.
  Status Insert(BtKey key, std::string_view payload, bool unique);

  /// Removes the entry with exactly (key, tie). NotFound if absent.
  Status Delete(BtKey key);

  /// Finds the entry with exactly (key, tie).
  Status SearchExact(BtKey key, std::string* payload) const;

  /// Finds the first entry whose primary key part equals `key`.
  Status SearchFirst(int64_t key, BtKey* found, std::string* payload) const;

  /// Overwrites the payload of the entry with exactly (key, tie).
  Status UpdatePayload(BtKey key, std::string_view payload);

  /// Ordered scan over primary-key range [key_lo, key_hi], both inclusive.
  class Iterator {
   public:
    /// Advances; false when the range is exhausted *or* on an I/O error —
    /// check status() to tell the two apart.
    bool Next(BtKey* key, std::string* payload);

    const Status& status() const { return status_; }

   private:
    friend class BTree;
    const BTree* tree_ = nullptr;
    page_id_t leaf_ = kInvalidPageId;
    uint16_t pos_ = 0;
    int64_t hi_ = 0;
    Status status_;
  };

  Iterator Scan(int64_t key_lo, int64_t key_hi) const;
  Iterator ScanAll() const;

  int64_t num_entries() const { return num_entries_; }
  page_id_t root() const { return root_; }
  uint16_t payload_size() const { return payload_size_; }

  /// Tree height (1 = root is a leaf). Diagnostic.
  int Height() const;

  /// Verifies ordering and separator invariants; used by property tests.
  Status CheckIntegrity() const;

  /// Frees every page of the tree (BufferPool::DeletePage) and leaves the
  /// tree detached (root() == kInvalidPageId); destroying a detached tree
  /// is a no-op. The walk validates each node's header and every child id
  /// first: on a corrupt page or an I/O error it returns that status and
  /// frees nothing.
  Status Destroy();

 private:
  struct Descent {
    page_id_t page;
    uint16_t index;  // child slot taken in this internal node
  };
  /// The internal nodes an Insert descended through, root first: an
  /// inline stack, so an Insert allocates nothing. A 4 KiB internal node
  /// holds over 150 children, so no tree this engine builds is anywhere
  /// near kMaxDepth levels; a deeper one reads as Corruption.
  struct DescentPath {
    static constexpr int kMaxDepth = 32;
    Descent items[kMaxDepth];
    int size = 0;

    bool empty() const { return size == 0; }
    Descent Pop() { return items[--size]; }
  };

  /// Descends from the root to the leaf that owns `key` and hands it back
  /// pinned in `leaf`, so each node of the descent is fetched once. With
  /// `path`, records the internal nodes passed, root first.
  Status FindLeaf(const BtKey& key, PageGuard* leaf,
                  DescentPath* path) const;
  /// Splits the full, pinned leaf `left`, places the pending entry, and
  /// releases `left` before linking the new right sibling into the parent.
  Status SplitLeaf(PageGuard* left, DescentPath* path,
                   const BtKey& pending_key, std::string_view pending_payload);
  Status InsertIntoParent(DescentPath* path, BtKey sep, page_id_t new_child);

  BufferPool* pool_ = nullptr;
  page_id_t root_ = kInvalidPageId;
  uint16_t payload_size_ = 0;
  int64_t num_entries_ = 0;
};

/// Encodes a RID as an 8-byte B+-tree payload.
std::string EncodeRid(const Rid& rid);
Rid DecodeRid(std::string_view payload);

}  // namespace relgraph
