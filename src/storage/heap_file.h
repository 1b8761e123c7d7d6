#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "src/common/config.h"
#include "src/common/status.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/slotted_page.h"

namespace relgraph {

/// Unordered record store: a singly linked chain of slotted pages. This is
/// the engine's default table storage ("heap organized", the paper's
/// NoIndex baseline); tables may additionally carry B+-tree indexes or be
/// stored clustered inside a B+-tree (see src/index, src/catalog).
class HeapFile {
 public:
  /// Creates an empty heap file (allocates the first page).
  static Status Create(BufferPool* pool, HeapFile* out);

  /// Re-opens an existing heap file rooted at `first_page`.
  static HeapFile Open(BufferPool* pool, page_id_t first_page,
                       page_id_t last_page);

  HeapFile() = default;

  /// Appends a record; returns its RID.
  Status Insert(std::string_view record, Rid* rid);

  /// Copies the record at `rid` into `*out`.
  Status Get(const Rid& rid, std::string* out) const;

  /// In-place update; record must not be larger than the stored one.
  Status Update(const Rid& rid, std::string_view record);

  /// Tombstones the record at `rid`.
  Status Delete(const Rid& rid);

  page_id_t first_page() const { return first_page_; }
  page_id_t last_page() const { return last_page_; }

  /// Walks the page chain validating structure: every page id in range,
  /// every page passes SlottedPage::CheckConsistency, no page appears
  /// twice (cycles), and the chain terminates at last_page(). Returns
  /// Status::Corruption naming the first violation; counts live records
  /// into `*live_records` when non-null. Shared between the unit tests and
  /// the relgraph_fsck scrubber, and safe to run against corrupted images
  /// (it never follows an out-of-range pointer and cannot loop forever).
  Status CheckConsistency(int64_t* live_records = nullptr) const;

  /// Frees every page of the chain (BufferPool::DeletePage) and leaves the
  /// file detached (first_page() == kInvalidPageId); destroying a detached
  /// file is a no-op. The chain is walked first with the same range, cycle
  /// and last-page checks as CheckConsistency: on a corrupt link or an I/O
  /// error it returns that status and frees nothing.
  Status Destroy();

  /// Forward scanner over live records. Copies each record out so the page
  /// pin is dropped between calls.
  class Iterator {
   public:
    /// An empty iterator (Next always false).
    Iterator() = default;
    Iterator(const HeapFile* file, BufferPool* pool);

    /// Advances to the next live record; false at end of file *or* on an
    /// I/O error — check status() to tell the two apart.
    bool Next(Rid* rid, std::string* record);

    const Status& status() const { return status_; }

   private:
    const HeapFile* file_ = nullptr;
    BufferPool* pool_ = nullptr;
    page_id_t page_id_ = kInvalidPageId;
    slot_id_t slot_ = 0;
    Status status_;
  };

  Iterator Scan() const { return Iterator(this, pool_); }

 private:
  /// Walks the chain from first_page_, calling `visit` on each pinned page,
  /// with the checks that make the walk safe on corrupted images: every id
  /// in range, no page twice (so no cycle), and the chain reaches
  /// last_page_. The first violation or `visit` error is returned.
  Status WalkChain(
      const std::function<Status(page_id_t, const SlottedPage&)>& visit) const;

  BufferPool* pool_ = nullptr;
  page_id_t first_page_ = kInvalidPageId;
  page_id_t last_page_ = kInvalidPageId;
};

}  // namespace relgraph
