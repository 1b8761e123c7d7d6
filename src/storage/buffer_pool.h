#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/config.h"
#include "src/common/status.h"
#include "src/storage/disk_manager.h"
#include "src/storage/lru_replacer.h"

namespace relgraph {

/// In-memory image of one disk page plus its bookkeeping.
class Page {
 public:
  char* data() { return data_; }
  const char* data() const { return data_; }
  page_id_t page_id() const { return page_id_; }
  int pin_count() const { return pin_count_; }
  bool is_dirty() const { return is_dirty_; }

 private:
  friend class BufferPool;
  char data_[kPageSize] = {0};
  page_id_t page_id_ = kInvalidPageId;
  int pin_count_ = 0;
  bool is_dirty_ = false;
};

struct BufferPoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t dirty_writebacks = 0;

  double HitRate() const {
    int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Capped page cache between the access methods and the disk manager.
/// This is the component the paper's buffer-size experiments (Figures
/// 8(b), 9(g)) vary: the pool size in pages is the analogue of the RDBMS
/// buffer setting, a cap on the memory the cache may use. Frames are
/// created on first use: a page that needs a frame takes a freed one, else
/// a new one while fewer than `pool_size` exist, and only then evicts. So
/// a database that holds little costs little, and eviction starts exactly
/// when the cap is reached.
///
/// Usage protocol (RocksDB-block-cache-like pin discipline):
///   Page* p; pool.FetchPage(id, &p);  ... use p->data() ...
///   pool.UnpinPage(id, /*dirty=*/true_if_modified);
/// Pinned pages are never evicted; fetching when every frame is pinned
/// returns ResourceExhausted. Replacement is exact LRU over the unpinned
/// frames (LruReplacer).
///
/// A page hit does no hashing and no allocation: the page table is a
/// vector indexed by page id (the disk manager hands out dense ids and
/// recycles freed ones inside that range), sized from the disk's page
/// count at construction and grown geometrically as new ids become
/// resident, and the replacer is an intrusive list over frame ids.
///
/// Thread-safety: with `concurrent_readers` set, every public operation
/// takes the pool mutex, so any number of threads may fetch/unpin
/// concurrently — the regime the distributed shard services run in, where
/// pooled connections of concurrent query sessions read one shard's pages
/// at once. Page *data* is read outside the mutex while pinned; that is
/// safe for concurrent readers (shard data is written only at load time)
/// but writers still require external serialization — the engine remains
/// single-writer per database. The flag defaults to off because the
/// fetch/unpin pair is the engine's hottest path: single-session
/// databases (every single-node workload, each dist session's TVisited)
/// must not pay a lock per page access, and correctly do not.
class BufferPool {
 public:
  BufferPool(size_t pool_size, DiskManager* disk,
             bool concurrent_readers = false);

  /// Pins page `page_id`, reading it from disk on a miss.
  Status FetchPage(page_id_t page_id, Page** out);

  /// Allocates a page (a recycled id first, see DiskManager::AllocatePage)
  /// and pins it in a zeroed frame marked dirty, so the page reaches disk
  /// at least once in its new life.
  Status NewPage(page_id_t* page_id, Page** out);

  /// Frees page `page_id`: drops its frame, if resident, without writing it
  /// back (the contents are dead) and returns the id to the disk manager's
  /// free list. Fails with InvalidArgument, changing nothing, while the
  /// page is pinned. The caller guarantees nothing links the page any more.
  Status DeletePage(page_id_t page_id);

  /// Drops one pin; marks the frame dirty if the caller modified it.
  Status UnpinPage(page_id_t page_id, bool is_dirty);

  /// Writes a page back to disk if present and dirty.
  Status FlushPage(page_id_t page_id);

  /// Writes back every dirty page, in frame order.
  Status FlushAll();

  /// The cap on frames, not the number created (allocated_frames()).
  size_t pool_size() const { return pool_size_; }
  bool concurrent_readers() const { return concurrent_readers_; }
  /// Counters mutate under the pool lock discipline; read them
  /// quiescently (between queries), like every other stats block.
  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() {
    OptionalLock lock(this);
    stats_ = BufferPoolStats{};
  }
  DiskManager* disk() { return disk_; }

  /// Number of currently pinned frames (test/diagnostic hook).
  size_t PinnedFrames() const;
  /// Number of frames created so far, never more than pool_size()
  /// (test/diagnostic hook).
  size_t allocated_frames() const;

 private:
  /// Takes mu_ only when the pool is in concurrent-readers mode — one
  /// predicted branch instead of an atomic RMW pair on the single-session
  /// hot path.
  class OptionalLock {
   public:
    explicit OptionalLock(const BufferPool* pool)
        : mu_(pool->concurrent_readers_ ? &pool->mu_ : nullptr) {
      if (mu_ != nullptr) mu_->lock();
    }
    ~OptionalLock() {
      if (mu_ != nullptr) mu_->unlock();
    }
    OptionalLock(const OptionalLock&) = delete;
    OptionalLock& operator=(const OptionalLock&) = delete;

   private:
    std::mutex* mu_;
  };

  static constexpr frame_id_t kNotResident = -1;

  /// The frame holding `page_id`, or kNotResident; any id, even a negative
  /// or never-allocated one, is a valid query. Requires the pool lock.
  frame_id_t FrameOf(page_id_t page_id) const {
    return static_cast<size_t>(page_id) < page_table_.size()
               ? page_table_[page_id]
               : kNotResident;
  }
  /// Records `page_id` as resident in `frame`, growing the table
  /// geometrically when the id lies past its end. Requires the pool lock.
  void MapPage(page_id_t page_id, frame_id_t frame);

  /// Requires the pool lock (when in concurrent-readers mode).
  Status GetFreeFrame(frame_id_t* frame_id);

  const size_t pool_size_;
  const bool concurrent_readers_;
  mutable std::mutex mu_;
  DiskManager* disk_;
  std::vector<std::unique_ptr<Page>> frames_;  // grows up to pool_size_
  std::vector<frame_id_t> free_list_;          // created frames now unused
  std::vector<frame_id_t> page_table_;  // indexed by page id
  LruReplacer replacer_;
  BufferPoolStats stats_;
};

/// RAII pin guard: fetches on construction, unpins on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, page_id_t page_id) : pool_(pool) {
    status_ = pool->FetchPage(page_id, &page_);
    if (!status_.ok()) page_ = nullptr;
  }
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      page_ = other.page_;
      dirty_ = other.dirty_;
      status_ = other.status_;
      other.page_ = nullptr;
      other.pool_ = nullptr;
    }
    return *this;
  }

  bool ok() const { return page_ != nullptr; }
  const Status& status() const { return status_; }
  Page* page() { return page_; }
  char* data() { return page_->data(); }
  const char* data() const { return page_->data(); }
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (page_ != nullptr && pool_ != nullptr) {
      pool_->UnpinPage(page_->page_id(), dirty_);
      page_ = nullptr;
    }
  }

 private:
  BufferPool* pool_ = nullptr;
  Page* page_ = nullptr;
  bool dirty_ = false;
  Status status_;
};

}  // namespace relgraph
