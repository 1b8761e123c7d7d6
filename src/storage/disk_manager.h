#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/config.h"
#include "src/common/status.h"

namespace relgraph {

/// Counters the disk manager maintains; the experiment harness reads these
/// to report I/O alongside wall-clock time (Figures 8(b), 9(g)).
struct DiskStats {
  int64_t reads = 0;
  int64_t writes = 0;
  /// Fresh pages: ids that grew the file (each cost one zero-page write
  /// in the file-backed modes, nothing in memory).
  int64_t allocations = 0;
  /// Allocations served from the free list (no file growth, no write).
  int64_t reuses = 0;
};

/// How a file-backed DiskManager acquires its file. See the class comment
/// for the on-disk format both modes share.
enum class OpenMode {
  /// Creates (or truncates) the file and writes a fresh header. The file
  /// survives close — pair with DiskManager::Open for durable stores.
  kCreate,
  /// Opens an existing file: the header must verify (magic, format
  /// version, page size, header checksum) or Open fails with a typed
  /// Corruption/InvalidArgument status. Never truncates.
  kOpenExisting,
};

/// DiskManager owns page-granular storage. Three modes:
///  - in-memory: pages live in an anonymous vector (fast unit tests; no
///    checksums — corruption detection there is the job of the structural
///    validators, CheckConsistency/CheckIntegrity). A page is stored on
///    its first write: until then it has no storage and reads as zeros,
///    the bytes a fresh page holds in the file-backed modes too;
///  - scratch file (legacy `DiskManager(path)` constructor): the file is
///    created fresh, *deleted on close*, and exists only to give benches
///    real I/O. It still uses the checksummed format below;
///  - durable file (`Open(path, mode)`): the file persists across close
///    and may be reopened with OpenMode::kOpenExisting.
///
/// On-disk format (file-backed modes):
///
///   [file header, kFileHeaderBytes]
///   [page 0: kPageSize data | u32 page-id echo | u32 CRC32C]
///   [page 1: ...]
///
/// The per-page CRC covers the data bytes extended with the page id, so a
/// bit flip *and* a misdirected-but-intact write both fail verification;
/// ReadPage surfaces either as a typed Status::Corruption that propagates
/// through buffer pool -> heap/B+-tree -> executors -> finders. The file
/// header records magic, format version, page size, and the page count as
/// of the last Sync(); pages beyond that count are invisible after a
/// reopen — i.e. a crash rolls back to the last synced state, never to a
/// half-written one.
///
/// I/O: a file-backed manager holds one file descriptor and addresses each
/// page by its offset, so a page read is one pread of the physical page
/// (data and footer together), a page write one pwrite, and Sync() writes
/// the header and fsyncs. There is no user-space buffer: a page is in the
/// kernel's hands when WritePage returns.
///
/// Contract (the PR-8 fix): constructing over a path NEVER silently
/// truncates existing data unless the caller explicitly asked for
/// OpenMode::kCreate (which the legacy scratch constructor implies and
/// documents). Durable files are closed without deletion; only the scratch
/// constructor unlinks its file.
///
/// Page recycling: DeallocatePage puts an id on a process-local free list
/// that AllocatePage pops before growing the file, so a table that is
/// truncated or dropped once per query costs no file growth. The list is
/// never persisted: ids freed before a close stay unreachable in a reopened
/// file (leaked, not corrupt — no manifest references them).
///
/// `simulated_io_latency_us` adds a busy-wait per physical read to restore
/// the disk-bound regime of the paper's 2003-era testbed: the host OS page
/// cache would otherwise absorb most misses and flatten the buffer-size
/// curves. It defaults to 0 (off); only the buffer-size benchmarks turn it
/// on.
class DiskManager {
 public:
  /// Bytes of the file header block preceding page 0.
  static constexpr size_t kFileHeaderBytes = 64;
  /// Per-page footer: u32 page-id echo + u32 CRC32C.
  static constexpr size_t kPageFooterBytes = 8;
  /// Stored size of one page (data + footer).
  static constexpr size_t kPhysicalPageSize = kPageSize + kPageFooterBytes;
  /// File magic ("RGPF": relgraph page file).
  static constexpr uint32_t kFileMagic = 0x52475046;
  /// Bumped when the header or page layout changes incompatibly.
  static constexpr uint16_t kFileFormatVersion = 1;

  /// Creates an in-memory disk manager.
  DiskManager();

  /// Legacy scratch-file constructor: creates (truncating) a checksummed
  /// page file that is DELETED on close — explicitly OpenMode::kCreate
  /// semantics plus unlink-on-destruction, for benches that want real I/O
  /// without leaving files behind. Falls back to in-memory mode when the
  /// path is unwritable; callers that need a file can check in_memory().
  /// Durable callers use Open() instead.
  explicit DiskManager(const std::string& path);

  /// Opens a durable file-backed disk manager. kCreate writes a fresh
  /// header; kOpenExisting verifies the existing header and restores the
  /// page count from the last Sync(). The file is NOT deleted on close.
  static Status Open(const std::string& path, OpenMode mode,
                     std::unique_ptr<DiskManager>* out);

  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Returns a page id for the caller to fill: a freed id when the free
  /// list has one, else a fresh page at the end of the file that reads as
  /// zeros (file-backed modes write a zero page; in memory it is stored on
  /// its first write). A reused id's stored image is stale (whatever its
  /// previous owner last wrote) until the caller writes it;
  /// BufferPool::NewPage hands out a zeroed, dirty frame, so the first
  /// eviction or flush overwrites it.
  page_id_t AllocatePage();

  /// Puts `page_id` on the free list for a later AllocatePage. The caller
  /// guarantees nothing references the page any more (BufferPool::DeletePage
  /// drops its frame first). OutOfRange for an unallocated id;
  /// InvalidArgument for an id that is already free, so a double free can
  /// never hand one page to two owners.
  Status DeallocatePage(page_id_t page_id);

  /// Ids currently on the free list (diagnostic; tests assert on it).
  size_t num_free_pages() const;

  /// Reads page `page_id` into `out` (kPageSize bytes). File-backed reads
  /// verify the stored CRC and page-id echo: a mismatch is
  /// Status::Corruption naming the page.
  Status ReadPage(page_id_t page_id, char* out);

  /// Writes kPageSize bytes from `data` to page `page_id`, computing and
  /// storing the page's CRC footer.
  Status WritePage(page_id_t page_id, const char* data);

  /// Durability point: persists the header (with the current page count)
  /// and fsyncs the file. After Sync() returns OK, a reopen sees every
  /// page written so far. No-op in in-memory mode.
  Status Sync();

  int32_t num_pages() const { return next_page_id_.load(); }
  bool in_memory() const { return fd_ < 0; }
  const std::string& path() const { return path_; }

  const DiskStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DiskStats{}; }

  void set_simulated_io_latency_us(int64_t us) {
    simulated_io_latency_us_ = us;
  }
  int64_t simulated_io_latency_us() const { return simulated_io_latency_us_; }

  /// ----- fault injection (failure-path and crash-consistency tests) ------
  /// After `countdown` further successful operations of that kind, every
  /// subsequent one fails with IOError ("injected fault"). Negative
  /// disables (the default). The error must surface as a Status through
  /// the buffer pool, heap files, B+-trees, tables, executors, and
  /// finders — never as a crash or silent corruption;
  /// tests/test_fault_injection.cc asserts each layer.
  void InjectReadFaultAfter(int64_t countdown) { read_fault_in_ = countdown; }
  void InjectWriteFaultAfter(int64_t countdown) {
    write_fault_in_ = countdown;
  }
  /// Crash-consistency injection: after `countdown` further successful
  /// page writes, the next write persists only a PREFIX of the physical
  /// page (data torn mid-sector, no valid footer) and the manager enters a
  /// crashed state — every subsequent operation fails with IOError, as if
  /// the process died mid-write. A reopen of the file then finds the torn
  /// page failing its CRC. Negative disables.
  void InjectTornWriteAfter(int64_t countdown) { torn_write_in_ = countdown; }
  /// As above, but the crash happens BETWEEN writes: after `countdown`
  /// successful page writes, every subsequent operation fails with IOError
  /// and nothing further reaches the file. Negative disables.
  void InjectCrashAfter(int64_t countdown) { crash_in_ = countdown; }
  void ClearFaults() {
    read_fault_in_ = -1;
    write_fault_in_ = -1;
    torn_write_in_ = -1;
    crash_in_ = -1;
    crashed_ = false;
  }

  /// Deterministic corruption for tests: XORs 0xFF into one byte of the
  /// stored page image, bypassing the CRC recompute — the next ReadPage of
  /// a file-backed page fails with Corruption. `offset` addresses the
  /// physical page (data bytes first, then the footer), so offsets >=
  /// kPageSize corrupt the checksum itself. In-memory managers flip the
  /// data byte directly (offset < kPageSize only): reads then return
  /// silently wrong bytes, which is exactly what the structural validators
  /// are fuzzed against.
  Status CorruptByteForTest(page_id_t page_id, size_t offset);

 private:
  explicit DiskManager(std::string path, int fd, bool delete_on_close)
      : fd_(fd), path_(std::move(path)), delete_on_close_(delete_on_close) {}

  void MaybeSimulateLatency();
  /// The stored bytes of in-memory page `page_id`, created zero-filled on
  /// first touch. Requires mutex_.
  char* MemPageLocked(page_id_t page_id);
  /// Serializes and writes the file header at offset 0 (file mode only).
  /// Requires mutex_.
  Status WriteHeaderLocked();
  static off_t PageOffset(page_id_t id) {
    return static_cast<off_t>(kFileHeaderBytes) +
           static_cast<off_t>(id) * static_cast<off_t>(kPhysicalPageSize);
  }

  mutable std::mutex mutex_;
  int fd_ = -1;  // file-backed modes; -1 in memory
  std::string path_;
  bool delete_on_close_ = false;
  std::vector<std::vector<char>> mem_pages_;  // in memory; empty = unwritten
  std::atomic<page_id_t> next_page_id_{0};
  std::vector<page_id_t> free_pages_;  // LIFO: the hottest id comes back
  std::vector<bool> is_free_;          // indexed by page id; sized lazily
  DiskStats stats_;
  int64_t simulated_io_latency_us_ = 0;
  int64_t read_fault_in_ = -1;
  int64_t write_fault_in_ = -1;
  int64_t torn_write_in_ = -1;
  int64_t crash_in_ = -1;
  bool crashed_ = false;
};

/// Atomically installs `from` at `to`: fsyncs `from` is the caller's job
/// (DiskManager::Sync before close); this renames and then fsyncs the
/// containing directory so the rename itself is durable. POSIX rename is
/// atomic, so readers see either the old file or the complete new one,
/// never a partial write — the write-temp -> fsync -> rename snapshot
/// install idiom.
Status AtomicRename(const std::string& from, const std::string& to);

}  // namespace relgraph
