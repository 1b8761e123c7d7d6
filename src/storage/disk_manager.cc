#include "src/storage/disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/common/crc32c.h"

namespace relgraph {

namespace {

void PutU32(char* at, uint32_t v) { std::memcpy(at, &v, 4); }
void PutU16(char* at, uint16_t v) { std::memcpy(at, &v, 2); }
void PutI32(char* at, int32_t v) { std::memcpy(at, &v, 4); }
uint32_t GetU32(const char* at) {
  uint32_t v;
  std::memcpy(&v, at, 4);
  return v;
}
uint16_t GetU16(const char* at) {
  uint16_t v;
  std::memcpy(&v, at, 2);
  return v;
}
int32_t GetI32(const char* at) {
  int32_t v;
  std::memcpy(&v, at, 4);
  return v;
}

/// CRC stored in a page footer: the data bytes extended with the page id,
/// so an intact page written to the wrong slot fails verification too.
uint32_t PageCrc(const char* data, page_id_t page_id) {
  return crc32c::ExtendU32(crc32c::Value(data, kPageSize),
                           static_cast<uint32_t>(page_id));
}

/// Reads or writes exactly `n` bytes at `offset`, one pread/pwrite in the
/// common case; false on an error or end of file.
bool PreadFull(int fd, char* buf, size_t n, off_t offset) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, buf, n, offset);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buf += got;
    n -= static_cast<size_t>(got);
    offset += got;
  }
  return true;
}

bool PwriteFull(int fd, const char* buf, size_t n, off_t offset) {
  while (n > 0) {
    const ssize_t put = ::pwrite(fd, buf, n, offset);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    buf += put;
    n -= static_cast<size_t>(put);
    offset += put;
  }
  return true;
}

/// Opens `path` read-write (`flags` adds O_CREAT/O_TRUNC); -1 on failure.
int OpenFd(const std::string& path, int flags) {
  return ::open(path.c_str(), O_RDWR | O_CLOEXEC | flags, 0666);
}

/// Header layout within the kFileHeaderBytes block:
///   [0]  u32 magic   [4] u16 format version   [6] u16 reserved (0)
///   [8]  u32 page size                        [12] i32 page count
///   [16] u32 crc over bytes [0, 16)           rest zero padding
constexpr size_t kHeaderCrcOffset = 16;

}  // namespace

DiskManager::DiskManager() = default;

DiskManager::DiskManager(const std::string& path) : path_(path) {
  // Scratch semantics: explicit create-and-truncate, unlink on close. The
  // format is the same checksummed one durable files use.
  fd_ = OpenFd(path, O_CREAT | O_TRUNC);
  // Fall back to in-memory mode when the path is unwritable; callers that
  // need a file can check in_memory().
  if (fd_ >= 0) {
    delete_on_close_ = true;
    std::lock_guard<std::mutex> lock(mutex_);
    WriteHeaderLocked();  // best effort; page I/O surfaces real failures
  }
}

Status DiskManager::Open(const std::string& path, OpenMode mode,
                         std::unique_ptr<DiskManager>* out) {
  if (mode == OpenMode::kCreate) {
    const int fd = OpenFd(path, O_CREAT | O_TRUNC);
    if (fd < 0) {
      return Status::IOError("cannot create " + path + ": " +
                             std::strerror(errno));
    }
    auto dm = std::unique_ptr<DiskManager>(
        new DiskManager(path, fd, /*delete_on_close=*/false));
    {
      std::lock_guard<std::mutex> lock(dm->mutex_);
      RELGRAPH_RETURN_IF_ERROR(dm->WriteHeaderLocked());
    }
    *out = std::move(dm);
    return Status::OK();
  }

  // kOpenExisting: never truncate; the header must verify. The manager is
  // constructed only AFTER validation succeeds: a rejected file must be
  // closed untouched — in particular, the destructor's best-effort header
  // write must never clobber a file we just refused to trust.
  const int fd = OpenFd(path, 0);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  auto fail = [fd](Status st) {
    ::close(fd);
    return st;
  };

  char header[kFileHeaderBytes];
  if (!PreadFull(fd, header, kFileHeaderBytes, 0)) {
    return fail(Status::Corruption("file header truncated: " + path));
  }
  if (GetU32(header) != kFileMagic) {
    return fail(Status::Corruption("bad file magic: " + path +
                                   " is not a relgraph page file"));
  }
  if (GetU16(header + 4) != kFileFormatVersion) {
    return fail(Status::InvalidArgument(
        "page file format version " + std::to_string(GetU16(header + 4)) +
        " (expected " + std::to_string(kFileFormatVersion) + "): " + path));
  }
  if (GetU32(header + 8) != kPageSize) {
    return fail(Status::InvalidArgument(
        "page size mismatch: file has " + std::to_string(GetU32(header + 8)) +
        ", engine uses " + std::to_string(kPageSize) + ": " + path));
  }
  if (GetU32(header + kHeaderCrcOffset) !=
      crc32c::Value(header, kHeaderCrcOffset)) {
    return fail(Status::Corruption("file header checksum mismatch: " + path));
  }
  const int32_t page_count = GetI32(header + 12);
  if (page_count < 0) {
    return fail(
        Status::Corruption("negative page count in file header: " + path));
  }
  // The synced page count must be covered by actual file bytes.
  struct stat info {};
  if (::fstat(fd, &info) != 0) {
    return fail(Status::IOError("cannot stat " + path + ": " +
                                std::strerror(errno)));
  }
  const off_t size = info.st_size;
  if (size < PageOffset(page_count)) {
    return fail(Status::Corruption(
        "page file truncated: header promises " + std::to_string(page_count) +
        " page(s), file holds " + std::to_string(size) + " byte(s): " + path));
  }
  auto dm = std::unique_ptr<DiskManager>(
      new DiskManager(path, fd, /*delete_on_close=*/false));
  dm->next_page_id_.store(page_count);
  *out = std::move(dm);
  return Status::OK();
}

Status DiskManager::WriteHeaderLocked() {
  if (fd_ < 0) return Status::OK();
  char header[kFileHeaderBytes] = {0};
  PutU32(header, kFileMagic);
  PutU16(header + 4, kFileFormatVersion);
  PutU16(header + 6, 0);
  PutU32(header + 8, kPageSize);
  PutI32(header + 12, next_page_id_.load());
  PutU32(header + kHeaderCrcOffset, crc32c::Value(header, kHeaderCrcOffset));
  if (!PwriteFull(fd_, header, kFileHeaderBytes, 0)) {
    return Status::IOError("short write on file header");
  }
  return Status::OK();
}

Status DiskManager::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return Status::OK();
  if (crashed_) return Status::IOError("injected crash: sync");
  RELGRAPH_RETURN_IF_ERROR(WriteHeaderLocked());
  if (::fsync(fd_) != 0) {
    return Status::IOError(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::OK();
}

DiskManager::~DiskManager() {
  if (fd_ >= 0) {
    if (!delete_on_close_) {
      // Durable close: persist the page count so a clean shutdown without
      // an explicit Sync() still reopens with everything visible.
      std::lock_guard<std::mutex> lock(mutex_);
      if (!crashed_) WriteHeaderLocked();
    }
    ::close(fd_);
    if (delete_on_close_) std::remove(path_.c_str());
  }
}

page_id_t DiskManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!free_pages_.empty()) {
    const page_id_t id = free_pages_.back();
    free_pages_.pop_back();
    is_free_[id] = false;
    stats_.reuses++;
    return id;
  }
  page_id_t id = next_page_id_.fetch_add(1);
  stats_.allocations++;
  if (fd_ >= 0 && !crashed_) {
    char physical[kPhysicalPageSize] = {0};
    PutU32(physical + kPageSize, static_cast<uint32_t>(id));
    PutU32(physical + kPageSize + 4, PageCrc(physical, id));
    PwriteFull(fd_, physical, kPhysicalPageSize, PageOffset(id));
  }
  return id;
}

Status DiskManager::DeallocatePage(page_id_t page_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (page_id < 0 || page_id >= next_page_id_.load()) {
    return Status::OutOfRange("free of unallocated page " +
                              std::to_string(page_id));
  }
  if (is_free_.size() <= static_cast<size_t>(page_id)) {
    is_free_.resize(static_cast<size_t>(next_page_id_.load()), false);
  }
  if (is_free_[page_id]) {
    return Status::InvalidArgument("double free of page " +
                                   std::to_string(page_id));
  }
  is_free_[page_id] = true;
  free_pages_.push_back(page_id);
  return Status::OK();
}

size_t DiskManager::num_free_pages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_pages_.size();
}

Status DiskManager::ReadPage(page_id_t page_id, char* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (page_id < 0 || page_id >= next_page_id_.load()) {
    return Status::OutOfRange("read of unallocated page " +
                              std::to_string(page_id));
  }
  if (crashed_) {
    return Status::IOError("injected crash: read of page " +
                           std::to_string(page_id));
  }
  if (read_fault_in_ >= 0 && read_fault_in_-- == 0) {
    read_fault_in_ = 0;  // keep failing until cleared
    return Status::IOError("injected fault: read of page " +
                           std::to_string(page_id));
  }
  stats_.reads++;
  MaybeSimulateLatency();
  if (fd_ < 0) {
    const size_t id = static_cast<size_t>(page_id);
    if (id < mem_pages_.size() && !mem_pages_[id].empty()) {
      std::memcpy(out, mem_pages_[id].data(), kPageSize);
    } else {
      std::memset(out, 0, kPageSize);  // never written: reads as zeros
    }
    return Status::OK();
  }
  char physical[kPhysicalPageSize];
  if (!PreadFull(fd_, physical, kPhysicalPageSize, PageOffset(page_id))) {
    return Status::IOError("short read on page " + std::to_string(page_id));
  }
  const uint32_t stored_id = GetU32(physical + kPageSize);
  const uint32_t stored_crc = GetU32(physical + kPageSize + 4);
  if (stored_id != static_cast<uint32_t>(page_id)) {
    return Status::Corruption(
        "page " + std::to_string(page_id) + " carries id " +
        std::to_string(stored_id) + " (misdirected write or torn page)");
  }
  if (stored_crc != PageCrc(physical, page_id)) {
    return Status::Corruption("checksum mismatch on page " +
                              std::to_string(page_id));
  }
  std::memcpy(out, physical, kPageSize);
  return Status::OK();
}

Status DiskManager::WritePage(page_id_t page_id, const char* data) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (page_id < 0 || page_id >= next_page_id_.load()) {
    return Status::OutOfRange("write of unallocated page " +
                              std::to_string(page_id));
  }
  if (crashed_) {
    return Status::IOError("injected crash: write of page " +
                           std::to_string(page_id));
  }
  if (write_fault_in_ >= 0 && write_fault_in_-- == 0) {
    write_fault_in_ = 0;  // keep failing until cleared
    return Status::IOError("injected fault: write of page " +
                           std::to_string(page_id));
  }
  if (crash_in_ >= 0 && crash_in_-- == 0) {
    crashed_ = true;  // process died between writes: nothing reaches disk
    return Status::IOError("injected crash: write of page " +
                           std::to_string(page_id));
  }
  const bool torn = torn_write_in_ >= 0 && torn_write_in_-- == 0;
  stats_.writes++;
  if (fd_ < 0) {
    if (torn) {
      // No footer in memory mode: tear the data itself, then crash.
      std::memcpy(MemPageLocked(page_id), data, kPageSize / 2);
      crashed_ = true;
      return Status::IOError("injected crash: torn write of page " +
                             std::to_string(page_id));
    }
    std::memcpy(MemPageLocked(page_id), data, kPageSize);
    return Status::OK();
  }
  char physical[kPhysicalPageSize];
  std::memcpy(physical, data, kPageSize);
  PutU32(physical + kPageSize, static_cast<uint32_t>(page_id));
  PutU32(physical + kPageSize + 4, PageCrc(physical, page_id));
  if (torn) {
    // Half the sectors make it; the footer (with the CRC) does not. The
    // manager then behaves as a dead process: every further op fails.
    PwriteFull(fd_, physical, kPageSize / 2, PageOffset(page_id));
    crashed_ = true;
    return Status::IOError("injected crash: torn write of page " +
                           std::to_string(page_id));
  }
  if (!PwriteFull(fd_, physical, kPhysicalPageSize, PageOffset(page_id))) {
    return Status::IOError("short write on page " + std::to_string(page_id));
  }
  return Status::OK();
}

Status DiskManager::CorruptByteForTest(page_id_t page_id, size_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (page_id < 0 || page_id >= next_page_id_.load()) {
    return Status::OutOfRange("corrupt of unallocated page " +
                              std::to_string(page_id));
  }
  if (fd_ < 0) {
    if (offset >= kPageSize) {
      return Status::OutOfRange("in-memory pages have no footer");
    }
    MemPageLocked(page_id)[offset] ^= static_cast<char>(0xFF);
    return Status::OK();
  }
  if (offset >= kPhysicalPageSize) {
    return Status::OutOfRange("offset beyond physical page");
  }
  const off_t at = PageOffset(page_id) + static_cast<off_t>(offset);
  char byte;
  if (!PreadFull(fd_, &byte, 1, at)) {
    return Status::IOError("short read corrupting page");
  }
  byte ^= static_cast<char>(0xFF);
  if (!PwriteFull(fd_, &byte, 1, at)) {
    return Status::IOError("short write corrupting page");
  }
  return Status::OK();
}

char* DiskManager::MemPageLocked(page_id_t page_id) {
  const size_t id = static_cast<size_t>(page_id);
  if (id >= mem_pages_.size()) mem_pages_.resize(id + 1);
  if (mem_pages_[id].empty()) mem_pages_[id].assign(kPageSize, 0);
  return mem_pages_[id].data();
}

void DiskManager::MaybeSimulateLatency() {
  if (simulated_io_latency_us_ <= 0) return;
  auto until = std::chrono::steady_clock::now() +
               std::chrono::microseconds(simulated_io_latency_us_);
  // Busy-wait: sleep granularity on most kernels is far coarser than the
  // tens of microseconds we model, which would distort the sweep.
  while (std::chrono::steady_clock::now() < until) {
  }
}

Status AtomicRename(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError("rename " + from + " -> " + to + ": " +
                           std::strerror(errno));
  }
  // Make the rename itself durable: fsync the containing directory.
  std::string dir = to;
  const size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort; some filesystems refuse directory fsync
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace relgraph
