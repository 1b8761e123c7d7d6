#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"
#include "src/storage/heap_file.h"
#include "src/storage/slotted_page.h"

namespace relgraph {
namespace {

// ------------------------------------------------------------ DiskManager

TEST(DiskManagerTest, InMemoryRoundTrip) {
  DiskManager dm;
  page_id_t p0 = dm.AllocatePage();
  page_id_t p1 = dm.AllocatePage();
  EXPECT_EQ(p0, 0);
  EXPECT_EQ(p1, 1);

  char w[kPageSize];
  std::memset(w, 0xAB, kPageSize);
  ASSERT_TRUE(dm.WritePage(p1, w).ok());
  char r[kPageSize] = {0};
  ASSERT_TRUE(dm.ReadPage(p1, r).ok());
  EXPECT_EQ(std::memcmp(w, r, kPageSize), 0);
}

TEST(DiskManagerTest, FreshPagesAreZeroed) {
  DiskManager dm;
  page_id_t p = dm.AllocatePage();
  char r[kPageSize];
  std::memset(r, 0xFF, kPageSize);
  ASSERT_TRUE(dm.ReadPage(p, r).ok());
  for (size_t i = 0; i < kPageSize; i++) ASSERT_EQ(r[i], 0);
}

// In-memory pages are stored on their first write; until then they read as
// zeros, and the test-only corruption and torn-write paths see those zeros
// as the page's old bytes.
TEST(DiskManagerTest, InMemoryPageReadsZerosUntilWritten) {
  DiskManager dm;
  const page_id_t untouched = dm.AllocatePage();
  const page_id_t written = dm.AllocatePage();
  const page_id_t corrupted = dm.AllocatePage();
  const page_id_t torn = dm.AllocatePage();
  EXPECT_EQ(dm.stats().writes, 0);
  const std::string zeros(kPageSize, '\0');

  char w[kPageSize];
  std::memset(w, 0xAB, kPageSize);
  ASSERT_TRUE(dm.WritePage(written, w).ok());
  char r[kPageSize];
  std::memset(r, 0x5A, kPageSize);
  ASSERT_TRUE(dm.ReadPage(untouched, r).ok());
  EXPECT_EQ(std::string(r, kPageSize), zeros);
  ASSERT_TRUE(dm.ReadPage(written, r).ok());
  EXPECT_EQ(std::string(r, kPageSize), std::string(kPageSize, '\xAB'));

  // Corrupting a never-written page flips one byte of its zeros; an offset
  // past the data is refused as before, and leaves the page unstored.
  ASSERT_TRUE(dm.CorruptByteForTest(corrupted, 7).ok());
  ASSERT_TRUE(dm.ReadPage(corrupted, r).ok());
  std::string want = zeros;
  want[7] = static_cast<char>(0xFF);
  EXPECT_EQ(std::string(r, kPageSize), want);
  EXPECT_EQ(dm.CorruptByteForTest(untouched, kPageSize).code(),
            Status::Code::kOutOfRange);
  ASSERT_TRUE(dm.ReadPage(untouched, r).ok());
  EXPECT_EQ(std::string(r, kPageSize), zeros);

  // A torn write lands the first half over the zeros, then every
  // operation fails until the faults are cleared.
  dm.InjectTornWriteAfter(0);
  EXPECT_TRUE(dm.WritePage(torn, w).IsIOError());
  EXPECT_TRUE(dm.ReadPage(torn, r).IsIOError());
  dm.ClearFaults();
  ASSERT_TRUE(dm.ReadPage(torn, r).ok());
  EXPECT_EQ(std::string(r, kPageSize),
            std::string(kPageSize / 2, '\xAB') + zeros.substr(kPageSize / 2));
}

TEST(DiskManagerTest, RejectsUnallocatedPages) {
  DiskManager dm;
  char buf[kPageSize];
  EXPECT_FALSE(dm.ReadPage(0, buf).ok());
  EXPECT_FALSE(dm.WritePage(5, buf).ok());
  EXPECT_FALSE(dm.ReadPage(-1, buf).ok());
}

TEST(DiskManagerTest, FileBackedRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "relgraph_dm_test.db")
          .string();
  DiskManager dm(path);
  ASSERT_FALSE(dm.in_memory());
  page_id_t p = dm.AllocatePage();
  char w[kPageSize];
  for (size_t i = 0; i < kPageSize; i++) w[i] = static_cast<char>(i % 251);
  ASSERT_TRUE(dm.WritePage(p, w).ok());
  char r[kPageSize] = {0};
  ASSERT_TRUE(dm.ReadPage(p, r).ok());
  EXPECT_EQ(std::memcmp(w, r, kPageSize), 0);
}

TEST(DiskManagerTest, CountsReadsAndWrites) {
  DiskManager dm;
  page_id_t p = dm.AllocatePage();
  char buf[kPageSize] = {0};
  dm.WritePage(p, buf);
  dm.ReadPage(p, buf);
  dm.ReadPage(p, buf);
  EXPECT_EQ(dm.stats().allocations, 1);
  EXPECT_EQ(dm.stats().writes, 1);
  EXPECT_EQ(dm.stats().reads, 2);
  dm.ResetStats();
  EXPECT_EQ(dm.stats().reads, 0);
}

// ------------------------------------------------- DiskManager (durable)

/// A unique scratch path under the system temp dir, removed up front.
std::string ScratchPath(const std::string& name) {
  std::string p =
      (std::filesystem::temp_directory_path() / ("relgraph_" + name))
          .string();
  std::filesystem::remove(p);
  return p;
}

TEST(DiskManagerDurable, CreateCloseReopenPreservesPages) {
  const std::string path = ScratchPath("durable_roundtrip.rgpf");
  char w[kPageSize];
  {
    std::unique_ptr<DiskManager> dm;
    ASSERT_TRUE(DiskManager::Open(path, OpenMode::kCreate, &dm).ok());
    for (int i = 0; i < 4; i++) {
      ASSERT_EQ(dm->AllocatePage(), i);
      std::memset(w, 'a' + i, kPageSize);
      ASSERT_TRUE(dm->WritePage(i, w).ok());
    }
    ASSERT_TRUE(dm->Sync().ok());
  }
  // The file survives close (the durable contract the legacy scratch
  // constructor explicitly does NOT make).
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::unique_ptr<DiskManager> dm;
    Status st = DiskManager::Open(path, OpenMode::kOpenExisting, &dm);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(dm->num_pages(), 4);
    char r[kPageSize];
    for (int i = 0; i < 4; i++) {
      ASSERT_TRUE(dm->ReadPage(i, r).ok());
      std::memset(w, 'a' + i, kPageSize);
      EXPECT_EQ(std::memcmp(r, w, kPageSize), 0) << "page " << i;
    }
  }
  std::filesystem::remove(path);
}

// The PR-8 contract fix: opening an existing durable file must never
// silently truncate it — only OpenMode::kCreate (and the legacy scratch
// constructor, which documents it) may.
TEST(DiskManagerDurable, OpenExistingNeverTruncates) {
  const std::string path = ScratchPath("durable_notrunc.rgpf");
  {
    std::unique_ptr<DiskManager> dm;
    ASSERT_TRUE(DiskManager::Open(path, OpenMode::kCreate, &dm).ok());
    dm->AllocatePage();
    ASSERT_TRUE(dm->Sync().ok());
  }
  const auto size_before = std::filesystem::file_size(path);
  {
    std::unique_ptr<DiskManager> dm;
    ASSERT_TRUE(DiskManager::Open(path, OpenMode::kOpenExisting, &dm).ok());
    EXPECT_EQ(dm->num_pages(), 1);
  }
  EXPECT_EQ(std::filesystem::file_size(path), size_before);
  std::filesystem::remove(path);
}

TEST(DiskManagerDurable, ScratchConstructorDeletesItsFileOnClose) {
  const std::string path = ScratchPath("scratch_mode.rgpf");
  {
    DiskManager dm(path);
    ASSERT_FALSE(dm.in_memory());
    dm.AllocatePage();
    ASSERT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path)) << "scratch file leaked";
}

// A crash after Sync() rolls back to exactly the synced page count: writes
// that never reached a Sync are invisible after reopen, not half-visible.
TEST(DiskManagerDurable, ReopenRollsBackToLastSync) {
  const std::string path = ScratchPath("durable_rollback.rgpf");
  char buf[kPageSize];
  std::memset(buf, 'z', kPageSize);
  {
    std::unique_ptr<DiskManager> dm;
    ASSERT_TRUE(DiskManager::Open(path, OpenMode::kCreate, &dm).ok());
    for (int i = 0; i < 3; i++) {
      dm->AllocatePage();
      ASSERT_TRUE(dm->WritePage(i, buf).ok());
    }
    ASSERT_TRUE(dm->Sync().ok());
    // Two more pages the crash will erase.
    dm->AllocatePage();
    dm->AllocatePage();
    ASSERT_TRUE(dm->WritePage(3, buf).ok());
    dm->InjectCrashAfter(0);
    EXPECT_TRUE(dm->WritePage(4, buf).IsIOError());  // the "crash"
  }
  std::unique_ptr<DiskManager> re;
  ASSERT_TRUE(DiskManager::Open(path, OpenMode::kOpenExisting, &re).ok());
  EXPECT_EQ(re->num_pages(), 3) << "unsynced pages leaked past the crash";
  char r[kPageSize];
  EXPECT_TRUE(re->ReadPage(2, r).ok());
  EXPECT_FALSE(re->ReadPage(3, r).ok()) << "rolled-back page still readable";
  re.reset();
  std::filesystem::remove(path);
}

// Every flavour of single-byte damage to a stored page — data, the page-id
// echo, the CRC itself — must read back as typed Corruption naming the
// page, and un-flipping the byte must restore a clean read.
TEST(DiskManagerDurable, CorruptByteAnywhereInPageIsTypedCorruption) {
  const std::string path = ScratchPath("durable_crc.rgpf");
  std::unique_ptr<DiskManager> dm;
  ASSERT_TRUE(DiskManager::Open(path, OpenMode::kCreate, &dm).ok());
  char w[kPageSize];
  for (int i = 0; i < 2; i++) {
    dm->AllocatePage();
    std::memset(w, 0x5A + i, kPageSize);
    ASSERT_TRUE(dm->WritePage(i, w).ok());
  }
  char r[kPageSize];
  for (size_t off : {size_t{0}, kPageSize / 2, kPageSize - 1,
                     kPageSize /* id echo */, kPageSize + 4 /* CRC */}) {
    ASSERT_TRUE(dm->CorruptByteForTest(1, off).ok()) << off;
    Status st = dm->ReadPage(1, r);
    EXPECT_TRUE(st.IsCorruption()) << "offset " << off << ": " << st.ToString();
    EXPECT_NE(st.ToString().find("page 1"), std::string::npos)
        << "corruption must name the page: " << st.ToString();
    // The neighbour page is untouched.
    EXPECT_TRUE(dm->ReadPage(0, r).ok());
    // XOR again restores the byte.
    ASSERT_TRUE(dm->CorruptByteForTest(1, off).ok());
    EXPECT_TRUE(dm->ReadPage(1, r).ok()) << "offset " << off;
  }
  dm.reset();
  std::filesystem::remove(path);
}

// A page image copied over another page's slot is intact by CRC but wrong
// by identity: the page-id echo bound into the checksum catches the
// misdirected write.
TEST(DiskManagerDurable, MisdirectedWriteDetectedByPageIdEcho) {
  const std::string path = ScratchPath("durable_misdirect.rgpf");
  {
    std::unique_ptr<DiskManager> dm;
    ASSERT_TRUE(DiskManager::Open(path, OpenMode::kCreate, &dm).ok());
    char w[kPageSize];
    for (int i = 0; i < 2; i++) {
      dm->AllocatePage();
      std::memset(w, 0x10 + i, kPageSize);
      ASSERT_TRUE(dm->WritePage(i, w).ok());
    }
    ASSERT_TRUE(dm->Sync().ok());
  }
  // Copy page 0's full physical image (data + footer) into page 1's slot.
  const size_t phys = DiskManager::kPhysicalPageSize;
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  std::string image(phys, '\0');
  f.seekg(static_cast<std::streamoff>(DiskManager::kFileHeaderBytes));
  ASSERT_TRUE(f.read(image.data(), phys).good());
  f.seekp(static_cast<std::streamoff>(DiskManager::kFileHeaderBytes + phys));
  ASSERT_TRUE(f.write(image.data(), phys).good());
  f.close();

  std::unique_ptr<DiskManager> re;
  ASSERT_TRUE(DiskManager::Open(path, OpenMode::kOpenExisting, &re).ok());
  char r[kPageSize];
  EXPECT_TRUE(re->ReadPage(0, r).ok());
  Status st = re->ReadPage(1, r);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  re.reset();
  std::filesystem::remove(path);
}

TEST(DiskManagerDurable, HeaderValidationRejectsDamagedFiles) {
  // Truncated to shorter than a header.
  const std::string stub = ScratchPath("hdr_stub.rgpf");
  {
    std::ofstream f(stub, std::ios::binary);
    f << "RGPF";  // right magic, no rest
  }
  std::unique_ptr<DiskManager> dm;
  EXPECT_FALSE(DiskManager::Open(stub, OpenMode::kOpenExisting, &dm).ok());
  std::filesystem::remove(stub);

  // A valid one-page file, then surgical damage to the header.
  const std::string path = ScratchPath("hdr_damage.rgpf");
  {
    std::unique_ptr<DiskManager> fresh;
    ASSERT_TRUE(DiskManager::Open(path, OpenMode::kCreate, &fresh).ok());
    fresh->AllocatePage();
    ASSERT_TRUE(fresh->Sync().ok());
  }
  auto flip = [&](std::streamoff off) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(off);
    char b;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xFF);
    f.seekp(off);
    f.write(&b, 1);
  };
  for (std::streamoff off : {0 /* magic */, 4 /* version */,
                             8 /* page size */, 12 /* page count */,
                             16 /* header CRC */}) {
    flip(off);
    Status st = DiskManager::Open(path, OpenMode::kOpenExisting, &dm);
    EXPECT_FALSE(st.ok()) << "header byte " << off;
    EXPECT_TRUE(st.IsCorruption() || st.IsInvalidArgument())
        << "header byte " << off << ": " << st.ToString();
    flip(off);
    ASSERT_TRUE(DiskManager::Open(path, OpenMode::kOpenExisting, &dm).ok())
        << "header byte " << off << " did not restore";
    dm.reset();
  }

  // A header claiming more pages than the file holds.
  std::filesystem::resize_file(
      path, DiskManager::kFileHeaderBytes +
                DiskManager::kPhysicalPageSize / 2);
  Status st = DiskManager::Open(path, OpenMode::kOpenExisting, &dm);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  std::filesystem::remove(path);
}

// ------------------------------------------------------------ SlottedPage

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : page_(data_) { page_.Init(); }
  char data_[kPageSize] = {0};
  SlottedPage page_;
};

TEST_F(SlottedPageTest, InsertAndGet) {
  slot_id_t slot;
  ASSERT_TRUE(page_.Insert("hello", &slot).ok());
  std::string_view rec;
  ASSERT_TRUE(page_.Get(slot, &rec).ok());
  EXPECT_EQ(rec, "hello");
}

TEST_F(SlottedPageTest, MultipleRecordsKeepSlotIdentity) {
  slot_id_t s0, s1, s2;
  ASSERT_TRUE(page_.Insert("alpha", &s0).ok());
  ASSERT_TRUE(page_.Insert("beta", &s1).ok());
  ASSERT_TRUE(page_.Insert("gamma", &s2).ok());
  std::string_view rec;
  ASSERT_TRUE(page_.Get(s1, &rec).ok());
  EXPECT_EQ(rec, "beta");
  ASSERT_TRUE(page_.Get(s0, &rec).ok());
  EXPECT_EQ(rec, "alpha");
  EXPECT_EQ(page_.num_slots(), 3);
}

TEST_F(SlottedPageTest, DeleteTombstonesSlot) {
  slot_id_t s0, s1;
  ASSERT_TRUE(page_.Insert("one", &s0).ok());
  ASSERT_TRUE(page_.Insert("two", &s1).ok());
  ASSERT_TRUE(page_.Delete(s0).ok());
  std::string_view rec;
  EXPECT_TRUE(page_.Get(s0, &rec).IsNotFound());
  EXPECT_TRUE(page_.IsDeleted(s0));
  ASSERT_TRUE(page_.Get(s1, &rec).ok());  // neighbours unaffected
  EXPECT_EQ(rec, "two");
  EXPECT_TRUE(page_.Delete(s0).IsNotFound());  // double delete
}

TEST_F(SlottedPageTest, UpdateInPlaceSameOrSmaller) {
  slot_id_t slot;
  ASSERT_TRUE(page_.Insert("0123456789", &slot).ok());
  ASSERT_TRUE(page_.Update(slot, "abcdefghij").ok());
  std::string_view rec;
  ASSERT_TRUE(page_.Get(slot, &rec).ok());
  EXPECT_EQ(rec, "abcdefghij");
  ASSERT_TRUE(page_.Update(slot, "xyz").ok());  // shrink allowed
  ASSERT_TRUE(page_.Get(slot, &rec).ok());
  EXPECT_EQ(rec, "xyz");
  EXPECT_TRUE(page_.Update(slot, "this is far too long")
                  .IsResourceExhausted());  // grow refused
}

TEST_F(SlottedPageTest, FillsUntilResourceExhausted) {
  std::string record(100, 'x');
  slot_id_t slot;
  int inserted = 0;
  for (;;) {
    Status st = page_.Insert(record, &slot);
    if (!st.ok()) {
      EXPECT_TRUE(st.IsResourceExhausted());
      break;
    }
    inserted++;
  }
  // 4096-byte page, ~104 bytes per record+slot: expect a sane fill count.
  EXPECT_GT(inserted, 30);
  EXPECT_LT(inserted, 50);
  // Every record must still be readable.
  std::string_view rec;
  for (slot_id_t s = 0; s < inserted; s++) {
    ASSERT_TRUE(page_.Get(s, &rec).ok());
    EXPECT_EQ(rec, record);
  }
}

TEST_F(SlottedPageTest, RejectsOversizedRecord) {
  std::string record(kPageSize, 'x');
  slot_id_t slot;
  EXPECT_TRUE(page_.Insert(record, &slot).IsInvalidArgument());
}

TEST_F(SlottedPageTest, NextPageIdLink) {
  EXPECT_EQ(page_.next_page_id(), kInvalidPageId);
  page_.set_next_page_id(17);
  EXPECT_EQ(page_.next_page_id(), 17);
}

TEST_F(SlottedPageTest, EmptyRecordIsSupported) {
  slot_id_t slot;
  ASSERT_TRUE(page_.Insert("", &slot).ok());
  std::string_view rec;
  ASSERT_TRUE(page_.Get(slot, &rec).ok());
  EXPECT_TRUE(rec.empty());
}

// ------------------------------------------- HeapFile::CheckConsistency

/// Builds a multi-page heap over `dm` and returns it (via a pool the
/// caller owns). Records are sized to span several pages.
HeapFile BuildHeap(BufferPool* pool, int records, int64_t* live = nullptr) {
  HeapFile heap;
  EXPECT_TRUE(HeapFile::Create(pool, &heap).ok());
  Rid rid;
  for (int i = 0; i < records; i++) {
    std::string rec(64 + i % 200, static_cast<char>('a' + i % 23));
    EXPECT_TRUE(heap.Insert(rec, &rid).ok());
  }
  if (live != nullptr) *live = records;
  return heap;
}

TEST(HeapConsistency, CleanHeapPassesAndCountsLiveRecords) {
  DiskManager dm;
  BufferPool pool(256, &dm);
  HeapFile heap = BuildHeap(&pool, 500);
  int64_t live = -1;
  Status st = heap.CheckConsistency(&live);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(live, 500);
}

TEST(HeapConsistency, DeletesAreExcludedFromLiveCount) {
  DiskManager dm;
  BufferPool pool(256, &dm);
  HeapFile heap;
  ASSERT_TRUE(HeapFile::Create(&pool, &heap).ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 100; i++) {
    Rid rid;
    ASSERT_TRUE(heap.Insert(std::string(100, 'r'), &rid).ok());
    rids.push_back(rid);
  }
  for (int i = 0; i < 100; i += 2) {
    ASSERT_TRUE(heap.Delete(rids[i]).ok());
  }
  int64_t live = -1;
  ASSERT_TRUE(heap.CheckConsistency(&live).ok());
  EXPECT_EQ(live, 50);
}

// A page overwritten with garbage must fail the walk as typed Corruption —
// the validator the fsck scrubber shares must never trust a hostile page.
TEST(HeapConsistency, GarbagePageIsTypedCorruption) {
  DiskManager dm;
  BufferPool pool(4, &dm);
  HeapFile heap = BuildHeap(&pool, 300);
  ASSERT_TRUE(pool.FlushAll().ok());

  char hostile[kPageSize];
  std::memset(hostile, 0xFF, kPageSize);
  ASSERT_TRUE(dm.WritePage(heap.first_page(), hostile).ok());

  // Re-open over a fresh pool so the damaged page cannot be served from a
  // stale cached frame.
  BufferPool fresh(4, &dm);
  HeapFile reopened =
      HeapFile::Open(&fresh, heap.first_page(), heap.last_page());
  Status st = reopened.CheckConsistency();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// The fuzz: flip one random byte anywhere in the heap's pages and run the
// validator on a cold cache. Any verdict is acceptable — a flipped record
// byte is invisible to structure — but the walk must terminate and must
// never crash; and after un-flipping, the heap must verify clean again
// (the check itself mutated nothing).
TEST(HeapConsistency, SingleByteFlipFuzzNeverCrashesOrWedges) {
  DiskManager dm;
  BufferPool pool(256, &dm);
  int64_t want_live = 0;
  HeapFile heap = BuildHeap(&pool, 800, &want_live);
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_GT(dm.num_pages(), 8) << "fuzz needs a multi-page heap";

  Rng rng(20260808);
  for (int iter = 0; iter < 200; iter++) {
    const page_id_t page =
        static_cast<page_id_t>(rng.NextBounded(dm.num_pages()));
    const size_t off = static_cast<size_t>(rng.NextBounded(kPageSize));
    ASSERT_TRUE(dm.CorruptByteForTest(page, off).ok());

    BufferPool cold(8, &dm);
    HeapFile probe = HeapFile::Open(&cold, heap.first_page(), heap.last_page());
    int64_t live = -1;
    // The verdict is free — a flipped record byte is structurally
    // invisible, and a flipped slot marker may legally shift the census —
    // but the walk must terminate with SOME status, never crash or spin.
    probe.CheckConsistency(&live);

    ASSERT_TRUE(dm.CorruptByteForTest(page, off).ok());  // restore
  }
  BufferPool cold(8, &dm);
  HeapFile probe = HeapFile::Open(&cold, heap.first_page(), heap.last_page());
  int64_t live = -1;
  Status st = probe.CheckConsistency(&live);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(live, want_live);
}

}  // namespace
}  // namespace relgraph
