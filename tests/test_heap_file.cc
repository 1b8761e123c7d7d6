#include "src/storage/heap_file.h"

#include <gtest/gtest.h>

#include <set>

namespace relgraph {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(64, &dm_) {
    EXPECT_TRUE(HeapFile::Create(&pool_, &file_).ok());
  }
  DiskManager dm_;
  BufferPool pool_;
  HeapFile file_;
};

TEST_F(HeapFileTest, InsertGetRoundTrip) {
  Rid rid;
  ASSERT_TRUE(file_.Insert("record-1", &rid).ok());
  std::string out;
  ASSERT_TRUE(file_.Get(rid, &out).ok());
  EXPECT_EQ(out, "record-1");
}

TEST_F(HeapFileTest, SpillsAcrossPages) {
  std::string record(500, 'r');
  std::vector<Rid> rids;
  for (int i = 0; i < 100; i++) {  // ~50 KiB >> one page
    Rid rid;
    ASSERT_TRUE(file_.Insert(record + std::to_string(i), &rid).ok());
    rids.push_back(rid);
  }
  std::set<page_id_t> pages;
  for (const auto& rid : rids) pages.insert(rid.page_id);
  EXPECT_GT(pages.size(), 10u);
  // Every record still readable.
  for (size_t i = 0; i < rids.size(); i++) {
    std::string out;
    ASSERT_TRUE(file_.Get(rids[i], &out).ok());
    EXPECT_EQ(out, record + std::to_string(i));
  }
}

TEST_F(HeapFileTest, UpdateInPlace) {
  Rid rid;
  ASSERT_TRUE(file_.Insert("xxxxxxxx", &rid).ok());
  ASSERT_TRUE(file_.Update(rid, "yyyyyyyy").ok());
  std::string out;
  ASSERT_TRUE(file_.Get(rid, &out).ok());
  EXPECT_EQ(out, "yyyyyyyy");
  EXPECT_TRUE(file_.Update(rid, std::string(100, 'z')).IsResourceExhausted());
}

TEST_F(HeapFileTest, DeleteHidesRecordFromGetAndScan) {
  Rid r1, r2, r3;
  ASSERT_TRUE(file_.Insert("a", &r1).ok());
  ASSERT_TRUE(file_.Insert("b", &r2).ok());
  ASSERT_TRUE(file_.Insert("c", &r3).ok());
  ASSERT_TRUE(file_.Delete(r2).ok());

  std::string out;
  EXPECT_TRUE(file_.Get(r2, &out).IsNotFound());

  std::vector<std::string> scanned;
  auto it = file_.Scan();
  Rid rid;
  std::string record;
  while (it.Next(&rid, &record)) scanned.push_back(record);
  EXPECT_EQ(scanned, (std::vector<std::string>{"a", "c"}));
}

TEST_F(HeapFileTest, ScanVisitsEverythingAcrossPages) {
  const int n = 300;
  for (int i = 0; i < n; i++) {
    Rid rid;
    ASSERT_TRUE(
        file_.Insert("row-" + std::to_string(i) + std::string(50, '.'), &rid)
            .ok());
  }
  int count = 0;
  auto it = file_.Scan();
  Rid rid;
  std::string record;
  while (it.Next(&rid, &record)) {
    EXPECT_EQ(record.substr(0, 4), "row-");
    count++;
  }
  EXPECT_EQ(count, n);
}

TEST_F(HeapFileTest, ScanOfEmptyFileYieldsNothing) {
  auto it = file_.Scan();
  Rid rid;
  std::string record;
  EXPECT_FALSE(it.Next(&rid, &record));
}

TEST_F(HeapFileTest, ScanLeavesNoPins) {
  for (int i = 0; i < 50; i++) {
    Rid rid;
    ASSERT_TRUE(file_.Insert(std::string(200, 'p'), &rid).ok());
  }
  auto it = file_.Scan();
  Rid rid;
  std::string record;
  while (it.Next(&rid, &record)) {
  }
  EXPECT_EQ(pool_.PinnedFrames(), 0u);
}

TEST_F(HeapFileTest, WorksWithTinyBufferPool) {
  // A pool of 3 frames forces constant eviction through the insert path.
  DiskManager dm;
  BufferPool small(3, &dm);
  HeapFile file;
  ASSERT_TRUE(HeapFile::Create(&small, &file).ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 200; i++) {
    Rid rid;
    ASSERT_TRUE(
        file.Insert(std::string("v").append(std::to_string(i)).append(80, '_'),
                    &rid)
            .ok());
    rids.push_back(rid);
  }
  for (size_t i = 0; i < rids.size(); i++) {
    std::string out;
    ASSERT_TRUE(file.Get(rids[i], &out).ok());
    EXPECT_EQ(out.substr(0, 1 + std::to_string(i).size()),
              std::string("v").append(std::to_string(i)));
  }
  EXPECT_EQ(small.PinnedFrames(), 0u);
}

// ----- Destroy: page recycling --------------------------------------------

/// Fills `file` until it spans more than `min_pages` pages.
void FillPages(HeapFile* file, size_t min_pages) {
  std::set<page_id_t> pages;
  for (int i = 0; pages.size() <= min_pages; i++) {
    Rid rid;
    ASSERT_TRUE(file->Insert(std::string(500, 'r') + std::to_string(i), &rid)
                    .ok());
    pages.insert(rid.page_id);
  }
}

TEST_F(HeapFileTest, DestroyFreesTheChainForReuse) {
  FillPages(&file_, 10);
  const page_id_t pages = dm_.num_pages();  // every page is this file's
  ASSERT_TRUE(file_.Destroy().ok());
  EXPECT_EQ(file_.first_page(), kInvalidPageId);
  EXPECT_EQ(dm_.num_free_pages(), static_cast<size_t>(pages));
  EXPECT_EQ(pool_.PinnedFrames(), 0u);
  ASSERT_TRUE(file_.Destroy().ok()) << "a detached file destroys as a no-op";

  HeapFile again;
  ASSERT_TRUE(HeapFile::Create(&pool_, &again).ok());
  FillPages(&again, 10);
  EXPECT_EQ(dm_.num_pages(), pages) << "the rebuild must draw on freed pages";
  int64_t live = 0;
  ASSERT_TRUE(again.CheckConsistency(&live).ok());
  EXPECT_GT(live, 0);
}

// Destroy walks a possibly hostile chain: a cycle or a link to an
// unallocated page is Corruption, and nothing is freed.
TEST_F(HeapFileTest, DestroyOfCorruptChainIsCorruptionAndFreesNothing) {
  FillPages(&file_, 3);
  const page_id_t first = file_.first_page();
  for (page_id_t bad_next : {first, page_id_t{1'000'000}}) {
    SCOPED_TRACE(bad_next == first ? "cycle" : "unallocated page");
    {
      PageGuard guard(&pool_, file_.last_page());
      ASSERT_TRUE(guard.ok());
      SlottedPage(guard.data()).set_next_page_id(bad_next);
      guard.MarkDirty();
    }
    Status st = file_.Destroy();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_EQ(dm_.num_free_pages(), 0u);
    EXPECT_EQ(file_.first_page(), first);
    EXPECT_EQ(pool_.PinnedFrames(), 0u);
  }
}

}  // namespace
}  // namespace relgraph
