#include "src/storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "src/storage/lru_replacer.h"

namespace relgraph {
namespace {

// ------------------------------------------------------------ LruReplacer

TEST(LruReplacerTest, VictimIsLeastRecentlyUnpinned) {
  LruReplacer lru(8);
  lru.Unpin(1);
  lru.Unpin(2);
  lru.Unpin(3);
  frame_id_t victim;
  ASSERT_TRUE(lru.Victim(&victim));
  EXPECT_EQ(victim, 1);
  ASSERT_TRUE(lru.Victim(&victim));
  EXPECT_EQ(victim, 2);
}

TEST(LruReplacerTest, PinRemovesCandidate) {
  LruReplacer lru(8);
  lru.Unpin(1);
  lru.Unpin(2);
  lru.Pin(1);
  frame_id_t victim;
  ASSERT_TRUE(lru.Victim(&victim));
  EXPECT_EQ(victim, 2);
  EXPECT_FALSE(lru.Victim(&victim));
}

TEST(LruReplacerTest, ReUnpinRefreshesRecency) {
  LruReplacer lru(8);
  lru.Unpin(1);
  lru.Unpin(2);
  lru.Unpin(1);  // 1 is now newest
  frame_id_t victim;
  ASSERT_TRUE(lru.Victim(&victim));
  EXPECT_EQ(victim, 2);
}

TEST(LruReplacerTest, EmptyHasNoVictim) {
  LruReplacer lru(4);
  frame_id_t victim;
  EXPECT_FALSE(lru.Victim(&victim));
}

// ------------------------------------------------------------- BufferPool

TEST(BufferPoolTest, NewPageAndFetch) {
  DiskManager dm;
  BufferPool pool(4, &dm);
  page_id_t id;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&id, &page).ok());
  std::strcpy(page->data(), "payload");
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());

  Page* again;
  ASSERT_TRUE(pool.FetchPage(id, &again).ok());
  EXPECT_STREQ(again->data(), "payload");
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
}

TEST(BufferPoolTest, EvictionWritesDirtyPagesBack) {
  DiskManager dm;
  BufferPool pool(2, &dm);
  page_id_t ids[4];
  for (int i = 0; i < 4; i++) {
    Page* page;
    ASSERT_TRUE(pool.NewPage(&ids[i], &page).ok());
    page->data()[0] = static_cast<char>('a' + i);
    ASSERT_TRUE(pool.UnpinPage(ids[i], true).ok());
  }
  // Pages 0 and 1 must have been evicted; re-fetch from disk.
  for (int i = 0; i < 4; i++) {
    Page* page;
    ASSERT_TRUE(pool.FetchPage(ids[i], &page).ok());
    EXPECT_EQ(page->data()[0], static_cast<char>('a' + i));
    ASSERT_TRUE(pool.UnpinPage(ids[i], false).ok());
  }
  EXPECT_GT(pool.stats().evictions, 0);
  EXPECT_GT(pool.stats().dirty_writebacks, 0);
}

TEST(BufferPoolTest, PinnedPagesAreNeverEvicted) {
  DiskManager dm;
  BufferPool pool(2, &dm);
  page_id_t keep;
  Page* kept;
  ASSERT_TRUE(pool.NewPage(&keep, &kept).ok());  // stays pinned

  page_id_t other;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&other, &page).ok());
  ASSERT_TRUE(pool.UnpinPage(other, true).ok());

  // Fill beyond capacity; only the unpinned frame may turn over.
  for (int i = 0; i < 3; i++) {
    page_id_t id;
    ASSERT_TRUE(pool.NewPage(&id, &page).ok());
    ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  }
  EXPECT_EQ(kept->page_id(), keep);  // untouched
  EXPECT_EQ(pool.PinnedFrames(), 1u);

  // With both frames pinned, a third fetch must fail.
  page_id_t id2;
  Page* p2;
  ASSERT_TRUE(pool.NewPage(&id2, &p2).ok());
  page_id_t id3;
  Page* p3;
  EXPECT_TRUE(pool.NewPage(&id3, &p3).IsResourceExhausted());
  ASSERT_TRUE(pool.UnpinPage(keep, false).ok());
  ASSERT_TRUE(pool.UnpinPage(id2, false).ok());
}

TEST(BufferPoolTest, HitMissAccounting) {
  DiskManager dm;
  BufferPool pool(4, &dm);
  page_id_t id;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&id, &page).ok());
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  pool.ResetStats();

  ASSERT_TRUE(pool.FetchPage(id, &page).ok());  // hit (resident)
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  EXPECT_EQ(pool.stats().hits, 1);
  EXPECT_EQ(pool.stats().misses, 0);
  EXPECT_DOUBLE_EQ(pool.stats().HitRate(), 1.0);
}

TEST(BufferPoolTest, SmallerPoolMissesMore) {
  // The mechanism behind the paper's Figure 8(b): scan a working set that
  // fits in the large pool but not the small one.
  auto misses_with_pool = [](size_t pool_pages) {
    DiskManager dm;
    BufferPool pool(pool_pages, &dm);
    std::vector<page_id_t> ids(16);
    for (auto& id : ids) {
      Page* page;
      EXPECT_TRUE(pool.NewPage(&id, &page).ok());
      EXPECT_TRUE(pool.UnpinPage(id, true).ok());
    }
    pool.ResetStats();
    for (int round = 0; round < 4; round++) {
      for (auto id : ids) {
        Page* page;
        EXPECT_TRUE(pool.FetchPage(id, &page).ok());
        EXPECT_TRUE(pool.UnpinPage(id, false).ok());
      }
    }
    return pool.stats().misses;
  };
  EXPECT_GT(misses_with_pool(4), misses_with_pool(32));
  EXPECT_EQ(misses_with_pool(32), 0);
}

TEST(BufferPoolTest, FlushAllPersistsDirtyPages) {
  DiskManager dm;
  BufferPool pool(4, &dm);
  page_id_t id;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&id, &page).ok());
  std::strcpy(page->data(), "durable");
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  char raw[kPageSize];
  ASSERT_TRUE(dm.ReadPage(id, raw).ok());
  EXPECT_STREQ(raw, "durable");
}

TEST(BufferPoolTest, UnpinErrors) {
  DiskManager dm;
  BufferPool pool(2, &dm);
  EXPECT_TRUE(pool.UnpinPage(123, false).IsNotFound());
  page_id_t id;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&id, &page).ok());
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  EXPECT_FALSE(pool.UnpinPage(id, false).ok());  // pin count already 0
}

// ------------------------------------------------ DeletePage (recycling)

TEST(BufferPoolTest, DeletePageRefusesPinnedPage) {
  DiskManager dm;
  BufferPool pool(4, &dm);
  page_id_t id;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&id, &page).ok());
  std::strcpy(page->data(), "still mine");
  EXPECT_TRUE(pool.DeletePage(id).IsInvalidArgument());
  EXPECT_EQ(dm.num_free_pages(), 0u);
  EXPECT_STREQ(page->data(), "still mine");  // frame untouched
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  ASSERT_TRUE(pool.DeletePage(id).ok());
  EXPECT_EQ(dm.num_free_pages(), 1u);
}

TEST(BufferPoolTest, DeletedDirtyPageIsNeverWrittenBack) {
  DiskManager dm;
  BufferPool pool(2, &dm);
  page_id_t id;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&id, &page).ok());
  std::strcpy(page->data(), "dead on arrival");
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  ASSERT_TRUE(pool.DeletePage(id).ok());

  // The freed frame is reused directly (no eviction), and neither flushing
  // nor churning the pool ever writes the dead page.
  const int64_t writes0 = dm.stats().writes;
  ASSERT_TRUE(pool.FlushAll().ok());
  for (int i = 0; i < 2; i++) {
    page_id_t other;
    ASSERT_TRUE(pool.NewPage(&other, &page).ok());
    ASSERT_TRUE(pool.UnpinPage(other, false).ok());
  }
  EXPECT_EQ(pool.stats().evictions, 0);
  EXPECT_EQ(pool.stats().dirty_writebacks, 0);
  EXPECT_EQ(dm.stats().writes, writes0);
}

TEST(BufferPoolTest, FreedIdComesBackZeroFilled) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("relgraph_reuse_" + std::to_string(::getpid()) + ".db"))
          .string();
  for (bool in_memory : {true, false}) {
    SCOPED_TRACE(in_memory ? "in memory" : "file-backed");
    std::unique_ptr<DiskManager> dm = in_memory
                                          ? std::make_unique<DiskManager>()
                                          : std::make_unique<DiskManager>(path);
    ASSERT_EQ(dm->in_memory(), in_memory);
    BufferPool pool(4, dm.get());
    page_id_t id;
    Page* page;
    ASSERT_TRUE(pool.NewPage(&id, &page).ok());
    std::memset(page->data(), 0xAB, kPageSize);
    ASSERT_TRUE(pool.UnpinPage(id, true).ok());
    ASSERT_TRUE(pool.FlushPage(id).ok());  // the stale image reaches disk
    ASSERT_TRUE(pool.DeletePage(id).ok());

    const page_id_t pages = dm->num_pages();
    const int64_t fresh = dm->stats().allocations;
    page_id_t again;
    ASSERT_TRUE(pool.NewPage(&again, &page).ok());
    EXPECT_EQ(again, id);
    EXPECT_EQ(dm->num_pages(), pages);
    EXPECT_EQ(dm->stats().allocations, fresh);
    EXPECT_EQ(dm->stats().reuses, 1);
    EXPECT_EQ(dm->num_free_pages(), 0u);
    const std::string zeros(kPageSize, '\0');
    EXPECT_EQ(std::string(page->data(), kPageSize), zeros);
    ASSERT_TRUE(pool.UnpinPage(again, false).ok());

    // NewPage marked the frame dirty, so flushing replaces the stale image
    // on disk with the zeroed one (through the CRC check when file-backed).
    ASSERT_TRUE(pool.FlushAll().ok());
    char raw[kPageSize];
    ASSERT_TRUE(dm->ReadPage(id, raw).ok());
    EXPECT_EQ(std::string(raw, kPageSize), zeros);
  }
}

TEST(BufferPoolTest, DeallocateRejectsDoubleAndUnallocatedFrees) {
  DiskManager dm;
  BufferPool pool(4, &dm);
  page_id_t id;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&id, &page).ok());
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  ASSERT_TRUE(pool.DeletePage(id).ok());
  EXPECT_TRUE(pool.DeletePage(id).IsInvalidArgument());
  EXPECT_TRUE(dm.DeallocatePage(id + 1).code() == Status::Code::kOutOfRange);
  EXPECT_TRUE(dm.DeallocatePage(-1).code() == Status::Code::kOutOfRange);
  EXPECT_EQ(dm.num_free_pages(), 1u);
}

TEST(PageGuardTest, ReleasesPinOnDestruction) {
  DiskManager dm;
  BufferPool pool(2, &dm);
  page_id_t id;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&id, &page).ok());
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  {
    PageGuard guard(&pool, id);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(pool.PinnedFrames(), 1u);
  }
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

TEST(PageGuardTest, MoveTransfersOwnership) {
  DiskManager dm;
  BufferPool pool(2, &dm);
  page_id_t id;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&id, &page).ok());
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  PageGuard outer;
  {
    PageGuard inner(&pool, id);
    ASSERT_TRUE(inner.ok());
    outer = std::move(inner);
  }
  EXPECT_EQ(pool.PinnedFrames(), 1u);  // still held by outer
  outer.Release();
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

}  // namespace
}  // namespace relgraph
