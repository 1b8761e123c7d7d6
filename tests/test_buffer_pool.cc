#include "src/storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
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

// Differential check against the textbook model: a std::list in recency
// order (front = oldest), searched linearly. Victim results and Size()
// must agree after every call of a long seeded Pin/Unpin/Victim sequence.
TEST(LruReplacerTest, MatchesReferenceListModel) {
  constexpr frame_id_t kFrames = 64;
  LruReplacer lru(kFrames);
  std::list<frame_id_t> model;
  auto drop = [&model](frame_id_t f) {
    auto it = std::find(model.begin(), model.end(), f);
    if (it != model.end()) model.erase(it);
  };
  Rng rng(20240917);
  int64_t victims = 0;
  for (int step = 0; step < 200000; step++) {
    const frame_id_t f = static_cast<frame_id_t>(rng.NextBounded(kFrames));
    const uint64_t op = rng.NextBounded(20);
    if (op < 9) {  // Unpin, 45%
      lru.Unpin(f);
      drop(f);
      model.push_back(f);
    } else if (op < 15) {  // Pin, 30%
      lru.Pin(f);
      drop(f);
    } else {  // Victim, 25%
      frame_id_t got = -1;
      const bool ok = lru.Victim(&got);
      ASSERT_EQ(ok, !model.empty()) << "step " << step;
      if (ok) {
        ASSERT_EQ(got, model.front()) << "step " << step;
        model.pop_front();
        victims++;
      }
    }
    ASSERT_EQ(lru.Size(), model.size()) << "step " << step;
  }
  EXPECT_GT(victims, 10000);
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

// --------------------------------------------------- page table (by id)

/// Writes `id` into the first bytes of a page so a later read can tell
/// which page it got.
void Stamp(char* data, page_id_t id) { std::memcpy(data, &id, sizeof(id)); }
page_id_t StampOf(const char* data) {
  page_id_t id;
  std::memcpy(&id, data, sizeof(id));
  return id;
}

TEST(BufferPoolTest, NewPageGrowsPageTablePastInitialSize) {
  DiskManager dm;
  for (int i = 0; i < 3; i++) dm.AllocatePage();
  BufferPool pool(4, &dm);  // page table sized for ids 0..2
  std::vector<page_id_t> ids(40);
  for (auto& id : ids) {
    Page* page;
    ASSERT_TRUE(pool.NewPage(&id, &page).ok());
    Stamp(page->data(), id);
    ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  }
  EXPECT_EQ(ids.front(), 3);
  EXPECT_EQ(ids.back(), 42);
  for (page_id_t id : ids) {
    Page* page;
    ASSERT_TRUE(pool.FetchPage(id, &page).ok());
    EXPECT_EQ(page->page_id(), id);
    EXPECT_EQ(StampOf(page->data()), id);
    ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  }
}

TEST(BufferPoolTest, FetchesPageAllocatedAfterPoolWasBuilt) {
  DiskManager dm;
  BufferPool pool(4, &dm);
  const page_id_t id = dm.AllocatePage();
  char raw[kPageSize] = {0};
  Stamp(raw, 77);
  ASSERT_TRUE(dm.WritePage(id, raw).ok());

  Page* page;
  ASSERT_TRUE(pool.FetchPage(id, &page).ok());  // miss: read from disk
  EXPECT_EQ(StampOf(page->data()), 77);
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  Page* again;
  ASSERT_TRUE(pool.FetchPage(id, &again).ok());  // hit: now resident
  EXPECT_EQ(again, page);
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  EXPECT_EQ(pool.stats().misses, 1);
  EXPECT_EQ(pool.stats().hits, 1);
}

TEST(BufferPoolTest, RecycledIdMapsToItsNewFrame) {
  DiskManager dm;
  BufferPool pool(2, &dm);
  page_id_t a, b, c;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&a, &page).ok());
  std::strcpy(page->data(), "old a");
  ASSERT_TRUE(pool.UnpinPage(a, true).ok());
  ASSERT_TRUE(pool.NewPage(&b, &page).ok());
  ASSERT_TRUE(pool.UnpinPage(b, true).ok());
  ASSERT_TRUE(pool.NewPage(&c, &page).ok());  // evicts a
  Page* c_frame = page;
  ASSERT_TRUE(pool.UnpinPage(c, true).ok());
  ASSERT_TRUE(pool.DeletePage(a).ok());  // a is not resident

  page_id_t again;
  Page* fresh;
  ASSERT_TRUE(pool.NewPage(&again, &fresh).ok());  // evicts b
  ASSERT_EQ(again, a);
  EXPECT_NE(fresh, c_frame);
  std::strcpy(fresh->data(), "new a");
  ASSERT_TRUE(pool.UnpinPage(a, true).ok());

  Page* got;
  ASSERT_TRUE(pool.FetchPage(a, &got).ok());
  EXPECT_EQ(got, fresh);
  EXPECT_STREQ(got->data(), "new a");
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  ASSERT_TRUE(pool.FetchPage(c, &got).ok());
  EXPECT_EQ(got, c_frame);
  ASSERT_TRUE(pool.UnpinPage(c, false).ok());

  // Resident when deleted, then recycled: the same id, a new life.
  ASSERT_TRUE(pool.DeletePage(a).ok());
  EXPECT_TRUE(pool.UnpinPage(a, false).IsNotFound());
  ASSERT_TRUE(pool.NewPage(&again, &fresh).ok());
  ASSERT_EQ(again, a);
  EXPECT_EQ(fresh->data()[0], '\0');
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  ASSERT_TRUE(pool.FetchPage(a, &got).ok());
  EXPECT_EQ(got, fresh);
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
}

TEST(BufferPoolTest, FailedFetchLeavesNoMapping) {
  DiskManager dm;
  BufferPool pool(4, &dm);
  const page_id_t next = dm.num_pages();  // not allocated yet
  for (page_id_t bad : {next, next + 1000, -5}) {
    Page* page = nullptr;
    EXPECT_FALSE(pool.FetchPage(bad, &page).ok()) << bad;
    EXPECT_TRUE(pool.UnpinPage(bad, false).IsNotFound()) << bad;
    EXPECT_TRUE(pool.FlushPage(bad).ok()) << bad;
  }
  EXPECT_EQ(pool.PinnedFrames(), 0u);

  // Every frame is still usable, and the id the failed fetch asked for
  // comes back from NewPage as an ordinary zeroed page.
  std::vector<page_id_t> ids(4);
  for (auto& id : ids) {
    Page* page;
    ASSERT_TRUE(pool.NewPage(&id, &page).ok());
    EXPECT_EQ(page->data()[0], '\0');
    Stamp(page->data(), id);
  }
  EXPECT_EQ(ids.front(), next);
  for (page_id_t id : ids) ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  for (page_id_t id : ids) {
    Page* page;
    ASSERT_TRUE(pool.FetchPage(id, &page).ok());
    EXPECT_EQ(StampOf(page->data()), id);
    ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  }
}

TEST(BufferPoolTest, FlushAllWritesEachDirtyPageOnce) {
  DiskManager dm;
  BufferPool pool(8, &dm);
  std::vector<page_id_t> ids(5);
  for (auto& id : ids) {
    Page* page;
    ASSERT_TRUE(pool.NewPage(&id, &page).ok());  // dirty from birth
    ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  }
  int64_t writes = dm.stats().writes;
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dm.stats().writes - writes, 5);

  for (size_t i = 0; i < ids.size(); i++) {
    Page* page;
    ASSERT_TRUE(pool.FetchPage(ids[i], &page).ok());
    ASSERT_TRUE(pool.UnpinPage(ids[i], /*is_dirty=*/i % 2 == 0).ok());
  }
  writes = dm.stats().writes;
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dm.stats().writes - writes, 3);  // ids[0], ids[2], ids[4]
  writes = dm.stats().writes;
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dm.stats().writes, writes);  // nothing dirty is left
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

// The pool size is a cap, not an up-front allocation: frames appear as
// pages need them, a freed frame is reused before a new one is made, and
// eviction starts only once the cap is reached.
TEST(BufferPoolTest, FramesAreCreatedOnFirstUse) {
  DiskManager dm;
  BufferPool pool(4, &dm);
  EXPECT_EQ(pool.pool_size(), 4u);
  EXPECT_EQ(pool.allocated_frames(), 0u);

  page_id_t ids[3];
  for (int k = 0; k < 3; k++) {
    Page* page;
    ASSERT_TRUE(pool.NewPage(&ids[k], &page).ok());
    ASSERT_TRUE(pool.UnpinPage(ids[k], true).ok());
    EXPECT_EQ(pool.allocated_frames(), static_cast<size_t>(k + 1));
  }

  // The frame DeletePage frees comes back before a fourth one is made.
  ASSERT_TRUE(pool.DeletePage(ids[1]).ok());
  page_id_t reused;
  Page* page;
  ASSERT_TRUE(pool.NewPage(&reused, &page).ok());
  ASSERT_TRUE(pool.UnpinPage(reused, true).ok());
  EXPECT_EQ(pool.allocated_frames(), 3u);

  // The fourth frame is created, still without an eviction ...
  page_id_t fourth;
  ASSERT_TRUE(pool.NewPage(&fourth, &page).ok());
  ASSERT_TRUE(pool.UnpinPage(fourth, true).ok());
  EXPECT_EQ(pool.allocated_frames(), 4u);
  EXPECT_EQ(pool.stats().evictions, 0);

  // ... and only past the cap does a page evict the LRU one.
  page_id_t fifth;
  ASSERT_TRUE(pool.NewPage(&fifth, &page).ok());
  ASSERT_TRUE(pool.UnpinPage(fifth, true).ok());
  EXPECT_EQ(pool.allocated_frames(), 4u);
  EXPECT_EQ(pool.stats().evictions, 1);
  EXPECT_EQ(pool.stats().dirty_writebacks, 1);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
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

// ------------------------------------------------------ concurrent readers

// Four threads fetch and unpin overlapping pages through a locked pool that
// holds a quarter of their working set, so evictions and page-table growth
// (the pages were allocated after the pool was built) interleave under the
// pool mutex. Every pinned page must carry its own stamp.
TEST(BufferPoolTest, ConcurrentReadersSeeTheirOwnPages) {
  constexpr int kThreads = 4;
  constexpr page_id_t kPages = 64;
  constexpr int kRounds = 4000;
  DiskManager dm;
  BufferPool pool(16, &dm, /*concurrent_readers=*/true);
  for (page_id_t i = 0; i < kPages; i++) {
    char raw[kPageSize] = {0};
    const page_id_t id = dm.AllocatePage();
    Stamp(raw, id);
    raw[kPageSize - 1] = static_cast<char>(id);
    ASSERT_TRUE(dm.WritePage(id, raw).ok());
  }

  std::vector<int> bad(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&pool, &bad, t] {
      Rng rng(100 + t);
      // Thread t reads ids [16t, 16t + 32) mod 64: half shared with t+1.
      auto pick = [&rng, t] {
        return static_cast<page_id_t>((16 * t + rng.NextBounded(32)) %
                                      kPages);
      };
      for (int round = 0; round < kRounds; round++) {
        const page_id_t ids[2] = {pick(), pick()};
        Page* pages[2] = {nullptr, nullptr};
        for (int k = 0; k < 2; k++) {
          if (!pool.FetchPage(ids[k], &pages[k]).ok()) {
            bad[t]++;
            pages[k] = nullptr;
            continue;
          }
          if (StampOf(pages[k]->data()) != ids[k] ||
              pages[k]->data()[kPageSize - 1] != static_cast<char>(ids[k])) {
            bad[t]++;
          }
        }
        for (int k = 0; k < 2; k++) {
          if (pages[k] != nullptr && !pool.UnpinPage(ids[k], false).ok()) {
            bad[t]++;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; t++) EXPECT_EQ(bad[t], 0) << "thread " << t;
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses,
            int64_t{kThreads} * kRounds * 2);
  EXPECT_GT(pool.stats().evictions, 0);
}

}  // namespace
}  // namespace relgraph
