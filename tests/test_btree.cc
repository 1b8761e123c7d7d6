#include "src/index/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace relgraph {
namespace {

std::string Pay(int64_t v) {
  std::string out(8, 0);
  std::memcpy(out.data(), &v, 8);
  return out;
}

int64_t UnPay(const std::string& p) {
  int64_t v;
  std::memcpy(&v, p.data(), 8);
  return v;
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(256, &dm_) {
    EXPECT_TRUE(BTree::Create(&pool_, 8, &tree_).ok());
  }
  DiskManager dm_;
  BufferPool pool_;
  BTree tree_;
};

TEST_F(BTreeTest, InsertAndSearchExact) {
  ASSERT_TRUE(tree_.Insert({10, 0}, Pay(100), false).ok());
  ASSERT_TRUE(tree_.Insert({20, 0}, Pay(200), false).ok());
  std::string payload;
  ASSERT_TRUE(tree_.SearchExact({10, 0}, &payload).ok());
  EXPECT_EQ(UnPay(payload), 100);
  EXPECT_TRUE(tree_.SearchExact({15, 0}, &payload).IsNotFound());
}

TEST_F(BTreeTest, UniqueRejectsDuplicateKeyPart) {
  ASSERT_TRUE(tree_.Insert({5, 0}, Pay(1), true).ok());
  EXPECT_TRUE(tree_.Insert({5, 0}, Pay(2), true).IsAlreadyExists());
  EXPECT_TRUE(tree_.Insert({5, 99}, Pay(2), true).IsAlreadyExists());
  EXPECT_EQ(tree_.num_entries(), 1);
}

TEST_F(BTreeTest, NonUniqueAllowsDuplicatesWithDistinctTies) {
  for (int64_t tie = 0; tie < 10; tie++) {
    ASSERT_TRUE(tree_.Insert({7, tie}, Pay(tie), false).ok());
  }
  EXPECT_EQ(tree_.num_entries(), 10);
  auto it = tree_.Scan(7, 7);
  BtKey key;
  std::string payload;
  int count = 0;
  int64_t prev_tie = -1;
  while (it.Next(&key, &payload)) {
    EXPECT_EQ(key.key, 7);
    EXPECT_GT(key.tie, prev_tie);  // ordered by tiebreak
    prev_tie = key.tie;
    count++;
  }
  EXPECT_EQ(count, 10);
}

TEST_F(BTreeTest, ManyInsertsForceSplitsAndStayOrdered) {
  const int n = 5000;  // forces multiple levels with 8-byte payloads
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(tree_.Insert({i, 0}, Pay(i * 3), true).ok()) << i;
  }
  EXPECT_GT(tree_.Height(), 1);
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
  for (int i = 0; i < n; i += 37) {
    std::string payload;
    ASSERT_TRUE(tree_.SearchExact({i, 0}, &payload).ok()) << i;
    EXPECT_EQ(UnPay(payload), i * 3);
  }
}

TEST_F(BTreeTest, ReverseInsertionOrder) {
  const int n = 3000;
  for (int i = n - 1; i >= 0; i--) {
    ASSERT_TRUE(tree_.Insert({i, 0}, Pay(i), true).ok());
  }
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
  auto it = tree_.ScanAll();
  BtKey key;
  std::string payload;
  int64_t expected = 0;
  while (it.Next(&key, &payload)) {
    EXPECT_EQ(key.key, expected++);
  }
  EXPECT_EQ(expected, n);
}

TEST_F(BTreeTest, RangeScanBoundsAreInclusive) {
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(tree_.Insert({i, 0}, Pay(i), true).ok());
  }
  auto it = tree_.Scan(10, 20);
  BtKey key;
  std::string payload;
  std::vector<int64_t> seen;
  while (it.Next(&key, &payload)) seen.push_back(key.key);
  ASSERT_EQ(seen.size(), 11u);
  EXPECT_EQ(seen.front(), 10);
  EXPECT_EQ(seen.back(), 20);
}

TEST_F(BTreeTest, ScanEmptyRange) {
  for (int i = 0; i < 50; i += 10) {
    ASSERT_TRUE(tree_.Insert({i, 0}, Pay(i), true).ok());
  }
  auto it = tree_.Scan(11, 19);
  BtKey key;
  std::string payload;
  EXPECT_FALSE(it.Next(&key, &payload));
}

TEST_F(BTreeTest, DeleteRemovesEntry) {
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(tree_.Insert({i, 0}, Pay(i), true).ok());
  }
  for (int i = 0; i < 500; i += 2) {
    ASSERT_TRUE(tree_.Delete({i, 0}).ok());
  }
  EXPECT_EQ(tree_.num_entries(), 250);
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
  std::string payload;
  EXPECT_TRUE(tree_.SearchExact({4, 0}, &payload).IsNotFound());
  EXPECT_TRUE(tree_.SearchExact({5, 0}, &payload).ok());
  EXPECT_TRUE(tree_.Delete({4, 0}).IsNotFound());
}

TEST_F(BTreeTest, UpdatePayloadInPlace) {
  ASSERT_TRUE(tree_.Insert({1, 0}, Pay(10), true).ok());
  ASSERT_TRUE(tree_.UpdatePayload({1, 0}, Pay(99)).ok());
  std::string payload;
  ASSERT_TRUE(tree_.SearchExact({1, 0}, &payload).ok());
  EXPECT_EQ(UnPay(payload), 99);
  EXPECT_TRUE(tree_.UpdatePayload({2, 0}, Pay(0)).IsNotFound());
}

TEST_F(BTreeTest, SearchFirstFindsSmallestTie) {
  ASSERT_TRUE(tree_.Insert({4, 7}, Pay(70), false).ok());
  ASSERT_TRUE(tree_.Insert({4, 3}, Pay(30), false).ok());
  ASSERT_TRUE(tree_.Insert({4, 9}, Pay(90), false).ok());
  BtKey found;
  std::string payload;
  ASSERT_TRUE(tree_.SearchFirst(4, &found, &payload).ok());
  EXPECT_EQ(found.tie, 3);
  EXPECT_EQ(UnPay(payload), 30);
  EXPECT_TRUE(tree_.SearchFirst(5, &found, &payload).IsNotFound());
}

TEST_F(BTreeTest, NegativeKeysSupported) {
  for (int64_t k : {-100, -1, 0, 1, 100}) {
    ASSERT_TRUE(tree_.Insert({k, 0}, Pay(k), true).ok());
  }
  auto it = tree_.ScanAll();
  BtKey key;
  std::string payload;
  std::vector<int64_t> seen;
  while (it.Next(&key, &payload)) seen.push_back(key.key);
  EXPECT_EQ(seen, (std::vector<int64_t>{-100, -1, 0, 1, 100}));
}

TEST_F(BTreeTest, PayloadWidthIsEnforced) {
  EXPECT_TRUE(tree_.Insert({1, 0}, "short", false).IsInvalidArgument());
  EXPECT_TRUE(
      tree_.Insert({1, 0}, std::string(9, 'x'), false).IsInvalidArgument());
}

// A point operation or a scan open fetches each node on its root-to-leaf
// path once, and leaves nothing pinned whatever its outcome.
TEST_F(BTreeTest, DescentPinsEachNodeOnce) {
  for (int64_t k = 0; k < 60000; k += 2) {  // even keys: odd ones are gaps
    ASSERT_TRUE(tree_.Insert({k, 0}, Pay(k), true).ok());
  }
  const int height = tree_.Height();
  ASSERT_EQ(height, 3);
  auto expect_hits = [&](const char* what, int64_t want_hits,
                         const std::function<Status()>& op,
                         bool (Status::*expected)() const) {
    SCOPED_TRACE(what);
    pool_.ResetStats();
    const Status st = op();
    EXPECT_TRUE((st.*expected)()) << st.ToString();
    EXPECT_EQ(pool_.stats().hits, want_hits);
    EXPECT_EQ(pool_.stats().misses, 0);
    EXPECT_EQ(pool_.PinnedFrames(), 0u);
  };
  std::string payload;
  BtKey found;
  expect_hits("SearchExact", height,
              [&] { return tree_.SearchExact({500, 0}, &payload); },
              &Status::ok);
  expect_hits("SearchExact miss", height,
              [&] { return tree_.SearchExact({501, 0}, &payload); },
              &Status::IsNotFound);
  expect_hits("SearchFirst", height,
              [&] { return tree_.SearchFirst(700, &found, &payload); },
              &Status::ok);
  expect_hits("UpdatePayload", height,
              [&] { return tree_.UpdatePayload({500, 0}, Pay(-1)); },
              &Status::ok);
  expect_hits("UpdatePayload miss", height,
              [&] { return tree_.UpdatePayload({501, 0}, Pay(-1)); },
              &Status::IsNotFound);
  expect_hits("UpdatePayload width", 0,
              [&] { return tree_.UpdatePayload({500, 0}, "short"); },
              &Status::IsInvalidArgument);
  expect_hits("Delete", height, [&] { return tree_.Delete({500, 0}); },
              &Status::ok);
  expect_hits("Delete miss", height, [&] { return tree_.Delete({500, 0}); },
              &Status::IsNotFound);
  // Deleting 500 made room in its leaf, so putting it back does not split.
  expect_hits("Insert", height,
              [&] { return tree_.Insert({500, 0}, Pay(500), true); },
              &Status::ok);
  expect_hits("Insert duplicate", height,
              [&] { return tree_.Insert({500, 1}, Pay(500), true); },
              &Status::IsAlreadyExists);
  expect_hits("Insert width", 0,
              [&] { return tree_.Insert({501, 0}, "short", true); },
              &Status::IsInvalidArgument);

  BtKey key;
  for (const auto& [lo, hi, rows] :
       {std::tuple<int64_t, int64_t, int>{1000, 1010, 6},
        std::tuple<int64_t, int64_t, int>{1001, 1001, 0}}) {
    SCOPED_TRACE(rows == 0 ? "empty Scan" : "Scan");
    pool_.ResetStats();
    BTree::Iterator it = tree_.Scan(lo, hi);
    EXPECT_EQ(pool_.stats().hits, height);
    EXPECT_EQ(pool_.PinnedFrames(), 0u);
    int seen = 0;
    while (it.Next(&key, &payload)) seen++;
    EXPECT_TRUE(it.status().ok()) << it.status().ToString();
    EXPECT_EQ(seen, rows);
    EXPECT_EQ(pool_.stats().misses, 0);
    EXPECT_EQ(pool_.PinnedFrames(), 0u);
  }
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
}

TEST(BTreeWidePayloadTest, ClusteredSizedPayloadsSplitCorrectly) {
  // The TVisited clustered payload is ~74 bytes; use 80 to stress splits.
  DiskManager dm;
  BufferPool pool(512, &dm);
  BTree tree;
  ASSERT_TRUE(BTree::Create(&pool, 80, &tree).ok());
  std::string payload(80, 'p');
  for (int i = 0; i < 2000; i++) {
    payload[0] = static_cast<char>(i % 251);
    ASSERT_TRUE(tree.Insert({i, 0}, payload, true).ok());
  }
  ASSERT_TRUE(tree.CheckIntegrity().ok());
  EXPECT_GT(tree.Height(), 1);
  std::string out;
  ASSERT_TRUE(tree.SearchExact({1234, 0}, &out).ok());
  EXPECT_EQ(out[0], static_cast<char>(1234 % 251));
}

TEST(BTreeRejectsTest, OversizedPayloadWidthAtCreate) {
  DiskManager dm;
  BufferPool pool(16, &dm);
  BTree tree;
  EXPECT_TRUE(
      BTree::Create(&pool, kPageSize, &tree).IsInvalidArgument());
}

class BTreeRandomizedTest : public ::testing::TestWithParam<uint64_t> {};

/// Property: after a random interleaving of inserts and deletes, the tree
/// contains exactly the reference set, in order, and passes the structural
/// integrity check.
TEST_P(BTreeRandomizedTest, MatchesReferenceSetUnderChurn) {
  DiskManager dm;
  BufferPool pool(512, &dm);
  BTree tree;
  ASSERT_TRUE(BTree::Create(&pool, 8, &tree).ok());

  Rng rng(GetParam());
  std::vector<std::pair<int64_t, int64_t>> reference;  // (key, payload)
  for (int op = 0; op < 4000; op++) {
    if (reference.empty() || rng.NextDouble() < 0.7) {
      int64_t key = rng.NextInt(0, 800);
      int64_t tie = rng.NextInt(0, 1'000'000);
      // Regenerate tie on (unlikely) collision with the reference.
      bool dup = false;
      for (auto& [k, t] : reference) {
        if (k == key * 1'000'000'000 + tie) dup = true;
      }
      if (dup) continue;
      ASSERT_TRUE(tree.Insert({key, tie}, Pay(key), false).ok());
      reference.emplace_back(key * 1'000'000'000 + tie, key);
    } else {
      size_t pick = rng.NextBounded(reference.size());
      int64_t combined = reference[pick].first;
      BtKey key{combined / 1'000'000'000, combined % 1'000'000'000};
      ASSERT_TRUE(tree.Delete(key).ok());
      reference.erase(reference.begin() + pick);
    }
  }
  ASSERT_TRUE(tree.CheckIntegrity().ok());
  EXPECT_EQ(tree.num_entries(), static_cast<int64_t>(reference.size()));

  std::sort(reference.begin(), reference.end());
  auto it = tree.ScanAll();
  BtKey key;
  std::string payload;
  size_t i = 0;
  while (it.Next(&key, &payload)) {
    ASSERT_LT(i, reference.size());
    EXPECT_EQ(key.key * 1'000'000'000 + key.tie, reference[i].first);
    EXPECT_EQ(UnPay(payload), reference[i].second);
    i++;
  }
  EXPECT_EQ(i, reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeRandomizedTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ----- hardened CheckIntegrity against hostile pages ------------------------
//
// These tests attach a tree whose pages have been mutated underneath it
// (the attach-an-untrusted-snapshot scenario) and demand that every
// structural violation comes back as typed Corruption from
// CheckIntegrity — never a crash, an out-of-range page access, or an
// infinite chain walk.

/// Builds a multi-level tree over `dm`, flushes it, and returns (root,
/// entries). All further access goes through fresh pools so mutations made
/// directly through `dm` are always visible.
void BuildTree(DiskManager* dm, page_id_t* root, int64_t* entries) {
  BufferPool pool(512, dm);
  BTree tree;
  ASSERT_TRUE(BTree::Create(&pool, 8, &tree).ok());
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(tree.Insert({i, 0}, Pay(i), true).ok());
  }
  ASSERT_GT(tree.Height(), 1);
  ASSERT_TRUE(pool.FlushAll().ok());
  *root = tree.root();
  *entries = tree.num_entries();
}

/// Reads page `id`, lets `mutate` rewrite it, and writes it back.
void MutatePage(DiskManager* dm, page_id_t id,
                const std::function<void(char*)>& mutate) {
  char buf[kPageSize];
  ASSERT_TRUE(dm->ReadPage(id, buf).ok());
  mutate(buf);
  ASSERT_TRUE(dm->WritePage(id, buf).ok());
}

/// On-page node header layout (mirrors btree.cc): u8 is_leaf | u8 pad |
/// u16 count | i32 next. The tests only ever *write* through this view.
struct RawNodeHeader {
  uint8_t is_leaf;
  uint8_t pad;
  uint16_t count;
  int32_t next;
};

Status IntegrityOf(DiskManager* dm, page_id_t root, int64_t entries) {
  BufferPool pool(512, dm);
  BTree tree = BTree::Open(&pool, root, 8, entries);
  return tree.CheckIntegrity();
}

TEST(BTreeHostilePages, RootOutOfRangeIsCorruption) {
  DiskManager dm;
  page_id_t root;
  int64_t entries;
  BuildTree(&dm, &root, &entries);
  EXPECT_TRUE(IntegrityOf(&dm, 99'999, entries).IsCorruption());
  EXPECT_TRUE(IntegrityOf(&dm, -5, entries).IsCorruption());
}

TEST(BTreeHostilePages, BogusLeafFlagIsCorruption) {
  DiskManager dm;
  page_id_t root;
  int64_t entries;
  BuildTree(&dm, &root, &entries);
  MutatePage(&dm, root, [](char* p) {
    reinterpret_cast<RawNodeHeader*>(p)->is_leaf = 7;
  });
  Status st = IntegrityOf(&dm, root, entries);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(BTreeHostilePages, CountBeyondCapacityIsCorruption) {
  DiskManager dm;
  page_id_t root;
  int64_t entries;
  BuildTree(&dm, &root, &entries);
  MutatePage(&dm, root, [](char* p) {
    reinterpret_cast<RawNodeHeader*>(p)->count = 0xFFFF;
  });
  Status st = IntegrityOf(&dm, root, entries);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// A leaf whose next pointer loops back onto itself: the chain walk must
// detect the cycle through its visited set and stop — typed Corruption,
// not an unbounded loop.
TEST(BTreeHostilePages, LeafChainCycleIsCorruptionNotAHang) {
  DiskManager dm;
  BufferPool pool(64, &dm);
  BTree small;
  ASSERT_TRUE(BTree::Create(&pool, 8, &small).ok());
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(small.Insert({i, 0}, Pay(i), true).ok());
  }
  ASSERT_EQ(small.Height(), 1) << "root must still be the single leaf";
  ASSERT_TRUE(pool.FlushAll().ok());
  const page_id_t root = small.root();
  MutatePage(&dm, root, [root](char* p) {
    reinterpret_cast<RawNodeHeader*>(p)->next = root;  // self-cycle
  });
  Status st = IntegrityOf(&dm, root, small.num_entries());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(BTreeHostilePages, LeafNextOutOfRangeIsCorruption) {
  DiskManager dm;
  page_id_t root;
  int64_t entries;
  BuildTree(&dm, &root, &entries);
  // Find a leaf: page ids are dense, walk until is_leaf == 1.
  page_id_t leaf = kInvalidPageId;
  char buf[kPageSize];
  for (page_id_t id = 0; id < dm.num_pages(); id++) {
    ASSERT_TRUE(dm.ReadPage(id, buf).ok());
    if (reinterpret_cast<RawNodeHeader*>(buf)->is_leaf == 1) {
      leaf = id;
      break;
    }
  }
  ASSERT_NE(leaf, kInvalidPageId);
  MutatePage(&dm, leaf, [](char* p) {
    reinterpret_cast<RawNodeHeader*>(p)->next = 1'000'000;
  });
  Status st = IntegrityOf(&dm, root, entries);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// The fuzz: one random byte flipped anywhere in the tree's pages, fresh
// pool, full CheckIntegrity. Any verdict is allowed (a flipped payload
// byte is structurally invisible); crashing, reading out of range, or
// failing to terminate is not. Restoring the byte must restore a clean
// verdict.
TEST(BTreeHostilePages, SingleByteFlipFuzzNeverCrashesOrWedges) {
  DiskManager dm;
  page_id_t root;
  int64_t entries;
  BuildTree(&dm, &root, &entries);

  Rng rng(47620268);
  for (int iter = 0; iter < 200; iter++) {
    const page_id_t page =
        static_cast<page_id_t>(rng.NextBounded(dm.num_pages()));
    const size_t off = static_cast<size_t>(rng.NextBounded(kPageSize));
    ASSERT_TRUE(dm.CorruptByteForTest(page, off).ok());
    IntegrityOf(&dm, root, entries);  // must return; verdict is free
    ASSERT_TRUE(dm.CorruptByteForTest(page, off).ok());  // restore
  }
  Status st = IntegrityOf(&dm, root, entries);
  EXPECT_TRUE(st.ok()) << "fuzz left damage behind: " << st.ToString();
}

// A range probe whose tree descent fails must surface the error through
// the iterator — not report a clean empty range. (An "empty" probe over a
// bad page once made a shortest-path search conclude its frontier had no
// edges and return not-found with an OK status.)
TEST(BTreeHostilePages, FailedScanDescentIsAnErrorNotAnEmptyRange) {
  DiskManager dm;
  page_id_t root;
  int64_t entries;
  BuildTree(&dm, &root, &entries);

  BufferPool pool(512, &dm);  // fresh pool: every descent re-reads the disk
  BTree tree = BTree::Open(&pool, root, 8, entries);
  dm.InjectReadFaultAfter(0);
  BTree::Iterator it = tree.Scan(100, 200);
  BtKey key;
  std::string payload;
  EXPECT_FALSE(it.Next(&key, &payload));
  EXPECT_TRUE(it.status().IsIOError())
      << "descent failure faked a clean EOF: " << it.status().ToString();

  dm.ClearFaults();
  BTree::Iterator again = tree.Scan(100, 200);
  int64_t rows = 0;
  while (again.Next(&key, &payload)) rows++;
  ASSERT_TRUE(again.status().ok()) << again.status().ToString();
  EXPECT_EQ(rows, 101);
}

// ----- Destroy: page recycling --------------------------------------------

TEST(BTreeDestroyTest, FreesEveryPageAndNewTreesReuseThem) {
  DiskManager dm;
  BufferPool pool(512, &dm);
  BTree tree;
  ASSERT_TRUE(BTree::Create(&pool, 8, &tree).ok());
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(tree.Insert({i, 0}, Pay(i), true).ok());
  }
  ASSERT_GT(tree.Height(), 1);
  const page_id_t pages = dm.num_pages();  // every page is this tree's

  ASSERT_TRUE(tree.Destroy().ok());
  EXPECT_EQ(tree.root(), kInvalidPageId);
  EXPECT_EQ(dm.num_free_pages(), static_cast<size_t>(pages));
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  ASSERT_TRUE(tree.Destroy().ok()) << "a detached tree destroys as a no-op";
  EXPECT_EQ(dm.num_free_pages(), static_cast<size_t>(pages));

  // Rebuilding the same tree draws only on the free list.
  BTree again;
  ASSERT_TRUE(BTree::Create(&pool, 8, &again).ok());
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(again.Insert({i, 0}, Pay(i), true).ok());
  }
  EXPECT_EQ(dm.num_pages(), pages);
  EXPECT_TRUE(again.CheckIntegrity().ok());
  std::string payload;
  ASSERT_TRUE(again.SearchExact({4321, 0}, &payload).ok());
  EXPECT_EQ(UnPay(payload), 4321);
}

/// Writes `child` into child slot `slot` of the internal node image `p`
/// (entries at offset 8, stride 24, child id at +16 — mirrors btree.cc).
void SetChild(char* p, int slot, int32_t child) {
  std::memcpy(p + 8 + 24 * slot + 16, &child, 4);
}

// Destroy walks a possibly hostile tree: on any structural violation it
// must return Corruption and free nothing, so no page is ever freed twice
// or freed while a live structure may still link it.
TEST(BTreeHostilePages, DestroyOfCorruptTreeIsCorruptionAndFreesNothing) {
  using Damage = std::function<void(char* root_page, page_id_t root)>;
  const std::vector<std::pair<const char*, Damage>> damages = {
      {"child id out of range",
       [](char* p, page_id_t) { SetChild(p, 1, 1'000'000); }},
      {"child links back to the root (cycle)",
       [](char* p, page_id_t root) { SetChild(p, 1, root); }},
      {"two slots share one child",
       [](char* p, page_id_t) {
         int32_t first;
         std::memcpy(&first, p + 8 + 16, 4);
         SetChild(p, 1, first);
       }},
      {"bogus is_leaf flag",
       [](char* p, page_id_t) {
         reinterpret_cast<RawNodeHeader*>(p)->is_leaf = 7;
       }},
      {"count beyond capacity",
       [](char* p, page_id_t) {
         reinterpret_cast<RawNodeHeader*>(p)->count = 0xFFFF;
       }},
  };
  for (const auto& [what, damage] : damages) {
    SCOPED_TRACE(what);
    DiskManager dm;
    page_id_t root;
    int64_t entries;
    BuildTree(&dm, &root, &entries);
    MutatePage(&dm, root, [&, root = root](char* p) { damage(p, root); });
    BufferPool pool(512, &dm);
    BTree tree = BTree::Open(&pool, root, 8, entries);
    Status st = tree.Destroy();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_EQ(dm.num_free_pages(), 0u);
    EXPECT_EQ(tree.root(), root) << "a failed Destroy keeps the tree attached";
    EXPECT_EQ(pool.PinnedFrames(), 0u);
  }
}

// ----- key-ordered loads pack their leaves ----------------------------------
//
// A split of the last leaf by an entry past its end keeps every entry on the
// left, so inserting in key order fills each leaf before starting the next.
// Clustered tables and index builds load this way; a half-full layout would
// double the pages a scan and the buffer pool have to carry.

/// Entries per leaf for `payload` bytes (mirrors btree.cc's layout: 8-byte
/// header, then key i64 | tie i64 | payload per entry).
size_t LeafCapacityFor(size_t payload) {
  return (kPageSize - sizeof(RawNodeHeader)) / (16 + payload);
}

/// Flushes `pool` and counts the leaf and internal pages on `dm`.
void CountNodes(BufferPool* pool, DiskManager* dm, int64_t* leaves,
                int64_t* internals) {
  ASSERT_TRUE(pool->FlushAll().ok());
  *leaves = 0;
  *internals = 0;
  char buf[kPageSize];
  for (page_id_t id = 0; id < dm->num_pages(); id++) {
    ASSERT_TRUE(dm->ReadPage(id, buf).ok());
    (reinterpret_cast<RawNodeHeader*>(buf)->is_leaf ? *leaves : *internals)++;
  }
}

TEST(BTreePackingTest, AscendingLoadFillsEveryLeaf) {
  // Unique keys with narrow payloads, and duplicate keys with monotone ties
  // and a clustered-row width (the TEdges load).
  struct Case {
    uint16_t payload;
    int64_t n;
    int64_t dups_per_key;
  };
  for (const Case& c : {Case{8, 5000, 1}, Case{80, 3000, 3}}) {
    SCOPED_TRACE("payload " + std::to_string(c.payload));
    DiskManager dm;
    BufferPool pool(64, &dm);
    BTree tree;
    ASSERT_TRUE(BTree::Create(&pool, c.payload, &tree).ok());
    const std::string payload(c.payload, 'p');
    for (int64_t i = 0; i < c.n; i++) {
      ASSERT_TRUE(tree.Insert({i / c.dups_per_key, i}, payload,
                              /*unique=*/c.dups_per_key == 1)
                      .ok());
    }
    ASSERT_TRUE(tree.CheckIntegrity().ok());
    int64_t leaves = 0, internals = 0;
    CountNodes(&pool, &dm, &leaves, &internals);
    const auto cap = static_cast<int64_t>(LeafCapacityFor(c.payload));
    EXPECT_LE(leaves, (c.n + cap - 1) / cap);
    EXPECT_GE(internals, 1);
    EXPECT_EQ(leaves + internals, dm.num_pages()) << "no stray pages";
  }
}

// After a packed ascending run, seeded random inserts (inside the run and
// past its end) and deletes must keep the tree equal to a multimap oracle
// at every step: the rightmost rule must not lose or misplace an entry.
TEST(BTreePackingTest, AscendingRunThenChurnMatchesMultimapOracle) {
  DiskManager dm;
  BufferPool pool(128, &dm);
  BTree tree;
  ASSERT_TRUE(BTree::Create(&pool, 8, &tree).ok());
  std::multimap<BtKey, int64_t> oracle;
  constexpr int64_t kRun = 2000;
  for (int64_t i = 0; i < kRun; i++) {
    ASSERT_TRUE(tree.Insert({i, 0}, Pay(i), false).ok());
    oracle.emplace(BtKey{i, 0}, i);
  }
  auto expect_equal = [&](int op) {
    ASSERT_EQ(tree.num_entries(), static_cast<int64_t>(oracle.size()))
        << "op " << op;
    ASSERT_TRUE(tree.CheckIntegrity().ok()) << "op " << op;
    auto it = tree.ScanAll();
    BtKey key;
    std::string payload;
    auto want = oracle.begin();
    while (it.Next(&key, &payload)) {
      ASSERT_NE(want, oracle.end()) << "op " << op;
      ASSERT_EQ(key, want->first) << "op " << op;
      ASSERT_EQ(UnPay(payload), want->second) << "op " << op;
      ++want;
    }
    ASSERT_TRUE(it.status().ok());
    ASSERT_EQ(want, oracle.end()) << "op " << op;
  };
  expect_equal(-1);

  Rng rng(29);
  int64_t next_append = kRun;
  for (int op = 0; op < 2000; op++) {
    const double roll = rng.NextDouble();
    if (roll < 0.3) {
      const BtKey key{next_append++, rng.NextInt(0, 3)};
      ASSERT_TRUE(tree.Insert(key, Pay(op), false).ok());
      oracle.emplace(key, op);
    } else if (roll < 0.65 || oracle.empty()) {
      const BtKey key{rng.NextInt(0, next_append), rng.NextInt(0, 3)};
      const Status st = tree.Insert(key, Pay(op), false);
      if (oracle.contains(key)) {
        ASSERT_TRUE(st.IsAlreadyExists()) << st.ToString();
      } else {
        ASSERT_TRUE(st.ok()) << st.ToString();
        oracle.emplace(key, op);
      }
    } else {
      auto victim = oracle.begin();
      std::advance(victim, rng.NextBounded(oracle.size()));
      ASSERT_TRUE(tree.Delete(victim->first).ok());
      oracle.erase(victim);
    }
    expect_equal(op);
  }
  std::string payload;
  for (const auto& [key, value] : oracle) {
    ASSERT_TRUE(tree.SearchExact(key, &payload).ok()) << key.key;
    ASSERT_EQ(UnPay(payload), value) << key.key;
  }
}

}  // namespace
}  // namespace relgraph
