// OpenSet, the one F-operator: on a keyed FEM working table whose rows hold
// every flag (0, 1, 2) and unreached rows (dist = kInfinity), Mark must mark
// exactly the rows a brute-force predicate picks for every FrontierSpec
// kind, Finalize must flip exactly the marked rows, Least must return the
// least open dist, and FrontierScan must read the marked rows. Under Index
// and CluIndex every call must be served by the key or open tree, with no
// full-scan row read. Tables keyed on `nid` (TVisited, Prim's TMst) and on
// a packed `skey` (SegTable's work tables) are both covered.

#include "src/core/open_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/db/database.h"
#include "src/graph/graph_store.h"

namespace relgraph {
namespace {

/// (key, flag, dist) of every row, by key.
using Rows = std::map<int64_t, std::pair<int64_t, weight_t>>;

class OpenSetTest
    : public ::testing::TestWithParam<std::tuple<IndexStrategy, std::string>> {
 protected:
  OpenSetTest() : db_(DatabaseOptions{}) {}

  IndexStrategy strategy() const { return std::get<0>(GetParam()); }
  const std::string& key() const { return std::get<1>(GetParam()); }
  bool indexed() const { return strategy() != IndexStrategy::kNoIndex; }

  /// Creates a table keyed on key() with an open tree on (f, dist), filled
  /// with rows of every flag, some unreached, and duplicate dists.
  void Fill(const std::string& name) {
    Schema schema({{key(), TypeId::kInt},
                   {"pid", TypeId::kInt},
                   {"dist", TypeId::kInt},
                   {"f", TypeId::kInt}});
    ASSERT_TRUE(CreateKeyedTable(db_.catalog(), strategy(), name, schema,
                                 key(), /*unique=*/true, &table_,
                                 {{"f", "dist"}})
                    .ok());
    Rng rng(17);
    for (int64_t i = 0; i < 80; i++) {
      // A packed key like SegTable's (src << 32 | node) when not nid.
      const int64_t k = key() == "nid" ? 3 * i + 1 : (i % 7) * (1LL << 32) + i;
      const weight_t dist =
          rng.NextInt(0, 9) == 0 ? kInfinity : rng.NextInt(0, 12);
      const int64_t flag = rng.NextInt(0, 2);
      ASSERT_TRUE(table_
                      ->Insert(Tuple({Value(k), Value(int64_t{0}),
                                      Value(dist), Value(flag)}))
                      .ok());
    }
    set_ = std::make_unique<OpenSet>(table_, key(), "f", "dist");
  }

  Rows Snapshot() {
    Rows rows;
    auto it = table_->Scan();
    Tuple t;
    while (it.Next(&t, nullptr)) {
      rows[t.value(0).AsInt()] = {t.value(3).AsInt(), t.value(2).AsInt()};
    }
    EXPECT_TRUE(it.status().ok());
    return rows;
  }

  /// Keys whose flag went from `from` to `to` between the snapshots; every
  /// other row must be unchanged.
  static std::set<int64_t> Flipped(const Rows& before, const Rows& after,
                                   int64_t from, int64_t to) {
    std::set<int64_t> keys;
    EXPECT_EQ(before.size(), after.size());
    for (const auto& [k, row] : before) {
      const auto& now = after.at(k);
      EXPECT_EQ(now.second, row.second) << "dist moved at key " << k;
      if (now.first == row.first) continue;
      EXPECT_EQ(row.first, from) << "key " << k;
      EXPECT_EQ(now.first, to) << "key " << k;
      keys.insert(k);
    }
    return keys;
  }

  /// Under Index/CluIndex, the call just made read no full-scan row.
  void ExpectNoFullScan(const char* what) {
    if (indexed()) {
      EXPECT_EQ(table_->access_stats().full_scan_rows.load(), 0) << what;
    }
    table_->ResetAccessStats();
  }

  void ExpectLeastIsOracle() {
    weight_t want = kInfinity;
    for (const auto& [k, row] : Snapshot()) {
      if (row.first == 0 && row.second < kInfinity) {
        want = std::min(want, row.second);
      }
    }
    table_->ResetAccessStats();
    weight_t dist;
    int64_t k;
    ASSERT_TRUE(set_->Least(&dist, &k).ok());
    ExpectNoFullScan("Least");
    EXPECT_EQ(dist, want);
    if (want == kInfinity) {
      EXPECT_EQ(k, kInvalidNode);
    } else {
      const Rows rows = Snapshot();
      const auto& row = rows.at(k);
      EXPECT_EQ(row.first, 0);
      EXPECT_EQ(row.second, want);
    }
  }

  Database db_;
  Table* table_ = nullptr;
  std::unique_ptr<OpenSet> set_;
};

bool Picks(const FrontierSpec& spec, int64_t key, weight_t dist) {
  switch (spec.kind) {
    case FrontierSpec::Kind::kAll:
      return true;
    case FrontierSpec::Kind::kNode:
      return key == spec.node;
    case FrontierSpec::Kind::kDistEq:
      return dist == spec.level;
    case FrontierSpec::Kind::kDistOr:
      return dist <= spec.bound || dist == spec.level;
  }
  return false;
}

TEST_P(OpenSetTest, MarkFinalizeAndLeastMatchBruteForce) {
  Fill("probe");
  const Rows initial = Snapshot();
  int64_t open_key = kInvalidNode, closed_key = kInvalidNode;
  for (const auto& [k, row] : initial) {
    if (row.first == 0 && row.second < kInfinity) open_key = k;
    if (row.first == 1) closed_key = k;
  }
  ASSERT_NE(open_key, kInvalidNode);
  ASSERT_NE(closed_key, kInvalidNode);

  const FrontierSpec specs[] = {
      FrontierSpec::All(),
      FrontierSpec::Node(open_key),
      FrontierSpec::Node(closed_key),
      FrontierSpec::Node(int64_t{1} << 40),  // no such row
      FrontierSpec::DistEq(3),
      FrontierSpec::DistEq(kInfinity),
      FrontierSpec::DistOr(4, 7),
      FrontierSpec::DistOr(6, 2),
      FrontierSpec::DistOr(-1, 5),             // wmin = 0: only the level
      FrontierSpec::DistOr(kInfinity + 5, 0),  // past every finite dist
  };
  for (size_t i = 0; i < std::size(specs); i++) {
    const FrontierSpec& spec = specs[i];
    SCOPED_TRACE(std::string("spec ").append(std::to_string(i)));
    Fill(std::string("t").append(std::to_string(i)));
    table_->ResetAccessStats();

    ExpectLeastIsOracle();

    // Finalize first flips the table's own finite frontier rows; rows with
    // flag 2 and dist = kInfinity are not in the open tree's range and
    // stay.
    Rows before = Snapshot();
    table_->ResetAccessStats();
    int64_t affected = 0;
    ASSERT_TRUE(set_->Finalize(&affected).ok());
    ExpectNoFullScan("first Finalize");
    Rows after = Snapshot();
    std::set<int64_t> want;
    for (const auto& [k, row] : before) {
      if (row.first == 2 && row.second < kInfinity) want.insert(k);
    }
    EXPECT_EQ(Flipped(before, after, 2, 1), want);
    EXPECT_EQ(affected, static_cast<int64_t>(want.size()));

    // Mark picks exactly the open rows the spec's predicate picks.
    before = after;
    table_->ResetAccessStats();
    int64_t marked = 0;
    ASSERT_TRUE(set_->Mark(spec, &marked).ok());
    ExpectNoFullScan("Mark");
    after = Snapshot();
    want.clear();
    for (const auto& [k, row] : before) {
      if (row.first == 0 && row.second < kInfinity &&
          Picks(spec, k, row.second)) {
        want.insert(k);
      }
    }
    const std::set<int64_t> marked_keys = Flipped(before, after, 0, 2);
    EXPECT_EQ(marked_keys, want);
    EXPECT_EQ(marked, static_cast<int64_t>(want.size()));

    // The frontier scan reads exactly the marked rows.
    table_->ResetAccessStats();
    ExecRef scan = set_->FrontierScan();
    ASSERT_TRUE(scan->Init().ok());
    std::set<int64_t> scanned;
    Tuple t;
    while (scan->Next(&t)) scanned.insert(t.value(0).AsInt());
    ASSERT_TRUE(scan->status().ok());
    ExpectNoFullScan("FrontierScan");
    EXPECT_EQ(scanned, marked_keys);

    ExpectLeastIsOracle();

    // Finalize flips exactly the marked rows.
    before = after;
    table_->ResetAccessStats();
    ASSERT_TRUE(set_->Finalize(&affected).ok());
    ExpectNoFullScan("Finalize");
    after = Snapshot();
    EXPECT_EQ(Flipped(before, after, 2, 1), marked_keys);
    EXPECT_EQ(affected, static_cast<int64_t>(marked_keys.size()));

    ExpectLeastIsOracle();
    set_.reset();
    ASSERT_TRUE(db_.catalog()->DropTable(table_->name()).ok());
  }
}

/// Re-running one set's prepared plans round after round, with a new spec
/// each time, gives what fresh plans give.
TEST_P(OpenSetTest, PlansRerunWithNewValues) {
  Fill("rounds");
  for (weight_t level = 0; level <= 12; level++) {
    SCOPED_TRACE(std::string("level ").append(std::to_string(level)));
    const Rows before = Snapshot();
    int64_t marked = 0;
    ASSERT_TRUE(set_->Mark(FrontierSpec::DistOr(level - 1, level), &marked)
                    .ok());
    std::set<int64_t> want;
    for (const auto& [k, row] : before) {
      if (row.first == 0 && row.second <= level) want.insert(k);
    }
    EXPECT_EQ(Flipped(before, Snapshot(), 0, 2), want);
    EXPECT_EQ(marked, static_cast<int64_t>(want.size()));
    int64_t affected = 0;
    ASSERT_TRUE(set_->Finalize(&affected).ok());
  }
  ExpectLeastIsOracle();
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, OpenSetTest,
    ::testing::Combine(::testing::Values(IndexStrategy::kNoIndex,
                                         IndexStrategy::kIndex,
                                         IndexStrategy::kCluIndex),
                       ::testing::Values(std::string("nid"),
                                         std::string("skey"))),
    [](const auto& info) {
      return std::string(IndexStrategyName(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param);
    });

}  // namespace
}  // namespace relgraph
