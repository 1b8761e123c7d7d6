// Heap-allocation budget of the FEM round. The binary replaces the global
// operator new with a counting one, then runs BSDJ (CluIndex, the
// configuration of the fem_paths benchmark workload) on a seeded
// Barabasi-Albert graph:
//  - over a stream of seeded queries, the mean allocations per query stay
//    within the budget of the native finder's SQL mode: the E/M plans, the
//    frontier updates and their row slots are built once per finder and
//    re-run every round, under NSQL and TSQL alike;
//  - after warm-up, repeating one query allocates the same amount every
//    time, so nothing a query leaves behind grows from query to query —
//    for the native finder and for SqlPathFinder, whose prepared UPDATE
//    and MERGE handles keep their plans across executions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/path_finder.h"
#include "src/core/sql_path_finder.h"
#include "src/graph/generators.h"
#include "src/graph/graph_store.h"

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

namespace {
void* CountedMalloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
// Out of line: inlined into a caller's `new T` cleanup path, free() would
// draw GCC's -Wmismatched-new-delete, which cannot see that this file's
// operator new is malloc.
[[gnu::noinline]] void Free(void* p) noexcept { std::free(p); }
}  // namespace

// Every replaceable form that allocates with malloc is replaced, nothrow
// ones included (std::stable_sort's buffer uses them), so each delete
// form frees memory its matching new took from malloc.
void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Free(p); }

namespace relgraph {
namespace {

constexpr int64_t kNodes = 2000;
constexpr int kWarmupQueries = 20;
constexpr int kQueries = 100;
/// Mean heap allocations per query allowed. The prepared round measures
/// about 460 per query here: the result's path, the per-query TVisited
/// reset, the seeded rows, and the rows of rounds bigger than the slots a
/// plan keeps between rounds (kRetainedSlots). A plan or a row slot built
/// per round would cost thousands per query: this graph's queries run
/// about 35 rounds.
constexpr double kBudgetPerQuery = 1500;
/// The same under TSQL, whose E-operator runs the input twice (GROUP BY
/// MIN, then the re-join to the minima) into slots the plan keeps: about
/// 780 per query here. Per-round maps of the minima and the chosen rows
/// cost about 1,430.
constexpr double kTsqlBudgetPerQuery = 1100;

class FemAllocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EdgeList list =
        GenerateBarabasiAlbert(kNodes, 2, WeightRange{1, 100}, 4242);
    ASSERT_TRUE(
        GraphStore::Create(&db_, list, GraphStoreOptions{}, &graph_).ok());
    ASSERT_TRUE(
        PathFinder::Create(graph_.get(), PathFinderOptions{}, &finder_).ok());
  }

  /// Runs one query on `finder`; returns the heap allocations it made.
  template <typename Finder>
  int64_t CountedQuery(Finder* finder, node_id_t s, node_id_t t,
                       PathQueryResult* r) {
    const int64_t before = g_allocations.load(std::memory_order_relaxed);
    Status st = finder->Find(s, t, r);
    const int64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return after - before;
  }

  /// Mean allocations per query of `finder` over a seeded stream, after a
  /// warm-up; records it as `allocations_per_query`.
  double MeanAllocationsPerQuery(PathFinder* finder) {
    Rng rng(7);
    PathQueryResult r;
    for (int i = 0; i < kWarmupQueries; i++) {
      auto [s, t] = NextPair(&rng);
      CountedQuery(finder, s, t, &r);
    }
    int64_t total = 0, expansions = 0, found = 0;
    for (int i = 0; i < kQueries; i++) {
      auto [s, t] = NextPair(&rng);
      total += CountedQuery(finder, s, t, &r);
      expansions += r.stats.expansions;
      found += r.found ? 1 : 0;
    }
    const double per_query = static_cast<double>(total) / kQueries;
    RecordProperty("allocations_per_query", std::to_string(per_query));
    RecordProperty("expansions_per_query",
                   std::to_string(static_cast<double>(expansions) / kQueries));
    // The stream must exercise real searches, not trivial ones.
    EXPECT_GT(found, kQueries / 2);
    EXPECT_GT(expansions, 10 * kQueries);
    return per_query;
  }

  /// After a warm-up, the longest of 20 seeded queries repeated 5 times on
  /// `finder`; returns the allocations of each repeat.
  template <typename Finder>
  std::vector<int64_t> RepeatedQueryCounts(Finder* finder) {
    Rng rng(11);
    node_id_t s = 0, t = 0;
    int64_t most = -1;
    PathQueryResult r;
    for (int i = 0; i < 20; i++) {
      auto [a, b] = NextPair(&rng);
      EXPECT_TRUE(finder->Find(a, b, &r).ok());
      if (r.stats.expansions > most) {
        most = r.stats.expansions;
        s = a;
        t = b;
      }
    }
    for (int i = 0; i < 3; i++) CountedQuery(finder, s, t, &r);  // warm-up
    std::vector<int64_t> counts;
    for (int i = 0; i < 5; i++) {
      counts.push_back(CountedQuery(finder, s, t, &r));
    }
    return counts;
  }

  std::pair<node_id_t, node_id_t> NextPair(Rng* rng) {
    for (;;) {
      node_id_t s = rng->NextInt(0, kNodes - 1);
      node_id_t t = rng->NextInt(0, kNodes - 1);
      if (s != t) return {s, t};
    }
  }

  Database db_;
  std::unique_ptr<GraphStore> graph_;
  std::unique_ptr<PathFinder> finder_;
};

TEST_F(FemAllocationTest, QueriesStayWithinTheBudget) {
  EXPECT_LE(MeanAllocationsPerQuery(finder_.get()), kBudgetPerQuery);
}

TEST_F(FemAllocationTest, TsqlQueriesStayWithinTheBudget) {
  PathFinderOptions opts;
  opts.sql_mode = SqlMode::kTsql;
  std::unique_ptr<PathFinder> tsql;
  ASSERT_TRUE(PathFinder::Create(graph_.get(), opts, &tsql).ok());
  EXPECT_LE(MeanAllocationsPerQuery(tsql.get()), kTsqlBudgetPerQuery);
}

TEST_F(FemAllocationTest, RepeatedQueryDoesNotGrow) {
  // A long search, so every plan and slot is exercised.
  const std::vector<int64_t> counts = RepeatedQueryCounts(finder_.get());
  for (size_t i = 1; i < counts.size(); i++) {
    EXPECT_EQ(counts[i], counts[0]) << "repeat " << i;
  }
  EXPECT_LE(counts[0], kBudgetPerQuery);
}

TEST_F(FemAllocationTest, SqlFinderRepeatedQueryDoesNotGrow) {
  // The paper's client through SQL text: every statement a prepared
  // handle, re-bound and re-run per round.
  std::unique_ptr<SqlPathFinder> sql;
  ASSERT_TRUE(SqlPathFinder::Create(graph_.get(), {}, &sql).ok());
  const std::vector<int64_t> counts = RepeatedQueryCounts(sql.get());
  RecordProperty("allocations_per_query", std::to_string(counts[0]));
  for (size_t i = 1; i < counts.size(); i++) {
    EXPECT_EQ(counts[i], counts[0]) << "repeat " << i;
  }
}

}  // namespace
}  // namespace relgraph
