// Prepared-statement & session API: parse-once / bind-many execution.
// Covers the PreparedStatement handle (rebinding, scalar subqueries
// re-evaluating per execution, catalog-version replans with EXPLAIN
// flipping access paths on the same handle), the text-keyed LRU plan
// cache behind plain Execute() (prepares / plan_cache_hits counters,
// eviction), runtime-bounded index plans for `:param` sargs, script
// parameter binding, prepared UPDATE/DELETE/MERGE handles against a twin
// database that compiles every statement afresh, and the SqlPathFinder
// contract: zero parses/plans during Find(), bit-identical behaviour
// between prepared and text mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/sql_path_finder.h"
#include "src/db/database.h"
#include "src/graph/generators.h"
#include "src/graph/memgraph.h"
#include "src/sql/sql_engine.h"

namespace relgraph::sql {
namespace {

class SqlPreparedTest : public ::testing::Test {
 protected:
  SqlPreparedTest() : db_(DatabaseOptions{}), conn_(&db_) {}

  SqlResult Run(const std::string& stmt, const SqlParams& params = {}) {
    SqlResult r;
    Status s = conn_.Execute(stmt, &r, params);
    EXPECT_TRUE(s.ok()) << stmt << "\n  -> " << s.ToString();
    return r;
  }

  std::shared_ptr<PreparedStatement> Prep(const std::string& stmt) {
    std::shared_ptr<PreparedStatement> ps;
    Status s = conn_.Prepare(stmt, &ps);
    EXPECT_TRUE(s.ok()) << stmt << "\n  -> " << s.ToString();
    return ps;
  }

  Database db_;
  SqlEngine conn_;
};

// ------------------------------------------------------- handle basics

TEST_F(SqlPreparedTest, BindManyExecutionsOnOneHandle) {
  Run("create table t (a int, b int)");
  Run("insert into t values (1, 10), (2, 20), (3, 30)");
  auto ps = Prep("select b from t where a = :x");
  int64_t prepares_after_prepare = db_.stats().prepares;
  for (int64_t x = 1; x <= 3; x++) {
    SqlResult r;
    ASSERT_TRUE(ps->Execute({{"x", Value(x)}}, &r).ok());
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0].value(0).AsInt(), x * 10);
  }
  // Three executions, zero additional parses/plans.
  EXPECT_EQ(db_.stats().prepares, prepares_after_prepare);
}

TEST_F(SqlPreparedTest, PreparedInsertRebindsParameters) {
  Run("create table t (a int, b int)");
  auto ins = Prep("insert into t values (:a, :b)");
  for (int64_t i = 1; i <= 4; i++) {
    ASSERT_TRUE(ins->Execute({{"a", Value(i)}, {"b", Value(i * i)}}).ok());
  }
  SqlResult r = Run("select b from t where a = 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 9);
}

TEST_F(SqlPreparedTest, MissingParameterFailsAtBind) {
  Run("create table t (a int)");
  auto ps = Prep("select a from t where a = :x");
  SqlResult r;
  Status s = ps->Execute({}, &r);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("missing parameter :x"), std::string::npos)
      << s.ToString();
}

// The tentpole behaviour the old planner could not provide: a scalar
// subquery inside a prepared plan re-evaluates against current data on
// every execution instead of being frozen into the plan.
TEST_F(SqlPreparedTest, ScalarSubqueryTracksDataAcrossExecutions) {
  Run("create table v (nid int, d2s int, f int)");
  Run("insert into v values (1, 7, 0), (2, 9, 0)");
  auto pick = Prep(
      "select top 1 nid from v where f = 0 and "
      "d2s = (select min(d2s) from v where f = 0)");
  SqlResult r;
  ASSERT_TRUE(pick->Execute({}, &r).ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 1);  // min d2s = 7 at node 1

  Run("insert into v values (3, 2, 0)");  // new minimum
  ASSERT_TRUE(pick->Execute({}, &r).ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 3);

  Run("update v set f = 1 where nid = 3");  // 3 leaves the open set
  ASSERT_TRUE(pick->Execute({}, &r).ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 1);
}

// ------------------------------------------------------- plan cache

TEST_F(SqlPreparedTest, ExecuteCachesPlansByText) {
  Run("create table t (a int)");
  int64_t prepares0 = db_.stats().prepares;
  int64_t hits0 = db_.stats().plan_cache_hits;
  Run("insert into t values (:x)", {{"x", Value(int64_t{1})}});
  Run("insert into t values (:x)", {{"x", Value(int64_t{2})}});
  Run("insert into t values (:x)", {{"x", Value(int64_t{3})}});
  // One compile for the distinct text, two cache hits.
  EXPECT_EQ(db_.stats().prepares, prepares0 + 1);
  EXPECT_EQ(db_.stats().plan_cache_hits, hits0 + 2);
  SqlResult r = Run("select count(*) from t");
  EXPECT_EQ(r.Scalar().AsInt(), 3);
}

TEST_F(SqlPreparedTest, LruEvictionKeepsHandlesValid) {
  Run("create table t (a int)");
  Run("insert into t values (1)");
  conn_.SetPlanCacheCapacity(2);
  auto ps = Prep("select a from t");  // cached
  Run("select a from t where a = 1");
  Run("select a from t where a >= 1");
  Run("select a from t where a <= 1");  // evicts the oldest entries
  EXPECT_LE(conn_.plan_cache_size(), 2u);
  // The evicted statement's handle is shared-owned and still executes.
  SqlResult r;
  ASSERT_TRUE(ps->Execute({}, &r).ok());
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(SqlPreparedTest, CapacityZeroDisablesCaching) {
  Run("create table t (a int)");
  conn_.SetPlanCacheCapacity(0);
  int64_t prepares0 = db_.stats().prepares;
  int64_t hits0 = db_.stats().plan_cache_hits;
  Run("select a from t");
  Run("select a from t");
  EXPECT_EQ(db_.stats().prepares, prepares0 + 2);  // re-planned each time
  EXPECT_EQ(db_.stats().plan_cache_hits, hits0);
  EXPECT_EQ(conn_.plan_cache_size(), 0u);
}

// ------------------------------------------- DDL invalidation / replan

TEST_F(SqlPreparedTest, CreateAndDropIndexFlipExplainOnTheSameHandle) {
  Run("create table t (a int, b int)");
  Run("insert into t values (1, 10), (2, 20)");
  auto ps = Prep("select b from t where a = :x");

  std::string plan;
  ASSERT_TRUE(ps->ExplainBound({{"x", Value(int64_t{2})}}, &plan).ok());
  EXPECT_NE(plan.find("SeqScan"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("IndexRangeScan"), std::string::npos) << plan;

  // CREATE INDEX bumps the catalog version; the *same handle* re-plans
  // and now probes the index with the runtime-bound key.
  Run("create index ix_a on t (a)");
  int64_t prepares_before = db_.stats().prepares;
  ASSERT_TRUE(ps->ExplainBound({{"x", Value(int64_t{2})}}, &plan).ok());
  EXPECT_EQ(db_.stats().prepares, prepares_before + 1);  // exactly one replan
  EXPECT_NE(plan.find("IndexRangeScan: t.a in [2, 2]"), std::string::npos)
      << plan;

  // The replanned handle still answers correctly.
  SqlResult r;
  ASSERT_TRUE(ps->Execute({{"x", Value(int64_t{2})}}, &r).ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 20);

  // DROP INDEX invalidates again: back to the sequential plan.
  Run("drop index ix_a on t");
  ASSERT_TRUE(ps->ExplainBound({{"x", Value(int64_t{2})}}, &plan).ok());
  EXPECT_NE(plan.find("SeqScan"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("IndexRangeScan"), std::string::npos) << plan;
  ASSERT_TRUE(ps->Execute({{"x", Value(int64_t{1})}}, &r).ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 10);
}

// The catalog-version hole the native setup paths used to have: index DDL
// issued *outside* the SQL surface (Catalog::CreateSecondaryIndex on a
// Table*, the route GraphStore/VisitedTable construction takes) must bump
// the catalog version too, so prepared handles re-plan exactly as they do
// for `create index` statements.
TEST_F(SqlPreparedTest, NativeIndexDdlReplansPreparedHandles) {
  Run("create table t (a int, b int)");
  Run("insert into t values (1, 10), (2, 20)");
  auto ps = Prep("select b from t where a = :x");

  std::string plan;
  ASSERT_TRUE(ps->ExplainBound({{"x", Value(int64_t{2})}}, &plan).ok());
  EXPECT_NE(plan.find("SeqScan"), std::string::npos) << plan;

  // Native (non-SQL) index creation through the catalog-owned API.
  Table* table = db_.catalog()->GetTable("t");
  ASSERT_NE(table, nullptr);
  const uint64_t version_before = db_.catalog()->version();
  ASSERT_TRUE(
      db_.catalog()->CreateSecondaryIndex(table, "a", /*unique=*/false).ok());
  EXPECT_GT(db_.catalog()->version(), version_before);

  // The existing handle picks the new access path up on its next use.
  ASSERT_TRUE(ps->ExplainBound({{"x", Value(int64_t{2})}}, &plan).ok());
  EXPECT_NE(plan.find("IndexRangeScan: t.a in [2, 2]"), std::string::npos)
      << plan;

  // Native drop invalidates again.
  ASSERT_TRUE(db_.catalog()->DropSecondaryIndex(table, "a").ok());
  ASSERT_TRUE(ps->ExplainBound({{"x", Value(int64_t{2})}}, &plan).ok());
  EXPECT_NE(plan.find("SeqScan"), std::string::npos) << plan;
  SqlResult r;
  ASSERT_TRUE(ps->Execute({{"x", Value(int64_t{2})}}, &r).ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 20);
}

TEST_F(SqlPreparedTest, PreparedStatementSurvivesDataChangesWithoutReplan) {
  Run("create table t (a int)");
  auto count = Prep("select count(*) from t");
  int64_t prepares0 = db_.stats().prepares;
  for (int i = 0; i < 5; i++) {
    Value v;
    ASSERT_TRUE(count->QueryScalar({}, &v).ok());
    EXPECT_EQ(v.AsInt(), i);
    Run("insert into t values (" + std::to_string(i) + ")");
  }
  // Data changed every iteration; the plan never did. (The INSERT texts
  // differ, so each compiles once — but the prepared handle itself must
  // not re-plan.)
  Value v;
  ASSERT_TRUE(count->QueryScalar({}, &v).ok());
  EXPECT_EQ(v.AsInt(), 5);
  (void)prepares0;
  EXPECT_EQ(db_.stats().prepares - prepares0, 5);  // the 5 distinct INSERTs
}

TEST_F(SqlPreparedTest, DropIndexStatementValidates) {
  Run("create table t (a int)");
  SqlResult r;
  EXPECT_TRUE(conn_.Execute("drop index nope on t", &r).IsNotFound());
  EXPECT_TRUE(conn_.Execute("drop index a on missing", &r).IsNotFound());
  Run("create index ix_a on t (a)");
  Run("drop index ix_a on t");
  // Second drop: already gone.
  EXPECT_TRUE(conn_.Execute("drop index ix_a on t", &r).IsNotFound());
}

// ------------------------------------------------- runtime-bound sargs

TEST_F(SqlPreparedTest, ParamSargUpdateUsesIndexAndMatchesFullScan) {
  Run("create table t (a int, b int)");
  for (int i = 0; i < 64; i++) {
    Run("insert into t values (" + std::to_string(i % 8) + ", 0)");
  }
  Run("create index ix_a on t (a)");
  auto upd = Prep("update t set b = b + 1 where a = :k");
  Table* table = db_.catalog()->GetTable("t");
  ASSERT_NE(table, nullptr);
  table->ResetAccessStats();
  SqlResult r;
  ASSERT_TRUE(upd->Execute({{"k", Value(int64_t{3})}}, &r).ok());
  EXPECT_EQ(r.affected, 8);
  // The probe ran through the index (8 candidate rows), not a full scan.
  EXPECT_EQ(table->access_stats().full_scan_rows, 0);
  EXPECT_EQ(table->access_stats().index_scan_rows, 8);
  // Different binding, same handle: a different slice updates.
  ASSERT_TRUE(upd->Execute({{"k", Value(int64_t{5})}}, &r).ok());
  EXPECT_EQ(r.affected, 8);
  SqlResult check = Run("select count(*) from t where b = 1");
  EXPECT_EQ(check.Scalar().AsInt(), 16);
}

TEST_F(SqlPreparedTest, ParamSargSelectMatchesSeqScanResults) {
  Run("create table t (a int, b int)");
  for (int i = 0; i < 100; i++) {
    Run("insert into t values (" + std::to_string(i % 11) + ", " +
        std::to_string(i) + ")");
  }
  auto without = Run("select b from t where a <= :k and b >= 40",
                     {{"k", Value(int64_t{4})}});
  Run("create index ix_a on t (a)");
  auto with = Run("select b from t where a <= :k and b >= 40",
                  {{"k", Value(int64_t{4})}});
  std::vector<int64_t> lhs, rhs;
  for (const Tuple& t : without.rows) lhs.push_back(t.value(0).AsInt());
  for (const Tuple& t : with.rows) rhs.push_back(t.value(0).AsInt());
  std::sort(lhs.begin(), lhs.end());
  std::sort(rhs.begin(), rhs.end());
  EXPECT_EQ(lhs, rhs);
  ASSERT_FALSE(lhs.empty());
}

// ------------------------------------------------- prepared DML oracle

/// The table the prepared-DML oracle writes: clustered on its key k, a
/// heap with a unique index on k, or a heap without one, where MERGE
/// takes its hash-match path.
enum class DmlTarget { kClustered, kIndexedHeap, kUnindexedHeap };

class PreparedDmlOracle : public ::testing::TestWithParam<DmlTarget> {
 protected:
  PreparedDmlOracle()
      : db_(DatabaseOptions{}), twin_db_(DatabaseOptions{}), conn_(&db_),
        twin_(&twin_db_) {
    twin_.SetPlanCacheCapacity(0);  // the text oracle: compiles every time
  }

  /// Runs `text` on both databases (DDL and seed rows).
  void Both(const std::string& text) {
    SqlResult r;
    ASSERT_TRUE(conn_.Execute(text, &r).ok()) << text;
    ASSERT_TRUE(twin_.Execute(text, &r).ok()) << text;
  }

  /// Every row of `t`, as text, sorted.
  static std::vector<std::string> Rows(Database* db) {
    std::vector<std::string> out;
    Table::Iterator it = db->catalog()->GetTable("t")->Scan();
    Tuple row;
    while (it.Next(&row, nullptr)) {
      std::string line;
      for (const Value& v : row.values()) line.append(v.ToString()).append(",");
      out.push_back(std::move(line));
    }
    EXPECT_TRUE(it.status().ok()) << it.status().ToString();
    std::sort(out.begin(), out.end());
    return out;
  }

  Database db_, twin_db_;
  SqlEngine conn_, twin_;
};

// Each DML kind runs 200 times through one prepared handle with seeded
// parameters, with CREATE INDEX / DROP INDEX in between so the handles
// re-plan; after every execution the table equals the one a twin database
// holds after running the same text on a connection that compiles every
// statement afresh.
TEST_P(PreparedDmlOracle, HandlesMatchACompileEveryTimeTwin) {
  const DmlTarget target = GetParam();
  Both(target == DmlTarget::kClustered
           ? "create table t (k int, v int, w int) cluster by (k) unique"
           : "create table t (k int, v int, w int)");
  if (target == DmlTarget::kIndexedHeap) {
    Both("create unique index ix_t_k on t (k)");
  }
  Both("create table s (k int, v int)");
  Rng rng(31 + static_cast<uint64_t>(target));
  for (int64_t k = 0; k < 40; k++) {
    Both("insert into t values (" + std::to_string(k) + ", " +
         std::to_string(rng.NextInt(0, 49)) + ", 0)");
  }
  for (int64_t k = 0; k < 60; k++) {
    Both("insert into s values (" + std::to_string(k) + ", " +
         std::to_string(rng.NextInt(0, 49)) + ")");
  }
  // The unindexed heap's key index comes and goes: the handles are first
  // planned with it, so a plan kept past its DROP would probe an index
  // that is gone, and while it is dropped MERGE takes the hash-match path.
  // The other targets toggle an index on v, which the DELETE's sarg
  // probes.
  const bool toggle_key = target == DmlTarget::kUnindexedHeap;
  const std::string create_index = toggle_key
                                       ? "create unique index ix on t (k)"
                                       : "create index ix on t (v)";
  bool indexed = toggle_key;
  if (indexed) Both(create_index);
  const std::string source =
      "(select k, v from s where k >= :lo and k < :hi) as src (k, v) "
      "on (target.k = src.k) ";
  const std::vector<std::string> texts = {
      "update t set v = v + :d, w = w + 1 where k = :k",
      "delete from t where v = :v",
      "merge into t as target using " + source +
          "when matched and src.v < target.v then update set v = src.v, "
          "w = w + 10",
      "merge into t as target using " + source +
          "when matched then update set w = target.w + src.v "
          "when not matched then insert (k, v, w) values (k, v, 0)"};
  std::vector<std::shared_ptr<PreparedStatement>> handles;
  for (const std::string& text : texts) {
    std::shared_ptr<PreparedStatement> ps;
    ASSERT_TRUE(conn_.Prepare(text, &ps).ok()) << text;
    handles.push_back(std::move(ps));
  }

  int64_t affected_total = 0, null_keys = 0, double_keys = 0;
  for (int i = 0; i < 200 * static_cast<int>(texts.size()); i++) {
    if (i % 37 == 36) {
      Both(indexed ? "drop index ix on t" : create_index);
      indexed = !indexed;
    }
    const size_t h = static_cast<size_t>(i) % texts.size();
    SqlParams params;
    switch (h) {
      case 0: {
        const int64_t k = rng.NextInt(-2, 44);
        switch (rng.NextInt(0, 9)) {
          case 0:
            params["k"] = Value::Null();
            null_keys++;
            break;
          case 1:
            params["k"] = Value(static_cast<double>(k) + (k % 2 ? 0.5 : 0.0));
            double_keys++;
            break;
          default:
            params["k"] = Value(k);
        }
        params["d"] = Value(rng.NextInt(-3, 3));
        break;
      }
      case 1:
        params["v"] = Value(rng.NextInt(0, 60));
        break;
      default: {
        const int64_t lo = rng.NextInt(0, 59);
        params["lo"] = Value(lo);
        params["hi"] = Value(lo + rng.NextInt(0, 20));
      }
    }
    SqlResult mine, theirs;
    Status st = handles[h]->Execute(params, &mine);
    ASSERT_TRUE(st.ok()) << texts[h] << ": " << st.ToString();
    st = twin_.Execute(texts[h], &theirs, params);
    ASSERT_TRUE(st.ok()) << texts[h] << ": " << st.ToString();
    ASSERT_EQ(mine.affected, theirs.affected) << "execution " << i << ": "
                                              << texts[h];
    ASSERT_EQ(Rows(&db_), Rows(&twin_db_)) << "execution " << i << ": "
                                            << texts[h];
    affected_total += mine.affected;
  }
  // The stream must exercise real work and both odd keys.
  EXPECT_GT(affected_total, 400);
  EXPECT_GT(null_keys, 0);
  EXPECT_GT(double_keys, 0);
  EXPECT_FALSE(Rows(&db_).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Targets, PreparedDmlOracle,
    ::testing::Values(DmlTarget::kClustered, DmlTarget::kIndexedHeap,
                      DmlTarget::kUnindexedHeap),
    [](const ::testing::TestParamInfo<DmlTarget>& info) {
      switch (info.param) {
        case DmlTarget::kClustered: return std::string("clustered");
        case DmlTarget::kIndexedHeap: return std::string("indexed_heap");
        default: return std::string("unindexed_heap");
      }
    });

// ----------------------------------------------------------- scripts

TEST_F(SqlPreparedTest, ScriptBindsParamsInEveryStatement) {
  SqlResult last;
  Status s = conn_.ExecuteScript(
      "create table t (a int, b int);"
      "insert into t values (:n, 1);"
      "insert into t values (:n + 1, 2);"
      "update t set b = b * 10 where a = :n;"
      "select sum(b) from t;",
      &last, {{"n", Value(int64_t{7})}});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(last.Scalar().AsInt(), 12);  // 10 (a=7, updated) + 2 (a=8)
  SqlResult r = Run("select b from t where a = :n", {{"n", Value(int64_t{7})}});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 10);
}

// ------------------------------------------------ SqlPathFinder contract

TEST(SqlPreparedPathFinder, FindIsParseAndPlanFree) {
  EdgeList list = GenerateBarabasiAlbert(200, 2, WeightRange{1, 50}, 17);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<SqlPathFinder> finder;
  ASSERT_TRUE(SqlPathFinder::Create(graph.get(), {}, &finder).ok());

  const int64_t prepares_before = db.stats().prepares;
  const int64_t hits_before = db.stats().plan_cache_hits;
  for (node_id_t t = 50; t < 58; t++) {
    PathQueryResult r;
    ASSERT_TRUE(finder->Find(3, t, &r).ok());
    EXPECT_GT(r.stats.statements, 0);
  }
  // The acceptance bar: a full Find() performs ZERO parses/plans — every
  // statement runs through a handle prepared in Create(), so neither the
  // prepare counter nor the text cache moves.
  EXPECT_EQ(db.stats().prepares, prepares_before);
  EXPECT_EQ(db.stats().plan_cache_hits, hits_before);
}

// Prepared mode must be invisible: same distances, same statement
// counts, same recorded SQL text as the literal re-parse regime.
TEST(SqlPreparedPathFinder, PreparedAndTextModesAreBitIdentical) {
  EdgeList list = GenerateBarabasiAlbert(120, 2, WeightRange{1, 30}, 23);
  MemGraph mem(list);
  struct Obs {
    bool found;
    weight_t distance;
    int64_t statements;
    std::vector<std::string> sql;
  };
  auto run_mode = [&](bool prepared) {
    std::vector<Obs> out;
    Database db{DatabaseOptions{}};
    db.EnableStatementLog(1 << 16);
    std::unique_ptr<GraphStore> graph;
    EXPECT_TRUE(
        GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
    std::unique_ptr<SqlPathFinder> finder;
    Status created =
        prepared ? SqlPathFinder::Create(graph.get(), {}, &finder)
                 : relgraph::internal::CreateTextSqlPathFinder(graph.get(), {},
                                                               &finder);
    EXPECT_TRUE(created.ok()) << created.ToString();
    for (node_id_t t = 0; t < 10; t++) {
      size_t log_before = db.statement_log().size();
      PathQueryResult r;
      EXPECT_TRUE(finder->Find(5, t * 11, &r).ok());
      Obs obs{r.found, r.distance, r.stats.statements, {}};
      for (size_t i = log_before; i < db.statement_log().size(); i++) {
        obs.sql.push_back(db.statement_log()[i]);
      }
      MemPathResult oracle = mem.Dijkstra(5, t * 11);
      EXPECT_EQ(r.found, oracle.found);
      if (oracle.found) {
        EXPECT_EQ(r.distance, oracle.distance);
      }
      out.push_back(std::move(obs));
    }
    return out;
  };

  std::vector<Obs> prepared = run_mode(true);
  std::vector<Obs> text = run_mode(false);
  ASSERT_EQ(prepared.size(), text.size());
  for (size_t q = 0; q < prepared.size(); q++) {
    EXPECT_EQ(prepared[q].found, text[q].found) << "q" << q;
    EXPECT_EQ(prepared[q].distance, text[q].distance) << "q" << q;
    EXPECT_EQ(prepared[q].statements, text[q].statements) << "q" << q;
    ASSERT_EQ(prepared[q].sql.size(), text[q].sql.size()) << "q" << q;
    for (size_t i = 0; i < prepared[q].sql.size(); i++) {
      EXPECT_EQ(prepared[q].sql[i], text[q].sql[i]) << "q" << q << " #" << i;
    }
  }
}

}  // namespace
}  // namespace relgraph::sql
