// The open tree (flag, dist) through SQL: a differential oracle that runs
// generated statements on twin tables — one with the open tree or a
// single-column index, one with no index — and compares their results;
// the typed errors of hostile index DDL; and the working-table reads of
// the SQL-text client, pinned per query.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/sql_path_finder.h"
#include "src/graph/generators.h"
#include "src/sql/sql_engine.h"

namespace relgraph {
namespace {

const std::string kInf = std::to_string(kInfinity);

/// Rows as sorted strings: results compare as multisets.
std::vector<std::string> Multiset(const sql::SqlResult& r) {
  std::vector<std::string> rows;
  for (const Tuple& t : r.rows) {
    std::string row;
    for (size_t i = 0; i < t.NumValues(); i++) {
      row.append(t.value(i).ToString()).append("|");
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The physical designs the indexed twin takes; the plain twin never has
/// an index.
enum class Design { kHeapTree, kClusteredTree, kDistIndex, kFlagIndex };

const char* DesignName(Design d) {
  switch (d) {
    case Design::kHeapTree: return "heap+tree";
    case Design::kClusteredTree: return "clustered+tree";
    case Design::kDistIndex: return "heap+ix(d)";
    case Design::kFlagIndex: return "heap+ix(f)";
  }
  return "?";
}

class OpenTreeOracle {
 public:
  OpenTreeOracle(Design design, uint64_t seed)
      : design_(design), rng_(seed), conn_(&db_) {}

  void Setup() {
    const bool clustered = design_ == Design::kClusteredTree;
    for (const char* t : {"A", "B"}) {
      Run(std::string("create table ") + t + " (nid int, f int, d int, x int)" +
          (clustered ? " cluster by (nid) unique" : ""));
    }
    switch (design_) {
      case Design::kHeapTree:
      case Design::kClusteredTree:
        Run("create index ix_a on A (f, d)");
        break;
      case Design::kDistIndex:
        Run("create index ix_a on A (d)");
        break;
      case Design::kFlagIndex:
        Run("create index ix_a on A (f)");
        break;
    }
    for (int i = 0; i < 60; i++) InsertRow();
  }

  /// Runs one generated statement on both twins and compares them.
  void Step() {
    switch (rng_.NextInt(0, 9)) {
      case 0:
        Compare("select min(d) from T where " + Predicate());
        break;
      case 1:
        Compare("select count(*) from T where " + Predicate());
        break;
      case 2:
        Compare("select nid, f, d, x from T where " + Predicate());
        break;
      case 3: {
        const std::string k = Flag();
        Compare("select top 1 nid, d from T where f = " + k +
                " and d = (select min(d) from T where f = " + k + ")");
        break;
      }
      case 4:
        Compare("select nid, f, d from T where d = (select min(d) from T "
                "where " + Predicate() + ")");
        break;
      case 5:
        Compare("select count(*) from T where " + Predicate() +
                " and d <= (select max(d) from T where " + Predicate() + ")");
        break;
      case 6:
        CompareWrite("update T set f = " +
                     std::to_string(rng_.NextInt(0, 2)) + ", d = " +
                     DistValue() + " where " + Predicate());
        break;
      case 7:
        CompareWrite("update T set f = " +
                     std::to_string(rng_.NextInt(0, 2)) + " where " +
                     Predicate());
        break;
      case 8:
        CompareWrite("delete from T where " + Predicate());
        break;
      default:
        for (int i = rng_.NextInt(1, 6); i > 0; i--) InsertRow();
        CompareContents();
        break;
    }
  }

  void Finish() {
    CompareContents();
    EXPECT_TRUE(db_.catalog()->GetTable("A")->CheckConsistency().ok());
  }

  int64_t statements() const { return statements_; }

 private:
  void Run(const std::string& text) {
    Status st = conn_.Execute(text);
    ASSERT_TRUE(st.ok()) << text << " -> " << st.ToString();
  }

  /// `text` with table T named `table`.
  static std::string On(const std::string& text, const char* table) {
    std::string out = text;
    for (size_t at = out.find(" T"); at != std::string::npos;
         at = out.find(" T", at + 1)) {
      if (at + 2 == out.size() || out[at + 2] == ' ') out[at + 1] = *table;
    }
    return out;
  }

  void Exec(const std::string& text, sql::SqlResult* a, sql::SqlResult* b) {
    statements_++;
    for (auto [table, result] : {std::pair{"A", a}, std::pair{"B", b}}) {
      const std::string sql = On(text, table);
      Status st = conn_.Execute(sql, result, params_);
      ASSERT_TRUE(st.ok()) << sql << " -> " << st.ToString();
    }
  }

  void Compare(const std::string& text) {
    BindParam();
    sql::SqlResult a, b;
    Exec(text, &a, &b);
    EXPECT_EQ(Multiset(a), Multiset(b)) << Context(text);
  }

  void CompareWrite(const std::string& text) {
    BindParam();
    sql::SqlResult a, b;
    Exec(text, &a, &b);
    EXPECT_EQ(a.affected, b.affected) << Context(text);
    CompareContents();
  }

  void CompareContents() {
    sql::SqlResult a, b;
    Exec("select nid, f, d, x from T", &a, &b);
    EXPECT_EQ(Multiset(a), Multiset(b)) << Context("contents");
  }

  std::string Context(const std::string& text) const {
    return std::string(DesignName(design_)) + ": " + text + " with :p = " +
           params_.at("p").ToString();
  }

  void InsertRow() {
    // Appended, not prepended: GCC 12 -O3 warns (-Wrestrict) on the
    // `"(" + std::string` form here.
    std::string row = std::string("(").append(std::to_string(next_nid_++));
    row.append(", ").append(std::to_string(rng_.NextInt(0, 2)));
    row.append(", ").append(DistValue());
    row.append(", ").append(std::to_string(rng_.NextInt(0, 99))).append(")");
    Run("insert into A values " + row);
    Run("insert into B values " + row);
  }

  /// Few distinct dists, so they repeat; about one row in five is at
  /// kInfinity.
  std::string DistValue() {
    return rng_.NextInt(0, 4) == 0 ? kInf : std::to_string(rng_.NextInt(0, 9));
  }

  /// Mostly a flag of the domain, now and then one outside it.
  std::string Flag() {
    const int64_t k = rng_.NextInt(0, 9);
    return k < 9 ? std::to_string(k % 3) : "3";
  }

  /// A dist operand: a literal (kInfinity included), or the parameter.
  std::string DistOperand() {
    switch (rng_.NextInt(0, 3)) {
      case 0: return kInf;
      case 1: return ":p";
      default: return std::to_string(rng_.NextInt(-1, 11));
    }
  }

  /// `flag = k`, a dist comparison, or both, in either order and with the
  /// column on either side.
  std::string Predicate() {
    static const char* kOps[] = {"=", "<", "<=", ">", ">="};
    const std::string op = kOps[rng_.NextInt(0, 4)];
    const std::string operand = DistOperand();
    const std::string dist = rng_.NextInt(0, 3) == 0
                                 ? operand + " " + Flipped(op) + " d"
                                 : "d " + op + " " + operand;
    const std::string flag = "f = " + Flag();
    switch (rng_.NextInt(0, 3)) {
      case 0: return flag;
      case 1: return dist;
      case 2: return dist + " and " + flag;
      default: return flag + " and " + dist;
    }
  }

  static std::string Flipped(const std::string& op) {
    if (op == "<") return ">";
    if (op == "<=") return ">=";
    if (op == ">") return "<";
    if (op == ">=") return "<=";
    return op;
  }

  /// :p is an INT dist (kInfinity included), NULL, or a DOUBLE.
  Value NextParam() {
    const int64_t pick = rng_.NextInt(0, 5);
    if (pick == 0) return Value(kInfinity);
    if (pick == 1) return Value::Null();
    if (pick == 2) {
      return Value(static_cast<double>(rng_.NextInt(0, 9)) + 0.5);
    }
    return Value(rng_.NextInt(-1, 11));
  }
  void BindParam() { params_.insert_or_assign("p", NextParam()); }

  Design design_;
  Rng rng_;
  Database db_{DatabaseOptions{}};
  sql::SqlEngine conn_;
  sql::SqlParams params_{{"p", Value(int64_t{0})}};
  int64_t next_nid_ = 0;
  int64_t statements_ = 0;
};

// Every generated statement gives the same multiset of rows (and DML the
// same affected count and table contents) on the indexed twin as on the
// plain one: the open tree answers flag-only probes and ranges that reach
// kInfinity exactly, and the single-column indexes keep their answers.
TEST(OpenTreeOracle, TwinTablesAgreeOnGeneratedStatements) {
  int64_t statements = 0;
  for (Design design : {Design::kHeapTree, Design::kClusteredTree,
                        Design::kDistIndex, Design::kFlagIndex}) {
    for (uint64_t seed : {11, 12}) {
      SCOPED_TRACE(std::string(DesignName(design)) + " seed " +
                   std::to_string(seed));
      OpenTreeOracle oracle(design, seed);
      oracle.Setup();
      ASSERT_FALSE(HasFatalFailure());
      for (int i = 0; i < 300 && !HasFailure(); i++) {
        oracle.Step();
        ASSERT_FALSE(HasFatalFailure());
      }
      oracle.Finish();
      statements += oracle.statements();
    }
  }
  EXPECT_GE(statements, 2400);
}

// ---------------------------------------------------------------------------

class OpenTreeDdlTest : public ::testing::Test {
 protected:
  Status Exec(const std::string& text) { return conn_.Execute(text); }
  void Run(const std::string& text) {
    Status st = Exec(text);
    ASSERT_TRUE(st.ok()) << text << " -> " << st.ToString();
  }

  Database db_{DatabaseOptions{}};
  sql::SqlEngine conn_{&db_};
};

TEST_F(OpenTreeDdlTest, HostileFormsReturnTypedErrors) {
  Run("create table W (nid int, f int, d int, name varchar(8))");
  Run("insert into W values (1, 0, 5, 'a'), (2, 1, " + kInf + ", 'b')");
  EXPECT_TRUE(Exec("create unique index ix on W (f, d)").IsNotSupported());
  EXPECT_TRUE(Exec("create index ix on W (f, d, nid)").IsNotSupported());
  EXPECT_TRUE(Exec("create index ix on W (f, f)").IsInvalidArgument());
  EXPECT_TRUE(Exec("create index ix on W (f, name)").IsNotSupported());
  EXPECT_TRUE(Exec("create index ix on W (name, d)").IsNotSupported());
  EXPECT_TRUE(Exec("create index ix on W (f, nope)").IsNotFound());
  // None of them left an index behind.
  EXPECT_TRUE(Exec("drop index ix on W").IsNotFound());

  // Rows outside the domain: a flag past 2, a negative dist, a NULL.
  for (const char* row : {"(3, 3, 1, 'c')", "(3, 0, 0 - 1, 'c')",
                          "(3, null, 1, 'c')"}) {
    Run("create table V (nid int, f int, d int, name varchar(8))");
    Run(std::string("insert into V values ") + row);
    EXPECT_TRUE(Exec("create index ix on V (f, d)").IsInvalidArgument())
        << row;
    EXPECT_TRUE(Exec("drop index ix on V").IsNotFound()) << row;
    Run("drop table V");
  }

  // Once the tree stands, a write outside the domain fails and changes
  // nothing.
  Run("create index ix on W (f, d)");
  EXPECT_TRUE(
      Exec("create index ix2 on W (f, d)").IsAlreadyExists());
  EXPECT_TRUE(Exec("insert into W values (3, 4, 1, 'c')").IsInvalidArgument());
  EXPECT_TRUE(Exec("insert into W values (3, 0, " + std::to_string(kInfinity) +
                   " + 1, 'c')")
                  .IsInvalidArgument());
  EXPECT_TRUE(Exec("update W set f = 0 - 1 where nid = 1").IsInvalidArgument());
  EXPECT_TRUE(Exec("update W set d = null where nid = 2").IsInvalidArgument());
  Table* w = db_.catalog()->GetTable("W");
  EXPECT_EQ(w->num_rows(), 2);
  EXPECT_TRUE(w->CheckConsistency().ok());
  sql::SqlResult r;
  ASSERT_TRUE(conn_.Execute("select nid from W where f = 1", &r).ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 2);
  Run("drop index ix on W");
}

// ---------------------------------------------------------------------------

struct ClientReads {
  int64_t full = 0;
  int64_t index = 0;
  bool operator==(const ClientReads&) const = default;
};

/// Working-table reads of each of five seeded queries of the SQL-text
/// client on a BA graph with 2,000 nodes.
std::vector<ClientReads> MeasureClientReads(Algorithm algorithm) {
  const EdgeList list =
      GenerateBarabasiAlbert(2000, 3, WeightRange{1, 100}, 7);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  EXPECT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  SqlPathFinderOptions opts;
  opts.algorithm = algorithm;
  std::unique_ptr<SqlPathFinder> finder;
  EXPECT_TRUE(SqlPathFinder::Create(graph.get(), opts, &finder).ok());
  Table* work = db.catalog()->GetTable(opts.visited_table);
  Rng rng(99);
  std::vector<ClientReads> reads;
  for (int q = 0; q < 5; q++) {
    const node_id_t s = rng.NextInt(0, list.num_nodes - 1);
    const node_id_t t = rng.NextInt(0, list.num_nodes - 1);
    work->ResetAccessStats();
    PathQueryResult r;
    EXPECT_TRUE(finder->Find(s, t, &r).ok());
    EXPECT_TRUE(r.found);
    reads.push_back({work->access_stats().full_scan_rows.load(),
                     work->access_stats().index_scan_rows.load()});
  }
  return reads;
}

std::string Show(const std::vector<ClientReads>& reads) {
  std::string out;
  for (const ClientReads& r : reads) {
    out.append("{").append(std::to_string(r.full)).append(", ");
    out.append(std::to_string(r.index)).append("}, ");
  }
  return out;
}

// Fixed counts: the frontier statements read the open tree in proportion
// to the frontier; full-scan rows come only from the statements with no
// flag conjunct (min(d2s + d2t), count(*) and the meeting-node SELECT).
TEST(SqlClientReads, WorkingTableReadsPerQuery) {
  const struct {
    Algorithm algorithm;
    std::vector<ClientReads> want;
  } kGolden[] = {
      {Algorithm::kDJ,
       {{2000, 23266}, {1989, 16933}, {1361, 2181}, {1727, 5826},
        {2000, 21384}}},
      {Algorithm::kBSDJ,
       {{6355, 2566}, {8332, 3066}, {5105, 2078}, {8388, 2746},
        {11089, 4165}}},
      {Algorithm::kBBFS,
       {{5790, 1827}, {7553, 3093}, {5759, 2997}, {2394, 1454},
        {7907, 2009}}},
  };
  for (const auto& g : kGolden) {
    const std::vector<ClientReads> got = MeasureClientReads(g.algorithm);
    EXPECT_EQ(got, g.want) << AlgorithmName(g.algorithm) << ": "
                           << Show(got);
  }
}

}  // namespace
}  // namespace relgraph
