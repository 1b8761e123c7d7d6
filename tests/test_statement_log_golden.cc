// Pins the full statement log of one native BSDJ query (CluIndex, NSQL,
// seeded Barabasi-Albert graph with n=500): how many statements it issues
// and the SQL text of every logged one, byte for byte. The native client
// builds that text only while the log is on, so this is the test that
// keeps the lazily built text identical to the Listings' statements.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/path_finder.h"
#include "src/graph/generators.h"
#include "src/graph/graph_store.h"

namespace relgraph {
namespace {

// One statement per line; the TVisited table's per-finder suffix is
// replaced by nothing (see Normalize).
constexpr const char* kGoldenLog = R"GOLDEN(SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2s) FROM TVisited WHERE f=0
UPDATE TVisited SET f=2 WHERE f=0 AND d2s<Max AND (d2s = 0)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.tid, out.fid, out.cost+q.d2s, row_number() OVER (PARTITION BY out.tid ORDER BY out.cost+q.d2s) AS rownum FROM TVisited q, TEdges out WHERE q.nid=out.fid AND q.f=2 AND out.cost+q.d2s+0<2305843009213693951) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2s>source.cost THEN UPDATE SET d2s=source.cost,p2s=source.pid,f=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET f=1 WHERE f=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2s) FROM TVisited WHERE f=0
UPDATE TVisited SET f=2 WHERE f=0 AND d2s<Max AND (d2s = 1)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.tid, out.fid, out.cost+q.d2s, row_number() OVER (PARTITION BY out.tid ORDER BY out.cost+q.d2s) AS rownum FROM TVisited q, TEdges out WHERE q.nid=out.fid AND q.f=2 AND out.cost+q.d2s+0<2305843009213693951) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2s>source.cost THEN UPDATE SET d2s=source.cost,p2s=source.pid,f=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET f=1 WHERE f=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2s) FROM TVisited WHERE f=0
UPDATE TVisited SET f=2 WHERE f=0 AND d2s<Max AND (d2s = 4)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.tid, out.fid, out.cost+q.d2s, row_number() OVER (PARTITION BY out.tid ORDER BY out.cost+q.d2s) AS rownum FROM TVisited q, TEdges out WHERE q.nid=out.fid AND q.f=2 AND out.cost+q.d2s+0<2305843009213693951) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2s>source.cost THEN UPDATE SET d2s=source.cost,p2s=source.pid,f=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET f=1 WHERE f=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2s) FROM TVisited WHERE f=0
UPDATE TVisited SET f=2 WHERE f=0 AND d2s<Max AND (d2s = 6)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.tid, out.fid, out.cost+q.d2s, row_number() OVER (PARTITION BY out.tid ORDER BY out.cost+q.d2s) AS rownum FROM TVisited q, TEdges out WHERE q.nid=out.fid AND q.f=2 AND out.cost+q.d2s+0<2305843009213693951) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2s>source.cost THEN UPDATE SET d2s=source.cost,p2s=source.pid,f=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET f=1 WHERE f=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2s) FROM TVisited WHERE f=0
UPDATE TVisited SET f=2 WHERE f=0 AND d2s<Max AND (d2s = 8)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.tid, out.fid, out.cost+q.d2s, row_number() OVER (PARTITION BY out.tid ORDER BY out.cost+q.d2s) AS rownum FROM TVisited q, TEdges out WHERE q.nid=out.fid AND q.f=2 AND out.cost+q.d2s+0<2305843009213693951) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2s>source.cost THEN UPDATE SET d2s=source.cost,p2s=source.pid,f=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET f=1 WHERE f=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2s) FROM TVisited WHERE f=0
UPDATE TVisited SET f=2 WHERE f=0 AND d2s<Max AND (d2s = 9)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.tid, out.fid, out.cost+q.d2s, row_number() OVER (PARTITION BY out.tid ORDER BY out.cost+q.d2s) AS rownum FROM TVisited q, TEdges out WHERE q.nid=out.fid AND q.f=2 AND out.cost+q.d2s+0<2305843009213693951) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2s>source.cost THEN UPDATE SET d2s=source.cost,p2s=source.pid,f=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET f=1 WHERE f=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2s) FROM TVisited WHERE f=0
UPDATE TVisited SET f=2 WHERE f=0 AND d2s<Max AND (d2s = 10)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.tid, out.fid, out.cost+q.d2s, row_number() OVER (PARTITION BY out.tid ORDER BY out.cost+q.d2s) AS rownum FROM TVisited q, TEdges out WHERE q.nid=out.fid AND q.f=2 AND out.cost+q.d2s+0<2305843009213693951) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2s>source.cost THEN UPDATE SET d2s=source.cost,p2s=source.pid,f=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET f=1 WHERE f=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2t) FROM TVisited WHERE b=0
UPDATE TVisited SET b=2 WHERE b=0 AND d2t<Max AND (d2t = 0)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.fid, out.tid, out.cost+q.d2t, row_number() OVER (PARTITION BY out.fid ORDER BY out.cost+q.d2t) AS rownum FROM TVisited q, TEdgesIn out WHERE q.nid=out.tid AND q.b=2 AND out.cost+q.d2t+10<2305843009213693951) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2t>source.cost THEN UPDATE SET d2t=source.cost,p2t=source.pid,b=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET b=1 WHERE b=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2t) FROM TVisited WHERE b=0
UPDATE TVisited SET b=2 WHERE b=0 AND d2t<Max AND (d2t = 7)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.fid, out.tid, out.cost+q.d2t, row_number() OVER (PARTITION BY out.fid ORDER BY out.cost+q.d2t) AS rownum FROM TVisited q, TEdgesIn out WHERE q.nid=out.tid AND q.b=2 AND out.cost+q.d2t+10<2305843009213693951) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2t>source.cost THEN UPDATE SET d2t=source.cost,p2t=source.pid,b=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET b=1 WHERE b=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2t) FROM TVisited WHERE b=0
UPDATE TVisited SET b=2 WHERE b=0 AND d2t<Max AND (d2t = 14)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.fid, out.tid, out.cost+q.d2t, row_number() OVER (PARTITION BY out.fid ORDER BY out.cost+q.d2t) AS rownum FROM TVisited q, TEdgesIn out WHERE q.nid=out.tid AND q.b=2 AND out.cost+q.d2t+10<2305843009213693951) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2t>source.cost THEN UPDATE SET d2t=source.cost,p2t=source.pid,b=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET b=1 WHERE b=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2t) FROM TVisited WHERE b=0
UPDATE TVisited SET b=2 WHERE b=0 AND d2t<Max AND (d2t = 19)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.fid, out.tid, out.cost+q.d2t, row_number() OVER (PARTITION BY out.fid ORDER BY out.cost+q.d2t) AS rownum FROM TVisited q, TEdgesIn out WHERE q.nid=out.tid AND q.b=2 AND out.cost+q.d2t+10<37) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2t>source.cost THEN UPDATE SET d2t=source.cost,p2t=source.pid,b=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET b=1 WHERE b=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2t) FROM TVisited WHERE b=0
UPDATE TVisited SET b=2 WHERE b=0 AND d2t<Max AND (d2t = 21)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.fid, out.tid, out.cost+q.d2t, row_number() OVER (PARTITION BY out.fid ORDER BY out.cost+q.d2t) AS rownum FROM TVisited q, TEdgesIn out WHERE q.nid=out.tid AND q.b=2 AND out.cost+q.d2t+10<37) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2t>source.cost THEN UPDATE SET d2t=source.cost,p2t=source.pid,b=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET b=1 WHERE b=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2t) FROM TVisited WHERE b=0
UPDATE TVisited SET b=2 WHERE b=0 AND d2t<Max AND (d2t = 22)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.fid, out.tid, out.cost+q.d2t, row_number() OVER (PARTITION BY out.fid ORDER BY out.cost+q.d2t) AS rownum FROM TVisited q, TEdgesIn out WHERE q.nid=out.tid AND q.b=2 AND out.cost+q.d2t+10<37) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2t>source.cost THEN UPDATE SET d2t=source.cost,p2t=source.pid,b=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET b=1 WHERE b=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2t) FROM TVisited WHERE b=0
UPDATE TVisited SET b=2 WHERE b=0 AND d2t<Max AND (d2t = 23)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.fid, out.tid, out.cost+q.d2t, row_number() OVER (PARTITION BY out.fid ORDER BY out.cost+q.d2t) AS rownum FROM TVisited q, TEdgesIn out WHERE q.nid=out.tid AND q.b=2 AND out.cost+q.d2t+10<37) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2t>source.cost THEN UPDATE SET d2t=source.cost,p2t=source.pid,b=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET b=1 WHERE b=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2t) FROM TVisited WHERE b=0
UPDATE TVisited SET b=2 WHERE b=0 AND d2t<Max AND (d2t = 24)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.fid, out.tid, out.cost+q.d2t, row_number() OVER (PARTITION BY out.fid ORDER BY out.cost+q.d2t) AS rownum FROM TVisited q, TEdgesIn out WHERE q.nid=out.tid AND q.b=2 AND out.cost+q.d2t+10<37) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2t>source.cost THEN UPDATE SET d2t=source.cost,p2t=source.pid,b=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET b=1 WHERE b=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2t) FROM TVisited WHERE b=0
UPDATE TVisited SET b=2 WHERE b=0 AND d2t<Max AND (d2t = 25)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.fid, out.tid, out.cost+q.d2t, row_number() OVER (PARTITION BY out.fid ORDER BY out.cost+q.d2t) AS rownum FROM TVisited q, TEdgesIn out WHERE q.nid=out.tid AND q.b=2 AND out.cost+q.d2t+10<37) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2t>source.cost THEN UPDATE SET d2t=source.cost,p2t=source.pid,b=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET b=1 WHERE b=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2t) FROM TVisited WHERE b=0
UPDATE TVisited SET b=2 WHERE b=0 AND d2t<Max AND (d2t = 26)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.fid, out.tid, out.cost+q.d2t, row_number() OVER (PARTITION BY out.fid ORDER BY out.cost+q.d2t) AS rownum FROM TVisited q, TEdgesIn out WHERE q.nid=out.tid AND q.b=2 AND out.cost+q.d2t+10<37) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2t>source.cost THEN UPDATE SET d2t=source.cost,p2t=source.pid,b=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET b=1 WHERE b=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT MIN(d2t) FROM TVisited WHERE b=0
UPDATE TVisited SET b=2 WHERE b=0 AND d2t<Max AND (d2t = 27)
MERGE TVisited AS target USING (SELECT nid,pid,cost FROM (SELECT out.fid, out.tid, out.cost+q.d2t, row_number() OVER (PARTITION BY out.fid ORDER BY out.cost+q.d2t) AS rownum FROM TVisited q, TEdgesIn out WHERE q.nid=out.tid AND q.b=2 AND out.cost+q.d2t+10<37) tmp WHERE rownum=1) AS source ON source.nid=target.nid WHEN MATCHED AND target.d2t>source.cost THEN UPDATE SET d2t=source.cost,p2t=source.pid,b=0 WHEN NOT MATCHED THEN INSERT ...
UPDATE TVisited SET b=1 WHERE b=2
SELECT MIN(d2s+d2t) FROM TVisited
SELECT nid FROM TVisited WHERE d2s+d2t=37)GOLDEN";

constexpr int64_t kGoldenStatements = 100;
constexpr node_id_t kSource = 3;
constexpr node_id_t kTarget = 417;
constexpr weight_t kDistance = 37;
constexpr int64_t kExpansions = 18;

/// "TVisited_BSDJ_<n>" -> "TVisited": the suffix counts finders created
/// by this process, which depends on which tests ran before.
std::string Normalize(std::string sql) {
  const std::string prefix = "TVisited_BSDJ_";
  for (size_t pos = sql.find(prefix); pos != std::string::npos;
       pos = sql.find(prefix, pos)) {
    size_t end = pos + prefix.size();
    while (end < sql.size() && sql[end] >= '0' && sql[end] <= '9') end++;
    sql.replace(pos, end - pos, "TVisited");
  }
  return sql;
}

std::vector<std::string> GoldenLines() {
  std::vector<std::string> lines;
  std::string text = kGoldenLog;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

class StatementLogGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    EdgeList list = GenerateBarabasiAlbert(500, 2, WeightRange{1, 20}, 11);
    ASSERT_TRUE(
        GraphStore::Create(&db_, list, GraphStoreOptions{}, &graph_).ok());
    ASSERT_TRUE(
        PathFinder::Create(graph_.get(), PathFinderOptions{}, &finder_).ok());
  }

  PathQueryResult Query() {
    PathQueryResult r;
    Status st = finder_->Find(kSource, kTarget, &r);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.distance, kDistance);
    EXPECT_EQ(r.stats.expansions, kExpansions);
    return r;
  }

  Database db_;
  std::unique_ptr<GraphStore> graph_;
  std::unique_ptr<PathFinder> finder_;
};

TEST_F(StatementLogGolden, BsdjLogIsByteIdentical) {
  db_.EnableStatementLog();
  const int64_t before = db_.stats().statements;
  PathQueryResult r = Query();
  EXPECT_EQ(r.stats.statements, kGoldenStatements);
  EXPECT_EQ(db_.stats().statements - before, kGoldenStatements);

  const std::vector<std::string> golden = GoldenLines();
  const auto& log = db_.statement_log();
  ASSERT_EQ(log.size(), golden.size());
  for (size_t i = 0; i < golden.size(); i++) {
    EXPECT_EQ(Normalize(log[i]), golden[i]) << "statement " << i + 1;
  }
}

TEST_F(StatementLogGolden, LogOffStillCountsAndStaysEmpty) {
  const int64_t before = db_.stats().statements;
  PathQueryResult r = Query();
  EXPECT_EQ(r.stats.statements, kGoldenStatements);
  EXPECT_EQ(db_.stats().statements - before, kGoldenStatements);
  EXPECT_TRUE(db_.statement_log().empty());

  // Turned on and off again: the next query counts the same and logs
  // nothing.
  db_.EnableStatementLog();
  db_.DisableStatementLog();
  r = Query();
  EXPECT_EQ(r.stats.statements, kGoldenStatements);
  EXPECT_TRUE(db_.statement_log().empty());
}

// A log shorter than the query keeps the most recent statements, in order.
TEST_F(StatementLogGolden, FullLogKeepsTheNewestStatements) {
  db_.EnableStatementLog(/*max_entries=*/10);
  Query();
  const std::vector<std::string> golden = GoldenLines();
  const auto& log = db_.statement_log();
  ASSERT_EQ(log.size(), 10u);
  for (size_t i = 0; i < log.size(); i++) {
    EXPECT_EQ(Normalize(log[i]), golden[golden.size() - 10 + i])
        << "entry " << i;
  }
}

}  // namespace
}  // namespace relgraph
