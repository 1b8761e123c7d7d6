// Golden plans: the physical plans the SQL planner builds for the engine's
// own statements. SELECT templates are pinned by their EXPLAIN text; DML
// statements (which EXPLAIN does not accept) are pinned by the access path
// they leave behind, i.e. the rows every table served by full scan, by
// index scan and by point lookup over a fixed workload. A planner
// refactor that keeps these figures keeps every plan the engine prepares.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sql_path_finder.h"
#include "src/graph/generators.h"
#include "src/labels/label_builder.h"
#include "src/labels/labeled_path_finder.h"
#include "src/sql/sql_engine.h"

namespace relgraph {
namespace {

EdgeList Figure1Graph() {
  EdgeList list;
  list.num_nodes = 11;
  auto add = [&](node_id_t u, node_id_t v, weight_t w) {
    list.edges.push_back({u, v, w});
    list.edges.push_back({v, u, w});
  };
  add(0, 3, 6);  add(0, 2, 1);  add(0, 1, 2);
  add(3, 2, 1);  add(2, 4, 3);  add(1, 4, 2);
  add(4, 5, 7);  add(4, 6, 3);  add(4, 7, 8);
  add(5, 7, 4);  add(6, 7, 9);  add(7, 10, 3);
  add(3, 8, 7);  add(8, 9, 2);  add(9, 10, 8);
  return list;
}

/// Every parameter any statement below reads, at fixed values.
sql::SqlParams FixedParams() {
  sql::SqlParams p;
  for (const auto& [name, v] :
       std::vector<std::pair<const char*, int64_t>>{
           {"s", 0}, {"t", 10}, {"u", 2}, {"r", 12}, {"d", 15},
           {"mid", 2}, {"x", 4}, {"inf", kInfinity}, {"minCost", 15},
           {"h", 0}}) {
    p.emplace(name, Value(v));
  }
  return p;
}

using Plans = std::vector<std::pair<std::string, std::string>>;

/// EXPLAIN text of `text`, or the error it gives.
std::string ExplainOrError(sql::SqlEngine* conn, const std::string& text) {
  std::string plan;
  Status st = conn->Explain(text, &plan, FixedParams());
  return st.ok() ? plan : "error: " + st.ToString();
}

/// The SELECT templates of one SqlPathFinder, explained after one Find so
/// the working table holds a finished search.
void ExplainFinder(Algorithm algorithm, Plans* out) {
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(
      GraphStore::Create(&db, Figure1Graph(), GraphStoreOptions{}, &graph)
          .ok());
  SqlPathFinderOptions opts;
  opts.algorithm = algorithm;
  std::unique_ptr<SqlPathFinder> finder;
  ASSERT_TRUE(SqlPathFinder::Create(graph.get(), opts, &finder).ok());
  PathQueryResult r;
  ASSERT_TRUE(finder->Find(0, 10, &r).ok());
  ASSERT_EQ(r.distance, 15);
  const SqlPathFinder::Statements& s = finder->statements();
  const std::string prefix = algorithm == Algorithm::kDJ ? "dj." : "bsdj.";
  sql::SqlEngine conn(&db);
  for (const auto& [name, text] :
       std::vector<std::pair<const char*, const std::string*>>{
           {"pick_mid", &s.pick_mid},
           {"target_reached", &s.target_reached},
           {"min_open_fwd", &s.min_open_fwd},
           {"min_open_bwd", &s.min_open_bwd},
           {"count_open_fwd", &s.count_open_fwd},
           {"count_open_bwd", &s.count_open_bwd},
           {"min_cost", &s.min_cost},
           {"meet_node", &s.meet_node},
           {"pred_fwd", &s.pred_fwd},
           {"pred_bwd", &s.pred_bwd}}) {
    out->emplace_back(prefix + name, ExplainOrError(&conn, *text));
  }
}

/// The label probe, witness and hop statement shapes over a complete
/// index on the Figure-1 graph.
void ExplainLabelStatements(Plans* out) {
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(
      GraphStore::Create(&db, Figure1Graph(), GraphStoreOptions{}, &graph)
          .ok());
  std::unique_ptr<LabelIndex> index;
  ASSERT_TRUE(
      LabelBuilder::Build(graph.get(), "", LabelBuildOptions{}, &index).ok());
  const std::string lo = index->out_name();
  const std::string li = index->in_name();
  const EdgeRelation fwd = graph->Forward();
  sql::SqlEngine conn(&db);
  out->emplace_back(
      "label.probe",
      ExplainOrError(&conn, "select min(lo.dist + li.dist) from " + lo +
                                " lo, " + li +
                                " li where lo.nid = :s and li.nid = :t and "
                                "li.hub = lo.hub"));
  out->emplace_back(
      "label.witness",
      ExplainOrError(&conn, "select top 1 lo.hub from " + lo + " lo, " + li +
                                " li where lo.nid = :s and li.nid = :t and "
                                "li.hub = lo.hub and lo.dist + li.dist = :d"));
  out->emplace_back(
      "label.hop",
      ExplainOrError(
          &conn, "select top 1 e." + fwd.emit_column + ", e." +
                     fwd.cost_column + " from " + fwd.table->name() + " e, " +
                     lo + " lo, " + li + " li where e." + fwd.join_column +
                     " = :u and lo.nid = e." + fwd.emit_column +
                     " and li.nid = :t and li.hub = lo.hub and e." +
                     fwd.cost_column + " + lo.dist + li.dist = :r"));
}

/// The label build's SELECT shapes (the prune and expand MERGE sources
/// and the frontier mark's open minimum) over its working table.
void ExplainBuildStatements(Plans* out) {
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(
      GraphStore::Create(&db, Figure1Graph(), GraphStoreOptions{}, &graph)
          .ok());
  std::unique_ptr<LabelIndex> index;
  ASSERT_TRUE(
      LabelBuilder::Build(graph.get(), "", LabelBuildOptions{}, &index).ok());
  // The build drops its working table; recreate it to plan against.
  const std::string w = LabelBuildOptions{}.work_table;
  sql::SqlEngine conn(&db);
  for (const std::string& ddl : label_internal::WorkTableDdl(w)) {
    ASSERT_TRUE(conn.Execute(ddl).ok()) << ddl;
  }
  const std::string lo = index->out_name();
  const std::string li = index->in_name();
  out->emplace_back(
      "build.prune_fwd",
      ExplainOrError(&conn, label_internal::PruneSourceSql(w, lo, li, true)));
  out->emplace_back(
      "build.prune_bwd",
      ExplainOrError(&conn, label_internal::PruneSourceSql(w, lo, li, false)));
  out->emplace_back(
      "build.expand_fwd",
      ExplainOrError(&conn,
                     label_internal::ExpandSourceSql(w, graph->Forward())));
  out->emplace_back("build.min_open",
                    ExplainOrError(&conn, label_internal::MinOpenSql(w)));
}

/// C++ source for `plans`, printed when they drift so a deliberate plan
/// change can be reviewed and pasted in.
std::string AsSource(const Plans& plans) {
  std::string src;
  for (const auto& [name, plan] : plans) {
    src.append("    {\"").append(name).append("\",\n     R\"(");
    src.append(plan).append(")\"},\n");
  }
  return src;
}

const Plans& GoldenPlans() {
  static const Plans* golden = new Plans{
    {"dj.pick_mid",
     R"(Limit: 1
  Project: SqlTVisited.nid
    Filter: (SqlTVisited.d2s = NULL)
      Filter: (SqlTVisited.f = 0)
        Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT)
          IndexRangeScan: SqlTVisited.f = 0, d2s in [-inf, +inf] (bound from NULL)
)"},
    {"dj.target_reached",
     R"(Project: SqlTVisited.nid
  Filter: (SqlTVisited.nid = :t)
    Filter: (SqlTVisited.f = 1)
      Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT)
        IndexRangeScan: SqlTVisited.f = 1, d2s in [-inf, +inf]
)"},
    {"dj.min_open_fwd",
     R"(Project: agg1
  HashAggregate: agg1
    Limit: 1
      Filter: (SqlTVisited.d2s < :inf)
        Filter: (SqlTVisited.f = 0)
          Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT)
            IndexRangeScan: SqlTVisited.f = 0, d2s in [-inf, 2305843009213693950] (bound from :inf)
)"},
    {"dj.min_open_bwd",
     R"(error: NotFound: unknown column b)"},
    {"dj.count_open_fwd",
     R"(Project: agg1
  HashAggregate: agg1
    Filter: (SqlTVisited.d2s < :inf)
      Filter: (SqlTVisited.f = 0)
        Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT)
          IndexRangeScan: SqlTVisited.f = 0, d2s in [-inf, 2305843009213693950] (bound from :inf)
)"},
    {"dj.count_open_bwd",
     R"(error: NotFound: unknown column b)"},
    {"dj.min_cost",
     R"(error: NotFound: unknown column d2t)"},
    {"dj.meet_node",
     R"(error: NotFound: unknown column d2t)"},
    {"dj.pred_fwd",
     R"(Project: SqlTVisited.p2s
  Filter: (SqlTVisited.nid = :x)
    Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT)
      IndexRangeScan: SqlTVisited.nid in [4, 4] (bound from :x)
)"},
    {"dj.pred_bwd",
     R"(error: NotFound: unknown column p2t)"},
    {"bsdj.pick_mid",
     R"(Limit: 1
  Project: SqlTVisited.nid
    Filter: (SqlTVisited.d2s = 2305843009213693951)
      Filter: (SqlTVisited.f = 0)
        Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT, SqlTVisited.d2t INT, SqlTVisited.p2t INT, SqlTVisited.b INT)
          IndexRangeScan: SqlTVisited.f = 0, d2s in [2305843009213693951, 2305843009213693951] (bound from 2305843009213693951)
)"},
    {"bsdj.target_reached",
     R"(Project: SqlTVisited.nid
  Filter: (SqlTVisited.nid = :t)
    Filter: (SqlTVisited.f = 1)
      Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT, SqlTVisited.d2t INT, SqlTVisited.p2t INT, SqlTVisited.b INT)
        IndexRangeScan: SqlTVisited.f = 1, d2s in [-inf, +inf]
)"},
    {"bsdj.min_open_fwd",
     R"(Project: agg1
  HashAggregate: agg1
    Limit: 1
      Filter: (SqlTVisited.d2s < :inf)
        Filter: (SqlTVisited.f = 0)
          Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT, SqlTVisited.d2t INT, SqlTVisited.p2t INT, SqlTVisited.b INT)
            IndexRangeScan: SqlTVisited.f = 0, d2s in [-inf, 2305843009213693950] (bound from :inf)
)"},
    {"bsdj.min_open_bwd",
     R"(Project: agg1
  HashAggregate: agg1
    Limit: 1
      Filter: (SqlTVisited.d2t < :inf)
        Filter: (SqlTVisited.b = 0)
          Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT, SqlTVisited.d2t INT, SqlTVisited.p2t INT, SqlTVisited.b INT)
            IndexRangeScan: SqlTVisited.b = 0, d2t in [-inf, 2305843009213693950] (bound from :inf)
)"},
    {"bsdj.count_open_fwd",
     R"(Project: agg1
  HashAggregate: agg1
    Filter: (SqlTVisited.d2s < :inf)
      Filter: (SqlTVisited.f = 0)
        Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT, SqlTVisited.d2t INT, SqlTVisited.p2t INT, SqlTVisited.b INT)
          IndexRangeScan: SqlTVisited.f = 0, d2s in [-inf, 2305843009213693950] (bound from :inf)
)"},
    {"bsdj.count_open_bwd",
     R"(Project: agg1
  HashAggregate: agg1
    Filter: (SqlTVisited.d2t < :inf)
      Filter: (SqlTVisited.b = 0)
        Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT, SqlTVisited.d2t INT, SqlTVisited.p2t INT, SqlTVisited.b INT)
          IndexRangeScan: SqlTVisited.b = 0, d2t in [-inf, 2305843009213693950] (bound from :inf)
)"},
    {"bsdj.min_cost",
     R"(Project: agg1
  HashAggregate: agg1
    Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT, SqlTVisited.d2t INT, SqlTVisited.p2t INT, SqlTVisited.b INT)
      SeqScan: SqlTVisited
)"},
    {"bsdj.meet_node",
     R"(Limit: 1
  Project: SqlTVisited.nid
    Filter: ((SqlTVisited.d2s + SqlTVisited.d2t) = :minCost)
      Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT, SqlTVisited.d2t INT, SqlTVisited.p2t INT, SqlTVisited.b INT)
        SeqScan: SqlTVisited
)"},
    {"bsdj.pred_fwd",
     R"(Project: SqlTVisited.p2s
  Filter: (SqlTVisited.nid = :x)
    Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT, SqlTVisited.d2t INT, SqlTVisited.p2t INT, SqlTVisited.b INT)
      IndexRangeScan: SqlTVisited.nid in [4, 4] (bound from :x)
)"},
    {"bsdj.pred_bwd",
     R"(Project: SqlTVisited.p2t
  Filter: (SqlTVisited.nid = :x)
    Rename: -> (SqlTVisited.nid INT, SqlTVisited.d2s INT, SqlTVisited.p2s INT, SqlTVisited.f INT, SqlTVisited.d2t INT, SqlTVisited.p2t INT, SqlTVisited.b INT)
      IndexRangeScan: SqlTVisited.nid in [4, 4] (bound from :x)
)"},
    {"label.probe",
     R"(Project: agg1
  HashAggregate: agg1
    NestedLoopJoin: key lo.hub = li.hub
      Filter: (lo.nid = :s)
        Rename: -> (lo.nid INT, lo.hub INT, lo.dist INT)
          IndexRangeScan: LabelsOut.nid in [0, 0] (bound from :s)
      Filter: (li.nid = :t)
        Rename: -> (li.nid INT, li.hub INT, li.dist INT)
          IndexRangeScan: LabelsIn.nid in [10, 10] (bound from :t)
)"},
    {"label.witness",
     R"(Limit: 1
  Project: lo.hub
    Filter: ((lo.dist + li.dist) = :d)
      NestedLoopJoin: key lo.hub = li.hub
        Filter: (lo.nid = :s)
          Rename: -> (lo.nid INT, lo.hub INT, lo.dist INT)
            IndexRangeScan: LabelsOut.nid in [0, 0] (bound from :s)
        Filter: (li.nid = :t)
          Rename: -> (li.nid INT, li.hub INT, li.dist INT)
            IndexRangeScan: LabelsIn.nid in [10, 10] (bound from :t)
)"},
    {"label.hop",
     R"(Limit: 1
  Project: e.tid e.cost
    Filter: (((e.cost + lo.dist) + li.dist) = :r)
      NestedLoopJoin: key lo.hub = li.hub
        Rename: -> (e.fid INT, e.tid INT, e.cost INT, lo.nid INT, lo.hub INT, lo.dist INT)
          IndexNestedLoopJoin: probe LabelsOut.nid = e.tid
            Filter: (e.fid = :u)
              Rename: -> (e.fid INT, e.tid INT, e.cost INT)
                IndexRangeScan: TEdges.fid in [2, 2] (bound from :u)
        Filter: (li.nid = :t)
          Rename: -> (li.nid INT, li.hub INT, li.dist INT)
            IndexRangeScan: LabelsIn.nid in [10, 10] (bound from :t)
)"},
  };
  return *golden;
}

TEST(PlannerGoldenTest, SelectTemplatesExplainUnchanged) {
  Plans plans;
  ExplainFinder(Algorithm::kDJ, &plans);
  ExplainFinder(Algorithm::kBSDJ, &plans);
  ExplainLabelStatements(&plans);
  ASSERT_FALSE(HasFatalFailure());
  const Plans& golden = GoldenPlans();
  ASSERT_EQ(plans.size(), golden.size()) << AsSource(plans);
  for (size_t i = 0; i < plans.size(); i++) {
    EXPECT_EQ(plans[i].first, golden[i].first);
    EXPECT_EQ(plans[i].second, golden[i].second) << plans[i].first;
  }
  if (HasFailure()) ADD_FAILURE() << AsSource(plans);
}

const Plans& BuildGoldenPlans() {
  static const Plans* golden = new Plans{
    {"build.prune_fwd",
     R"(Project: tmp.nid tmp.cov
  Filter: (tmp.rn = 1)
    Rename: -> (tmp.nid INT, tmp.cov INT, tmp.rn INT)
      Project: q.nid (lo.dist + li.dist) rn
        WindowRowNumber: partition by q.nid order by (lo.dist + li.dist) -> rn
          NestedLoopJoin: key li.hub = lo.hub
            Rename: -> (q.nid INT, q.d INT, q.f INT, li.nid INT, li.hub INT, li.dist INT)
              IndexNestedLoopJoin: probe LabelsIn.nid = q.nid
                Filter: (q.f = 2)
                  Rename: -> (q.nid INT, q.d INT, q.f INT)
                    IndexRangeScan: LabelW.f = 2, d in [-inf, +inf]
            Filter: (lo.nid = :h)
              Rename: -> (lo.nid INT, lo.hub INT, lo.dist INT)
                IndexRangeScan: LabelsOut.nid in [0, 0] (bound from :h)
)"},
    {"build.prune_bwd",
     R"(Project: tmp.nid tmp.cov
  Filter: (tmp.rn = 1)
    Rename: -> (tmp.nid INT, tmp.cov INT, tmp.rn INT)
      Project: q.nid (lo.dist + li.dist) rn
        WindowRowNumber: partition by q.nid order by (lo.dist + li.dist) -> rn
          NestedLoopJoin: key lo.hub = li.hub
            Rename: -> (q.nid INT, q.d INT, q.f INT, lo.nid INT, lo.hub INT, lo.dist INT)
              IndexNestedLoopJoin: probe LabelsOut.nid = q.nid
                Filter: (q.f = 2)
                  Rename: -> (q.nid INT, q.d INT, q.f INT)
                    IndexRangeScan: LabelW.f = 2, d in [-inf, +inf]
            Filter: (li.nid = :h)
              Rename: -> (li.nid INT, li.hub INT, li.dist INT)
                IndexRangeScan: LabelsIn.nid in [0, 0] (bound from :h)
)"},
    {"build.expand_fwd",
     R"(Project: tmp.nid tmp.cost
  Filter: (tmp.rn = 1)
    Rename: -> (tmp.nid INT, tmp.cost INT, tmp.rn INT)
      Project: e.tid (e.cost + q.d) rn
        WindowRowNumber: partition by e.tid order by (e.cost + q.d) -> rn
          Rename: -> (q.nid INT, q.d INT, q.f INT, e.fid INT, e.tid INT, e.cost INT)
            IndexNestedLoopJoin: probe TEdges.fid = q.nid
              Filter: (q.f = 2)
                Rename: -> (q.nid INT, q.d INT, q.f INT)
                  IndexRangeScan: LabelW.f = 2, d in [-inf, +inf]
)"},
    {"build.min_open",
     R"(Project: agg1
  HashAggregate: agg1
    Limit: 1
      Filter: (LabelW.f = 0)
        Rename: -> (LabelW.nid INT, LabelW.d INT, LabelW.f INT)
          IndexRangeScan: LabelW.f = 0, d in [-inf, +inf]
)"},
  };
  return *golden;
}

// The label build's prune joins probe the frontier's own labels by nid and
// key the hub's labels on hub, and the open minimum reads one index entry:
// every round reads rows in proportion to its frontier.
TEST(PlannerGoldenTest, BuildSelectShapesExplainUnchanged) {
  Plans plans;
  ExplainBuildStatements(&plans);
  ASSERT_FALSE(HasFatalFailure());
  const Plans& golden = BuildGoldenPlans();
  ASSERT_EQ(plans.size(), golden.size()) << AsSource(plans);
  for (size_t i = 0; i < plans.size(); i++) {
    EXPECT_EQ(plans[i].first, golden[i].first);
    EXPECT_EQ(plans[i].second, golden[i].second) << plans[i].first;
  }
  if (HasFailure()) ADD_FAILURE() << AsSource(plans);
}

/// Random graphs are directed and can be disconnected; a few self-loops
/// on top (the same graph the label-build golden test uses).
EdgeList SpicedRandomGraph(int64_t n, int64_t m, uint64_t seed) {
  EdgeList list = GenerateRandomGraph(n, m, WeightRange{1, 50}, seed);
  for (node_id_t v : {node_id_t{0}, n / 2, n - 1}) {
    list.edges.push_back(Edge{v, v, 7});
  }
  return list;
}

// A label build, then 10 BSDJ and 10 DJ SQL-text searches and 10 label
// walks: every table's access counters and the prepare count must match
// the figures of the planner these plans were captured from.
TEST(PlannerGoldenTest, DmlAccessPathsUnchanged) {
  const EdgeList list = SpicedRandomGraph(60, 150, 23);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<LabelIndex> index;
  ASSERT_TRUE(
      LabelBuilder::Build(graph.get(), "", LabelBuildOptions{}, &index).ok());
  std::unique_ptr<LabeledPathFinder> labeled;
  ASSERT_TRUE(LabeledPathFinder::Create(graph.get(), index.get(),
                                        LabeledPathFinderOptions{}, &labeled)
                  .ok());
  std::vector<std::unique_ptr<SqlPathFinder>> finders;
  for (Algorithm algorithm : {Algorithm::kBSDJ, Algorithm::kDJ}) {
    SqlPathFinderOptions opts;
    opts.algorithm = algorithm;
    opts.visited_table = std::string("Golden") + AlgorithmName(algorithm);
    finders.emplace_back();
    ASSERT_TRUE(SqlPathFinder::Create(graph.get(), opts, &finders.back()).ok());
  }
  for (int q = 0; q < 10; q++) {
    const node_id_t s = (q * 7) % list.num_nodes;
    const node_id_t t = (q * 13 + 5) % list.num_nodes;
    PathQueryResult bsdj, dj, walk;
    ASSERT_TRUE(finders[0]->Find(s, t, &bsdj).ok());
    ASSERT_TRUE(finders[1]->Find(s, t, &dj).ok());
    ASSERT_TRUE(labeled->Find(s, t, &walk).ok());
    EXPECT_EQ(bsdj.found, walk.found);
    EXPECT_EQ(dj.distance, walk.distance);
  }

  std::vector<std::string> names = db.catalog()->TableNames();
  std::sort(names.begin(), names.end());
  std::string got;
  for (const std::string& name : names) {
    const TableAccessStats& a = db.catalog()->GetTable(name)->access_stats();
    got.append(name)
        .append(" full=")
        .append(std::to_string(a.full_scan_rows.load()))
        .append(" index=")
        .append(std::to_string(a.index_scan_rows.load()))
        .append(" point=")
        .append(std::to_string(a.point_lookups.load()))
        .append("\n");
  }
  got.append("prepares=")
      .append(std::to_string(db.stats().prepares.load()))
      .append("\n");
  EXPECT_EQ(got, R"(GoldenBSDJ full=2465 index=1113 point=214
GoldenDJ full=321 index=1337 point=741
LabelsIn full=0 index=6497 point=0
LabelsMeta full=0 index=0 point=0
LabelsOut full=0 index=7417 point=0
SqlTVisited full=0 index=0 point=0
TEdges full=153 index=2023 point=0
TEdgesIn full=153 index=1112 point=0
TNodes full=60 index=0 point=0
prepares=96
)");
}

}  // namespace
}  // namespace relgraph
