#include "src/core/segtable.h"

#include <vector>

#include "src/common/timer.h"
#include "src/core/open_set.h"
#include "src/exec/bind_context.h"
#include "src/exec/dml_executors.h"
#include "src/exec/scan_executors.h"

namespace relgraph {

namespace {

/// Composite (src, node) key packed into one INT so the working table can
/// carry a single-column unique index: src < 2^31 node ids are required,
/// which Table/GraphStore already guarantee for graphs this engine stores.
constexpr int64_t kSrcShift = int64_t{1} << 32;

Schema WorkSchema() {
  return Schema({{"skey", TypeId::kInt},
                 {"src", TypeId::kInt},
                 {"nid", TypeId::kInt},
                 {"dist", TypeId::kInt},
                 {"pid", TypeId::kInt},
                 {"f", TypeId::kInt}});
}

Schema SegsSchema() {
  return Schema({{"fid", TypeId::kInt},
                 {"tid", TypeId::kInt},
                 {"pid", TypeId::kInt},
                 {"cost", TypeId::kInt}});
}

Schema ExpandedSchema() {
  return Schema({{"skey", TypeId::kInt},
                 {"src", TypeId::kInt},
                 {"nid", TypeId::kInt},
                 {"dist", TypeId::kInt},
                 {"pid", TypeId::kInt}});
}

/// Frontier ⋈ edges, pruned at lthd, projected to the expanded-row shape.
ExecRef BuildSegJoin(ExecRef frontier, const EdgeRelation& rel,
                     weight_t lthd) {
  ExprRef prune = Cmp(CompareOp::kLe, Add(Col("dist"), Col(rel.cost_column)),
                      Lit(lthd));
  ExecRef joined = EdgeJoin(std::move(frontier), rel.table, rel.join_column,
                            "nid", std::move(prune));
  std::vector<ExprRef> exprs = {
      Add(Mul(Col("src"), Lit(kSrcShift)), Col(rel.emit_column)),
      Col("src"),
      Col(rel.emit_column),
      Add(Col("dist"), Col(rel.cost_column)),
      Col(rel.parent_column)};
  return std::make_unique<ProjectExecutor>(std::move(joined), std::move(exprs),
                                           ExpandedSchema());
}

}  // namespace

Status SegTable::BuildDirection(Database* db, GraphStore* graph,
                                const SegTableOptions& options,
                                const EdgeRelation& rel, bool forward,
                                const std::vector<node_id_t>* sources,
                                Table* final_table, SegTableBuildStats* stats,
                                int64_t* changed) {
  Catalog* catalog = db->catalog();
  const std::string work_name =
      options.prefix + (forward ? "work_out" : "work_in");

  Table* work = nullptr;
  RELGRAPH_RETURN_IF_ERROR(CreateKeyedTable(
      catalog, WorkingTableStrategy(graph->strategy()), work_name,
      WorkSchema(), "skey", /*unique=*/true, &work, {{"f", "dist"}}));
  CreatedTables created{catalog, {work_name}};  // dropped if the run fails
  OpenSet open(work, "skey", "f", "dist");

  // The searches' sources: every node (§4.2 "we can put all nodes in G
  // into a visited node set initially"), or the given ones.
  auto source_nodes = [&]() -> ExecRef {
    if (sources == nullptr) {
      return std::make_unique<SeqScanExecutor>(graph->nodes());
    }
    std::vector<Tuple> rows;
    rows.reserve(sources->size());
    for (node_id_t n : *sources) rows.push_back(Tuple({Value(n)}));
    return std::make_unique<MaterializedExecutor>(
        std::move(rows), Schema({{"nid", TypeId::kInt}}));
  };

  // Seed: every source starts its own search.
  {
    db->RecordStatement();
    std::vector<ExprRef> exprs = {
        Add(Mul(Col("nid"), Lit(kSrcShift)), Col("nid")),
        Col("nid"),
        Col("nid"),
        Lit(int64_t{0}),
        Col("nid"),
        Lit(int64_t{0})};
    ProjectExecutor seed(source_nodes(), std::move(exprs), WorkSchema());
    int64_t inserted;
    RELGRAPH_RETURN_IF_ERROR(InsertFromExecutor(work, &seed, &inserted));
  }

  const weight_t wmin = graph->min_weight();
  const weight_t lthd = options.lthd;
  // M: a (src, node) pair keeps its shorter distance.
  MergeSpec merge;
  merge.target_key_column = "skey";
  merge.source_key_column = "skey";
  merge.matched_condition = Cmp(CompareOp::kGt, Col("t.dist"), Col("s.dist"));
  merge.matched_sets = {
      {"dist", Col("s.dist")}, {"pid", Col("s.pid")}, {"f", Lit(int64_t{0})}};
  merge.insert_values = {Col("skey"), Col("src"), Col("nid"),
                         Col("dist"), Col("pid"), Lit(int64_t{0})};
  // E and M are prepared once and re-run every round, as are the open
  // set's mark and reset.
  DedupLeast expand(
      options.sql_mode,
      [&] { return BuildSegJoin(open.FrontierScan(), rel, lthd); }, "skey",
      "dist", "pid");
  RELGRAPH_RETURN_IF_ERROR(expand.status());
  MergeRows merge_rows(db, options.sql_mode, work, ExpandedSchema(),
                       std::move(merge));
  RELGRAPH_RETURN_IF_ERROR(merge_rows.status());

  for (int64_t round = 1;; round++) {
    // The least open dist: the open tree's first entry.
    db->RecordStatement();
    weight_t min_open;
    int64_t skey;
    RELGRAPH_RETURN_IF_ERROR(open.Least(&min_open, &skey));
    if (min_open == kInfinity) break;  // no candidates remain

    // F (§4.2): f=0 AND (dist < round*wmin OR dist = min open dist).
    db->RecordStatement();
    int64_t marked = 0;
    RELGRAPH_RETURN_IF_ERROR(
        open.Mark(FrontierSpec::DistOr(round * wmin - 1, min_open), &marked));
    if (marked == 0) break;
    if (stats != nullptr) stats->iterations++;

    // E: expand + dedup to one row per skey; M: merge on skey.
    db->RecordStatement();
    RELGRAPH_RETURN_IF_ERROR(expand.Run());
    int64_t affected;
    RELGRAPH_RETURN_IF_ERROR(
        merge_rows.Run(expand.rows().data(), expand.size(), &affected));

    // Reset signs f=2 -> 1.
    db->RecordStatement();
    int64_t reset_rows;
    RELGRAPH_RETURN_IF_ERROR(open.Finalize(&reset_rows));
  }

  // Second step (§4.2): fold in the sources' original edges not dominated
  // by a pre-computed segment.
  {
    db->RecordStatement();
    ExecRef edges =
        sources == nullptr
            ? std::make_unique<SeqScanExecutor>(rel.table)
            : EdgeJoin(source_nodes(), rel.table, rel.join_column, "nid");
    std::vector<ExprRef> exprs = {
        Add(Mul(Col(rel.join_column), Lit(kSrcShift)), Col(rel.emit_column)),
        Col(rel.join_column),
        Col(rel.emit_column),
        Col(rel.cost_column),
        Col(rel.parent_column)};
    ProjectExecutor source(std::move(edges), std::move(exprs),
                           ExpandedSchema());
    MergeSpec spec;
    spec.target_key_column = "skey";
    spec.source_key_column = "skey";
    // A multi-edge can undercut a previous residual edge but never a true
    // shortest segment (δ <= w by definition).
    spec.matched_condition = Cmp(CompareOp::kGt, Col("t.dist"), Col("s.dist"));
    spec.matched_sets = {{"dist", Col("s.dist")}, {"pid", Col("s.pid")}};
    spec.insert_values = {Col("skey"), Col("src"),          Col("nid"),
                          Col("dist"), Col("pid"),          Lit(int64_t{1})};
    int64_t affected;
    RELGRAPH_RETURN_IF_ERROR(
        MergePlan(work, ExpandedSchema(), std::move(spec))
            .Run(&source, &affected));
  }

  // Publish: the sources' rows replace their old ones in the final segs
  // table, which is keyed on the relation's join column; trivial (u,u)
  // rows are dropped. The work table scans in skey order, so a clustered
  // final table loads packed and in key order.
  int64_t deleted = 0;
  if (sources != nullptr) {
    db->RecordStatement([&] {
      return "DELETE FROM " + final_table->name() + " WHERE " +
             rel.join_column + " IN (SELECT src FROM " + work_name + ")";
    });
    BindContext params;
    const size_t key_slot = params.AddNamedSlot("key");
    std::unique_ptr<UpdatePlan> remove = UpdatePlan::Delete(
        final_table,
        Cmp(CompareOp::kEq, Col(rel.join_column),
            Param(&params, key_slot, "key")),
        KeyProbe{.column = rel.join_column,
                 .key = Param(&params, key_slot, "key")});
    for (node_id_t n : *sources) {
      params.Set(key_slot, Value(n));
      int64_t removed;
      RELGRAPH_RETURN_IF_ERROR(remove->Run(&removed));
      deleted += removed;
    }
  }
  int64_t inserted;
  {
    db->RecordStatement();
    ExecRef nontrivial = std::make_unique<FilterExecutor>(
        std::make_unique<SeqScanExecutor>(work),
        Cmp(CompareOp::kNe, Col("src"), Col("nid")));
    std::vector<ExprRef> exprs;
    if (forward) {
      // TOutSegs(fid=src, tid=nid, pid, cost=dist)
      exprs = {Col("src"), Col("nid"), Col("pid"), Col("dist")};
    } else {
      // TInSegs(fid=nid, tid=src, pid, cost=dist)
      exprs = {Col("nid"), Col("src"), Col("pid"), Col("dist")};
    }
    ProjectExecutor source(std::move(nontrivial), std::move(exprs),
                           SegsSchema());
    RELGRAPH_RETURN_IF_ERROR(
        InsertFromExecutor(final_table, &source, &inserted));
  }
  if (changed != nullptr) *changed += deleted + inserted;

  created.names.clear();
  return catalog->DropTable(work_name);
}

Status SegTable::Build(Database* db, GraphStore* graph,
                       SegTableOptions options, std::unique_ptr<SegTable>* out,
                       SegTableBuildStats* stats) {
  Timer timer;
  int64_t statements_before = db->stats().statements;
  int64_t misses_before = db->buffer_pool()->stats().misses;
  int64_t reads_before = db->disk()->stats().reads;

  auto st = std::unique_ptr<SegTable>(new SegTable());
  st->db_ = db;
  st->options_ = options;
  Catalog* catalog = db->catalog();

  // The SegTable is stored the way its graph is (Fig 8(c)). A failed build
  // drops what it created.
  CreatedTables created{catalog, {}};
  RELGRAPH_RETURN_IF_ERROR(CreateKeyedTable(
      catalog, graph->strategy(), options.prefix + "TOutSegs", SegsSchema(),
      "fid", /*unique=*/false, &st->out_segs_));
  created.names.push_back(st->out_segs_->name());
  RELGRAPH_RETURN_IF_ERROR(CreateKeyedTable(
      catalog, graph->strategy(), options.prefix + "TInSegs", SegsSchema(),
      "tid", /*unique=*/false, &st->in_segs_));
  created.names.push_back(st->in_segs_->name());

  SegTableBuildStats local;
  RELGRAPH_RETURN_IF_ERROR(BuildDirection(
      db, graph, options, graph->Forward(), /*forward=*/true,
      /*sources=*/nullptr, st->out_segs_, &local, /*changed=*/nullptr));
  RELGRAPH_RETURN_IF_ERROR(BuildDirection(
      db, graph, options, graph->Backward(), /*forward=*/false,
      /*sources=*/nullptr, st->in_segs_, &local, /*changed=*/nullptr));
  created.names.clear();
  if (stats != nullptr) {
    *stats = local;
    stats->out_entries = st->out_segs_->num_rows();
    stats->in_entries = st->in_segs_->num_rows();
    stats->build_us = timer.ElapsedMicros();
    stats->statements = db->stats().statements - statements_before;
    stats->buffer_misses = db->buffer_pool()->stats().misses - misses_before;
    stats->disk_reads = db->disk()->stats().reads - reads_before;
  }
  *out = std::move(st);
  return Status::OK();
}

namespace {

/// One half-segment reaching (or leaving) an endpoint of the new edge.
struct Half {
  node_id_t node;  // x (into u) or y (out of v)
  node_id_t pid;   // stored pid of that segment row
  weight_t dist;
};

/// Upserts segment (fid=x, tid=y, pid, dist) into a segs table keyed by
/// `key_col` ("fid" for TOutSegs, "tid" for TInSegs). The segs tables are
/// non-unique relations, so the plan is a key-range read followed by
/// UPDATE-or-INSERT; each upsert is one statement.
Status UpsertSegment(Database* db, Table* table, const std::string& key_col,
                     node_id_t fid, node_id_t tid, node_id_t pid,
                     weight_t dist, int64_t* changed) {
  db->RecordStatement([&] {
    return "MERGE " + table->name() + " ON (fid,tid)=(" +
           std::to_string(fid) + "," + std::to_string(tid) + ")";
  });
  const int64_t key = key_col == "fid" ? fid : tid;
  Table::Iterator it;
  RELGRAPH_RETURN_IF_ERROR(table->ScanRange(key_col, key, key, &it));
  Tuple row;
  RowRef ref;
  while (it.Next(&row, &ref)) {
    if (row.value(0).AsInt() != fid || row.value(1).AsInt() != tid) continue;
    if (row.value(3).AsInt() <= dist) return Status::OK();  // dominated
    Tuple updated({Value(fid), Value(tid), Value(pid), Value(dist)});
    RELGRAPH_RETURN_IF_ERROR(table->UpdateRow(ref, row, updated));
    (*changed)++;
    return Status::OK();
  }
  RELGRAPH_RETURN_IF_ERROR(it.status());
  RELGRAPH_RETURN_IF_ERROR(
      table->Insert(Tuple({Value(fid), Value(tid), Value(pid), Value(dist)})));
  (*changed)++;
  return Status::OK();
}

}  // namespace

Status SegTable::ApplyEdgeInsertion(const Edge& edge, int64_t* changed) {
  int64_t local_changed = 0;
  const node_id_t u = edge.from, v = edge.to;
  const weight_t w = edge.weight;
  const weight_t lthd = options_.lthd;

  if (w > lthd) {
    // The edge exceeds the threshold: it participates in no pre-computed
    // segment; only the raw-edge rows (Definition 4 case 2) are needed.
    // pid conventions follow BuildDirection's raw-edge fold: pre(v)=u in
    // the outgoing table, succ(u)=v in the incoming one.
    RELGRAPH_RETURN_IF_ERROR(
        UpsertSegment(db_, out_segs_, "fid", u, v, u, w, &local_changed));
    RELGRAPH_RETURN_IF_ERROR(
        UpsertSegment(db_, in_segs_, "tid", u, v, v, w, &local_changed));
    if (changed != nullptr) *changed = local_changed;
    return Status::OK();
  }

  // Left halves: every x with δ(x,u) <= lthd (rows of TInSegs at tid=u),
  // plus the trivial x=u. The new edge cannot shorten these: any path
  // x ~> u through u->v must return to u, which non-negative weights make
  // no cheaper.
  std::vector<Half> into_u = {{u, v, 0}};  // succ(u) on u->...->y is v
  {
    db_->RecordStatement([&] {
      return "SELECT fid,pid,cost FROM " + in_segs_->name() +
             " WHERE tid=" + std::to_string(u);
    });
    Table::Iterator it;
    RELGRAPH_RETURN_IF_ERROR(in_segs_->ScanRange("tid", u, u, &it));
    Tuple row;
    while (it.Next(&row, nullptr)) {
      into_u.push_back(
          {row.value(0).AsInt(), row.value(2).AsInt(), row.value(3).AsInt()});
    }
    RELGRAPH_RETURN_IF_ERROR(it.status());
  }
  // Right halves: every y with δ(v,y) <= lthd (rows of TOutSegs at fid=v),
  // plus the trivial y=v.
  std::vector<Half> out_of_v = {{v, u, 0}};  // pre(v) on x->...->v is u
  {
    db_->RecordStatement([&] {
      return "SELECT tid,pid,cost FROM " + out_segs_->name() +
             " WHERE fid=" + std::to_string(v);
    });
    Table::Iterator it;
    RELGRAPH_RETURN_IF_ERROR(out_segs_->ScanRange("fid", v, v, &it));
    Tuple row;
    while (it.Next(&row, nullptr)) {
      out_of_v.push_back(
          {row.value(1).AsInt(), row.value(2).AsInt(), row.value(3).AsInt()});
    }
    RELGRAPH_RETURN_IF_ERROR(it.status());
  }

  for (const Half& left : into_u) {
    if (left.dist + w > lthd) continue;
    for (const Half& right : out_of_v) {
      weight_t dist = left.dist + w + right.dist;
      if (dist > lthd) continue;
      node_id_t x = left.node, y = right.node;
      if (x == y) continue;
      // pre(y) on the combined path: from the right half (u when y==v);
      // succ(x): from the left half (v when x==u).
      RELGRAPH_RETURN_IF_ERROR(UpsertSegment(db_, out_segs_, "fid", x, y,
                                             right.pid, dist,
                                             &local_changed));
      RELGRAPH_RETURN_IF_ERROR(UpsertSegment(db_, in_segs_, "tid", x, y,
                                             left.pid, dist, &local_changed));
    }
  }
  if (changed != nullptr) *changed = local_changed;
  return Status::OK();
}

Status SegTable::ApplyEdgeDeletion(GraphStore* graph, const Edge& edge,
                                   int64_t* changed) {
  int64_t local_changed = 0;
  const node_id_t u = edge.from, v = edge.to;
  const weight_t w = edge.weight;
  const weight_t lthd = options_.lthd;

  // Affected forward sources: x can lose a segment only if a <= lthd path
  // from x ran through (u,v), which needs δ_old(x,u) + w <= lthd. Those x
  // are exactly the TInSegs rows at tid=u with cost <= lthd - w (plus u
  // itself). An over-threshold edge affects only its own endpoints' rows.
  std::vector<node_id_t> sources = {u};
  std::vector<node_id_t> sinks = {v};
  if (w <= lthd) {
    db_->RecordStatement([&] {
      return "SELECT fid FROM " + in_segs_->name() +
             " WHERE tid=" + std::to_string(u);
    });
    Table::Iterator it;
    RELGRAPH_RETURN_IF_ERROR(in_segs_->ScanRange("tid", u, u, &it));
    Tuple row;
    while (it.Next(&row, nullptr)) {
      if (row.value(3).AsInt() + w > lthd) continue;
      sources.push_back(row.value(0).AsInt());
    }
    RELGRAPH_RETURN_IF_ERROR(it.status());

    db_->RecordStatement([&] {
      return "SELECT tid FROM " + out_segs_->name() +
             " WHERE fid=" + std::to_string(v);
    });
    RELGRAPH_RETURN_IF_ERROR(out_segs_->ScanRange("fid", v, v, &it));
    while (it.Next(&row, nullptr)) {
      if (row.value(3).AsInt() + w > lthd) continue;
      sinks.push_back(row.value(1).AsInt());
    }
    RELGRAPH_RETURN_IF_ERROR(it.status());
  }

  // Rerun the construction rounds on the updated graph from exactly the
  // affected sources, replacing their TOutSegs rows, then from the
  // affected sinks, replacing their TInSegs rows. Each list holds a node
  // once: a segs table holds one row per (fid, tid).
  RELGRAPH_RETURN_IF_ERROR(BuildDirection(
      db_, graph, options_, graph->Forward(), /*forward=*/true, &sources,
      out_segs_, /*stats=*/nullptr, &local_changed));
  RELGRAPH_RETURN_IF_ERROR(BuildDirection(
      db_, graph, options_, graph->Backward(), /*forward=*/false, &sinks,
      in_segs_, /*stats=*/nullptr, &local_changed));

  if (changed != nullptr) *changed = local_changed;
  return Status::OK();
}

EdgeRelation SegTable::Forward() const {
  return EdgeRelation{out_segs_, "fid", "tid", "pid", "cost"};
}

EdgeRelation SegTable::Backward() const {
  return EdgeRelation{in_segs_, "tid", "fid", "pid", "cost"};
}

}  // namespace relgraph
