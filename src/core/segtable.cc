#include "src/core/segtable.h"

#include <map>

#include "src/common/timer.h"
#include "src/exec/agg_executors.h"
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
ExecRef BuildSegJoin(Table* work, const EdgeRelation& rel, weight_t lthd) {
  ExecRef frontier = std::make_unique<FilterExecutor>(
      std::make_unique<SeqScanExecutor>(work), ColEq("f", 2));
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
                                Table* final_table,
                                SegTableBuildStats* stats) {
  Catalog* catalog = db->catalog();
  const std::string work_name =
      options.prefix + (forward ? "work_out" : "work_in");

  Table* work = nullptr;
  {
    TableOptions topts;
    if (options.strategy == IndexStrategy::kCluIndex) {
      topts.storage = TableStorage::kClustered;
      topts.cluster_key = "skey";
      topts.cluster_unique = true;
    }
    RELGRAPH_RETURN_IF_ERROR(
        catalog->CreateTable(work_name, WorkSchema(), topts, &work));
    if (options.strategy != IndexStrategy::kCluIndex) {
      // Even the NoIndex study keeps the working table probe-able: the
      // paper's Fig 8(c) varies the *SegTable and TVisited* indexes; the
      // construction-internal table is an implementation detail.
      RELGRAPH_RETURN_IF_ERROR(
          catalog->CreateSecondaryIndex(work, "skey", /*unique=*/true));
    }
  }

  // Seed: every node starts as the source of its own search (§4.2 "we can
  // put all nodes in G into a visited node set initially").
  {
    db->RecordStatement();
    std::vector<ExprRef> exprs = {
        Add(Mul(Col("nid"), Lit(kSrcShift)), Col("nid")),
        Col("nid"),
        Col("nid"),
        Lit(int64_t{0}),
        Col("nid"),
        Lit(int64_t{0})};
    ProjectExecutor seed(std::make_unique<SeqScanExecutor>(graph->nodes()),
                         std::move(exprs), WorkSchema());
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
  // F, E, M and the reset are prepared once and re-run every round. The
  // frontier rule's two bounds change per round and reach the mark through
  // parameters: f=0 AND (dist < round*wmin OR dist = min open dist).
  BindContext params;
  const size_t bound_slot = params.AddNamedSlot("bound");
  const size_t min_open_slot = params.AddNamedSlot("min_open");
  UpdatePlan mark(
      work,
      And(ColEq("f", 0),
          Or(Cmp(CompareOp::kLt, Col("dist"),
                 Param(&params, bound_slot, "bound")),
             Cmp(CompareOp::kEq, Col("dist"),
                 Param(&params, min_open_slot, "min_open")))),
      {{"f", Lit(int64_t{2})}});
  UpdatePlan reset(work, ColEq("f", 2), {{"f", Lit(int64_t{1})}});
  DedupLeast expand(
      options.sql_mode, [&] { return BuildSegJoin(work, rel, lthd); }, "skey",
      "dist", "pid");
  RELGRAPH_RETURN_IF_ERROR(expand.status());
  MergeRows merge_rows(db, options.sql_mode, work, ExpandedSchema(),
                       std::move(merge));
  RELGRAPH_RETURN_IF_ERROR(merge_rows.status());

  for (int64_t round = 1;; round++) {
    db->RecordStatement();
    Value min_open;
    {
      FilterExecutor open(std::make_unique<SeqScanExecutor>(work),
                          ColEq("f", 0));
      RELGRAPH_RETURN_IF_ERROR(
          EvalScalarAggregate(&open, AggOp::kMin, Col("dist"), &min_open));
    }
    if (min_open.IsNull()) break;  // no candidates remain

    db->RecordStatement();
    params.Set(bound_slot, Value(round * wmin));
    params.Set(min_open_slot, min_open);
    int64_t marked = 0;
    RELGRAPH_RETURN_IF_ERROR(mark.Run(&marked));
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
    RELGRAPH_RETURN_IF_ERROR(reset.Run(&reset_rows));
  }

  // Second step (§4.2): fold in the original edges not dominated by a
  // pre-computed segment.
  {
    db->RecordStatement();
    std::vector<ExprRef> exprs = {
        Add(Mul(Col(rel.join_column), Lit(kSrcShift)), Col(rel.emit_column)),
        Col(rel.join_column),
        Col(rel.emit_column),
        Col(rel.cost_column),
        Col(rel.parent_column)};
    ProjectExecutor source(std::make_unique<SeqScanExecutor>(rel.table),
                           std::move(exprs), ExpandedSchema());
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

  // Publish: copy into the final segs table, dropping trivial (u,u) rows.
  // The work table scans in skey order, so a clustered final table loads
  // packed and in key order.
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
    int64_t inserted;
    RELGRAPH_RETURN_IF_ERROR(
        InsertFromExecutor(final_table, &source, &inserted));
  }

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

  auto make_final = [&](const std::string& name, const std::string& key,
                        Table** table) -> Status {
    TableOptions topts;
    if (options.strategy == IndexStrategy::kCluIndex) {
      topts.storage = TableStorage::kClustered;
      topts.cluster_key = key;
      topts.cluster_unique = false;
    }
    RELGRAPH_RETURN_IF_ERROR(
        catalog->CreateTable(name, SegsSchema(), topts, table));
    if (options.strategy == IndexStrategy::kIndex) {
      RELGRAPH_RETURN_IF_ERROR(
          catalog->CreateSecondaryIndex(*table, key, false));
    }
    return Status::OK();
  };
  RELGRAPH_RETURN_IF_ERROR(
      make_final(options.prefix + "TOutSegs", "fid", &st->out_segs_));
  RELGRAPH_RETURN_IF_ERROR(
      make_final(options.prefix + "TInSegs", "tid", &st->in_segs_));

  SegTableBuildStats local;
  RELGRAPH_RETURN_IF_ERROR(BuildDirection(db, graph, options, graph->Forward(),
                                          /*forward=*/true, st->out_segs_,
                                          &local));
  RELGRAPH_RETURN_IF_ERROR(BuildDirection(db, graph, options,
                                          graph->Backward(),
                                          /*forward=*/false, st->in_segs_,
                                          &local));
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

namespace {

/// One settled node of a bounded single-source search.
struct BallEntry {
  weight_t dist;
  node_id_t pid;  // predecessor (forward search) / successor (backward)
};

/// Bounded Dijkstra from `src` over `rel`, settling every node within
/// `lthd`. Neighbor access is a key-range read of the relational table,
/// so the maintenance path touches the graph exactly the way the rest of
/// the client does.
Status BoundedBall(Database* db, const EdgeRelation& rel, node_id_t src,
                   weight_t lthd, std::map<node_id_t, BallEntry>* ball) {
  ball->clear();
  (*ball)[src] = {0, src};
  // (dist, node, pid); ordered set as a small priority queue with
  // deterministic tie-breaking on (dist, node).
  std::map<std::pair<weight_t, node_id_t>, node_id_t> open;
  open[{0, src}] = src;
  std::map<node_id_t, bool> settled;

  while (!open.empty()) {
    auto [key, pid] = *open.begin();
    open.erase(open.begin());
    auto [dist, node] = key;
    if (settled[node]) continue;
    settled[node] = true;

    db->RecordStatement([&] {
      return "SELECT * FROM " + rel.table->name() + " WHERE " +
             rel.join_column + "=" + std::to_string(node);
    });
    Table::Iterator it;
    RELGRAPH_RETURN_IF_ERROR(
        rel.table->ScanRange(rel.join_column, node, node, &it));
    const Schema& schema = rel.table->schema();
    const size_t emit_idx = schema.IndexOf(rel.emit_column);
    const size_t cost_idx = schema.IndexOf(rel.cost_column);
    Tuple row;
    while (it.Next(&row, nullptr)) {
      node_id_t next = row.value(emit_idx).AsInt();
      weight_t cand = dist + row.value(cost_idx).AsInt();
      if (cand > lthd) continue;
      auto pos = ball->find(next);
      if (pos != ball->end() && pos->second.dist <= cand) continue;
      if (pos != ball->end()) {
        open.erase({pos->second.dist, next});
      }
      (*ball)[next] = {cand, node};
      open[{cand, next}] = node;
    }
    RELGRAPH_RETURN_IF_ERROR(it.status());
  }
  return Status::OK();
}

/// Replaces every row of `segs` whose `key_col` equals `key` with `fresh`.
Status ReplaceRowsFor(Database* db, Table* segs, const std::string& key_col,
                      node_id_t key, const std::vector<Tuple>& fresh,
                      int64_t* changed) {
  db->RecordStatement([&] {
    return "DELETE FROM " + segs->name() + " WHERE " + key_col + "=" +
           std::to_string(key);
  });
  int64_t deleted = 0;
  RELGRAPH_RETURN_IF_ERROR(
      UpdatePlan::Delete(segs, ColEq(key_col, key),
                         {key_col, CompareOp::kEq, Lit(int64_t{key})})
          ->Run(&deleted));
  db->RecordStatement(
      [&] { return "INSERT INTO " + segs->name() + " (recomputed rows)"; });
  for (const Tuple& t : fresh) {
    RELGRAPH_RETURN_IF_ERROR(segs->Insert(t));
  }
  *changed += deleted + static_cast<int64_t>(fresh.size());
  return Status::OK();
}

}  // namespace

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

  // Recompute each affected source's TOutSegs rows on the updated graph:
  // segments for δ <= lthd (Definition 4 case 1), residual raw edges
  // otherwise (case 2; parallel edges keep the minimum weight).
  for (node_id_t x : sources) {
    std::map<node_id_t, BallEntry> ball;
    RELGRAPH_RETURN_IF_ERROR(
        BoundedBall(db_, graph->Forward(), x, lthd, &ball));
    std::vector<Tuple> fresh;
    for (const auto& [y, entry] : ball) {
      if (y == x) continue;
      fresh.push_back(
          Tuple({Value(x), Value(y), Value(entry.pid), Value(entry.dist)}));
    }
    std::map<node_id_t, weight_t> raw;
    {
      Table::Iterator it;
      RELGRAPH_RETURN_IF_ERROR(
          graph->Forward().table->ScanRange("fid", x, x, &it));
      Tuple row;
      while (it.Next(&row, nullptr)) {
        node_id_t z = row.value(1).AsInt();
        weight_t wz = row.value(2).AsInt();
        if (ball.count(z) != 0) continue;  // dominated by a segment
        auto [pos, inserted] = raw.try_emplace(z, wz);
        if (!inserted && wz < pos->second) pos->second = wz;
      }
      RELGRAPH_RETURN_IF_ERROR(it.status());
    }
    for (const auto& [z, wz] : raw) {
      fresh.push_back(Tuple({Value(x), Value(z), Value(x), Value(wz)}));
    }
    RELGRAPH_RETURN_IF_ERROR(
        ReplaceRowsFor(db_, out_segs_, "fid", x, fresh, &local_changed));
  }

  // Symmetric for the affected sinks on TInSegs; the backward ball's pid is
  // the successor toward the sink, matching BuildDirection's convention.
  for (node_id_t y : sinks) {
    std::map<node_id_t, BallEntry> ball;
    RELGRAPH_RETURN_IF_ERROR(
        BoundedBall(db_, graph->Backward(), y, lthd, &ball));
    std::vector<Tuple> fresh;
    for (const auto& [x, entry] : ball) {
      if (x == y) continue;
      fresh.push_back(
          Tuple({Value(x), Value(y), Value(entry.pid), Value(entry.dist)}));
    }
    std::map<node_id_t, weight_t> raw;
    {
      Table::Iterator it;
      RELGRAPH_RETURN_IF_ERROR(
          graph->Backward().table->ScanRange("tid", y, y, &it));
      Tuple row;
      while (it.Next(&row, nullptr)) {
        node_id_t z = row.value(0).AsInt();
        weight_t wz = row.value(2).AsInt();
        if (ball.count(z) != 0) continue;
        auto [pos, inserted] = raw.try_emplace(z, wz);
        if (!inserted && wz < pos->second) pos->second = wz;
      }
      RELGRAPH_RETURN_IF_ERROR(it.status());
    }
    for (const auto& [z, wz] : raw) {
      fresh.push_back(Tuple({Value(z), Value(y), Value(y), Value(wz)}));
    }
    RELGRAPH_RETURN_IF_ERROR(
        ReplaceRowsFor(db_, in_segs_, "tid", y, fresh, &local_changed));
  }

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
