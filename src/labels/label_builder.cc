#include "src/labels/label_builder.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/common/timer.h"
#include "src/sql/sql_engine.h"

namespace relgraph {

namespace label_internal {

std::vector<std::string> WorkTableDdl(const std::string& w) {
  return {"create table " + w +
              " (nid int, d int, f int) cluster by (nid) unique",
          "create index ix_" + w + "_f_d on " + w + " (f, d)"};
}

std::string MinOpenSql(const std::string& w) {
  return "select min(d) from " + w + " where f = 0";
}

/// For every frontier vertex u, cov = min over common hubs of already-built
/// labels — forward pass: d(h -> h') from LabelsOut(h) joined to
/// d(h' -> u) from LabelsIn(u); backward pass: d(u -> h') from LabelsOut(u)
/// joined to d(h' -> h) from LabelsIn(h). cov <= d(u) means an earlier hub
/// already covers this pair, so u is finalized unlabeled and never
/// expanded. u's own labels come first in FROM, so the join probes them by
/// nid; the hub's labels then key the join on hub.
std::string PruneSourceSql(const std::string& w, const std::string& lo,
                           const std::string& li, bool forward) {
  const std::string own = forward ? li + " li" : lo + " lo";
  const std::string hub = forward ? lo + " lo" : li + " li";
  const std::string own_key = forward ? "li.nid = q.nid" : "lo.nid = q.nid";
  const std::string hub_key = forward ? "lo.nid = :h" : "li.nid = :h";
  return "select nid, cov from ("
         "select q.nid, lo.dist + li.dist, "
         "row_number() over (partition by q.nid order by lo.dist + li.dist) "
         "as rn "
         "from " + w + " q, " + own + ", " + hub + " "
         "where q.f = 2 and " + own_key + " and " + hub_key +
         " and li.hub = lo.hub"
         ") tmp (nid, cov, rn) where rn = 1";
}

std::string ExpandSourceSql(const std::string& w, const EdgeRelation& rel) {
  return "select nid, cost from ("
         "select e." + rel.emit_column + ", e.cost + q.d, "
         "row_number() over (partition by e." + rel.emit_column +
         " order by e.cost + q.d) as rn "
         "from " + w + " q, " + rel.table->name() + " e "
         "where q.nid = e." + rel.join_column + " and q.f = 2"
         ") tmp (nid, cost, rn) where rn = 1";
}

}  // namespace label_internal

namespace {

using namespace label_internal;  // NOLINT: meta-key enum, pipeline SQL

sql::SqlParams P(std::initializer_list<std::pair<const char*, int64_t>> kv) {
  sql::SqlParams params;
  for (const auto& [k, v] : kv) params.emplace(k, Value(v));
  return params;
}

/// One direction of the per-hub pruned Dijkstra: the five statements of
/// the pipeline, prepared once and re-bound for every hub.
struct DirectionPipeline {
  std::shared_ptr<sql::PreparedStatement> clear, seed, mark, prune, emit,
      expand, finalize;
};

struct PipelineBuilder {
  sql::SqlEngine* conn;
  int64_t* statements;

  Status Prep(const std::string& text,
              std::shared_ptr<sql::PreparedStatement>* out) {
    return conn->Prepare(text, out);
  }
  Status Run(const std::shared_ptr<sql::PreparedStatement>& stmt,
             const sql::SqlParams& params = {}, int64_t* affected = nullptr) {
    sql::SqlResult r;
    RELGRAPH_RETURN_IF_ERROR(stmt->Execute(params, &r));
    (*statements)++;
    if (affected != nullptr) *affected = r.affected;
    return Status::OK();
  }
};

/// The PLL prune as one matched-only MERGE over PruneSourceSql.
std::string BuildPruneSql(const std::string& w, const std::string& lo,
                          const std::string& li, bool forward) {
  return "merge into " + w + " as target using (" +
         PruneSourceSql(w, lo, li, forward) +
         ") as source (nid, cov) "
         "on (source.nid = target.nid) "
         "when matched and source.cov <= target.d then update set f = 1";
}

/// The frontier expansion as the same window-deduplicated MERGE the FEM
/// E-operator issues; a reached or improved row is open again.
std::string BuildExpandSql(const std::string& w, const EdgeRelation& rel) {
  return "merge into " + w + " as target using (" + ExpandSourceSql(w, rel) +
         ") as source (nid, cost) "
         "on (source.nid = target.nid) "
         "when matched and target.d > source.cost then update set "
         "d = source.cost, f = 0 "
         "when not matched then insert (nid, d, f) values (nid, cost, 0)";
}

Status PreparePipeline(PipelineBuilder* pb, const std::string& w,
                       const std::string& lo, const std::string& li,
                       const EdgeRelation& rel, bool forward,
                       DirectionPipeline* out) {
  RELGRAPH_RETURN_IF_ERROR(pb->Prep("truncate " + w, &out->clear));
  RELGRAPH_RETURN_IF_ERROR(pb->Prep(
      "insert into " + w + " (nid, d, f) values (:h, 0, 0)", &out->seed));
  RELGRAPH_RETURN_IF_ERROR(pb->Prep("update " + w +
                                        " set f = 2 where f = 0 and d = (" +
                                        MinOpenSql(w) + ")",
                                    &out->mark));
  RELGRAPH_RETURN_IF_ERROR(
      pb->Prep(BuildPruneSql(w, lo, li, forward), &out->prune));
  // Forward BFS discovers d(h -> u): an *in*-label of u. Backward BFS
  // discovers d(u -> h): an *out*-label.
  const std::string& emit_table = forward ? li : lo;
  RELGRAPH_RETURN_IF_ERROR(pb->Prep(
      "insert into " + emit_table +
          " (nid, hub, dist) select nid, :h as hub, d from " + w +
          " where f = 2",
      &out->emit));
  RELGRAPH_RETURN_IF_ERROR(pb->Prep(BuildExpandSql(w, rel), &out->expand));
  RELGRAPH_RETURN_IF_ERROR(
      pb->Prep("update " + w + " set f = 1 where f = 2", &out->finalize));
  return Status::OK();
}

/// Runs one hub's pruned Dijkstra in one direction; adds emitted label
/// rows to *entries and frontier rounds to *rounds.
Status RunHub(PipelineBuilder* pb, const DirectionPipeline& p, node_id_t hub,
              int64_t max_iterations, int64_t* rounds, int64_t* entries) {
  RELGRAPH_RETURN_IF_ERROR(pb->Run(p.clear));
  RELGRAPH_RETURN_IF_ERROR(pb->Run(p.seed, P({{"h", hub}})));
  for (int64_t iter = 0;; iter++) {
    if (iter >= max_iterations) {
      return Status::Internal("label BFS exceeded max_iterations");
    }
    int64_t marked = 0;
    RELGRAPH_RETURN_IF_ERROR(pb->Run(p.mark, {}, &marked));
    if (marked == 0) break;
    (*rounds)++;
    RELGRAPH_RETURN_IF_ERROR(pb->Run(p.prune, P({{"h", hub}})));
    int64_t emitted = 0;
    RELGRAPH_RETURN_IF_ERROR(pb->Run(p.emit, P({{"h", hub}}), &emitted));
    *entries += emitted;
    if (emitted > 0) {
      RELGRAPH_RETURN_IF_ERROR(pb->Run(p.expand));
    }
    RELGRAPH_RETURN_IF_ERROR(pb->Run(p.finalize));
  }
  return Status::OK();
}

}  // namespace

Status LabelBuilder::Build(GraphStore* graph, const std::string& prefix,
                           LabelBuildOptions options,
                           std::unique_ptr<LabelIndex>* out,
                           LabelBuildStats* stats) {
  Timer total;
  Database* db = graph->db();
  auto index = std::unique_ptr<LabelIndex>(new LabelIndex());
  index->db_ = db;
  index->prefix_ = prefix;
  const std::string lo = index->out_name();
  const std::string li = index->in_name();
  const std::string meta = index->meta_name();
  for (const std::string& name : {lo, li, meta}) {
    if (db->catalog()->GetTable(name) != nullptr) {
      return Status::AlreadyExists("label table " + name +
                                   " already exists; drop it first");
    }
  }
  // The staleness baseline: any mutation from here on (including one that
  // races the build) moves the live epoch off this value and the serving
  // layer falls back.
  const uint64_t built_epoch = graph->mutation_epoch();

  // Declared before the session, so its prepared statements are gone by
  // the time a failed build drops its tables.
  CreatedTables created{db->catalog(), {}};
  sql::SqlEngine conn(db);
  int64_t statements = 0;
  PipelineBuilder pb{&conn, &statements};

  // Hub order: total degree descending, node id ascending — the pruned
  // landmark heuristic (high-degree vertices cover the most pairs, so
  // processing them first keeps later BFS trees tiny). Degrees come from
  // the graph tables themselves via GROUP BY.
  std::unordered_map<node_id_t, int64_t> degree;
  {
    sql::SqlResult r;
    const EdgeRelation fwd = graph->Forward();
    const EdgeRelation bwd = graph->Backward();
    RELGRAPH_RETURN_IF_ERROR(conn.Execute(
        "select " + fwd.join_column + ", count(*) from " +
            fwd.table->name() + " group by " + fwd.join_column,
        &r));
    statements++;
    for (const auto& row : r.rows) {
      degree[row.value(0).AsInt()] += row.value(1).AsInt();
    }
    RELGRAPH_RETURN_IF_ERROR(conn.Execute(
        "select " + bwd.join_column + ", count(*) from " +
            bwd.table->name() + " group by " + bwd.join_column,
        &r));
    statements++;
    for (const auto& row : r.rows) {
      degree[row.value(0).AsInt()] += row.value(1).AsInt();
    }
  }
  std::vector<node_id_t> hubs;
  {
    sql::SqlResult r;
    RELGRAPH_RETURN_IF_ERROR(
        conn.Execute("select nid from " + graph->nodes()->name(), &r));
    statements++;
    hubs.reserve(r.rows.size());
    for (const auto& row : r.rows) hubs.push_back(row.value(0).AsInt());
  }
  std::sort(hubs.begin(), hubs.end(), [&](node_id_t a, node_id_t b) {
    const int64_t da = degree.count(a) ? degree.at(a) : 0;
    const int64_t db2 = degree.count(b) ? degree.at(b) : 0;
    if (da != db2) return da > db2;
    return a < b;
  });
  const int64_t total_nodes = static_cast<int64_t>(hubs.size());
  if (options.max_hubs >= 0 &&
      options.max_hubs < static_cast<int64_t>(hubs.size())) {
    hubs.resize(options.max_hubs);
  }

  // Label relations: clustered by nid so a probe is one sargable range
  // scan over exactly that vertex's entries. Meta is tiny and keyed.
  for (const std::string& name : {lo, li}) {
    RELGRAPH_RETURN_IF_ERROR(conn.Execute(
        "create table " + name + " (nid int, hub int, dist int) cluster by "
        "(nid)"));
    created.names.push_back(name);
  }
  RELGRAPH_RETURN_IF_ERROR(conn.Execute(
      "create table " + meta + " (k int, v int) cluster by (k) unique"));
  created.names.push_back(meta);
  statements += 3;

  // Working table: one pruned Dijkstra state (see WorkTableDdl). A table
  // of this name left by an earlier builder is dropped; from then on the
  // name is this call's.
  const std::string w = prefix + options.work_table;
  Status dropped = conn.Execute("drop table " + w);
  if (!dropped.ok() && !dropped.IsNotFound()) return dropped;
  created.names.push_back(w);
  for (const std::string& ddl : WorkTableDdl(w)) {
    RELGRAPH_RETURN_IF_ERROR(conn.Execute(ddl));
    statements++;
  }

  DirectionPipeline fwd_pipe, bwd_pipe;
  RELGRAPH_RETURN_IF_ERROR(PreparePipeline(&pb, w, lo, li, graph->Forward(),
                                           /*forward=*/true, &fwd_pipe));
  RELGRAPH_RETURN_IF_ERROR(PreparePipeline(&pb, w, lo, li, graph->Backward(),
                                           /*forward=*/false, &bwd_pipe));

  int64_t rounds = 0, entries = 0;
  for (node_id_t hub : hubs) {
    // Forward first: in-labels of reachable vertices, including the hub's
    // own (h, 0); then backward for the out-labels. Within one hub the
    // passes cannot see each other's fresh entries in their prune joins
    // (the forward prune reads LabelsOut(h), written only by the backward
    // pass that has not run yet; the backward prune reads LabelsOut of
    // frontier vertices, whose current-hub rows are emitted only after
    // their one frontier appearance) — the PLL previous-hubs-only rule.
    RELGRAPH_RETURN_IF_ERROR(RunHub(&pb, fwd_pipe, hub,
                                    options.max_iterations, &rounds,
                                    &entries));
    RELGRAPH_RETURN_IF_ERROR(RunHub(&pb, bwd_pipe, hub,
                                    options.max_iterations, &rounds,
                                    &entries));
  }

  // Drop the working table: construction state should not outlive the
  // build (and the DDL bumps the catalog version, so any prepared handle
  // in this session replans against the final schema).
  RELGRAPH_RETURN_IF_ERROR(conn.Execute("drop table " + w));
  statements++;

  index->num_hubs_ = static_cast<int64_t>(hubs.size());
  index->complete_ = index->num_hubs_ == total_nodes;
  index->num_entries_ = entries;
  index->num_nodes_ = graph->num_nodes();
  index->num_edges_ = graph->num_edges();
  index->built_mutation_epoch_ = built_epoch;
  index->built_catalog_version_ = db->catalog()->version();

  // Persist the metadata so Attach() (and snapshot restore) can rebuild
  // this handle from the tables alone.
  {
    std::shared_ptr<sql::PreparedStatement> put;
    RELGRAPH_RETURN_IF_ERROR(conn.Prepare(
        "insert into " + meta + " (k, v) values (:k, :v)", &put));
    const std::pair<int64_t, int64_t> rows[] = {
        {kMetaFormatVersion, kLabelFormatVersion},
        {kMetaNumHubs, index->num_hubs_},
        {kMetaComplete, index->complete_ ? 1 : 0},
        {kMetaMutationEpoch, static_cast<int64_t>(built_epoch)},
        {kMetaCatalogVersion,
         static_cast<int64_t>(index->built_catalog_version_)},
        {kMetaNumNodes, index->num_nodes_},
        {kMetaNumEdges, index->num_edges_},
        {kMetaNumEntries, entries},
    };
    for (const auto& [k, v] : rows) {
      RELGRAPH_RETURN_IF_ERROR(put->Execute(P({{"k", k}, {"v", v}})));
      statements++;
    }
  }

  if (stats != nullptr) {
    stats->hubs = index->num_hubs_;
    stats->statements = statements;
    stats->rounds = rounds;
    stats->entries = entries;
    stats->build_us = total.ElapsedMicros();
  }
  created.names.clear();
  *out = std::move(index);
  return Status::OK();
}

}  // namespace relgraph
