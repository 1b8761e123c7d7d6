#include "src/core/prim_mst.h"

#include <atomic>

#include "src/core/open_set.h"
#include "src/exec/scan_executors.h"

namespace relgraph {

namespace {
Schema MstSchema() {
  return Schema({{"nid", TypeId::kInt},
                 {"w", TypeId::kInt},
                 {"p2s", TypeId::kInt},
                 {"f", TypeId::kInt}});
}

Schema CandidateSchema() {
  return Schema({{"nid", TypeId::kInt},
                 {"cost", TypeId::kInt},
                 {"pid", TypeId::kInt}});
}
}  // namespace

Status PrimMst::Run(GraphStore* graph, SqlMode mode, node_id_t root,
                    MstResult* out) {
  *out = MstResult{};
  Database* db = graph->db();
  const int64_t stmt0 = db->stats().statements;
  static std::atomic<int> counter{0};
  const std::string name = "TMst_" + std::to_string(counter.fetch_add(1));

  Table* tree = nullptr;
  RELGRAPH_RETURN_IF_ERROR(CreateKeyedTable(
      db->catalog(), WorkingTableStrategy(graph->strategy()), name,
      MstSchema(), "nid", /*unique=*/true, &tree, {{"f", "w"}}));
  CreatedTables created{db->catalog(), {name}};  // dropped if the run fails
  OpenSet open(tree, "nid", "f", "w");

  db->RecordStatement();
  RELGRAPH_RETURN_IF_ERROR(tree->Insert(
      Tuple({Value(root), Value(int64_t{0}), Value(root), Value(int64_t{0})})));

  const EdgeRelation rel = graph->Forward();
  MergeSpec merge;
  merge.target_key_column = "nid";
  merge.source_key_column = "nid";
  merge.matched_condition =
      And(ColEq("t.f", 0), Cmp(CompareOp::kGt, Col("t.w"), Col("s.cost")));
  merge.matched_sets = {{"w", Col("s.cost")}, {"p2s", Col("s.pid")}};
  merge.insert_values = {Col("nid"), Col("cost"), Col("pid"), Lit(int64_t{0})};
  // E: neighbours of the frontier with the edge weight as the candidate
  // attachment cost (not accumulated — the Prim variation of §3.1),
  // deduplicated to the cheapest attachment per node. E and M are prepared
  // once and re-run every round, as are the open set's mark and reset.
  DedupLeast expand(
      mode,
      [&] {
        return std::make_unique<ProjectExecutor>(
            EdgeJoin(open.FrontierScan(), rel.table, rel.join_column, "nid"),
            std::vector<ExprRef>{Col(rel.emit_column), Col(rel.cost_column),
                                 Col("nid")},
            CandidateSchema());
      },
      "nid", "cost", "pid");
  RELGRAPH_RETURN_IF_ERROR(expand.status());
  MergeRows merge_rows(db, mode, tree, CandidateSchema(), std::move(merge));
  RELGRAPH_RETURN_IF_ERROR(merge_rows.status());

  for (;;) {
    // F: the single cheapest candidate (f=0, minimal w), the open tree's
    // first entry; ties go to the least row locator (nid when clustered,
    // RID on a heap). Prim must stay node-at-a-time (§3.1): taking every
    // minimum-cost candidate in one batch can miss a cheaper edge between
    // two candidates admitted together, losing optimality.
    db->RecordStatement();
    weight_t least;
    node_id_t mid;
    RELGRAPH_RETURN_IF_ERROR(open.Least(&least, &mid));
    if (least == kInfinity) break;  // every reached node is in the tree

    // The tree admits one node per round: the mark probes nid = mid.
    db->RecordStatement();
    int64_t marked;
    RELGRAPH_RETURN_IF_ERROR(open.Mark(FrontierSpec::Node(mid), &marked));
    if (marked == 0) break;
    out->iterations++;

    db->RecordStatement();
    RELGRAPH_RETURN_IF_ERROR(expand.Run());

    // M: nodes already in the tree (f=1 or f=2) are discarded; candidates
    // keep their cheaper attachment.
    int64_t affected;
    RELGRAPH_RETURN_IF_ERROR(
        merge_rows.Run(expand.rows().data(), expand.size(), &affected));

    db->RecordStatement();
    int64_t reset_rows;
    RELGRAPH_RETURN_IF_ERROR(open.Finalize(&reset_rows));
  }

  // Harvest the tree.
  db->RecordStatement();
  {
    SeqScanExecutor scan(tree);
    RELGRAPH_RETURN_IF_ERROR(scan.Init());
    Tuple t;
    while (scan.Next(&t)) {
      node_id_t nid = t.value(0).AsInt();
      weight_t w = t.value(1).AsInt();
      node_id_t parent = t.value(2).AsInt();
      out->total_weight += w;
      if (nid != root) out->tree_edges.push_back({parent, nid, w});
    }
    RELGRAPH_RETURN_IF_ERROR(scan.status());
  }
  out->connected =
      static_cast<int64_t>(out->tree_edges.size()) + 1 == graph->num_nodes();
  out->statements = db->stats().statements - stmt0;
  created.names.clear();
  return db->catalog()->DropTable(name);
}

}  // namespace relgraph
