#include "src/core/prim_mst.h"

#include <atomic>

#include "src/exec/agg_executors.h"
#include "src/exec/bind_context.h"
#include "src/exec/dml_executors.h"
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
  TableOptions topts;
  if (graph->strategy() == IndexStrategy::kCluIndex) {
    topts.storage = TableStorage::kClustered;
    topts.cluster_key = "nid";
    topts.cluster_unique = true;
  }
  RELGRAPH_RETURN_IF_ERROR(
      db->catalog()->CreateTable(name, MstSchema(), topts, &tree));
  if (graph->strategy() != IndexStrategy::kCluIndex) {
    RELGRAPH_RETURN_IF_ERROR(
        db->catalog()->CreateSecondaryIndex(tree, "nid", true));
  }

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
  // deduplicated to the cheapest attachment per node. E, M, the mark and
  // the reset are prepared once and re-run every round.
  DedupLeast expand(
      mode,
      [&] {
        ExecRef frontier = std::make_unique<FilterExecutor>(
            std::make_unique<SeqScanExecutor>(tree), ColEq("f", 2));
        return std::make_unique<ProjectExecutor>(
            EdgeJoin(std::move(frontier), rel.table, rel.join_column, "nid"),
            std::vector<ExprRef>{Col(rel.emit_column), Col(rel.cost_column),
                                 Col("nid")},
            CandidateSchema());
      },
      "nid", "cost", "pid");
  RELGRAPH_RETURN_IF_ERROR(expand.status());
  MergeRows merge_rows(db, mode, tree, CandidateSchema(), std::move(merge));
  RELGRAPH_RETURN_IF_ERROR(merge_rows.status());
  // The tree admits one node per round; the mark reads it as `:mid`.
  BindContext params;
  const size_t mid_slot = params.AddNamedSlot("mid");
  UpdatePlan mark(tree,
                  Cmp(CompareOp::kEq, Col("nid"),
                      Param(&params, mid_slot, "mid")),
                  {{"f", Lit(int64_t{2})}});
  UpdatePlan reset(tree, ColEq("f", 2), {{"f", Lit(int64_t{1})}});

  for (;;) {
    // F: the single cheapest candidate (f=0, minimal w). Prim must stay
    // node-at-a-time (§3.1): taking every minimum-cost candidate in one
    // batch can miss a cheaper edge between two candidates admitted
    // together, losing optimality.
    db->RecordStatement();
    Value min_w;
    {
      FilterExecutor open(std::make_unique<SeqScanExecutor>(tree),
                          ColEq("f", 0));
      RELGRAPH_RETURN_IF_ERROR(
          EvalScalarAggregate(&open, AggOp::kMin, Col("w"), &min_w));
    }
    if (min_w.IsNull()) break;  // every reached node is in the tree

    node_id_t mid;
    {
      // SELECT TOP 1 nid FROM tree WHERE f=0 AND w = :min.
      FilterExecutor plan(
          std::make_unique<SeqScanExecutor>(tree),
          And(ColEq("f", 0),
              Cmp(CompareOp::kEq, Col("w"), Lit(min_w.AsInt()))));
      RELGRAPH_RETURN_IF_ERROR(plan.Init());
      Tuple t;
      if (!plan.Next(&t)) break;
      mid = t.value(0).AsInt();
    }

    db->RecordStatement();
    params.Set(mid_slot, Value(mid));
    int64_t marked;
    RELGRAPH_RETURN_IF_ERROR(mark.Run(&marked));
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
    RELGRAPH_RETURN_IF_ERROR(reset.Run(&reset_rows));
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
  return db->catalog()->DropTable(name);
}

}  // namespace relgraph
