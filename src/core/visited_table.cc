#include "src/core/visited_table.h"

#include <algorithm>
#include <utility>

#include "src/exec/scan_executors.h"

namespace relgraph {

namespace {
Schema VisitedSchema() {
  return Schema({{"nid", TypeId::kInt},
                 {"d2s", TypeId::kInt},
                 {"p2s", TypeId::kInt},
                 {"a2s", TypeId::kInt},
                 {"f", TypeId::kInt},
                 {"d2t", TypeId::kInt},
                 {"p2t", TypeId::kInt},
                 {"a2t", TypeId::kInt},
                 {"b", TypeId::kInt}});
}

/// flag = 0 AND dist < infinity — the open-candidate filter every frontier
/// and auxiliary statement shares.
ExprRef OpenPredicate(const DirCols& dir) {
  return And(ColEq(dir.flag, 0),
             Cmp(CompareOp::kLt, Col(dir.dist), Lit(kInfinity)));
}

/// The frontier conjunct of `kind` over `dir`, reading the spec's node,
/// level and bound from the given expressions: literals for the statement
/// text, parameters for the prepared update. nullptr for kAll.
ExprRef FrontierConjunct(FrontierSpec::Kind kind, const DirCols& dir,
                         ExprRef node, ExprRef level, ExprRef bound) {
  switch (kind) {
    case FrontierSpec::Kind::kAll:
      return nullptr;
    case FrontierSpec::Kind::kNode:
      return Cmp(CompareOp::kEq, Col("nid"), std::move(node));
    case FrontierSpec::Kind::kDistEq:
      return Cmp(CompareOp::kEq, Col(dir.dist), std::move(level));
    case FrontierSpec::Kind::kDistOr:
      return Or(Cmp(CompareOp::kLe, Col(dir.dist), std::move(bound)),
                Cmp(CompareOp::kEq, Col(dir.dist), std::move(level)));
  }
  return nullptr;
}
}  // namespace

ExprRef FrontierSpec::ToPredicate(const DirCols& dir) const {
  return FrontierConjunct(kind, dir, Lit(node), Lit(level), Lit(bound));
}

DirCols VisitedTable::ForwardCols() {
  return DirCols{"d2s", "p2s", "a2s", "f", /*forward=*/true};
}

DirCols VisitedTable::BackwardCols() {
  return DirCols{"d2t", "p2t", "a2t", "b", /*forward=*/false};
}

Status VisitedTable::Create(Database* db, IndexStrategy strategy,
                            std::string name,
                            std::unique_ptr<VisitedTable>* out) {
  auto vt = std::unique_ptr<VisitedTable>(new VisitedTable());
  vt->db_ = db;
  TableOptions topts;
  if (strategy == IndexStrategy::kCluIndex) {
    topts.storage = TableStorage::kClustered;
    topts.cluster_key = "nid";
    topts.cluster_unique = true;
    vt->has_unique_index_ = true;
  }
  RELGRAPH_RETURN_IF_ERROR(db->catalog()->CreateTable(
      std::move(name), VisitedSchema(), topts, &vt->table_));
  if (strategy == IndexStrategy::kIndex) {
    RELGRAPH_RETURN_IF_ERROR(db->catalog()->CreateSecondaryIndex(
        vt->table_, "nid", /*unique=*/true));
    vt->has_unique_index_ = true;
  }
  // Index/CluIndex: one open tree per direction, (f, d2s) and (b, d2t), so
  // frontier selection, finalization and the frontier scan read
  // O(frontier) rows. NoIndex keeps the paper's scan-only physical design.
  if (strategy != IndexStrategy::kNoIndex) {
    for (const DirCols& dir : {ForwardCols(), BackwardCols()}) {
      RELGRAPH_RETURN_IF_ERROR(
          db->catalog()->CreateOpenIndex(vt->table_, dir.flag, dir.dist));
    }
  }

  const Schema& schema = vt->table_->schema();
  vt->nid_idx_ = schema.IndexOf("nid");
  vt->d2s_idx_ = schema.IndexOf("d2s");
  vt->d2t_idx_ = schema.IndexOf("d2t");
  vt->node_slot_ = vt->params_.AddNamedSlot("node");
  vt->level_slot_ = vt->params_.AddNamedSlot("level");
  vt->bound_slot_ = vt->params_.AddNamedSlot("bound");
  *out = std::move(vt);
  return Status::OK();
}

VisitedTable::~VisitedTable() = default;

// ------------------------------------------------------- auxiliary reads

void VisitedTable::NoteCost(const Tuple& row) {
  weight_t sum = row.value(d2s_idx_).AsInt() + row.value(d2t_idx_).AsInt();
  if (sum < min_cost_) min_cost_ = sum;
}

RowChangeObserver VisitedTable::ChangeObserver() {
  return [this](const Tuple& row) { NoteCost(row); };
}

Status VisitedTable::LeastOpen(const DirCols& dir, weight_t* dist,
                               node_id_t* nid) {
  *dist = kInfinity;
  *nid = kInvalidNode;
  bool found;
  RELGRAPH_RETURN_IF_ERROR(table_->FirstInRange(
      dir.flag, 0, dir.dist, 0, kInfinity - 1, &candidates_, &row_, &found));
  if (found) {
    *dist = row_.value(dir.forward ? d2s_idx_ : d2t_idx_).AsInt();
    *nid = row_.value(nid_idx_).AsInt();
  }
  return Status::OK();
}

// ------------------------------------------------------------ DML wrappers

Status VisitedTable::Reset() {
  db_->RecordStatement();  // DELETE FROM TVisited
  min_cost_ = kInfinity;
  return table_->Truncate();
}

Status VisitedTable::InsertSource(node_id_t s) {
  db_->RecordStatement();  // Listing 2(1)
  Tuple row({Value(s), Value(int64_t{0}), Value(s), Value(s),
             Value(int64_t{0}), Value(kInfinity), Value(kInvalidNode),
             Value(kInvalidNode), Value(int64_t{1})});
  RELGRAPH_RETURN_IF_ERROR(table_->Insert(row));
  NoteCost(row);
  return Status::OK();
}

Status VisitedTable::InsertSourceAndTarget(node_id_t s, node_id_t t) {
  db_->RecordStatement();
  Tuple src({Value(s), Value(int64_t{0}), Value(s), Value(s),
             Value(int64_t{0}), Value(kInfinity), Value(kInvalidNode),
             Value(kInvalidNode), Value(int64_t{0})});
  RELGRAPH_RETURN_IF_ERROR(table_->Insert(src));
  NoteCost(src);
  if (t == s) return Status::OK();
  db_->RecordStatement();
  Tuple tgt({Value(t), Value(kInfinity), Value(kInvalidNode),
             Value(kInvalidNode), Value(int64_t{0}), Value(int64_t{0}),
             Value(t), Value(t), Value(int64_t{0})});
  RELGRAPH_RETURN_IF_ERROR(table_->Insert(tgt));
  NoteCost(tgt);
  return Status::OK();
}

Status VisitedTable::GetRow(node_id_t nid, Tuple* out) {
  db_->RecordStatement();  // SELECT * FROM TVisited WHERE nid = :nid
  if (has_unique_index_) {
    return table_->LookupUnique("nid", nid, out, nullptr);
  }
  Table::Iterator it;
  RELGRAPH_RETURN_IF_ERROR(table_->ScanRange("nid", nid, nid, &it));
  if (it.Next(out, nullptr)) return Status::OK();
  RELGRAPH_RETURN_IF_ERROR(it.status());
  return Status::NotFound("node " + std::to_string(nid) + " not visited");
}

// --------------------------------------------------- frontier access paths
//
// Each statement names the key range its WHERE clause implies and leaves
// the access path to Table::ScanRange: the direction's open tree on
// Index/CluIndex, a filtered full scan on NoIndex. Every range but the
// node probe is "flag = c AND lo <= dist <= hi" with hi below kInfinity,
// so both serve the same rows. The residual predicate keeps every plan
// exactly equivalent to the full-scan statement.

// The updates are prepared per direction on first use: predicate and SET
// list bound to the table once, the spec's node, level and bound read from
// params_, the candidate iterator and the plans' row buffers reused.

UpdatePlan* VisitedTable::MarkPlan(const DirCols& dir,
                                   FrontierSpec::Kind kind) {
  std::unique_ptr<UpdatePlan>& plan =
      plans_[dir.forward ? 1 : 0].mark[static_cast<size_t>(kind)];
  if (plan == nullptr) {
    ExprRef pred = OpenPredicate(dir);
    if (ExprRef extra = FrontierConjunct(
            kind, dir, Param(&params_, node_slot_, "node"),
            Param(&params_, level_slot_, "level"),
            Param(&params_, bound_slot_, "bound"))) {
      pred = And(std::move(pred), std::move(extra));
    }
    plan = std::make_unique<UpdatePlan>(
        table_, std::move(pred),
        std::vector<SetClause>{{dir.flag, Lit(int64_t{2})}});
  }
  return plan.get();
}

Status VisitedTable::MarkFrontier(const DirCols& dir, const FrontierSpec& spec,
                                  int64_t* marked) {
  params_.Set(node_slot_, Value(spec.node));
  params_.Set(level_slot_, Value(spec.level));
  params_.Set(bound_slot_, Value(spec.bound));
  UpdatePlan* plan = MarkPlan(dir, spec.kind);
  Table::Iterator& it = candidates_;
  if (spec.kind == FrontierSpec::Kind::kNode) {
    RELGRAPH_RETURN_IF_ERROR(
        table_->ScanRange("nid", spec.node, spec.node, &it));
  } else {
    weight_t lo = 0, hi = kInfinity - 1;  // kAll: every open row
    if (spec.kind == FrontierSpec::Kind::kDistEq) {
      lo = spec.level;
      hi = std::min(spec.level, hi);
    } else if (spec.kind == FrontierSpec::Kind::kDistOr) {
      hi = std::min(std::max(spec.bound, spec.level), hi);
    }
    RELGRAPH_RETURN_IF_ERROR(
        table_->ScanRange(dir.flag, 0, dir.dist, lo, hi, &it));
  }
  return plan->Run(&it, marked);
}

// A frontier row was open when marked and distances only fall, so every
// flag = 2 row lies in the open tree. Neither flag change moves d2s + d2t,
// so MinPathCost needs no notice of it.
Status VisitedTable::FinalizeFrontier(const DirCols& dir, int64_t* affected) {
  std::unique_ptr<UpdatePlan>& plan = plans_[dir.forward ? 1 : 0].finalize;
  if (plan == nullptr) {
    plan = std::make_unique<UpdatePlan>(
        table_, ColEq(dir.flag, 2),
        std::vector<SetClause>{{dir.flag, Lit(int64_t{1})}});
  }
  RELGRAPH_RETURN_IF_ERROR(table_->ScanRange(dir.flag, 2, dir.dist, 0,
                                             kInfinity - 1, &candidates_));
  return plan->Run(&candidates_, affected);
}

ExecRef VisitedTable::FrontierScan(const DirCols& dir) const {
  return std::make_unique<IndexRangeScanExecutor>(table_, dir.flag, 2,
                                                  dir.dist, 0, kInfinity - 1);
}

}  // namespace relgraph
