#include "src/core/visited_table.h"

#include <utility>

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
}  // namespace

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
  // Index/CluIndex: the unique nid tree and one open tree per direction,
  // (f, d2s) and (b, d2t), so frontier selection, finalization and the
  // frontier scan read O(frontier) rows. NoIndex keeps the paper's
  // scan-only physical design.
  RELGRAPH_RETURN_IF_ERROR(CreateKeyedTable(
      db->catalog(), strategy, name, VisitedSchema(), "nid", /*unique=*/true,
      &vt->table_,
      {{ForwardCols().flag, ForwardCols().dist},
       {BackwardCols().flag, BackwardCols().dist}}));
  vt->has_unique_index_ = strategy != IndexStrategy::kNoIndex;

  const Schema& schema = vt->table_->schema();
  vt->d2s_idx_ = schema.IndexOf("d2s");
  vt->d2t_idx_ = schema.IndexOf("d2t");
  for (const DirCols& dir : {BackwardCols(), ForwardCols()}) {
    vt->open_[dir.forward ? 1 : 0].emplace(vt->table_, "nid", dir.flag,
                                           dir.dist);
  }
  *out = std::move(vt);
  return Status::OK();
}

VisitedTable::~VisitedTable() = default;

// ---------------------------------------------------------- MinPathCost

void VisitedTable::NoteCost(const Tuple& row) {
  weight_t sum = row.value(d2s_idx_).AsInt() + row.value(d2t_idx_).AsInt();
  if (sum < min_cost_) min_cost_ = sum;
}

RowChangeObserver VisitedTable::ChangeObserver() {
  return [this](const Tuple& row) { NoteCost(row); };
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

}  // namespace relgraph
