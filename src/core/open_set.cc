#include "src/core/open_set.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/exec/scan_executors.h"

namespace relgraph {

namespace {
/// The frontier conjunct of `kind` over columns `key` and `dist`, reading
/// the spec's node, level and bound from the given expressions: literals
/// for the statement text, parameters for the prepared update. nullptr for
/// kAll.
ExprRef FrontierConjunct(FrontierSpec::Kind kind, const std::string& key,
                         const std::string& dist, ExprRef node, ExprRef level,
                         ExprRef bound) {
  switch (kind) {
    case FrontierSpec::Kind::kAll:
      return nullptr;
    case FrontierSpec::Kind::kNode:
      return Cmp(CompareOp::kEq, Col(key), std::move(node));
    case FrontierSpec::Kind::kDistEq:
      return Cmp(CompareOp::kEq, Col(dist), std::move(level));
    case FrontierSpec::Kind::kDistOr:
      return Or(Cmp(CompareOp::kLe, Col(dist), std::move(bound)),
                Cmp(CompareOp::kEq, Col(dist), std::move(level)));
  }
  return nullptr;
}
}  // namespace

ExprRef FrontierSpec::ToPredicate(const std::string& key,
                                  const std::string& dist) const {
  return FrontierConjunct(kind, key, dist, Lit(node), Lit(level), Lit(bound));
}

OpenSet::OpenSet(Table* table, std::string key, std::string flag,
                 std::string dist)
    : table_(table),
      key_(std::move(key)),
      flag_(std::move(flag)),
      dist_(std::move(dist)),
      key_idx_(table->schema().IndexOf(key_)),
      dist_idx_(table->schema().IndexOf(dist_)),
      node_slot_(params_.AddNamedSlot("node")),
      level_slot_(params_.AddNamedSlot("level")),
      bound_slot_(params_.AddNamedSlot("bound")) {}

Status OpenSet::Least(weight_t* dist, int64_t* key) {
  *dist = kInfinity;
  *key = kInvalidNode;
  bool found;
  RELGRAPH_RETURN_IF_ERROR(table_->FirstInRange(
      flag_, 0, dist_, 0, kInfinity - 1, &candidates_, &row_, &found));
  if (found) {
    *dist = row_.value(dist_idx_).AsInt();
    *key = row_.value(key_idx_).AsInt();
  }
  return Status::OK();
}

UpdatePlan* OpenSet::MarkPlan(FrontierSpec::Kind kind) {
  std::unique_ptr<UpdatePlan>& plan = mark_[static_cast<size_t>(kind)];
  if (plan == nullptr) {
    // flag = 0 AND dist < infinity AND <spec>. The reachability conjunct
    // keeps rows seeded by TVisited's opposite direction (dist = infinity)
    // out of this direction's frontier.
    ExprRef pred = And(ColEq(flag_, 0),
                       Cmp(CompareOp::kLt, Col(dist_), Lit(kInfinity)));
    if (ExprRef extra = FrontierConjunct(
            kind, key_, dist_, Param(&params_, node_slot_, "node"),
            Param(&params_, level_slot_, "level"),
            Param(&params_, bound_slot_, "bound"))) {
      pred = And(std::move(pred), std::move(extra));
    }
    plan = std::make_unique<UpdatePlan>(
        table_, std::move(pred),
        std::vector<SetClause>{{flag_, Lit(int64_t{2})}});
  }
  return plan.get();
}

Status OpenSet::Mark(const FrontierSpec& spec, int64_t* marked) {
  params_.Set(node_slot_, Value(spec.node));
  params_.Set(level_slot_, Value(spec.level));
  params_.Set(bound_slot_, Value(spec.bound));
  UpdatePlan* plan = MarkPlan(spec.kind);
  if (spec.kind == FrontierSpec::Kind::kNode) {
    RELGRAPH_RETURN_IF_ERROR(
        table_->ScanRange(key_, spec.node, spec.node, &candidates_));
  } else {
    weight_t lo = 0, hi = kInfinity - 1;  // kAll: every open row
    if (spec.kind == FrontierSpec::Kind::kDistEq) {
      lo = spec.level;
      hi = std::min(spec.level, hi);
    } else if (spec.kind == FrontierSpec::Kind::kDistOr) {
      hi = std::min(std::max(spec.bound, spec.level), hi);
    }
    RELGRAPH_RETURN_IF_ERROR(
        table_->ScanRange(flag_, 0, dist_, lo, hi, &candidates_));
  }
  return plan->Run(&candidates_, marked);
}

Status OpenSet::Finalize(int64_t* affected) {
  if (finalize_ == nullptr) {
    finalize_ = std::make_unique<UpdatePlan>(
        table_, ColEq(flag_, 2),
        std::vector<SetClause>{{flag_, Lit(int64_t{1})}});
  }
  RELGRAPH_RETURN_IF_ERROR(
      table_->ScanRange(flag_, 2, dist_, 0, kInfinity - 1, &candidates_));
  return finalize_->Run(&candidates_, affected);
}

ExecRef OpenSet::FrontierScan() const {
  return std::make_unique<IndexRangeScanExecutor>(
      table_, KeyProbe{.prefix_column = flag_,
                       .prefix = 2,
                       .column = dist_,
                       .lo = 0,
                       .hi = kInfinity - 1});
}

}  // namespace relgraph
