#include "src/sql/sql_engine.h"

#include "src/sql/parser.h"

namespace relgraph::sql {

// ----- PreparedStatement -----------------------------------------------------

Status PreparedStatement::CompileNow() {
  plan_ = PreparedPlan{};
  Planner planner(db_);
  RELGRAPH_RETURN_IF_ERROR(planner.Compile(*ast_, &plan_));
  planned_version_ = db_->catalog()->version();
  db_->RecordPrepare();
  return Status::OK();
}

Status PreparedStatement::EnsureFresh() {
  if (db_->catalog()->version() == planned_version_) return Status::OK();
  return CompileNow();
}

Status PreparedStatement::Execute(const SqlParams& params, SqlResult* result) {
  RELGRAPH_RETURN_IF_ERROR(EnsureFresh());
  // MERGE is an engine-profile feature (§2.2): PostgreSQL 9.0 rejects it,
  // forcing the client onto the update-then-insert pair — the behaviour the
  // paper's Figure 8(a) measures. Rejected before the statement counts.
  if (ast_->kind == StmtKind::kMerge && !db_->SupportsMerge()) {
    return Status::NotSupported(
        "this engine profile does not support MERGE (use UPDATE + INSERT)");
  }
  db_->RecordStatement([this] { return sql_; });
  RELGRAPH_RETURN_IF_ERROR(BindPreparedPlan(&plan_, params));
  SqlResult local;
  RELGRAPH_RETURN_IF_ERROR(ExecutePreparedPlan(db_, *ast_, &plan_, &local));
  if (result != nullptr) *result = std::move(local);
  return Status::OK();
}

Status PreparedStatement::QueryScalar(const SqlParams& params, Value* out) {
  SqlResult r;
  RELGRAPH_RETURN_IF_ERROR(Execute(params, &r));
  *out = r.Scalar();
  return Status::OK();
}

Status PreparedStatement::ExplainBound(const SqlParams& params,
                                       std::string* plan) {
  RELGRAPH_RETURN_IF_ERROR(EnsureFresh());
  if (ast_->kind != StmtKind::kSelect) {
    return Status::NotSupported("EXPLAIN supports SELECT statements");
  }
  RELGRAPH_RETURN_IF_ERROR(BindPreparedPlan(&plan_, params));
  plan->clear();
  plan_.root->Explain(0, plan);
  return Status::OK();
}

// ----- SqlEngine -------------------------------------------------------------

Status SqlEngine::Prepare(const std::string& statement,
                          std::shared_ptr<PreparedStatement>* out) {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_capacity_ > 0) {
      auto it = cache_.find(statement);
      if (it != cache_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        db_->RecordPlanCacheHit();
        *out = it->second.stmt;
        return Status::OK();
      }
    }
  }
  // Parse + compile outside the lock (the slow path); a racing thread
  // preparing the same text at worst compiles twice and the second insert
  // replaces the first — both handles stay valid (shared ownership).
  std::unique_ptr<Statement> ast;
  RELGRAPH_RETURN_IF_ERROR(Parser::Parse(statement, &ast));
  std::shared_ptr<PreparedStatement> ps(
      new PreparedStatement(db_, statement, std::move(ast)));
  RELGRAPH_RETURN_IF_ERROR(ps->CompileNow());
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_capacity_ > 0) {
      auto it = cache_.find(statement);
      if (it != cache_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        it->second.stmt = ps;
      } else {
        lru_.push_front(statement);
        cache_[statement] = {ps, lru_.begin()};
      }
      while (cache_.size() > cache_capacity_) {
        cache_.erase(lru_.back());
        lru_.pop_back();
      }
    }
  }
  *out = std::move(ps);
  return Status::OK();
}

Status SqlEngine::Execute(const std::string& statement, SqlResult* result,
                          const SqlParams& params) {
  std::shared_ptr<PreparedStatement> ps;
  RELGRAPH_RETURN_IF_ERROR(Prepare(statement, &ps));
  return ps->Execute(params, result);
}

Status SqlEngine::ExecuteScript(const std::string& script, SqlResult* last,
                                const SqlParams& params) {
  std::vector<std::unique_ptr<Statement>> stmts;
  RELGRAPH_RETURN_IF_ERROR(Parser::ParseScript(script, &stmts));
  SqlResult local;
  for (auto& stmt : stmts) {
    // Compile right before running (earlier statements may have created
    // the tables this one needs) and bind the caller's parameters into
    // *every* statement — each statement requires exactly the names it
    // references, extra bindings pass through untouched.
    std::shared_ptr<PreparedStatement> ps(
        new PreparedStatement(db_, "script statement", std::move(stmt)));
    RELGRAPH_RETURN_IF_ERROR(ps->CompileNow());
    local = SqlResult{};
    RELGRAPH_RETURN_IF_ERROR(ps->Execute(params, &local));
  }
  if (last != nullptr) *last = std::move(local);
  return Status::OK();
}

Status SqlEngine::QueryScalar(const std::string& statement, Value* out,
                              const SqlParams& params) {
  SqlResult r;
  RELGRAPH_RETURN_IF_ERROR(Execute(statement, &r, params));
  *out = r.Scalar();
  return Status::OK();
}

Status SqlEngine::Explain(const std::string& statement, std::string* plan,
                          const SqlParams& params) {
  std::shared_ptr<PreparedStatement> ps;
  RELGRAPH_RETURN_IF_ERROR(Prepare(statement, &ps));
  return ps->ExplainBound(params, plan);
}

void SqlEngine::SetPlanCacheCapacity(size_t n) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_capacity_ = n;
  while (cache_.size() > cache_capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

}  // namespace relgraph::sql
