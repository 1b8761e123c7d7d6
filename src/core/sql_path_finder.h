#pragma once

#include <memory>
#include <string>

#include "src/core/path_finder.h"
#include "src/graph/graph_store.h"
#include "src/sql/sql_engine.h"

namespace relgraph {

/// Options for the SQL-text client. Only the algorithms whose statement
/// sequences the paper spells out in Listings 2-4 are offered; the
/// SegTable-based BSEG runs through the native PathFinder (its full-path
/// recovery needs the segment anchors, which the paper's literal TVisited
/// schema cannot express; see VisitedTable's a2s/a2t columns).
struct SqlPathFinderOptions {
  Algorithm algorithm = Algorithm::kBSDJ;  // kDJ, kBSDJ, or kBBFS
  /// Working-table name; must be unique per finder within one database.
  std::string visited_table = "SqlTVisited";
  /// Safety valve; a correct run never reaches it.
  int64_t max_iterations = 10'000'000;
};

class SqlPathFinder;

namespace internal {
/// Test oracle only: a finder in the paper's literal text regime, where
/// every statement re-parses and re-plans (its connection's plan cache is
/// disabled). It issues the same SQL text, counts and results as the
/// prepared finder SqlPathFinder::Create builds.
Status CreateTextSqlPathFinder(GraphStore* graph, SqlPathFinderOptions options,
                               std::unique_ptr<SqlPathFinder>* out);
}  // namespace internal

/// The paper's client program, taken literally: a driver that talks to the
/// database *only* through SQL text (the engine's SqlEngine stands in for
/// the JDBC connection). Every statement of Listings 2-4 is issued as real
/// SQL — parsed, planned, and executed by the engine — with named
/// parameters (:mid, :lb, :minCost, ...) re-bound each iteration exactly
/// like a PreparedStatement.
///
/// The native PathFinder builds the same physical plans directly against
/// the executor layer; this class exists to demonstrate (and test) that the
/// paper's published SQL is sufficient, and to measure what the SQL
/// surface costs over native plans (bench_sql_client).
class SqlPathFinder {
 public:
  /// Prepares every statement template once, here; each Find() afterwards
  /// only binds fresh parameters, so a full query performs zero
  /// parses/plans (DatabaseStats::prepares stays flat).
  static Status Create(GraphStore* graph, SqlPathFinderOptions options,
                       std::unique_ptr<SqlPathFinder>* out);

  /// Finds the shortest path from s to t; `result->found` reports
  /// reachability, the Status only engine errors.
  Status Find(node_id_t s, node_id_t t, PathQueryResult* result);

  const SqlPathFinderOptions& options() const { return options_; }

  /// The SQL text of every statement template the finder issues, keyed by
  /// role — surfaced so tests and the sql_shell example can display the
  /// exact statements (the paper's listings, modulo table names).
  struct Statements {
    std::string seed;
    std::string pick_mid;
    std::string expand_forward;
    std::string expand_backward;
    std::string finalize_mid;
    std::string target_reached;
    std::string mark_frontier_fwd;
    std::string mark_frontier_bwd;
    std::string finalize_frontier_fwd;
    std::string finalize_frontier_bwd;
    std::string min_open_fwd;
    std::string min_open_bwd;
    std::string count_open_fwd;
    std::string count_open_bwd;
    std::string min_cost;
    std::string meet_node;
    std::string pred_fwd;
    std::string pred_bwd;
  };
  const Statements& statements() const { return stmts_; }

 private:
  friend Status internal::CreateTextSqlPathFinder(
      GraphStore* graph, SqlPathFinderOptions options,
      std::unique_ptr<SqlPathFinder>* out);

  SqlPathFinder() = default;

  /// Create's body; `prepared` = false builds the text-regime oracle.
  static Status Build(GraphStore* graph, SqlPathFinderOptions options,
                      bool prepared, std::unique_ptr<SqlPathFinder>* out);

  /// One statement template: its SQL text (what gets recorded per
  /// execution) and, except in the text oracle, the compiled handle that
  /// makes each execution bind-only.
  struct Template {
    std::string text;
    std::shared_ptr<sql::PreparedStatement> handle;
  };

  /// Executes a template: through its prepared handle when present,
  /// through the (cache-disabled) text interface otherwise. Both paths
  /// record the same SQL text and count one statement.
  Status Exec(Template& t, sql::SqlResult* result,
              const sql::SqlParams& params = {});
  Status Scalar(Template& t, Value* out, const sql::SqlParams& params = {});

  Status RunDj(node_id_t s, node_id_t t, PathQueryResult* result);
  Status RunBidirectional(node_id_t s, node_id_t t, PathQueryResult* result);
  Status RecoverChain(Template& pred_stmt, node_id_t from, node_id_t origin,
                      std::vector<node_id_t>* out);
  /// Builds the Listing 2(3,4)/4(2) combined MERGE for one direction.
  std::string BuildExpandSql(const EdgeRelation& rel, bool forward,
                             bool set_frontier) const;

  GraphStore* graph_ = nullptr;
  SqlPathFinderOptions options_;
  std::unique_ptr<sql::SqlEngine> conn_;
  Statements stmts_;

  // Templates for the Listing statements (texts mirror stmts_) plus the
  // bookkeeping statements Find() issues around them.
  Template t_truncate_, t_seed_, t_pick_mid_, t_expand_fwd_, t_expand_bwd_,
      t_finalize_mid_, t_mark_fwd_, t_mark_bwd_, t_fin_fwd_, t_fin_bwd_,
      t_min_open_fwd_, t_min_open_bwd_, t_count_open_fwd_, t_count_open_bwd_,
      t_min_cost_, t_meet_, t_pred_fwd_, t_pred_bwd_, t_dist_at_,
      t_count_all_;
};

}  // namespace relgraph
