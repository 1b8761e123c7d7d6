#include "src/core/path_finder.h"

#include <algorithm>
#include <atomic>

#include "src/common/timer.h"
#include "src/core/segtable.h"
#include "src/exec/scan_executors.h"

namespace relgraph {

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kDJ:
      return "DJ";
    case Algorithm::kBDJ:
      return "BDJ";
    case Algorithm::kBSDJ:
      return "BSDJ";
    case Algorithm::kBBFS:
      return "BBFS";
    case Algorithm::kBSEG:
      return "BSEG";
  }
  return "?";
}

Status PathFinder::Create(GraphStore* graph, PathFinderOptions options,
                          std::unique_ptr<PathFinder>* out,
                          const SegTable* segtable) {
  const bool seg = options.algorithm == Algorithm::kBSEG && segtable != nullptr;
  return Create(graph->db(), graph->strategy(),
                seg ? segtable->Forward() : graph->Forward(),
                seg ? segtable->Backward() : graph->Backward(), options, out,
                segtable);
}

Status PathFinder::Create(Database* db, IndexStrategy strategy,
                          EdgeRelation forward, EdgeRelation backward,
                          PathFinderOptions options,
                          std::unique_ptr<PathFinder>* out,
                          const SegTable* segtable) {
  if (options.algorithm == Algorithm::kBSEG && segtable == nullptr) {
    return Status::InvalidArgument("BSEG requires a SegTable");
  }
  static std::atomic<int> counter{0};
  auto pf = std::unique_ptr<PathFinder>(new PathFinder());
  pf->db_ = db;
  pf->forward_ = std::move(forward);
  pf->backward_ = std::move(backward);
  pf->segtable_ = segtable;
  pf->options_ = options;
  std::string name = "TVisited_" + std::string(AlgorithmName(options.algorithm)) +
                     "_" + std::to_string(counter.fetch_add(1));
  RELGRAPH_RETURN_IF_ERROR(
      VisitedTable::Create(db, strategy, std::move(name), &pf->visited_));
  pf->fem_ = std::make_unique<FemEngine>(db, pf->visited_.get(),
                                         options.sql_mode);
  *out = std::move(pf);
  return Status::OK();
}

const EdgeRelation& PathFinder::RelFor(const DirCols& dir) const {
  return dir.forward ? forward_ : backward_;
}

Status PathFinder::Find(node_id_t s, node_id_t t, PathQueryResult* result) {
  *result = PathQueryResult{};
  Timer total;
  const int64_t stmt0 = db_->stats().statements;
  const auto bp0 = db_->buffer_pool()->stats();
  const auto disk0 = db_->disk()->stats();
  fem_->stats().Reset();
  {
    // Truncating TVisited walks and frees last query's pages: real work,
    // so it is attributed (as auxiliary bookkeeping) rather than left in
    // the residual.
    ScopedTimer reset_timer(&fem_->stats().aux_us);
    RELGRAPH_RETURN_IF_ERROR(visited_->Reset());
  }

  Status st;
  if (s == t) {
    result->found = true;
    result->distance = 0;
    result->path = {s};
  } else {
    node_id_t meet = kInvalidNode;
    switch (options_.algorithm) {
      case Algorithm::kDJ:
        st = RunDj(s, t, result);
        meet = t;
        break;
      case Algorithm::kBDJ:
        st = RunBdj(s, t, result);
        break;
      case Algorithm::kBSDJ:
      case Algorithm::kBBFS:
      case Algorithm::kBSEG:
        st = RunSetBidirectional(s, t, result);
        break;
    }
    if (st.ok() && result->found) {
      Timer recovery;
      if (options_.algorithm != Algorithm::kDJ) {
        st = fem_->MeetingNode(result->distance, &meet);
      }
      if (st.ok()) st = RecoverPath(s, t, meet, result);
      result->stats.path_recovery_us = recovery.ElapsedMicros();
    }
  }

  const FemStats& fs = fem_->stats();
  QueryStats& qs = result->stats;
  qs.expansions = fs.expansions;
  qs.f_operator_us = fs.f_operator_us;
  qs.e_operator_us = fs.e_operator_us;
  qs.m_operator_us = fs.m_operator_us;
  qs.path_expansion_us =
      fs.f_operator_us + fs.e_operator_us + fs.m_operator_us;
  qs.stat_collection_us = fs.aux_us;
  qs.statements = db_->stats().statements - stmt0;
  qs.visited_rows = visited_->num_rows();
  qs.total_us = total.ElapsedMicros();
  const auto& bp1 = db_->buffer_pool()->stats();
  const auto& disk1 = db_->disk()->stats();
  qs.buffer_hits = bp1.hits - bp0.hits;
  qs.buffer_misses = bp1.misses - bp0.misses;
  qs.disk_reads = disk1.reads - disk0.reads;
  qs.disk_writes = disk1.writes - disk0.writes;
  return st;
}

// ------------------------------------------------------------ Algorithm 1

Status PathFinder::RunDj(node_id_t s, node_id_t t, PathQueryResult* result) {
  RELGRAPH_RETURN_IF_ERROR(visited_->InsertSource(s));
  const DirCols fwd = VisitedTable::ForwardCols();
  const size_t f_idx = visited_->table()->schema().IndexOf("f");
  const size_t d2s_idx = visited_->table()->schema().IndexOf("d2s");

  for (int64_t iter = 0; iter < options_.max_iterations; iter++) {
    node_id_t mid;
    bool have_mid;
    RELGRAPH_RETURN_IF_ERROR(fem_->PickMid(fwd, &mid, &have_mid));
    if (!have_mid) return Status::OK();  // search space exhausted: no path

    int64_t marked, affected;
    RELGRAPH_RETURN_IF_ERROR(
        fem_->MarkFrontier(fwd, FrontierSpec::Node(mid), &marked));
    RELGRAPH_RETURN_IF_ERROR(fem_->ExpandAndMerge(fwd, RelFor(fwd),
                                                  /*opposite_l=*/0, kInfinity,
                                                  &affected));
    RELGRAPH_RETURN_IF_ERROR(fem_->FinalizeFrontier(fwd));

    // Listing 3(1): SELECT * FROM TVisited WHERE f=1 AND nid=t.
    ScopedTimer probe_timer(&fem_->stats().aux_us);
    Tuple row;
    Status probe = visited_->GetRow(t, &row);
    if (probe.ok() && row.value(f_idx).AsInt() == 1) {
      result->found = true;
      result->distance = row.value(d2s_idx).AsInt();
      return Status::OK();
    }
    if (!probe.ok() && !probe.IsNotFound()) return probe;
  }
  return Status::Internal("DJ exceeded max_iterations");
}

// ------------------------------------------------ bi-directional Dijkstra

Status PathFinder::RunBdj(node_id_t s, node_id_t t, PathQueryResult* result) {
  RELGRAPH_RETURN_IF_ERROR(visited_->InsertSourceAndTarget(s, t));
  const DirCols fwd = VisitedTable::ForwardCols();
  const DirCols bwd = VisitedTable::BackwardCols();
  weight_t lf = 0, lb = 0;

  for (int64_t iter = 0; iter < options_.max_iterations; iter++) {
    weight_t min_cost;
    RELGRAPH_RETURN_IF_ERROR(fem_->MinCost(&min_cost));
    if (lf + lb >= min_cost) {
      result->found = min_cost < kInfinity;
      result->distance = min_cost;
      return Status::OK();
    }
    weight_t mf, mb;
    RELGRAPH_RETURN_IF_ERROR(fem_->MinOpenDistance(fwd, &mf));
    RELGRAPH_RETURN_IF_ERROR(fem_->MinOpenDistance(bwd, &mb));
    if (mf >= kInfinity || mb >= kInfinity) {
      // One side fully settled: every distance on that side is exact, so
      // the best meeting seen so far is the true shortest distance.
      result->found = min_cost < kInfinity;
      result->distance = min_cost;
      return Status::OK();
    }
    const bool go_forward = mf <= mb;
    const DirCols& dir = go_forward ? fwd : bwd;

    node_id_t mid;
    bool have_mid;
    RELGRAPH_RETURN_IF_ERROR(fem_->PickMid(dir, &mid, &have_mid));
    if (!have_mid) {
      result->found = min_cost < kInfinity;
      result->distance = min_cost;
      return Status::OK();
    }
    int64_t marked, affected;
    RELGRAPH_RETURN_IF_ERROR(
        fem_->MarkFrontier(dir, FrontierSpec::Node(mid), &marked));
    RELGRAPH_RETURN_IF_ERROR(fem_->ExpandAndMerge(
        dir, RelFor(dir), options_.disable_pruning ? 0 : (go_forward ? lb : lf),
        options_.disable_pruning ? kInfinity : min_cost, &affected));
    RELGRAPH_RETURN_IF_ERROR(fem_->FinalizeFrontier(dir));
    if (go_forward) {
      lf = mf;
    } else {
      lb = mb;
    }
  }
  return Status::Internal("BDJ exceeded max_iterations");
}

// ------------------------------ set-at-a-time loop (BSDJ / BBFS / BSEG)

Status PathFinder::RunSetBidirectional(node_id_t s, node_id_t t,
                                       PathQueryResult* result) {
  RELGRAPH_RETURN_IF_ERROR(visited_->InsertSourceAndTarget(s, t));
  const DirCols fwd = VisitedTable::ForwardCols();
  const DirCols bwd = VisitedTable::BackwardCols();
  weight_t lf = 0, lb = 0;
  int64_t nf = 1, nb = 1;          // frontier sizes (direction choice)
  int64_t fwd_round = 1, bwd_round = 1;  // BSEG expansion counters
  const weight_t lthd =
      options_.algorithm == Algorithm::kBSEG ? segtable_->lthd() : 0;

  for (int64_t iter = 0; iter < options_.max_iterations; iter++) {
    weight_t min_cost;
    RELGRAPH_RETURN_IF_ERROR(fem_->MinCost(&min_cost));
    if (lf + lb >= min_cost) {
      result->found = min_cost < kInfinity;
      result->distance = min_cost;
      return Status::OK();
    }
    const bool go_forward = nf <= nb;
    const DirCols& dir = go_forward ? fwd : bwd;
    int64_t round = go_forward ? fwd_round : bwd_round;

    weight_t m;
    RELGRAPH_RETURN_IF_ERROR(fem_->MinOpenDistance(dir, &m));
    if (m >= kInfinity) {
      // This direction is exhausted; its distances are exact, so minCost is
      // already the answer (or there is no path).
      result->found = min_cost < kInfinity;
      result->distance = min_cost;
      return Status::OK();
    }

    FrontierSpec frontier_spec;
    switch (options_.algorithm) {
      case Algorithm::kBSDJ:
        frontier_spec = FrontierSpec::DistEq(m);
        break;
      case Algorithm::kBBFS:
        frontier_spec = FrontierSpec::All();  // every candidate expands
        break;
      case Algorithm::kBSEG:
        frontier_spec = FrontierSpec::DistOr(round * lthd, m);
        break;
      default:
        return Status::Internal("unexpected algorithm in set loop");
    }

    int64_t marked, affected;
    RELGRAPH_RETURN_IF_ERROR(fem_->MarkFrontier(dir, frontier_spec, &marked));
    if (marked == 0) {
      result->found = min_cost < kInfinity;
      result->distance = min_cost;
      return Status::OK();
    }
    RELGRAPH_RETURN_IF_ERROR(fem_->ExpandAndMerge(
        dir, RelFor(dir), options_.disable_pruning ? 0 : (go_forward ? lb : lf),
        options_.disable_pruning ? kInfinity : min_cost, &affected));
    RELGRAPH_RETURN_IF_ERROR(fem_->FinalizeFrontier(dir));

    if (go_forward) {
      lf = m;
      nf = marked;
      fwd_round++;
    } else {
      lb = m;
      nb = marked;
      bwd_round++;
    }
  }
  return Status::Internal("set search exceeded max_iterations");
}

// -------------------------------------------------------- path recovery

Status PathFinder::SegmentStep(const DirCols& dir, node_id_t anchor,
                               node_id_t y, node_id_t first_parent,
                               node_id_t* prev) {
  if (first_parent != kInvalidNode) {
    *prev = first_parent;
    return Status::OK();
  }
  // Interior hop: the pre-computed segment rows for this anchor give y's
  // parent. One key-range scan per hop (Listing 3(3) analogue).
  const EdgeRelation& rel = RelFor(dir);
  db_->RecordStatement();
  FilterExecutor plan(
      std::make_unique<IndexRangeScanExecutor>(
          rel.table,
          KeyProbe{.column = rel.join_column, .lo = anchor, .hi = anchor}),
      ColEq(rel.emit_column, y));
  RELGRAPH_RETURN_IF_ERROR(plan.Init());
  Tuple row;
  if (!plan.Next(&row)) {
    RELGRAPH_RETURN_IF_ERROR(plan.status());
    return Status::Corruption("segment interior missing for anchor " +
                              std::to_string(anchor) + " node " +
                              std::to_string(y));
  }
  *prev =
      row.value(plan.OutputSchema().IndexOf(rel.parent_column)).AsInt();
  return Status::OK();
}

Status PathFinder::WalkDirection(const DirCols& dir, node_id_t from,
                                 node_id_t origin,
                                 std::vector<node_id_t>* out) {
  const Schema& schema = visited_->table()->schema();
  const size_t pred_idx = schema.IndexOf(dir.pred);
  const size_t anchor_idx = schema.IndexOf(dir.anchor);
  out->push_back(from);
  node_id_t x = from;
  int64_t guard = 0;
  Tuple row;  // one slot for every hop's row
  while (x != origin) {
    if (++guard > options_.max_iterations) {
      return Status::Corruption("cycle while recovering path");
    }
    RELGRAPH_RETURN_IF_ERROR(visited_->GetRow(x, &row));
    node_id_t anchor = row.value(anchor_idx).AsInt();
    node_id_t parent = row.value(pred_idx).AsInt();
    // Unroll the segment interior from x back to its anchor.
    node_id_t y = x;
    node_id_t prev = kInvalidNode;
    for (;;) {
      RELGRAPH_RETURN_IF_ERROR(
          SegmentStep(dir, anchor, y, y == x ? parent : kInvalidNode, &prev));
      out->push_back(prev);
      if (prev == anchor) break;
      if (++guard > options_.max_iterations) {
        return Status::Corruption("cycle inside segment recovery");
      }
      y = prev;
    }
    x = anchor;
  }
  return Status::OK();
}

Status PathFinder::RecoverPath(node_id_t s, node_id_t t, node_id_t meet,
                               PathQueryResult* result) {
  std::vector<node_id_t> forward_half;  // meet ... s
  RELGRAPH_RETURN_IF_ERROR(WalkDirection(VisitedTable::ForwardCols(), meet, s,
                                         &forward_half));
  std::vector<node_id_t> backward_half;  // meet ... t
  RELGRAPH_RETURN_IF_ERROR(WalkDirection(VisitedTable::BackwardCols(), meet, t,
                                         &backward_half));
  std::reverse(forward_half.begin(), forward_half.end());
  result->path = std::move(forward_half);
  result->path.insert(result->path.end(), backward_half.begin() + 1,
                      backward_half.end());
  return Status::OK();
}

}  // namespace relgraph
