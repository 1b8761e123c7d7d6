#include "src/dist/dist_path_finder.h"

#include <algorithm>
#include <future>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/timer.h"

namespace relgraph {

/// The E-operator's join when TEdges lives on the shards: drains the
/// frontier, fans its node ids and distances out to their owner shards with
/// the pruning bound, evaluated at each Init() (one round per Init()), and
/// yields each shipped row as a local join over TEdges would — the
/// frontier row's columns, then (fid, tid, cost) — in shard-index order.
class DistPathFinder::ShardJoinExecutor : public Executor {
 public:
  ShardJoinExecutor(DistPathFinder* session, bool forward, ExecRef outer,
                    std::string probe_column, std::string dist_column,
                    ExprRef bound)
      : session_(session),
        forward_(forward),
        outer_(std::move(outer)),
        probe_column_(std::move(probe_column)),
        dist_column_(std::move(dist_column)),
        bound_(std::move(bound)),
        schema_(ConcatSchemas(outer_->OutputSchema(), EdgeTableSchema())) {}

  bool NextBatchSel(BatchSpan* out) override {
    return ReplayWindow(rows_, rows_.size(), &pos_, out);
  }
  const Schema& OutputSchema() const override { return schema_; }

 protected:
  Status Open() override {
    rows_.clear();
    pos_ = 0;
    std::vector<Tuple> frontier;
    RELGRAPH_RETURN_IF_ERROR(Collect(outer_.get(), &frontier));
    const size_t key = outer_->OutputSchema().IndexOf(probe_column_);
    const size_t dist = outer_->OutputSchema().IndexOf(dist_column_);
    std::vector<node_id_t> nodes;
    std::vector<weight_t> dists;
    nodes.reserve(frontier.size());
    dists.reserve(frontier.size());
    std::unordered_map<node_id_t, const Tuple*> row_of;
    row_of.reserve(frontier.size());
    for (const Tuple& row : frontier) {
      nodes.push_back(row.value(key).AsInt());
      dists.push_back(row.value(dist).AsInt());
      row_of.emplace(nodes.back(), &row);
    }
    const Value bound = bound_->Evaluate(Tuple{});
    if (bound.type() != TypeId::kInt) {
      return Status::InvalidArgument("shard join bound is not an INT");
    }
    std::vector<ShardExpandResponse> responses;
    RELGRAPH_RETURN_IF_ERROR(
        session_->FanOut(nodes, dists, bound.AsInt(), forward_, &responses));
    for (const ShardExpandResponse& resp : responses) {
      for (const ShippedEdge& e : resp.edges) {
        auto it = row_of.find(e.frontier_node);
        if (it == row_of.end()) {
          return Status::Corruption("shard shipped an edge of node " +
                                    std::to_string(e.frontier_node) +
                                    ", which is not on the frontier");
        }
        const std::vector<Value>& outer = it->second->values();
        std::vector<Value> values;
        values.reserve(outer.size() + 3);
        values.insert(values.end(), outer.begin(), outer.end());
        values.emplace_back(forward_ ? e.frontier_node : e.emit_node);  // fid
        values.emplace_back(forward_ ? e.emit_node : e.frontier_node);  // tid
        values.emplace_back(e.cost);
        rows_.emplace_back(std::move(values));
      }
    }
    return Status::OK();
  }

 private:
  DistPathFinder* session_;
  bool forward_;
  ExecRef outer_;
  std::string probe_column_;
  std::string dist_column_;
  ExprRef bound_;
  Schema schema_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

Status DistPathFinder::Create(ShardedGraphStore* store,
                              std::unique_ptr<DistPathFinder>* out,
                              DistOptions options) {
  std::unique_ptr<DistCoordinator> coord;
  RELGRAPH_RETURN_IF_ERROR(DistCoordinator::Create(store, options, &coord));
  std::unique_ptr<DistPathFinder> finder;
  RELGRAPH_RETURN_IF_ERROR(coord->NewSession(&finder));
  finder->owned_coord_ = std::move(coord);
  *out = std::move(finder);
  return Status::OK();
}

Status DistPathFinder::CreateSession(DistCoordinator* coord,
                                     std::unique_ptr<DistPathFinder>* out) {
  auto finder = std::unique_ptr<DistPathFinder>(new DistPathFinder(coord));
  finder->session_id_ = coord->NextSessionId();
  // Each session is its own "RDBMS node": statement counts and buffer
  // traffic on its TVisited accrue here, separate from every shard database
  // and from every other session.
  finder->coord_db_ = std::make_unique<Database>();
  // TEdges on the shards, one relation per direction.
  auto on_shards = [session = finder.get()](bool forward) {
    return [session, forward](ExecRef outer, const std::string& probe,
                              const std::string& dist, ExprRef bound) {
      return ExecRef(std::make_unique<ShardJoinExecutor>(
          session, forward, std::move(outer), probe, dist, std::move(bound)));
    };
  };
  RELGRAPH_RETURN_IF_ERROR(PathFinder::Create(
      finder->coord_db_.get(), finder->store_->strategy(),
      EdgeRelation{nullptr, "fid", "tid", "fid", "cost", on_shards(true)},
      EdgeRelation{nullptr, "tid", "fid", "tid", "cost", on_shards(false)},
      PathFinderOptions{}, &finder->finder_));
  *out = std::move(finder);
  return Status::OK();
}

Status DistPathFinder::Distance(node_id_t s, node_id_t t,
                                DistPathResult* result,
                                bool* served_from_labels) {
  if (served_from_labels != nullptr) *served_from_labels = false;
  LabelStore* labels = coord_->labels();
  if (labels != nullptr) {
    if (label_probe_ == nullptr) {
      RELGRAPH_RETURN_IF_ERROR(
          LabelProbe::Create(labels->labels(), &label_probe_));
    }
    if (labels->stale()) {
      coord_->RecordLabelFallback(/*stale=*/true, /*inexact=*/false);
    } else {
      Timer timer;
      LabelProbeResult probe;
      RELGRAPH_RETURN_IF_ERROR(label_probe_->Distance(s, t, &probe));
      if (probe.answered) {
        *result = DistPathResult{};
        result->found = probe.found;
        result->distance = probe.found ? probe.distance : kInfinity;
        result->stats.coordinator_statements = probe.statements;
        result->stats.serial_us = timer.ElapsedMicros();
        result->stats.parallel_us = result->stats.serial_us;
        coord_->RecordLabelHit();
        if (served_from_labels != nullptr) *served_from_labels = true;
        return Status::OK();
      }
      coord_->RecordLabelFallback(/*stale=*/false, /*inexact=*/true);
    }
  }
  return Find(s, t, result);
}

Status DistPathFinder::FanOut(const std::vector<node_id_t>& frontier,
                              const std::vector<weight_t>& dists,
                              weight_t bound, bool forward,
                              std::vector<ShardExpandResponse>* responses) {
  // Fault-schedule seam: the hook sees the 1-based round number right
  // before this round's shard fan-out, from the session thread — so a
  // scripted fault ("kill replica R at round K") lands at a deterministic
  // point in the query, every run.
  if (coord_->options().round_hook) {
    coord_->options().round_hook(shard_stats_.rounds + 1);
  }
  shard_stats_.rounds++;

  // Route each frontier node, with its distance, to its owner shard.
  std::vector<ShardExpandRequest> by_shard(store_->num_shards());
  for (size_t i = 0; i < frontier.size(); i++) {
    ShardExpandRequest& req = by_shard[store_->OwnerShard(frontier[i])];
    req.nodes.push_back(frontier[i]);
    req.dists.push_back(dists[i]);
  }
  for (ShardExpandRequest& req : by_shard) {
    req.forward = forward;
    req.session_id = session_id_;
    req.bound = bound;
  }

  // One request per contacted shard, kept in shard-index order: merging
  // responses in that fixed order makes every downstream result — dedup
  // choices, rows_shipped, statement counts — bit-identical whether the
  // requests ran serially or on any number of worker threads.
  std::vector<int> contacted;
  for (int shard = 0; shard < store_->num_shards(); shard++) {
    if (!by_shard[shard].nodes.empty()) contacted.push_back(shard);
  }
  responses->assign(contacted.size(), ShardExpandResponse{});

  ThreadPool* pool = coord_->pool();
  if (pool == nullptr || contacted.size() <= 1) {
    // Serial oracle: shard requests one after another in this thread. The
    // simulated-parallel clock charges each round only its slowest shard —
    // what the pre-thread-pool coordinator always reported.
    int64_t round_max_us = 0;
    for (size_t i = 0; i < contacted.size(); i++) {
      int shard = contacted[i];
      RELGRAPH_RETURN_IF_ERROR(coord_->shard_service(shard)->Expand(
          by_shard[shard], &(*responses)[i]));
      shard_serial_us_ += (*responses)[i].elapsed_us;
      round_max_us = std::max(round_max_us, (*responses)[i].elapsed_us);
    }
    shard_parallel_us_ += round_max_us;
  } else {
    // Threaded rounds: one task per contacted shard, future-joined. The
    // first contacted shard runs inline — the coordinator thread would
    // only block on the join otherwise, so it does one shard's work itself
    // and saves a dispatch. The parallel clock is the measured wall time
    // of the whole fan-out (queue wait included — that is real
    // coordinator-side latency), while the serial clock still accumulates
    // every shard's own service time.
    Timer round_timer;
    std::vector<std::future<Status>> futures;
    futures.reserve(contacted.size() - 1);
    for (size_t i = 1; i < contacted.size(); i++) {
      int shard = contacted[i];
      ShardService* svc = coord_->shard_service(shard);
      ShardExpandResponse* resp = &(*responses)[i];
      const ShardExpandRequest* req = &by_shard[shard];
      futures.push_back(pool->Submit(
          [svc, req, resp]() -> Status { return svc->Expand(*req, resp); }));
    }
    Status first_error = coord_->shard_service(contacted[0])->Expand(
        by_shard[contacted[0]], &(*responses)[0]);
    for (auto& f : futures) {
      Status st = f.get();
      if (!st.ok() && first_error.ok()) first_error = st;
    }
    RELGRAPH_RETURN_IF_ERROR(first_error);
    shard_parallel_us_ += round_timer.ElapsedMicros();
    for (const ShardExpandResponse& resp : *responses) {
      shard_serial_us_ += resp.elapsed_us;
    }
  }

  for (const ShardExpandResponse& resp : *responses) {
    shard_stats_.shard_statements += resp.statements;
    shard_stats_.rows_shipped += static_cast<int64_t>(resp.edges.size());
  }
  return Status::OK();
}

Status DistPathFinder::Find(node_id_t s, node_id_t t, DistPathResult* result) {
  *result = DistPathResult{};
  shard_stats_ = DistQueryStats{};
  shard_serial_us_ = 0;
  shard_parallel_us_ = 0;
  Timer total_timer;
  PathQueryResult query;
  RELGRAPH_RETURN_IF_ERROR(finder_->Find(s, t, &query));
  result->found = query.found;
  result->distance = query.distance;
  result->path = std::move(query.path);

  DistQueryStats& stats = result->stats;
  stats = shard_stats_;
  stats.coordinator_statements = query.stats.statements;
  const int64_t total_us = total_timer.ElapsedMicros();
  if (coord_->pool() != nullptr) {
    // The query really ran its rounds in parallel: the total is the
    // parallel wall clock, and the serial clock backs the measured round
    // walls out and charges the shards' summed service time instead.
    stats.parallel_us = total_us;
    stats.serial_us = total_us - shard_parallel_us_ + shard_serial_us_;
  } else {
    stats.serial_us = total_us;
    stats.parallel_us = total_us - shard_serial_us_ + shard_parallel_us_;
  }
  return Status::OK();
}

}  // namespace relgraph
