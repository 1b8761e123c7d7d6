#include "src/dist/replica_set.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

namespace relgraph {

namespace {

/// Workers for hedged primaries. Hedging launches the preferred replica
/// asynchronously so the caller can start the backup if it stalls; a small
/// pool is enough because a task only occupies a worker for one request
/// round trip, and an oversubscribed pool merely delays the primary —
/// which at worst fires a redundant (still correct) hedge.
constexpr int kHedgeWorkers = 4;

}  // namespace

ReplicatedShardService::ReplicatedShardService(int shard,
                                               std::vector<Replica> replicas,
                                               ReplicaOptions options)
    : shard_(shard), options_(options), replicas_(std::move(replicas)) {
  health_.reserve(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); i++) {
    health_.push_back(std::make_unique<net::HealthState>());
  }
  if (options_.hedge_delay_ms >= 0 && replicas_.size() >= 2) {
    hedge_pool_ = std::make_unique<ThreadPool>(kHedgeWorkers);
  }
  if (options_.prober.probe_interval_ms > 0) {
    std::vector<net::HealthProber::Target> targets;
    for (size_t i = 0; i < replicas_.size(); i++) {
      if (!replicas_[i].probe) continue;  // local replicas cannot die alone
      targets.push_back({replicas_[i].probe, health_[i].get()});
    }
    if (!targets.empty()) {
      prober_ = std::make_unique<net::HealthProber>(std::move(targets),
                                                    options_.prober);
    }
  }
}

ReplicatedShardService::~ReplicatedShardService() {
  // Stop the threads that call into replicas before replicas_ dies.
  if (prober_) prober_->Stop();
  if (hedge_pool_) hedge_pool_->Shutdown();
}

Status ReplicatedShardService::Create(
    int shard, std::vector<Replica> replicas, ReplicaOptions options,
    std::unique_ptr<ReplicatedShardService>* out) {
  if (replicas.empty()) {
    return Status::InvalidArgument("replica set for shard " +
                                   std::to_string(shard) + " is empty");
  }
  for (const Replica& r : replicas) {
    if (r.service == nullptr) {
      return Status::InvalidArgument("null replica service for shard " +
                                     std::to_string(shard));
    }
  }
  out->reset(
      new ReplicatedShardService(shard, std::move(replicas), options));
  return Status::OK();
}

std::vector<size_t> ReplicatedShardService::RouteOrder() const {
  std::vector<size_t> order(replicas_.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  // Snapshot health once so the sort comparator is consistent even while
  // the prober updates cells concurrently.
  std::vector<int> rank(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); i++) {
    rank[i] = static_cast<int>(health_[i]->health());
  }
  std::stable_sort(order.begin(), order.end(),
                   [&rank](size_t a, size_t b) { return rank[a] < rank[b]; });
  return order;
}

void ReplicatedShardService::RecordOutcome(size_t i, const Status& st) {
  if (st.ok() || !IsFailoverable(st)) {
    // An application-level answer still proves the replica is alive.
    health_[i]->RecordSuccess();
  } else {
    health_[i]->RecordFailure(options_.prober);
  }
}

Status ReplicatedShardService::ExpandOnReplica(
    size_t i, const ShardExpandRequest& request,
    ShardExpandResponse* response) {
  *response = ShardExpandResponse{};
  Status st = replicas_[i].service->Expand(request, response);
  RecordOutcome(i, st);
  if (!st.ok()) *response = ShardExpandResponse{};
  return st;
}

Status ReplicatedShardService::AllReplicasFailed(const Status& last) const {
  return Status::Unavailable(
      "all " + std::to_string(replicas_.size()) + " replica(s) of shard " +
      std::to_string(shard_) + " failed; last error: " + last.ToString());
}

Status ReplicatedShardService::SequentialExpand(
    const std::vector<size_t>& order, size_t start,
    const ShardExpandRequest& request, ShardExpandResponse* response) {
  Status last = Status::Unavailable("no replica attempted");
  for (size_t k = start; k < order.size(); k++) {
    Status st = ExpandOnReplica(order[k], request, response);
    if (st.ok()) return st;
    if (!IsFailoverable(st)) return st;  // deterministic app-level answer
    last = st;
    if (k + 1 < order.size()) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return AllReplicasFailed(last);
}

Status ReplicatedShardService::HedgedExpand(const std::vector<size_t>& order,
                                            const ShardExpandRequest& request,
                                            ShardExpandResponse* response) {
  const size_t primary = order[0];
  const size_t secondary = order[1];
  // The primary runs asynchronously into shared state it co-owns: if the
  // hedge wins, this attempt is simply abandoned and finishes (harmlessly)
  // after we have returned. The request is copied for the same reason —
  // the caller's buffer does not outlive the caller.
  struct Attempt {
    ShardExpandResponse response;
    Status status = Status::OK();
  };
  auto attempt = std::make_shared<Attempt>();
  std::future<void> fut = hedge_pool_->Submit(
      [svc = replicas_[primary].service.get(), req = request, attempt] {
        attempt->status = svc->Expand(req, &attempt->response);
      });
  const auto delay = std::chrono::milliseconds(options_.hedge_delay_ms);
  if (fut.wait_for(delay) == std::future_status::ready) {
    fut.get();
    RecordOutcome(primary, attempt->status);
    if (attempt->status.ok()) {
      *response = std::move(attempt->response);
      return Status::OK();
    }
    if (!IsFailoverable(attempt->status)) return attempt->status;
    // Fast transport failure: ordinary failover, no hedge needed.
    failovers_.fetch_add(1, std::memory_order_relaxed);
    return SequentialExpand(order, 1, request, response);
  }
  // Primary is past the latency threshold: hedge on the next replica and
  // take the first valid response.
  hedges_.fetch_add(1, std::memory_order_relaxed);
  Status hedge_st = ExpandOnReplica(secondary, request, response);
  if (hedge_st.ok()) return hedge_st;
  if (!IsFailoverable(hedge_st)) return hedge_st;
  // The hedge failed too — now the primary's answer is worth waiting for.
  fut.wait();
  RecordOutcome(primary, attempt->status);
  if (attempt->status.ok()) {
    *response = std::move(attempt->response);
    return Status::OK();
  }
  if (!IsFailoverable(attempt->status)) return attempt->status;
  failovers_.fetch_add(1, std::memory_order_relaxed);
  if (order.size() > 2) {
    return SequentialExpand(order, 2, request, response);
  }
  return AllReplicasFailed(attempt->status);
}

Status ReplicatedShardService::Expand(const ShardExpandRequest& request,
                                      ShardExpandResponse* response) {
  const std::vector<size_t> order = RouteOrder();
  if (hedge_pool_ && order.size() >= 2) {
    return HedgedExpand(order, request, response);
  }
  return SequentialExpand(order, 0, request, response);
}

void ReplicatedShardService::AddResilience(ResilienceCounters* out) const {
  out->failovers += failovers();
  out->hedges += hedges();
  if (prober_) out->probes += prober_->probes_sent();
  for (size_t i = 0; i < replicas_.size(); i++) {
    switch (health_[i]->health()) {
      case net::ReplicaHealth::kHealthy:
        out->replicas_healthy++;
        break;
      case net::ReplicaHealth::kSuspect:
        out->replicas_suspect++;
        break;
      case net::ReplicaHealth::kDead:
        out->replicas_dead++;
        break;
    }
    replicas_[i].service->AddResilience(out);
  }
}

}  // namespace relgraph
