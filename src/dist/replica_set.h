#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dist/shard_service.h"
#include "src/net/prober.h"

namespace relgraph {

/// Knobs for one shard's replica set.
struct ReplicaOptions {
  /// Tail hedging: when the preferred replica has not answered after this
  /// many ms, launch the same request on the next replica and take the
  /// first valid response (shard responses are deterministic, so the race
  /// cannot change results — only the tail latency). < 0 disables.
  int64_t hedge_delay_ms = -1;
  /// Background heartbeat prober over the remote replicas; a
  /// `probe_interval_ms` <= 0 runs none (health still updates passively
  /// from request outcomes).
  net::ProberOptions prober;
};

/// One replica of a shard, as handed to ReplicatedShardService: the service
/// to route to, an optional liveness probe for the background prober (null
/// for in-process replicas — they cannot die independently), and a name for
/// error messages.
struct Replica {
  std::unique_ptr<ShardService> service;
  std::function<Status()> probe;
  std::string name;
};

/// N-way replicated ShardService: routes each Expand to the healthiest
/// replica, fails over on transport-class errors, optionally hedges the
/// tail, and keeps per-replica health fresh with a background heartbeat
/// prober — so one dead replica costs a failover, not the query.
///
/// Routing order is (health, index): healthy replicas first, then suspect,
/// then dead — dead replicas stay in the order as a last resort because the
/// attempt doubles as a recovery probe and their circuit breaker makes a
/// still-dead attempt nearly free. Application-level errors (the shard
/// executed and said no) are returned as-is without failover: every replica
/// would deterministically say the same thing.
///
/// Thread-safe to the same degree as its replicas: concurrent sessions
/// route independently; health cells are lock-free atomics.
class ReplicatedShardService : public ShardService {
 public:
  static Status Create(int shard, std::vector<Replica> replicas,
                       ReplicaOptions options,
                       std::unique_ptr<ReplicatedShardService>* out);

  ~ReplicatedShardService() override;

  Status Expand(const ShardExpandRequest& request,
                ShardExpandResponse* response) override;

  void AddResilience(ResilienceCounters* out) const override;

  int shard() const { return shard_; }
  size_t num_replicas() const { return replicas_.size(); }
  ShardService* replica_service(size_t i) const {
    return replicas_[i].service.get();
  }
  net::ReplicaHealth replica_health(size_t i) const {
    return health_[i]->health();
  }
  /// Seeds a replica's health as dead (e.g. unreachable at wiring time);
  /// the prober or a successful request revives it.
  void MarkReplicaDead(size_t i) { health_[i]->MarkDead(); }
  /// nullptr when the prober is disabled or no replica is probeable.
  const net::HealthProber* prober() const { return prober_.get(); }

  int64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  int64_t hedges() const { return hedges_.load(std::memory_order_relaxed); }

 private:
  ReplicatedShardService(int shard, std::vector<Replica> replicas,
                         ReplicaOptions options);

  /// Outcome worth trying another replica for. A breaker fast-fail
  /// surfaces as Unavailable, so it routes onward too. Corruption is
  /// failoverable by design: it means THIS replica's data (or this
  /// transport path) is bad, not that the answer doesn't exist — another
  /// replica with intact pages must get the chance to serve it. It is
  /// still non-RETRYABLE on the same replica (RemoteShardService), since
  /// re-reading bad pages cannot heal them.
  static bool IsFailoverable(const Status& st) {
    return st.IsUnavailable() || st.IsDeadlineExceeded() ||
           st.IsCorruption();
  }

  /// Replica indices in routing preference order (health rank, then index).
  std::vector<size_t> RouteOrder() const;

  /// One attempt on one replica, with health bookkeeping and the
  /// clear-response-on-error contract.
  Status ExpandOnReplica(size_t i, const ShardExpandRequest& request,
                         ShardExpandResponse* response);
  /// Plain failover walk over order[start..]; assumes start < order.size().
  Status SequentialExpand(const std::vector<size_t>& order, size_t start,
                          const ShardExpandRequest& request,
                          ShardExpandResponse* response);
  /// Hedged first attempt over order[0]/order[1], falling back to the
  /// sequential walk for order[2..] when both fail.
  Status HedgedExpand(const std::vector<size_t>& order,
                      const ShardExpandRequest& request,
                      ShardExpandResponse* response);

  void RecordOutcome(size_t i, const Status& st);

  Status AllReplicasFailed(const Status& last) const;

  const int shard_;
  const ReplicaOptions options_;
  /// Declaration order doubles as teardown order in reverse: the hedge pool
  /// and prober must shut down (joining their threads) BEFORE the replica
  /// services they call into are destroyed.
  std::vector<Replica> replicas_;
  std::vector<std::unique_ptr<net::HealthState>> health_;
  std::unique_ptr<ThreadPool> hedge_pool_;
  std::unique_ptr<net::HealthProber> prober_;

  std::atomic<int64_t> failovers_{0};
  std::atomic<int64_t> hedges_{0};
};

}  // namespace relgraph
