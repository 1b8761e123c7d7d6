#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "src/common/admission_queue.h"
#include "src/dist/sharded_graph.h"

namespace relgraph {

/// One expansion request from the coordinator to a shard: "expand these
/// frontier nodes in this direction and send back the adjacency rows that
/// can still win". This is the whole coordinator->shard wire contract — the
/// networked transport (src/net) serializes exactly this struct and its
/// response.
struct ShardExpandRequest {
  bool forward = true;              // out-edges (fid) vs in-edges (tid)
  std::vector<node_id_t> nodes;     // frontier ∩ shard (owner-routed)
  /// Querying session's id, for per-session-fair admission at the shard.
  /// 0 = anonymous (all such requests share one admission lane).
  int64_t session_id = 0;
  /// Each frontier node's distance from its search's origin, parallel to
  /// `nodes`, in [0, kInfinity]. Empty means every node at distance 0
  /// (DistAt); the wire always carries one per node.
  std::vector<weight_t> dists;
  /// The Theorem-1 residual moved to the shard: a row ships only if
  /// dist + cost < bound, where bound = minCost − l_opposite (kInfinity − l
  /// while no s-t path is known). In [−kInfinity, kInfinity].
  weight_t bound = kInfinity;

  weight_t DistAt(size_t i) const { return dists.empty() ? 0 : dists[i]; }

  bool operator==(const ShardExpandRequest&) const = default;
};

/// One adjacency row shipped back: the frontier node it was expanded from,
/// the node the edge reaches, and the edge cost. The shard ships at most
/// one row per emitted node: among the rows with dist + cost < bound, the
/// one DedupLeast keeps (least dist + cost, then least frontier node). The
/// coordinator's E-operator join yields these as TEdges rows and still
/// applies its own residual and dedup across shards before the merge.
struct ShippedEdge {
  node_id_t frontier_node = kInvalidNode;
  node_id_t emit_node = kInvalidNode;
  weight_t cost = 0;

  bool operator==(const ShippedEdge&) const = default;
};

/// The shard's answer: its pruned and combined adjacency rows plus the
/// counters the coordinator folds into DistQueryStats.
struct ShardExpandResponse {
  std::vector<ShippedEdge> edges;
  /// Logical coordinator->shard round-trips this request cost (always 1:
  /// the conceptual `SELECT ... WHERE fid IN (<frontier ∩ shard>)`). The
  /// shard's own Database additionally counts one statement per node it
  /// probes (one for a NoIndex shard's batched scan).
  int64_t statements = 0;
  /// Shard-local service time (µs), measured after admission — queueing
  /// for a permit is coordinator-side wait, not shard work.
  int64_t elapsed_us = 0;

  bool operator==(const ShardExpandResponse&) const = default;
};

/// Cumulative resilience signals one service (or a whole fleet, summed by
/// the coordinator) has observed. Every field is monotonic; deltas between
/// snapshots are what benches and CI gates compare.
struct ResilienceCounters {
  // Remote transport (per stub).
  int64_t retries = 0;        // extra attempts beyond the first
  int64_t failures = 0;       // requests failed after exhausting retries
  int64_t breaker_opens = 0;  // closed->open circuit transitions
  // Replica routing.
  int64_t failovers = 0;      // attempts re-routed to another replica
  int64_t hedges = 0;         // hedge requests launched for tail latency
  // Admission control.
  int64_t sheds = 0;          // requests rejected queue-full (fast-fail)
  // Health.
  int64_t probes = 0;           // background heartbeats sent
  int64_t replicas_healthy = 0;  // current health census (gauge-like)
  int64_t replicas_suspect = 0;
  int64_t replicas_dead = 0;

  ResilienceCounters& operator+=(const ResilienceCounters& o) {
    retries += o.retries;
    failures += o.failures;
    breaker_opens += o.breaker_opens;
    failovers += o.failovers;
    hedges += o.hedges;
    sheds += o.sheds;
    probes += o.probes;
    replicas_healthy += o.replicas_healthy;
    replicas_suspect += o.replicas_suspect;
    replicas_dead += o.replicas_dead;
    return *this;
  }
};

/// The shard-side service boundary of the distributed engine. Exactly one
/// method today because expansion is the only thing BSDJ asks of a shard;
/// the interface is the seam where the networked transport
/// (net::RemoteShardService, an RPC stub implementing Expand) lands
/// without touching the coordinator.
///
/// Implementations must be safe to call from many threads at once: the
/// thread-pool coordinator issues one Expand per owner shard per round, and
/// concurrent query sessions overlap their rounds freely.
///
/// Error contract: on a non-OK Status, `*response` is left EMPTY
/// (default-constructed). Callers retry Expand — the remote stub does so
/// transparently — and a partially filled response surviving a failed
/// attempt would double-count edges and statements on the retry.
class ShardService {
 public:
  virtual ~ShardService() = default;
  virtual Status Expand(const ShardExpandRequest& request,
                        ShardExpandResponse* response) = 0;

  /// Folds this service's resilience counters into `*out`. Default: none.
  virtual void AddResilience(ResilienceCounters* /*out*/) const {}
};

/// Knobs for the in-process shard service.
struct LocalShardOptions {
  /// Requests one shard serves at once: the admission queue's permits.
  int connections = 1;
  /// How long one Expand() may wait for a permit before giving up with
  /// Status::Unavailable — the same typed error the remote path degrades
  /// to, so a saturated shard is reported, not a wedged session.
  int64_t checkout_timeout_ms = 30'000;
  /// Requests allowed to *queue* for a permit beyond `connections`. One
  /// more is shed immediately with Status::ResourceExhausted (see
  /// AdmissionQueue) instead of waiting out checkout_timeout_ms.
  int max_queue_depth = 256;
};

/// In-process ShardService over one shard of a ShardedGraphStore.
///
/// Every Expand() holds one of `connections` permits for the duration of
/// the request, gated by a bounded per-session-fair AdmissionQueue:
/// sessions round-robin for free permits (no session starves), waits are
/// capped at checkout_timeout_ms (-> Unavailable), and once
/// max_queue_depth requests are already queued further arrivals are shed
/// immediately with ResourceExhausted.
///
/// An indexed shard reads each frontier node's adjacency with
/// Table::ScanRange on the join column (one shard statement per node); a
/// NoIndex shard answers the whole frontier with one batched scan. Either
/// way the rows then go through one prune-and-combine step before they
/// ship: the request's bound drops the rows that cannot win, and per
/// emitted node only the row DedupLeast would keep survives (Pregel's
/// min-combiner). Concurrent requests share only the shard's Database,
/// whose read path is audited for concurrent readers (see the
/// thread-safety notes on BufferPool, Table, and BTree — queries only read
/// shard data, all writes happen at load time).
class LocalShardService : public ShardService {
 public:
  static Status Create(ShardedGraphStore* store, int shard,
                       LocalShardOptions options,
                       std::unique_ptr<LocalShardService>* out);

  /// InvalidArgument when `request.dists` is neither empty nor parallel to
  /// `request.nodes`.
  Status Expand(const ShardExpandRequest& request,
                ShardExpandResponse* response) override;

  void AddResilience(ResilienceCounters* out) const override {
    out->sheds += admission_.sheds();
  }

  Database* db() const { return store_->shard_db(shard_); }
  int connections() const { return options_.connections; }
  /// The admission queue gating this shard (counters for tests).
  const AdmissionQueue& admission() const { return admission_; }

  /// Fault injection for failure-path tests (the DiskManager idiom): after
  /// `countdown` further successful per-node probes, every subsequent one
  /// fails with Internal("injected probe fault"). Negative disables.
  void InjectProbeFaultAfter(int64_t countdown) {
    probe_fault_in_.store(countdown, std::memory_order_relaxed);
  }
  void ClearFaults() {
    probe_fault_in_.store(-1, std::memory_order_relaxed);
  }

  /// Testing hooks: take/return one permit directly, under the same
  /// deadline policy as Expand() — lets tests hold the shard saturated
  /// deterministically. `handle` is an opaque token to hand back.
  Status DebugCheckoutConn(void** handle);
  void DebugReturnConn(void* handle);

 private:
  LocalShardService(ShardedGraphStore* store, int shard,
                    const LocalShardOptions& options)
      : store_(store),
        shard_(shard),
        options_(options),
        admission_(options.connections, options.max_queue_depth) {}

  /// Admits `session` through the admission queue. Unavailable past
  /// checkout_timeout_ms; ResourceExhausted when the queue itself is full
  /// (shed without waiting). Release with admission_.Release().
  Status Admit(int64_t session);

  /// One adjacency row of the frontier that passed the bound.
  struct Candidate {
    node_id_t emit;
    weight_t total;  // the frontier node's dist + cost
    node_id_t frontier;
    weight_t cost;
  };
  /// Appends the adjacency rows of `request`'s frontier with
  /// dist + cost < bound to `rows`, in shard order.
  Status ReadCandidates(const ShardExpandRequest& request,
                        std::vector<Candidate>* rows);

  /// True when the injected probe fault should fire for this probe.
  bool ProbeFaultFires();

  ShardedGraphStore* store_;
  int shard_;
  LocalShardOptions options_;
  std::atomic<int64_t> probe_fault_in_{-1};
  AdmissionQueue admission_;
};

}  // namespace relgraph
