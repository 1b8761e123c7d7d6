#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/admission_queue.h"
#include "src/dist/sharded_graph.h"
#include "src/sql/sql_engine.h"

namespace relgraph {

/// One expansion request from the coordinator to a shard: "expand these
/// frontier nodes in this direction and send back your local adjacency
/// rows". This is the whole coordinator->shard wire contract — the
/// networked transport (src/net) serializes exactly this struct and its
/// response.
struct ShardExpandRequest {
  bool forward = true;              // out-edges (fid) vs in-edges (tid)
  std::vector<node_id_t> nodes;     // frontier ∩ shard (owner-routed)
  /// Querying session's id, for per-session-fair admission at the shard.
  /// 0 = anonymous (all such requests share one admission lane). Last so
  /// existing {forward, nodes} aggregate initializers stay valid.
  int64_t session_id = 0;

  bool operator==(const ShardExpandRequest&) const = default;
};

/// One adjacency row shipped back: the frontier node it was expanded from,
/// the node the edge reaches, and the edge cost. The coordinator's
/// E-operator join yields these as TEdges rows; the pruning, the rownum-1
/// dedup and the merge run there.
struct ShippedEdge {
  node_id_t frontier_node = kInvalidNode;
  node_id_t emit_node = kInvalidNode;
  weight_t cost = 0;

  bool operator==(const ShippedEdge&) const = default;
};

/// The shard's answer: its matching adjacency rows plus the counters the
/// coordinator folds into DistQueryStats.
struct ShardExpandResponse {
  std::vector<ShippedEdge> edges;
  /// Logical coordinator->shard round-trips this request cost (always 1:
  /// the conceptual `SELECT ... WHERE fid IN (<frontier ∩ shard>)`). The
  /// shard's own Database additionally counts each prepared probe it runs.
  int64_t statements = 0;
  /// Shard-local service time (µs), measured after a connection is held —
  /// queueing for a connection is coordinator-side wait, not shard work.
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
  /// Pooled connections (each its own SqlEngine + prepared probes).
  int connections = 1;
  /// How long one Expand() may wait for a pooled connection before giving
  /// up with Status::Unavailable — the same typed error the remote path
  /// degrades to, so pool exhaustion is reported, not a wedged session.
  int64_t checkout_timeout_ms = 30'000;
  /// Requests allowed to *queue* for a connection beyond the pool size.
  /// One more is shed immediately with Status::ResourceExhausted (see
  /// AdmissionQueue) instead of waiting out checkout_timeout_ms.
  int max_queue_depth = 256;
};

/// In-process ShardService over one shard of a ShardedGraphStore.
///
/// Each shard keeps a fixed pool of *connections* — a per-connection
/// SqlEngine with the two edge-probe statements prepared once at
/// construction — and every Expand() checks one out for the duration of
/// the request, gated by a bounded per-session-fair AdmissionQueue:
/// sessions round-robin for free connections (no session starves), waits
/// are capped at checkout_timeout_ms (-> Unavailable), and once
/// max_queue_depth requests are already queued further arrivals are shed
/// immediately with ResourceExhausted. Shard-side steady state is
/// therefore parse-free and concurrent sessions never share a statement
/// handle; what they do share is the shard's Database, whose read path is
/// audited for concurrent readers (see the thread-safety notes on
/// BufferPool, Table, and BTree — queries only read shard data, all writes
/// happen at load time).
class LocalShardService : public ShardService {
 public:
  static Status Create(ShardedGraphStore* store, int shard,
                       LocalShardOptions options,
                       std::unique_ptr<LocalShardService>* out);

  Status Expand(const ShardExpandRequest& request,
                ShardExpandResponse* response) override;

  void AddResilience(ResilienceCounters* out) const override {
    out->sheds += admission_.sheds();
  }

  Database* db() const { return store_->shard_db(shard_); }
  int connections() const { return static_cast<int>(conns_.size()); }
  /// The admission queue gating this shard's pool (counters for tests).
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

  /// Testing hooks: checkout/return a pooled connection directly, under
  /// the same deadline policy as Expand() — lets tests hold the pool
  /// empty deterministically. `handle` is opaque.
  Status DebugCheckoutConn(void** handle);
  void DebugReturnConn(void* handle);

 private:
  LocalShardService(ShardedGraphStore* store, int shard,
                    const LocalShardOptions& options)
      : store_(store),
        shard_(shard),
        options_(options),
        admission_(options.connections, options.max_queue_depth) {}

  /// One pooled shard connection: engine + prepared probes (null when the
  /// shard's adjacency is not indexed; the NoIndex strategy answers the
  /// whole frontier set with one batched scan instead, which per-node SQL
  /// probes cannot express without IN-lists).
  struct Conn {
    std::unique_ptr<sql::SqlEngine> engine;
    std::shared_ptr<sql::PreparedStatement> probe_fwd;  // out-edges by fid
    std::shared_ptr<sql::PreparedStatement> probe_bwd;  // in-edges by tid
  };

  /// Admits `session` through the admission queue, then hands out a free
  /// connection. Unavailable past checkout_timeout_ms; ResourceExhausted
  /// when the queue itself is full (shed without waiting).
  Status CheckoutConn(int64_t session, Conn** out);
  void ReturnConn(Conn* c);

  /// True when the injected probe fault should fire for this probe.
  bool ProbeFaultFires();

  ShardedGraphStore* store_;
  int shard_;
  LocalShardOptions options_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<int64_t> probe_fault_in_{-1};

  /// Admission policy in front of the pool: permits == connections, so a
  /// granted permit guarantees a connection is on idle_.
  AdmissionQueue admission_;
  std::mutex mu_;
  std::vector<Conn*> idle_;
};

}  // namespace relgraph
