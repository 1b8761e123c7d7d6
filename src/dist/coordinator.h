#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dist/replica_set.h"
#include "src/dist/shard_service.h"
#include "src/dist/sharded_graph.h"
#include "src/labels/label_store.h"
#include "src/labels/labeled_path_finder.h"
#include "src/net/remote_shard_service.h"

namespace relgraph {

class DistPathFinder;

/// Execution knobs for the distributed coordinator.
struct DistOptions {
  /// Worker threads driving shard expansion. 0 keeps the serial path: each
  /// round's shard requests run one after another in the calling thread and
  /// `parallel_us` is *simulated* (every round charged its slowest shard) —
  /// the correctness oracle and the measurement baseline. >= 1 runs one
  /// task per contacted shard on a shared pool and `parallel_us` becomes a
  /// *measured* wall clock.
  int num_threads = 0;
  /// Transport per shard: each entry is one or more '|'-separated
  /// *replicas* of that shard — "host:port" for a net::ShardServer, or ""
  /// / "local" for the in-process LocalShardService. One replica wires the
  /// service directly (eagerly validated); several wire a
  /// ReplicatedShardService that routes by health, fails over, and
  /// optionally hedges (see `replica`). An empty vector keeps every shard
  /// local (the default single-process deployment); otherwise the size
  /// must equal the store's shard count. Mixing is fully supported — the
  /// coordinator's merge logic cannot tell, which is the point of the
  /// ShardService seam.
  std::vector<std::string> shard_endpoints;
  /// Admission knobs applied to every in-process shard. Each query session
  /// holds at most one permit per shard at a time, so `local.connections`
  /// bounds how many sessions can expand on the same shard simultaneously;
  /// additional sessions queue, up to `local.checkout_timeout_ms`.
  LocalShardOptions local;
  /// Failure-handling knobs applied to every remote shard stub.
  net::RemoteShardOptions remote;
  /// Replica routing / health / hedging knobs (multi-replica shards only).
  ReplicaOptions replica;
  /// Test/harness hook: called with the 1-based FEM round number right
  /// before that round's shard fan-out, from the session thread — the seam
  /// a deterministic FaultSchedule threads through. Null in production.
  std::function<void(int64_t)> round_hook;
};

/// Process-wide coordinator state for distributed BSDJ over one
/// ShardedGraphStore: the shard services (in-process pools and/or remote
/// stubs dialing net::ShardServers) and the worker pool that runs
/// expansion rounds. Query sessions (DistPathFinder) are created from
/// here — each owns its own coordinator-local TVisited and PathFinder, so
/// N sessions run Find() concurrently against the shared shard set, the
/// "many clients, one cluster" shape of the north star.
class DistCoordinator {
 public:
  static Status Create(ShardedGraphStore* store, DistOptions options,
                       std::unique_ptr<DistCoordinator>* out);

  /// Creates one query session. Sessions are independent (per-session
  /// visited state and statement accounting) and may be driven from
  /// different threads; a single session is not itself thread-safe.
  Status NewSession(std::unique_ptr<DistPathFinder>* out);

  ShardedGraphStore* store() const { return store_; }
  ShardService* shard_service(int shard) const {
    return services_[shard].get();
  }
  /// nullptr when options().num_threads == 0 (serial mode).
  ThreadPool* pool() const { return pool_.get(); }
  const DistOptions& options() const { return options_; }

  /// Sums resilience counters (retries, failovers, hedges, sheds, health
  /// census, ...) across every shard service and its replicas.
  ResilienceCounters Resilience() const;

  /// Attaches a hub-label serving unit: from here on, sessions answer
  /// certified-exact distance queries coordinator-side from two label
  /// probes — zero shard statements, zero rows shipped — and fall back to
  /// the distributed FEM search otherwise. Attach before queries start;
  /// the pointer is read un-synchronized on the query path.
  void AttachLabels(std::unique_ptr<LabelStore> labels) {
    labels_ = std::move(labels);
  }
  /// nullptr when no labels are attached.
  LabelStore* labels() const { return labels_.get(); }

  /// Coordinator-wide fast-path accounting: how many distance queries the
  /// attached label index answered without any shard fan-out, and why the
  /// rest fell back to the distributed FEM search. Summed across sessions
  /// (tools print this next to the RESILIENCE summary). `path_hits` and
  /// `path_fallbacks` stay 0: only DistPathFinder::Distance consults the
  /// labels, and a full-path Find bypasses them without being counted.
  LabelServeCounters LabelCounters() const {
    LabelServeCounters c;
    c.label_hits = label_hits_.load(std::memory_order_relaxed);
    c.fallbacks = label_fallbacks_.load(std::memory_order_relaxed);
    c.stale_fallbacks = label_stale_.load(std::memory_order_relaxed);
    c.inexact_fallbacks = label_inexact_.load(std::memory_order_relaxed);
    return c;
  }
  void RecordLabelHit() {
    label_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordLabelFallback(bool stale, bool inexact) {
    label_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    if (stale) label_stale_.fetch_add(1, std::memory_order_relaxed);
    if (inexact) label_inexact_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Monotonic session id (1-based) stamped on each new session's shard
  /// requests, so shard-side admission can be per-session fair.
  int64_t NextSessionId() {
    return next_session_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  DistCoordinator(ShardedGraphStore* store, DistOptions options)
      : store_(store), options_(std::move(options)) {}

  ShardedGraphStore* store_;
  DistOptions options_;
  std::vector<std::unique_ptr<ShardService>> services_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<int64_t> next_session_id_{0};
  std::unique_ptr<LabelStore> labels_;
  std::atomic<int64_t> label_hits_{0};
  std::atomic<int64_t> label_fallbacks_{0};
  std::atomic<int64_t> label_stale_{0};
  std::atomic<int64_t> label_inexact_{0};
};

}  // namespace relgraph
