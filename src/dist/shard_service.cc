#include "src/dist/shard_service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <tuple>
#include <unordered_map>

#include "src/common/timer.h"

namespace relgraph {

Status LocalShardService::Create(ShardedGraphStore* store, int shard,
                                 LocalShardOptions options,
                                 std::unique_ptr<LocalShardService>* out) {
  if (options.connections < 1) {
    return Status::InvalidArgument("shard connection pool must be >= 1");
  }
  if (options.checkout_timeout_ms < 1) {
    return Status::InvalidArgument("checkout timeout must be >= 1 ms");
  }
  if (options.max_queue_depth < 0) {
    return Status::InvalidArgument("admission queue depth must be >= 0");
  }
  *out = std::unique_ptr<LocalShardService>(
      new LocalShardService(store, shard, options));
  return Status::OK();
}

Status LocalShardService::Admit(int64_t session) {
  // The queue bounds the wait at checkout_timeout_ms (-> Unavailable, same
  // typed error the remote transport degrades to), sheds queue-full
  // arrivals immediately (-> ResourceExhausted), and round-robins grants
  // across sessions so none starves.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.checkout_timeout_ms);
  Status admit = admission_.Acquire(static_cast<uint64_t>(session), deadline);
  if (admit.ok()) return admit;
  if (admit.IsUnavailable()) {
    // Keep the pool-exhaustion shape callers/tests key on.
    return Status::Unavailable(
        "shard " + std::to_string(shard_) + " connection pool exhausted (" +
        std::to_string(options_.connections) + " connections busy for " +
        std::to_string(options_.checkout_timeout_ms) + " ms)");
  }
  return Status::ResourceExhausted("shard " + std::to_string(shard_) + ": " +
                                   admit.message());
}

Status LocalShardService::DebugCheckoutConn(void** handle) {
  RELGRAPH_RETURN_IF_ERROR(Admit(/*session=*/0));
  *handle = this;
  return Status::OK();
}

void LocalShardService::DebugReturnConn(void* /*handle*/) {
  admission_.Release();
}

bool LocalShardService::ProbeFaultFires() {
  // The countdown parks at 0 once spent, so the fault stays sticky until
  // ClearFaults — mirroring DiskManager's injection semantics.
  int64_t cur = probe_fault_in_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur < 0) return false;
    if (cur == 0) return true;
    if (probe_fault_in_.compare_exchange_weak(cur, cur - 1,
                                              std::memory_order_relaxed)) {
      return false;
    }
  }
}

Status LocalShardService::ReadCandidates(const ShardExpandRequest& request,
                                         std::vector<Candidate>* rows) {
  Table* table = request.forward ? store_->out_edges(shard_)
                                 : store_->in_edges(shard_);
  const std::string column = request.forward ? "fid" : "tid";
  const size_t frontier_idx = request.forward ? 0 : 1;
  const size_t emit_idx = request.forward ? 1 : 0;
  const bool fault_armed = probe_fault_in_.load(std::memory_order_relaxed) >= 0;
  // Theorem-1 residual: dist + cost < bound, compared as cost < bound - dist
  // so no sum of wire-supplied values can overflow (both lie within
  // kInfinity = INT64_MAX / 4 of zero).
  Tuple row;
  auto keep = [&](node_id_t frontier, weight_t dist) {
    const weight_t cost = row.value(2).AsInt();
    if (cost < request.bound - dist) {
      rows->push_back({row.value(emit_idx).AsInt(), dist + cost, frontier,
                       cost});
    }
  };
  if (table->HasIndexOn(column)) {
    // Indexed shard: one key-range read per frontier node, each counted as
    // the point probe statement it stands for.
    for (size_t i = 0; i < request.nodes.size(); i++) {
      if (fault_armed && ProbeFaultFires()) {
        return Status::Internal("injected probe fault");
      }
      db()->RecordStatement();
      const node_id_t n = request.nodes[i];
      const weight_t dist = request.DistAt(i);
      Table::Iterator it;
      RELGRAPH_RETURN_IF_ERROR(table->ScanRange(column, n, n, &it));
      while (it.Next(&row, nullptr)) keep(n, dist);
      RELGRAPH_RETURN_IF_ERROR(it.status());
    }
    return Status::OK();
  }
  // NoIndex shard: one batched scan answers the whole frontier set.
  db()->RecordStatement();
  if (fault_armed && ProbeFaultFires()) {
    return Status::Internal("injected probe fault");
  }
  std::unordered_map<node_id_t, weight_t> dist_of;
  dist_of.reserve(request.nodes.size());
  for (size_t i = 0; i < request.nodes.size(); i++) {
    dist_of.emplace(request.nodes[i], request.DistAt(i));
  }
  Table::Iterator it = table->Scan();
  while (it.Next(&row, nullptr)) {
    auto f = dist_of.find(row.value(frontier_idx).AsInt());
    if (f != dist_of.end()) keep(f->first, f->second);
  }
  return it.status();
}

Status LocalShardService::Expand(const ShardExpandRequest& request,
                                 ShardExpandResponse* response) {
  *response = ShardExpandResponse{};
  if (!request.dists.empty() && request.dists.size() != request.nodes.size()) {
    return Status::InvalidArgument(
        "expand request carries " + std::to_string(request.dists.size()) +
        " distances for " + std::to_string(request.nodes.size()) + " nodes");
  }
  RELGRAPH_RETURN_IF_ERROR(Admit(request.session_id));
  Timer timer;
  std::vector<Candidate> rows;
  Status st = ReadCandidates(request, &rows);
  if (st.ok()) {
    // Min-combiner: per emitted node, the least (dist + cost, frontier
    // node), DedupLeast's order. Rows equal on all three are the same
    // (frontier, emit, cost) edge, so which of them survives cannot show.
    std::sort(rows.begin(), rows.end(),
              [](const Candidate& a, const Candidate& b) {
                return std::tie(a.emit, a.total, a.frontier) <
                       std::tie(b.emit, b.total, b.frontier);
              });
    for (size_t i = 0; i < rows.size(); i++) {
      if (i > 0 && rows[i].emit == rows[i - 1].emit) continue;
      response->edges.push_back(
          {rows[i].frontier, rows[i].emit, rows[i].cost});
    }
    // One logical round-trip to this shard per request (the conceptual
    // `... WHERE fid IN (<frontier ∩ shard>)` statement).
    response->statements = 1;
    response->elapsed_us = timer.ElapsedMicros();
  }
  admission_.Release();
  // Error contract (see ShardService): never leak a partial response. A
  // retrying caller folding these edges/stats in *again* after the retry
  // succeeds would double-count them.
  return st;
}

}  // namespace relgraph
