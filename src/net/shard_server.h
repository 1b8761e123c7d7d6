#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "src/common/thread_pool.h"
#include "src/dist/shard_service.h"
#include "src/net/socket.h"
#include "src/net/wire.h"

namespace relgraph {
namespace net {

struct ShardServerOptions {
  /// TCP port to listen on (loopback); 0 picks an ephemeral port — read
  /// it back from ShardServer::port().
  uint16_t port = 0;
  /// Worker threads serving connections. One accepted connection pins one
  /// worker for its lifetime (the per-connection handler loops on the
  /// socket), so this bounds concurrent client connections; later
  /// connections queue until a worker frees up.
  int workers = 4;
  /// Admission (permits, queue depth, wait) of the underlying
  /// LocalShardService.
  LocalShardOptions shard;
  /// Per-frame I/O deadline once a request has started arriving (an idle
  /// connection waits indefinitely in poll slices, a half-sent frame must
  /// not hold a worker forever).
  int64_t io_timeout_ms = 5000;
};

/// One shard of a ShardedGraphStore served over TCP — the paper's §7
/// "each partition is processed by its own RDBMS node", with the node
/// boundary now a real wire. The server owns a LocalShardService (so
/// execution, admission, pruning and combining are exactly the in-process
/// path) and speaks the src/net frame protocol: handshake
/// validation, ExpandRequest -> ExpandResponse, Heartbeat -> HeartbeatAck,
/// and typed Error frames for shard-side failures.
///
/// Stop() (or destruction) closes the listener and retires every
/// connection at the next poll slice; in-flight requests finish or fail,
/// clients see the close and run their retry/degradation policy.
class ShardServer {
 public:
  static Status Start(ShardedGraphStore* store, int shard,
                      ShardServerOptions options,
                      std::unique_ptr<ShardServer>* out);

  /// Starts a server that *refuses to serve*: every handshake is answered
  /// with a typed Error frame carrying `refusal` (non-OK — e.g. the
  /// Corruption from a failed snapshot verification) and the connection
  /// closes. No store is attached, no expand request ever executes; a
  /// replicated client treats the refusal like any failed replica and
  /// fails over. This is how a shard_server whose on-disk snapshot fails
  /// verification stays visibly up without risking wrong answers.
  static Status StartRefusing(int shard, Status refusal,
                              ShardServerOptions options,
                              std::unique_ptr<ShardServer>* out);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  uint16_t port() const { return listener_.port(); }
  int shard() const { return shard_; }
  int num_shards() const { return store_ == nullptr ? -1
                                                    : store_->num_shards(); }
  LocalShardService* local_service() { return local_.get(); }

  /// Graceful shutdown: stop accepting, retire every connection, join all
  /// threads. Idempotent.
  void Stop();

  /// Graceful *drain* (SIGTERM semantics): stop accepting new connections,
  /// let every in-flight request finish and each connection's
  /// already-pending frames be served, then retire connections as they go
  /// idle and join all threads. Unlike Stop(), no request that the server
  /// has started reading is ever abandoned. Idempotent; Stop() after a
  /// drain is a no-op.
  void Drain();

  /// Expand requests answered successfully since Start().
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// ----- fault injection (tests / the CI kill-one-shard smoke) -----------

  /// Sleeps `ms` before answering each expand request — pushes responses
  /// past a client deadline to exercise its timeout/retry path. 0 clears.
  void InjectResponseDelayMs(int ms) {
    response_delay_ms_.store(ms, std::memory_order_relaxed);
  }
  /// Stops the whole server (as if the process died) after `n` more
  /// successful expand responses — a deterministic "shard dies mid-query"
  /// for multi-round queries. Negative disables.
  void InjectStopAfterRequests(int64_t n) {
    stop_after_requests_.store(n, std::memory_order_relaxed);
  }
  /// Abruptly closes every currently-open connection (at its next poll
  /// slice) while the server keeps running and accepting — the "network
  /// blip" fault: clients see a peer close and must redial/retry.
  void InjectDropConnections() {
    drop_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  /// While set to a non-OK status, every expand request is answered with a
  /// typed Error frame carrying it (the connection stays open — transport
  /// is healthy, the data is not). Models a replica detecting page
  /// corruption at read time; a replicated client fails over. OK clears.
  void InjectExpandError(const Status& status) {
    std::lock_guard<std::mutex> lock(inject_mu_);
    expand_error_ = status;
    expand_error_armed_.store(!status.ok(), std::memory_order_release);
  }

 private:
  ShardServer(ShardedGraphStore* store, int shard,
              const ShardServerOptions& options)
      : store_(store), shard_(shard), options_(options) {}

  void AcceptLoop();
  void ServeConn(Socket conn);
  /// Handles one decoded frame; false when the connection should close.
  bool HandleFrame(Socket* conn, FrameType type, const std::string& payload,
                   bool* handshaken);
  /// Interruptible sleep for the injected response delay.
  void DelaySlices(int ms);

  ShardedGraphStore* store_;
  int shard_;
  ShardServerOptions options_;
  std::unique_ptr<LocalShardService> local_;
  Listener listener_;
  std::unique_ptr<ThreadPool> conn_pool_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> requests_served_{0};
  std::atomic<int> response_delay_ms_{0};
  std::atomic<int64_t> stop_after_requests_{-1};
  /// Bumped by InjectDropConnections(); each connection remembers the epoch
  /// it was accepted in and retires when the epoch moves.
  std::atomic<int64_t> drop_epoch_{0};
  /// Non-OK when started via StartRefusing: answered to every handshake.
  Status refusal_;
  /// InjectExpandError state: armed flag checked lock-free on the hot
  /// path, the Status itself behind the mutex (it is not trivially
  /// copyable).
  std::mutex inject_mu_;
  Status expand_error_;
  std::atomic<bool> expand_error_armed_{false};
};

}  // namespace net
}  // namespace relgraph
