#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/dist/shard_service.h"
#include "src/net/socket.h"
#include "src/net/wire.h"

namespace relgraph {
namespace net {

/// Failure-handling knobs of the remote shard stub. The defaults suit a
/// LAN/loopback deployment; tests shrink them to exercise every path in
/// milliseconds.
struct RemoteShardOptions {
  /// Deadline for dialing + handshaking a new connection.
  int64_t connect_timeout_ms = 1000;
  /// Per-attempt deadline covering the whole request round trip
  /// (serialize, send, receive, decode).
  int64_t request_timeout_ms = 5000;
  /// Total tries per Expand(): 1 initial + (max_attempts - 1) retries,
  /// each on a freshly dialed connection (the failed one is discarded).
  int max_attempts = 3;
  /// Exponential backoff between attempts: base * 2^(attempt-1), capped at
  /// `backoff_max_ms`, plus uniform jitter in [0, backoff) so a fleet of
  /// sessions retrying a recovering shard does not stampede in lockstep.
  int64_t backoff_base_ms = 10;
  int64_t backoff_max_ms = 200;
  /// Circuit breaker: after this many *consecutive* failed Expand() calls
  /// the circuit opens and calls fail fast with Unavailable (no network)
  /// for `breaker_open_ms`; then one half-open probe attempt is let
  /// through — success closes the circuit, failure re-opens it.
  int breaker_failure_threshold = 3;
  int64_t breaker_open_ms = 1000;
  /// Idle connections kept for reuse (each Expand checks one out; beyond
  /// this, returned connections are closed instead of pooled).
  int max_pooled_connections = 8;
};

/// Client stub implementing ShardService over the src/net wire — the
/// "RPC stub implementing Expand" the PR-5 boundary was designed for. The
/// coordinator cannot tell it from LocalShardService on the happy path
/// (bit-identical responses); on failure it degrades instead of hanging:
/// per-request deadlines, bounded retry with exponential backoff + jitter
/// on connection failure/timeout, and a circuit breaker so a dead shard
/// answers Status::Unavailable immediately instead of burning the full
/// retry budget on every round.
///
/// Thread-safe: concurrent sessions share one stub per shard, each request
/// checks a pooled connection out (dialing a new one when none is idle).
class RemoteShardService : public ShardService {
 public:
  /// Builds a stub without touching the network (options validation only).
  /// Used by replicated fleets, where a currently-dead replica is a state
  /// to route around, not a wiring error.
  static Status Create(const std::string& host, uint16_t port, int shard,
                       int num_shards, RemoteShardOptions options,
                       std::unique_ptr<RemoteShardService>* out);

  /// Eagerly dials and validates the handshake (magic, wire version, shard
  /// identity, partition count); the validated connection is pooled for the
  /// first Expand(). Distinguishes misconfiguration (InvalidArgument /
  /// Corruption) from a merely-unreachable endpoint (Unavailable).
  Status Validate();

  /// Create() + Validate(): the single-endpoint wiring path, where a dead
  /// endpoint should fail at startup, not on the first query.
  static Status Connect(const std::string& host, uint16_t port, int shard,
                        int num_shards, RemoteShardOptions options,
                        std::unique_ptr<RemoteShardService>* out);

  Status Expand(const ShardExpandRequest& request,
                ShardExpandResponse* response) override;

  /// Heartbeat round trip on a pooled connection (dials if needed),
  /// bounded by request_timeout_ms. OK means the shard is alive.
  Status Ping();
  /// Same, with an explicit bound — the health prober probes on a faster
  /// clock than request traffic.
  Status Ping(int64_t timeout_ms);

  int shard() const { return shard_; }
  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

  /// Observability (tests assert on these; an admission controller would
  /// read them).
  int64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  int64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }
  /// Closed->open breaker transitions since construction.
  int64_t breaker_opens() const {
    return breaker_opens_.load(std::memory_order_relaxed);
  }
  bool circuit_open() const;

  void AddResilience(ResilienceCounters* out) const override {
    out->retries += retries();
    out->failures += failures();
    out->breaker_opens += breaker_opens();
  }

 private:
  RemoteShardService(std::string host, uint16_t port, int shard,
                     int num_shards, const RemoteShardOptions& options)
      : host_(std::move(host)),
        port_(port),
        shard_(shard),
        num_shards_(num_shards),
        options_(options),
        jitter_rng_(kJitterSeed ^ (static_cast<uint64_t>(port) << 16) ^
                    static_cast<uint64_t>(shard)) {}

  /// Backoff jitter seed, mixed with the port and shard so stubs differ.
  static constexpr uint64_t kJitterSeed = 0x9e3779b97f4a7c15ull;

  /// Dials and handshakes a fresh connection within `deadline`.
  Status Dial(Deadline deadline, Socket* out);
  /// Pops a pooled connection or dials a new one.
  Status CheckoutSocket(Deadline deadline, Socket* out);
  void ReturnSocket(Socket sock);
  /// One request/response exchange on one connection.
  Status ExpandOnce(Socket* sock, const ShardExpandRequest& request,
                    ShardExpandResponse* response, Deadline deadline);

  /// Breaker bookkeeping around one whole Expand() outcome. While the
  /// circuit is open past its cooldown, exactly ONE caller is admitted as
  /// the half-open probe (the slot is held until that caller records an
  /// outcome); everyone else keeps failing fast.
  Status BreakerAdmit();  // Unavailable while the circuit is open
  void RecordSuccess();
  void RecordFailure();

  /// True for transport-class errors worth retrying on a fresh
  /// connection; application errors from the shard are returned as-is.
  static bool IsRetryable(const Status& st);

  int64_t BackoffWithJitterMs(int attempt);

  const std::string host_;
  const uint16_t port_;
  const int shard_;
  const int num_shards_;
  const RemoteShardOptions options_;

  std::mutex pool_mu_;
  std::vector<Socket> idle_socks_;

  mutable std::mutex breaker_mu_;
  int consecutive_failures_ = 0;
  bool breaker_open_ = false;
  /// True while a half-open probe request is in flight; gates the slot.
  bool half_open_probe_inflight_ = false;
  std::chrono::steady_clock::time_point breaker_open_until_{};

  std::mutex jitter_mu_;
  Rng jitter_rng_;

  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> failures_{0};
  std::atomic<int64_t> breaker_opens_{0};
};

}  // namespace net
}  // namespace relgraph
