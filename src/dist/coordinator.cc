#include "src/dist/coordinator.h"

#include <utility>

#include "src/dist/dist_path_finder.h"

namespace relgraph {

namespace {

/// Splits "host:port" (port in (0, 65535]); empty host defaults to
/// loopback.
Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("shard endpoint '" + endpoint +
                                   "' is not host:port");
  }
  *host = endpoint.substr(0, colon);
  if (host->empty()) *host = "127.0.0.1";
  const std::string port_str = endpoint.substr(colon + 1);
  int parsed = 0;
  bool valid = !port_str.empty();
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      valid = false;
      break;
    }
    parsed = parsed * 10 + (c - '0');
    if (parsed > 65535) {
      valid = false;
      break;
    }
  }
  if (!valid || parsed <= 0) {
    return Status::InvalidArgument("bad port in shard endpoint '" +
                                   endpoint + "'");
  }
  *port = static_cast<uint16_t>(parsed);
  return Status::OK();
}

/// Splits a shard's endpoint entry on '|' into replica tokens. "" and
/// "local" both mean the in-process service.
std::vector<std::string> SplitReplicas(const std::string& entry) {
  std::vector<std::string> tokens;
  size_t start = 0;
  for (;;) {
    const size_t bar = entry.find('|', start);
    std::string tok = entry.substr(
        start, bar == std::string::npos ? std::string::npos : bar - start);
    if (tok == "local") tok.clear();
    tokens.push_back(std::move(tok));
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  return tokens;
}

}  // namespace

Status DistCoordinator::Create(ShardedGraphStore* store, DistOptions options,
                               std::unique_ptr<DistCoordinator>* out) {
  if (store == nullptr) {
    return Status::InvalidArgument("null ShardedGraphStore");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (!options.shard_endpoints.empty() &&
      static_cast<int>(options.shard_endpoints.size()) !=
          store->num_shards()) {
    return Status::InvalidArgument(
        "shard_endpoints must name every shard (one entry per shard, \"\" "
        "for in-process)");
  }
  auto coord = std::unique_ptr<DistCoordinator>(
      new DistCoordinator(store, options));
  coord->services_.resize(store->num_shards());
  for (int shard = 0; shard < store->num_shards(); shard++) {
    const std::string endpoint =
        options.shard_endpoints.empty() ? std::string()
                                        : options.shard_endpoints[shard];
    const std::vector<std::string> tokens = SplitReplicas(endpoint);
    if (tokens.size() == 1) {
      // Single replica: wire the service directly, eagerly validated — a
      // dead endpoint with no fallback is a wiring error, not a state.
      if (tokens[0].empty()) {
        std::unique_ptr<LocalShardService> local;
        RELGRAPH_RETURN_IF_ERROR(
            LocalShardService::Create(store, shard, options.local, &local));
        coord->services_[shard] = std::move(local);
      } else {
        std::string host;
        uint16_t port = 0;
        RELGRAPH_RETURN_IF_ERROR(ParseEndpoint(tokens[0], &host, &port));
        std::unique_ptr<net::RemoteShardService> remote;
        RELGRAPH_RETURN_IF_ERROR(net::RemoteShardService::Connect(
            host, port, shard, store->num_shards(), options.remote,
            &remote));
        coord->services_[shard] = std::move(remote);
      }
      continue;
    }
    // Replica set: a replica that is merely unreachable right now — or one
    // refusing to serve because its snapshot failed verification (typed
    // Corruption) — starts out dead and is routed around: both are states
    // an operator can repair while the fleet serves. Only misconfiguration
    // (bad endpoint syntax, wrong shard identity, version skew) fails
    // Create.
    std::vector<Replica> replicas;
    std::vector<bool> start_dead;
    for (const std::string& tok : tokens) {
      Replica rep;
      if (tok.empty()) {
        std::unique_ptr<LocalShardService> local;
        RELGRAPH_RETURN_IF_ERROR(
            LocalShardService::Create(store, shard, options.local, &local));
        rep.service = std::move(local);
        rep.name = "local";
        start_dead.push_back(false);
      } else {
        std::string host;
        uint16_t port = 0;
        RELGRAPH_RETURN_IF_ERROR(ParseEndpoint(tok, &host, &port));
        std::unique_ptr<net::RemoteShardService> remote;
        RELGRAPH_RETURN_IF_ERROR(net::RemoteShardService::Create(
            host, port, shard, store->num_shards(), options.remote,
            &remote));
        Status probe = remote->Validate();
        if (!probe.ok() && !probe.IsUnavailable() &&
            !probe.IsDeadlineExceeded() && !probe.IsIOError() &&
            !probe.IsCorruption()) {
          return probe;  // misconfiguration: fail wiring with the reason
        }
        start_dead.push_back(!probe.ok());
        rep.probe = [svc = remote.get(),
                     timeout = options.replica.prober.probe_interval_ms] {
          return svc->Ping(timeout);
        };
        rep.name = tok;
        rep.service = std::move(remote);
      }
      replicas.push_back(std::move(rep));
    }
    std::unique_ptr<ReplicatedShardService> replicated;
    RELGRAPH_RETURN_IF_ERROR(ReplicatedShardService::Create(
        shard, std::move(replicas), options.replica, &replicated));
    // Seed health from the validation result so the first requests route
    // past known-dead replicas without paying a discovery failure.
    for (size_t i = 0; i < start_dead.size(); i++) {
      if (start_dead[i]) replicated->MarkReplicaDead(i);
    }
    coord->services_[shard] = std::move(replicated);
  }
  if (options.num_threads > 0) {
    coord->pool_ = std::make_unique<ThreadPool>(options.num_threads);
  }
  *out = std::move(coord);
  return Status::OK();
}

Status DistCoordinator::NewSession(std::unique_ptr<DistPathFinder>* out) {
  return DistPathFinder::CreateSession(this, out);
}

ResilienceCounters DistCoordinator::Resilience() const {
  ResilienceCounters total;
  for (const auto& svc : services_) svc->AddResilience(&total);
  return total;
}

}  // namespace relgraph
