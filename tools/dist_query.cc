// Query driver for a shard_server fleet: rebuilds the same deterministic
// graph (same --nodes/--seed/--shards as the servers), wires a
// DistCoordinator at the given endpoints, and runs a deterministic query
// workload, checking every answer against an in-process all-local oracle.
//
// Usage:
//   dist_query --shards K --endpoints host:port,host:port,...
//       [--nodes N] [--seed S] [--queries Q] [--expect-unavailable]
//       [--labels [--label-hubs H]]
//
// An endpoint entry of "local" keeps that shard in-process (mixed
// deployments); an entry may also name several '|'-separated replicas
// ("h:p1|h:p2") — the coordinator then load-balances by health and fails
// over, so killing one replica mid-run must NOT fail any query (the
// replicated CI smoke asserts exactly that). A resilience-counter summary
// (retries, failovers, hedges, sheds, ...) is printed at exit.
//
// With --labels the coordinator gets a hub-label index built from the
// same deterministic graph and queries run distance-only through the
// label fast path: certified hits are answered coordinator-side with
// ZERO shard fan-out (asserted: no rounds, no shard statements, no rows
// shipped), everything else falls back to the distributed FEM search —
// both checked against the oracle. A LABELS hit/fallback counter line is
// printed next to the RESILIENCE summary. --label-hubs H builds a
// partial index (fewer certified pairs, more fallbacks) to exercise the
// fallback path; the default is a complete index, where every query
// must be a hit (exit 2 otherwise).
// Exit codes: 0 success; 2 wrong answer (transport changed
// results); 3 unexpected shard failure; with --expect-unavailable the
// meanings of success flip — 0 when some query degrades to a typed
// Unavailable (the fleet was killed under us, gracefully), 4 when every
// query unexpectedly succeeds. Anything hanging is the caller's timeout.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/dist/dist_path_finder.h"
#include "src/dist/sharded_graph.h"
#include "src/graph/generators.h"
#include "src/labels/label_store.h"

namespace {

int64_t ArgInt(int argc, char** argv, const char* name, int64_t fallback) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  }
  return fallback;
}

const char* ArgStr(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

void PrintLabelCounters(const relgraph::LabelServeCounters& lc) {
  std::printf(
      "LABELS hits=%lld fallbacks=%lld stale=%lld inexact=%lld\n",
      static_cast<long long>(lc.label_hits),
      static_cast<long long>(lc.fallbacks),
      static_cast<long long>(lc.stale_fallbacks),
      static_cast<long long>(lc.inexact_fallbacks));
}

void PrintResilience(const relgraph::ResilienceCounters& rc) {
  std::printf(
      "RESILIENCE retries=%lld failures=%lld breaker_opens=%lld "
      "failovers=%lld hedges=%lld sheds=%lld probes=%lld healthy=%lld "
      "suspect=%lld dead=%lld\n",
      static_cast<long long>(rc.retries), static_cast<long long>(rc.failures),
      static_cast<long long>(rc.breaker_opens),
      static_cast<long long>(rc.failovers), static_cast<long long>(rc.hedges),
      static_cast<long long>(rc.sheds), static_cast<long long>(rc.probes),
      static_cast<long long>(rc.replicas_healthy),
      static_cast<long long>(rc.replicas_suspect),
      static_cast<long long>(rc.replicas_dead));
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    const size_t comma = s.find(',', start);
    out.push_back(s.substr(start, comma - start));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace relgraph;
  const int shards = static_cast<int>(ArgInt(argc, argv, "--shards", 2));
  const int64_t nodes = ArgInt(argc, argv, "--nodes", 2000);
  const uint64_t seed =
      static_cast<uint64_t>(ArgInt(argc, argv, "--seed", 4242));
  const int queries = static_cast<int>(ArgInt(argc, argv, "--queries", 8));
  const bool expect_unavailable = HasFlag(argc, argv, "--expect-unavailable");
  const bool use_labels = HasFlag(argc, argv, "--labels");
  const int64_t label_hubs = ArgInt(argc, argv, "--label-hubs", -1);
  const char* endpoints_arg = ArgStr(argc, argv, "--endpoints");
  if (endpoints_arg == nullptr) {
    std::fprintf(stderr,
                 "usage: %s --shards K --endpoints h:p,h:p,... [--nodes N] "
                 "[--seed S] [--queries Q] [--expect-unavailable] "
                 "[--labels [--label-hubs H]]\n",
                 argv[0]);
    return 64;
  }
  std::vector<std::string> endpoints = SplitCommas(endpoints_arg);
  if (static_cast<int>(endpoints.size()) != shards) {
    std::fprintf(stderr, "need exactly %d endpoints, got %zu\n", shards,
                 endpoints.size());
    return 64;
  }
  for (std::string& e : endpoints) {
    if (e == "local") e.clear();  // in-process shard
  }

  EdgeList list = GenerateBarabasiAlbert(nodes, 3, WeightRange{1, 100}, seed);
  ShardedGraphOptions sopts;
  sopts.num_shards = shards;
  std::unique_ptr<ShardedGraphStore> store;
  Status st = ShardedGraphStore::Create(list, sopts, &store);
  if (!st.ok()) {
    std::fprintf(stderr, "store: %s\n", st.ToString().c_str());
    return 1;
  }

  // The all-local oracle runs on its own store so shard statement counters
  // stay untangled from the networked run.
  std::unique_ptr<ShardedGraphStore> oracle_store;
  if (!ShardedGraphStore::Create(list, sopts, &oracle_store).ok()) return 1;
  std::unique_ptr<DistPathFinder> oracle;
  if (!DistPathFinder::Create(oracle_store.get(), &oracle).ok()) return 1;

  DistOptions dopts;
  dopts.shard_endpoints = endpoints;
  // A killed fleet member must fail queries in seconds, not minutes.
  dopts.remote.connect_timeout_ms = 2000;
  dopts.remote.request_timeout_ms = 2000;
  dopts.remote.max_attempts = 2;
  std::unique_ptr<DistPathFinder> finder;
  st = DistPathFinder::Create(store.get(), &finder, dopts);
  if (!st.ok()) {
    std::fprintf(stderr, "coordinator: %s\n", st.ToString().c_str());
    return expect_unavailable && st.IsUnavailable() ? 0 : 3;
  }
  if (use_labels) {
    LabelBuildOptions lopts;
    lopts.max_hubs = label_hubs;
    std::unique_ptr<LabelStore> labels;
    LabelBuildStats lstats;
    st = LabelStore::Build(list, lopts, &labels, &lstats);
    if (!st.ok()) {
      std::fprintf(stderr, "label build: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("LABELS built hubs=%lld entries=%lld statements=%lld "
                "build_us=%lld\n",
                static_cast<long long>(lstats.hubs),
                static_cast<long long>(lstats.entries),
                static_cast<long long>(lstats.statements),
                static_cast<long long>(lstats.build_us));
    finder->coordinator()->AttachLabels(std::move(labels));
  }

  Rng rng(seed * 31 + 7);
  for (int q = 0; q < queries; q++) {
    const node_id_t s_node = rng.NextInt(0, nodes - 1);
    const node_id_t t_node = rng.NextInt(0, nodes - 1);
    DistPathResult got;
    bool served = false;
    st = use_labels ? finder->Distance(s_node, t_node, &got, &served)
                    : finder->Find(s_node, t_node, &got);
    if (!st.ok()) {
      std::fprintf(stderr, "query %d (%lld -> %lld): %s\n", q,
                   static_cast<long long>(s_node),
                   static_cast<long long>(t_node), st.ToString().c_str());
      PrintResilience(finder->coordinator()->Resilience());
      if (expect_unavailable && st.IsUnavailable()) {
        std::printf("DEGRADED query=%d\n", q);
        return 0;  // graceful degradation observed, as the smoke demands
      }
      return 3;
    }
    DistPathResult want;
    if (!oracle->Find(s_node, t_node, &want).ok()) return 1;
    if (use_labels) {
      // Distance-only: the label fast path carries no path, so only
      // found/distance are compared — but a *hit* must also prove it
      // never touched a shard.
      if (got.found != want.found || got.distance != want.distance) {
        std::fprintf(stderr, "query %d: label answer drifted from oracle\n",
                     q);
        return 2;
      }
      if (served && (got.stats.rounds != 0 || got.stats.shard_statements != 0 ||
                     got.stats.rows_shipped != 0)) {
        std::fprintf(stderr, "query %d: label hit touched shards\n", q);
        return 2;
      }
      if (!served && label_hubs < 0) {
        std::fprintf(stderr, "query %d: complete fresh index must serve "
                     "every distance\n", q);
        return 2;
      }
      continue;
    }
    if (got.found != want.found || got.distance != want.distance ||
        got.path != want.path ||
        got.stats.rows_shipped != want.stats.rows_shipped ||
        got.stats.shard_statements != want.stats.shard_statements) {
      std::fprintf(stderr, "query %d: networked answer drifted from oracle\n",
                   q);
      return 2;
    }
  }
  PrintResilience(finder->coordinator()->Resilience());
  if (use_labels) PrintLabelCounters(finder->coordinator()->LabelCounters());
  if (expect_unavailable) {
    std::fprintf(stderr, "expected a degraded query, saw none\n");
    return 4;
  }
  std::printf("OK queries=%d\n", queries);
  return 0;
}
