// Replicated-shard resilience, verified by deterministic fault-schedule
// exploration: a FaultSchedule kills / delays / drops-connections-of a
// specific replica right before a specific FEM round (via the
// coordinator's round hook), so every failure interleaving replays
// identically. The core invariant: as long as every shard keeps >= 1 live
// replica, every query must succeed with results *bit-identical* to the
// all-local oracle — same distance, path, rows_shipped, and shard
// statements — and when every replica of a shard is dead, the query must
// fail with a *typed* Unavailable in bounded time, not hang.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/dist/dist_path_finder.h"
#include "src/dist/replica_set.h"
#include "src/dist/sharded_graph.h"
#include "src/net/fault_schedule.h"
#include "src/graph/generators.h"

namespace relgraph {
namespace {

using Clock = std::chrono::steady_clock;

int64_t MsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               t0)
      .count();
}

class DistReplicaTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 2;
  static constexpr int kReplicas = 2;

  void SetUp() override {
    EdgeList list = GenerateBarabasiAlbert(300, 3, WeightRange{1, 50}, 1331);
    num_nodes_ = list.num_nodes;
    ShardedGraphOptions sopts;
    sopts.num_shards = kShards;
    ASSERT_TRUE(ShardedGraphStore::Create(list, sopts, &store_).ok());
    // Oracle on its own store so statement counters stay untangled.
    ASSERT_TRUE(ShardedGraphStore::Create(list, sopts, &oracle_store_).ok());
    ASSERT_TRUE(DistPathFinder::Create(oracle_store_.get(), &oracle_).ok());
    ASSERT_TRUE(net::ReplicaFleet::Start(store_.get(), kReplicas,
                                         net::ShardServerOptions{}, &fleet_)
                    .ok());
  }

  /// Coordinator options for a replicated run: tight transport timeouts so
  /// a killed replica costs a fast failover, one attempt per replica (the
  /// replica walk is the retry), prober off unless a test wants it.
  DistOptions ReplicatedOptions() {
    DistOptions dopts;
    dopts.shard_endpoints = fleet_->Endpoints();
    dopts.remote.connect_timeout_ms = 1000;
    dopts.remote.request_timeout_ms = 2000;
    dopts.remote.max_attempts = 1;
    dopts.replica.prober.probe_interval_ms = 0;
    return dopts;
  }

  /// Runs (s, t) on a fresh replicated finder wired to `dopts` and demands
  /// the bit-identical oracle answer. `context` labels the failure.
  void ExpectMatchesOracle(const DistOptions& dopts, node_id_t s, node_id_t t,
                           const std::string& context) {
    std::unique_ptr<DistPathFinder> finder;
    Status st = DistPathFinder::Create(store_.get(), &finder, dopts);
    ASSERT_TRUE(st.ok()) << context << ": " << st.ToString();
    DistPathResult got;
    st = finder->Find(s, t, &got);
    ASSERT_TRUE(st.ok()) << context << ": " << st.ToString();
    DistPathResult want;
    ASSERT_TRUE(oracle_->Find(s, t, &want).ok());
    EXPECT_EQ(got.found, want.found) << context;
    EXPECT_EQ(got.distance, want.distance) << context;
    EXPECT_EQ(got.path, want.path) << context;
    EXPECT_EQ(got.stats.rows_shipped, want.stats.rows_shipped) << context;
    EXPECT_EQ(got.stats.shard_statements, want.stats.shard_statements)
        << context;
  }

  std::unique_ptr<ShardedGraphStore> store_;
  std::unique_ptr<ShardedGraphStore> oracle_store_;
  std::unique_ptr<DistPathFinder> oracle_;
  std::unique_ptr<net::ReplicaFleet> fleet_;
  int64_t num_nodes_ = 0;
};

// Sanity: a healthy replicated fleet is indistinguishable from local, and
// routes without a single failover or hedge.
TEST_F(DistReplicaTest, HealthyFleetMatchesOracle) {
  DistOptions dopts = ReplicatedOptions();
  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store_.get(), &finder, dopts).ok());
  DistPathResult got, want;
  ASSERT_TRUE(finder->Find(3, num_nodes_ - 2, &got).ok());
  ASSERT_TRUE(oracle_->Find(3, num_nodes_ - 2, &want).ok());
  EXPECT_EQ(got.distance, want.distance);
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.stats.rows_shipped, want.stats.rows_shipped);
  ResilienceCounters rc = finder->coordinator()->Resilience();
  EXPECT_EQ(rc.failovers, 0);
  EXPECT_EQ(rc.hedges, 0);
  EXPECT_EQ(rc.sheds, 0);
}

// The schedule-exploration matrix: kill every (replica, round) combination
// in turn — one schedule per run, fleet healed in between — and require
// the oracle's exact answer every single time. This enumerates the
// interleavings "replica dies right before round k's fan-out" for every k
// the query executes, which a timing-based kill test only ever samples.
TEST_F(DistReplicaTest, KillMatrixNeverChangesResults) {
  const node_id_t s = 1, t = num_nodes_ - 1;
  DistPathResult want;
  ASSERT_TRUE(oracle_->Find(s, t, &want).ok());
  const int64_t rounds = want.stats.rounds;
  ASSERT_GE(rounds, 2) << "graph too small to exercise multi-round kills";

  for (int shard = 0; shard < kShards; shard++) {
    for (int replica = 0; replica < kReplicas; replica++) {
      for (int64_t round = 1; round <= rounds; round++) {
        net::FaultSchedule schedule;
        schedule.Kill(round, shard, replica);
        ASSERT_TRUE(fleet_->Heal().ok());
        DistOptions dopts = ReplicatedOptions();
        dopts.round_hook = [this, &schedule](int64_t r) {
          Status st = schedule.OnRound(r, fleet_.get());
          ASSERT_TRUE(st.ok()) << st.ToString();
        };
        ExpectMatchesOracle(dopts, s, t,
                            "schedule " + schedule.ToString());
      }
    }
  }
  ASSERT_TRUE(fleet_->Heal().ok());
}

// Kill + restart within one query: the replica dies before round 1 and
// comes back (same port) before round 2 — the fleet self-heals mid-query
// and the answer still cannot move.
TEST_F(DistReplicaTest, KillThenRestartMidQueryMatchesOracle) {
  net::FaultSchedule schedule;
  schedule.Kill(1, 0, 0).Restart(2, 0, 0);
  ASSERT_TRUE(fleet_->Heal().ok());
  DistOptions dopts = ReplicatedOptions();
  dopts.round_hook = [this, &schedule](int64_t r) {
    Status st = schedule.OnRound(r, fleet_.get());
    ASSERT_TRUE(st.ok()) << st.ToString();
  };
  ExpectMatchesOracle(dopts, 2, num_nodes_ - 3, schedule.ToString());
  ASSERT_TRUE(fleet_->Heal().ok());
}

// Abruptly cutting a replica's established connections mid-query (the
// network flaked, the process did not die) must be equally invisible: the
// stub redials or the router fails over, and the answer is the oracle's.
TEST_F(DistReplicaTest, DropConnectionsMidQueryMatchesOracle) {
  for (int shard = 0; shard < kShards; shard++) {
    net::FaultSchedule schedule;
    schedule.DropConnections(2, shard, 0);
    ASSERT_TRUE(fleet_->Heal().ok());
    DistOptions dopts = ReplicatedOptions();
    // Allow one redial per replica: a cut connection is transient, and the
    // same replica can serve the retry.
    dopts.remote.max_attempts = 2;
    dopts.round_hook = [this, &schedule](int64_t r) {
      Status st = schedule.OnRound(r, fleet_.get());
      ASSERT_TRUE(st.ok()) << st.ToString();
    };
    ExpectMatchesOracle(dopts, 5, num_nodes_ - 6,
                        "schedule " + schedule.ToString());
  }
  ASSERT_TRUE(fleet_->Heal().ok());
}

// Losing every replica of a shard is not silently absorbable: the query
// must come back as a *typed* Unavailable — promptly (bounded by the
// transport timeouts, not a hang) and with the failure visible in the
// resilience counters.
TEST_F(DistReplicaTest, AllReplicasDeadFailsTypedAndBounded) {
  ASSERT_TRUE(fleet_->Heal().ok());
  DistOptions dopts = ReplicatedOptions();
  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store_.get(), &finder, dopts).ok());

  for (int replica = 0; replica < kReplicas; replica++) {
    ASSERT_TRUE(fleet_->Kill(0, replica).ok());
  }
  DistPathResult got;
  const auto t0 = Clock::now();
  Status st = finder->Find(4, num_nodes_ - 5, &got);
  const int64_t elapsed_ms = MsSince(t0);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_LT(elapsed_ms, 30'000) << "all-dead shard must fail fast, not hang";
  ResilienceCounters rc = finder->coordinator()->Resilience();
  EXPECT_GT(rc.failures, 0);

  // Restarting the replicas restores service on the same coordinator.
  ASSERT_TRUE(fleet_->Heal().ok());
  DistPathResult want;
  ASSERT_TRUE(oracle_->Find(4, num_nodes_ - 5, &want).ok());
  ASSERT_TRUE(finder->Find(4, num_nodes_ - 5, &got).ok());
  EXPECT_EQ(got.distance, want.distance);
  EXPECT_EQ(got.path, want.path);
}

// Hedging: replica 0 of every shard answers 300 ms late; with a 50 ms
// hedge delay the router launches the backup request and takes its answer.
// Because shard responses are deterministic, the winner cannot change the
// result — only the hedges counter moves.
TEST_F(DistReplicaTest, SlowPrimaryTriggersHedgeWithoutChangingResults) {
  ASSERT_TRUE(fleet_->Heal().ok());
  for (int shard = 0; shard < kShards; shard++) {
    ASSERT_TRUE(fleet_->SetDelay(shard, 0, 300).ok());
  }
  DistOptions dopts = ReplicatedOptions();
  dopts.remote.request_timeout_ms = 10'000;  // the delay must not time out
  dopts.replica.hedge_delay_ms = 50;

  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store_.get(), &finder, dopts).ok());
  DistPathResult got, want;
  ASSERT_TRUE(finder->Find(6, num_nodes_ - 7, &got).ok());
  ASSERT_TRUE(oracle_->Find(6, num_nodes_ - 7, &want).ok());
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.distance, want.distance);
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.stats.rows_shipped, want.stats.rows_shipped);

  ResilienceCounters rc = finder->coordinator()->Resilience();
  EXPECT_GT(rc.hedges, 0) << "a 300ms-slow primary must trip a 50ms hedge";
  ASSERT_TRUE(fleet_->Heal().ok());
}

// A replica whose data is corrupted (every expand answered with a typed
// Corruption frame — what a replica that fails its page checksums at read
// time does) must cost failovers, never answers: with one intact replica
// per shard, 100% of queries must come back bit-identical to the all-local
// oracle, and the failover counter must show the corrupted replica was
// actually tried and routed around.
TEST_F(DistReplicaTest, CorruptedReplicaServesNothingButFailoverCoversIt) {
  ASSERT_TRUE(fleet_->Heal().ok());
  net::FaultSchedule schedule;
  for (int shard = 0; shard < kShards; shard++) {
    schedule.CorruptPage(1, shard, 0);  // replica 0 of every shard
  }
  DistOptions dopts = ReplicatedOptions();
  dopts.round_hook = [this, &schedule](int64_t r) {
    Status st = schedule.OnRound(r, fleet_.get());
    ASSERT_TRUE(st.ok()) << st.ToString();
  };
  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store_.get(), &finder, dopts).ok());

  int matched = 0;
  const int kQueries = 20;
  for (int q = 0; q < kQueries; q++) {
    const node_id_t s = 1 + q, t = num_nodes_ - 2 - q;
    DistPathResult got, want;
    Status st = finder->Find(s, t, &got);
    ASSERT_TRUE(st.ok()) << "query " << q << ": " << st.ToString();
    ASSERT_TRUE(oracle_->Find(s, t, &want).ok());
    EXPECT_EQ(got.found, want.found) << "query " << q;
    EXPECT_EQ(got.distance, want.distance) << "query " << q;
    EXPECT_EQ(got.path, want.path) << "query " << q;
    EXPECT_EQ(got.stats.rows_shipped, want.stats.rows_shipped)
        << "query " << q;
    EXPECT_EQ(got.stats.shard_statements, want.stats.shard_statements)
        << "query " << q;
    matched++;
  }
  EXPECT_EQ(matched, kQueries) << "corruption must cost 0% of queries";
  ResilienceCounters rc = finder->coordinator()->Resilience();
  EXPECT_GT(rc.failovers, 0)
      << "the corrupted replica was never tried — the schedule is inert";
  ASSERT_TRUE(fleet_->Heal().ok());
}

// The corruption schedule matrix, mirroring the kill matrix: corrupt every
// (shard, replica) right before every round the query executes; the
// answer must be the oracle's under all of them.
TEST_F(DistReplicaTest, CorruptMatrixNeverChangesResults) {
  const node_id_t s = 1, t = num_nodes_ - 1;
  DistPathResult want;
  ASSERT_TRUE(oracle_->Find(s, t, &want).ok());
  const int64_t rounds = want.stats.rounds;
  ASSERT_GE(rounds, 2);

  for (int shard = 0; shard < kShards; shard++) {
    for (int replica = 0; replica < kReplicas; replica++) {
      for (int64_t round = 1; round <= rounds; round++) {
        net::FaultSchedule schedule;
        schedule.CorruptPage(round, shard, replica);
        ASSERT_TRUE(fleet_->Heal().ok());
        DistOptions dopts = ReplicatedOptions();
        dopts.round_hook = [this, &schedule](int64_t r) {
          Status st = schedule.OnRound(r, fleet_.get());
          ASSERT_TRUE(st.ok()) << st.ToString();
        };
        ExpectMatchesOracle(dopts, s, t, "schedule " + schedule.ToString());
      }
    }
  }
  ASSERT_TRUE(fleet_->Heal().ok());
}

// Every replica of a shard corrupted: no intact copy exists, so the query
// must fail *typed* (the router's all-replicas-failed verdict carrying the
// Corruption), and healing must restore oracle-identical service on the
// same coordinator.
TEST_F(DistReplicaTest, AllReplicasCorruptFailsTypedThenHealRecovers) {
  ASSERT_TRUE(fleet_->Heal().ok());
  for (int replica = 0; replica < kReplicas; replica++) {
    ASSERT_TRUE(fleet_->Corrupt(0, replica).ok());
  }
  DistOptions dopts = ReplicatedOptions();
  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store_.get(), &finder, dopts).ok());
  DistPathResult got;
  Status st = finder->Find(4, num_nodes_ - 5, &got);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("Corruption"), std::string::npos)
      << "the typed cause must survive aggregation: " << st.ToString();

  ASSERT_TRUE(fleet_->Heal().ok());
  DistPathResult want;
  ASSERT_TRUE(oracle_->Find(4, num_nodes_ - 5, &want).ok());
  ASSERT_TRUE(finder->Find(4, num_nodes_ - 5, &got).ok());
  EXPECT_EQ(got.distance, want.distance);
  EXPECT_EQ(got.path, want.path);
}

// The background prober walks a replica dead -> (restart) -> healthy
// without any query traffic driving the transitions.
TEST_F(DistReplicaTest, ProberDetectsDeathAndRecovery) {
  ASSERT_TRUE(fleet_->Heal().ok());
  DistOptions dopts = ReplicatedOptions();
  dopts.replica.prober.probe_interval_ms = 50;
  dopts.replica.prober.suspect_after = 1;
  dopts.replica.prober.dead_after = 2;

  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store_.get(), &finder, dopts).ok());
  auto* replicated = static_cast<ReplicatedShardService*>(
      finder->coordinator()->shard_service(0));
  ASSERT_EQ(replicated->num_replicas(), static_cast<size_t>(kReplicas));
  ASSERT_NE(replicated->prober(), nullptr);

  auto wait_for_health = [&](size_t i, net::ReplicaHealth want) {
    const auto t0 = Clock::now();
    while (replicated->replica_health(i) != want && MsSince(t0) < 10'000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(replicated->replica_health(i), want)
        << "replica " << i << " never reached "
        << net::ReplicaHealthName(want);
  };

  ASSERT_TRUE(fleet_->Kill(0, 1).ok());
  wait_for_health(1, net::ReplicaHealth::kDead);

  // Queries keep working while the replica is down (routing avoids it)...
  DistPathResult got, want;
  ASSERT_TRUE(finder->Find(8, num_nodes_ - 9, &got).ok());
  ASSERT_TRUE(oracle_->Find(8, num_nodes_ - 9, &want).ok());
  EXPECT_EQ(got.distance, want.distance);

  // ...and the prober revives it after restart, no query needed.
  ASSERT_TRUE(fleet_->Restart(0, 1).ok());
  wait_for_health(1, net::ReplicaHealth::kHealthy);
  EXPECT_GT(finder->coordinator()->Resilience().probes, 0);
  ASSERT_TRUE(fleet_->Heal().ok());
}

}  // namespace
}  // namespace relgraph
