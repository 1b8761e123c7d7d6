// LocalShardService failure paths: a failed Expand() must leave the
// response EMPTY (the error contract retries rely on — a partially filled
// response surviving a failed attempt double-counts edges and statements),
// and connection checkout must be bounded — an exhausted pool degrades to
// Status::Unavailable at the deadline instead of blocking the session
// forever. Then the shard's prune-and-combine step against an oracle: what
// it ships, through the coordinator's residual and dedup, must equal every
// adjacency row through the same residual and dedup.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/fem.h"
#include "src/dist/shard_service.h"
#include "src/dist/sharded_graph.h"
#include "src/exec/expression.h"
#include "src/exec/scan_executors.h"
#include "src/graph/generators.h"

namespace relgraph {
namespace {

/// A shard-0 frontier big enough that a mid-frontier fault leaves edges
/// already collected — the exact partial state the contract forbids
/// leaking.
std::vector<node_id_t> Shard0Frontier(const ShardedGraphStore& store,
                                      int64_t num_nodes, size_t want) {
  std::vector<node_id_t> nodes;
  for (node_id_t n = 0; n < num_nodes && nodes.size() < want; n++) {
    if (store.OwnerShard(n) == 0) nodes.push_back(n);
  }
  return nodes;
}

class LocalShardServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EdgeList list = GenerateBarabasiAlbert(80, 3, WeightRange{1, 20}, 19);
    num_nodes_ = list.num_nodes;
    ShardedGraphOptions sopts;
    sopts.num_shards = 2;
    ASSERT_TRUE(ShardedGraphStore::Create(list, sopts, &store_).ok());
  }

  std::unique_ptr<ShardedGraphStore> store_;
  int64_t num_nodes_ = 0;
};

// Regression for the partial-response leak: an Expand() failing after some
// frontier nodes were already probed used to return the edges collected so
// far alongside the error. The response must now come back
// default-constructed, and a retry after the fault clears must produce the
// same answer as a never-faulted run — nothing double-counted.
TEST_F(LocalShardServiceTest, FailedExpandLeavesResponseEmpty) {
  std::unique_ptr<LocalShardService> svc;
  ASSERT_TRUE(
      LocalShardService::Create(store_.get(), 0, LocalShardOptions{}, &svc)
          .ok());

  ShardExpandRequest req;
  req.forward = true;
  req.nodes = Shard0Frontier(*store_, num_nodes_, 8);
  ASSERT_GE(req.nodes.size(), 4u) << "graph too small for the scenario";

  // The clean answer first, from an identical service on the same shard.
  ShardExpandResponse want;
  ASSERT_TRUE(svc->Expand(req, &want).ok());
  ASSERT_FALSE(want.edges.empty()) << "frontier expanded to nothing";

  // Now fault the third probe: two nodes' edges are already in the
  // response when the failure hits.
  svc->InjectProbeFaultAfter(2);
  ShardExpandResponse got;
  Status st = svc->Expand(req, &got);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInternal) << st.ToString();
  EXPECT_TRUE(got.edges.empty())
      << got.edges.size() << " edges leaked out of a failed Expand";
  EXPECT_EQ(got, ShardExpandResponse{});

  // The retry path: clear the fault and re-send the same request into the
  // same (now non-empty) response object — the identical answer, not the
  // answer plus leftovers (elapsed_us is a measured clock, so compare the
  // deterministic fields).
  svc->ClearFaults();
  ASSERT_TRUE(svc->Expand(req, &got).ok());
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(got.statements, want.statements);
}

// Same contract on the NoIndex strategy, whose expansion is one batched
// scan rather than per-node probes.
TEST(LocalShardServiceNoIndex, FailedExpandLeavesResponseEmpty) {
  EdgeList list = GenerateBarabasiAlbert(60, 2, WeightRange{1, 10}, 7);
  ShardedGraphOptions sopts;
  sopts.num_shards = 1;
  sopts.strategy = IndexStrategy::kNoIndex;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, sopts, &store).ok());
  std::unique_ptr<LocalShardService> svc;
  ASSERT_TRUE(
      LocalShardService::Create(store.get(), 0, LocalShardOptions{}, &svc)
          .ok());

  ShardExpandRequest req;
  for (node_id_t n = 0; n < 8; n++) req.nodes.push_back(n);
  svc->InjectProbeFaultAfter(0);  // fail immediately
  ShardExpandResponse got;
  ASSERT_FALSE(svc->Expand(req, &got).ok());
  EXPECT_EQ(got, ShardExpandResponse{});
  svc->ClearFaults();
  ASSERT_TRUE(svc->Expand(req, &got).ok());
}

// Regression for unbounded CheckoutConn blocking: with the pool held empty
// by another holder, Expand() must give up with Unavailable once the
// checkout deadline passes — and succeed again as soon as a connection
// comes back.
TEST_F(LocalShardServiceTest, ExhaustedPoolDegradesToUnavailable) {
  LocalShardOptions opts;
  opts.connections = 1;
  opts.checkout_timeout_ms = 50;
  std::unique_ptr<LocalShardService> svc;
  ASSERT_TRUE(
      LocalShardService::Create(store_.get(), 0, opts, &svc).ok());
  ASSERT_EQ(svc->connections(), 1);

  void* held = nullptr;
  ASSERT_TRUE(svc->DebugCheckoutConn(&held).ok());

  ShardExpandRequest req;
  req.nodes = Shard0Frontier(*store_, num_nodes_, 4);
  ShardExpandResponse resp;
  const auto t0 = std::chrono::steady_clock::now();
  Status st = svc->Expand(req, &resp);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_GE(waited.count(), 50) << "returned before the deadline";
  EXPECT_EQ(resp, ShardExpandResponse{});

  // Returning the connection un-wedges the service immediately.
  svc->DebugReturnConn(held);
  EXPECT_TRUE(svc->Expand(req, &resp).ok());
  EXPECT_FALSE(resp.edges.empty());
}

// The waiting (not failing) side of the deadline: a checkout that starts
// blocked but sees the connection returned within the deadline completes
// normally.
TEST_F(LocalShardServiceTest, CheckoutWaitsForAReturnedConnection) {
  LocalShardOptions opts;
  opts.connections = 1;
  opts.checkout_timeout_ms = 5000;  // ample — must not be needed
  std::unique_ptr<LocalShardService> svc;
  ASSERT_TRUE(
      LocalShardService::Create(store_.get(), 0, opts, &svc).ok());

  void* held = nullptr;
  ASSERT_TRUE(svc->DebugCheckoutConn(&held).ok());
  std::thread returner([&svc, held] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    svc->DebugReturnConn(held);
  });

  ShardExpandRequest req;
  req.nodes = Shard0Frontier(*store_, num_nodes_, 4);
  ShardExpandResponse resp;
  EXPECT_TRUE(svc->Expand(req, &resp).ok());
  returner.join();
}

// ----- prune and combine against the unpruned oracle ----------------------

/// Every adjacency row of `nodes` on `shard`, read straight from the
/// shard's table in scan order: what a shard shipped before it pruned and
/// combined.
std::vector<ShippedEdge> AllRows(const ShardedGraphStore& store, int shard,
                                 bool forward,
                                 const std::vector<node_id_t>& nodes) {
  Table* table = forward ? store.out_edges(shard) : store.in_edges(shard);
  const std::set<node_id_t> wanted(nodes.begin(), nodes.end());
  std::vector<ShippedEdge> rows;
  Table::Iterator it = table->Scan();
  Tuple row;
  while (it.Next(&row, nullptr)) {
    const node_id_t fid = row.value(0).AsInt();
    const node_id_t tid = row.value(1).AsInt();
    const node_id_t frontier = forward ? fid : tid;
    if (wanted.count(frontier) == 0) continue;
    rows.push_back({frontier, forward ? tid : fid, row.value(2).AsInt()});
  }
  EXPECT_TRUE(it.status().ok()) << it.status().ToString();
  return rows;
}

/// The coordinator's side of one expansion: `rows` as (nid, cost, pid)
/// with cost = dist + edge cost, through the Theorem-1 residual
/// cost + l < min_cost, then DedupLeast on (cost, pid) per nid.
std::vector<Tuple> CoordinatorRows(SqlMode mode,
                                   const std::vector<ShippedEdge>& rows,
                                   const std::map<node_id_t, weight_t>& dist,
                                   weight_t l, weight_t min_cost) {
  const Schema schema(
      {{"nid", TypeId::kInt}, {"cost", TypeId::kInt}, {"pid", TypeId::kInt}});
  std::vector<Tuple> tuples;
  for (const ShippedEdge& e : rows) {
    tuples.push_back(Tuple({Value(e.emit_node),
                            Value(dist.at(e.frontier_node) + e.cost),
                            Value(e.frontier_node)}));
  }
  DedupLeast dedup(
      mode,
      [&] {
        return ExecRef(std::make_unique<FilterExecutor>(
            std::make_unique<MaterializedExecutor>(tuples, schema),
            Cmp(CompareOp::kLt, Add(Col("cost"), Lit(l)), Lit(min_cost))));
      },
      "nid", "cost", "pid");
  Status st = dedup.Run();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return std::vector<Tuple>(dedup.rows().begin(),
                            dedup.rows().begin() + dedup.size());
}

std::string Show(const std::vector<Tuple>& rows) {
  std::string out;
  for (const Tuple& t : rows) {
    out.append("(")
        .append(std::to_string(t.value(0).AsInt()))
        .append(",")
        .append(std::to_string(t.value(1).AsInt()))
        .append(",")
        .append(std::to_string(t.value(2).AsInt()))
        .append(") ");
  }
  return out;
}

class ShardPruneCombineTest
    : public ::testing::TestWithParam<IndexStrategy> {};

// Seeded frontiers with seeded distances on a graph built for ties: edge
// costs in [1, 3], distances in [0, 3], and every fifth edge doubled (an
// exact duplicate row) or paralleled at another cost. Each frontier is
// sent with three kinds of bound — kInfinity - l (no s-t path yet), a
// tight one cutting through the middle of the row totals, and a negative
// one — in both directions, on both shards.
TEST_P(ShardPruneCombineTest, ShipsWhatTheCoordinatorWouldKeep) {
  EdgeList list = GenerateBarabasiAlbert(160, 3, WeightRange{1, 3}, 41);
  const size_t base_edges = list.edges.size();
  for (size_t i = 0; i < base_edges; i += 5) {
    Edge twin = list.edges[i];
    if (i % 10 != 0) twin.weight = twin.weight % 3 + 1;
    list.edges.push_back(twin);
  }
  ShardedGraphOptions sopts;
  sopts.num_shards = 2;
  sopts.strategy = GetParam();
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, sopts, &store).ok());

  Rng rng(20261018);
  int checked = 0, pruned_somewhere = 0, combined_somewhere = 0;
  for (int shard = 0; shard < 2; shard++) {
    std::unique_ptr<LocalShardService> svc;
    ASSERT_TRUE(
        LocalShardService::Create(store.get(), shard, LocalShardOptions{},
                                  &svc)
            .ok());
    std::vector<node_id_t> owned;
    for (node_id_t n = 0; n < list.num_nodes; n++) {
      if (store->OwnerShard(n) == shard) owned.push_back(n);
    }
    for (int round = 0; round < 12; round++) {
      ShardExpandRequest req;
      req.forward = round % 2 == 0;
      std::map<node_id_t, weight_t> dist;
      for (node_id_t n : owned) {
        if (rng.NextBounded(3) != 0) continue;
        req.nodes.push_back(n);
        req.dists.push_back(rng.NextInt(0, 3));
        dist[n] = req.dists.back();
      }
      const std::vector<ShippedEdge> all =
          AllRows(*store, shard, req.forward, req.nodes);
      std::vector<weight_t> totals;
      for (const ShippedEdge& e : all) {
        totals.push_back(dist[e.frontier_node] + e.cost);
      }
      std::sort(totals.begin(), totals.end());
      const weight_t l = rng.NextInt(0, 4);
      const weight_t tight_min_cost =
          totals.empty() ? l : totals[totals.size() / 2] + l;
      // (l, min_cost) pairs; the shard gets bound = min_cost - l.
      const std::pair<weight_t, weight_t> kBounds[] = {
          {l, kInfinity}, {l, tight_min_cost}, {l + 5, 2}};
      for (const auto& [opposite_l, min_cost] : kBounds) {
        req.bound = min_cost - opposite_l;
        ShardExpandResponse got;
        ASSERT_TRUE(svc->Expand(req, &got).ok());
        const std::string at = "shard " + std::to_string(shard) + " round " +
                               std::to_string(round) + " bound " +
                               std::to_string(req.bound);

        // At most one row per emitted node, each inside the bound and one
        // of the shard's real rows.
        std::set<node_id_t> emitted;
        for (const ShippedEdge& e : got.edges) {
          EXPECT_TRUE(emitted.insert(e.emit_node).second)
              << at << ": node " << e.emit_node << " shipped twice";
          ASSERT_TRUE(dist.count(e.frontier_node)) << at;
          EXPECT_LT(dist[e.frontier_node] + e.cost, req.bound) << at;
          EXPECT_NE(std::find(all.begin(), all.end(), e), all.end())
              << at << ": shipped a row the shard does not hold";
        }
        const size_t inside = static_cast<size_t>(std::count_if(
            all.begin(), all.end(), [&](const ShippedEdge& e) {
              return dist[e.frontier_node] + e.cost < req.bound;
            }));
        if (inside < all.size()) pruned_somewhere++;
        if (got.edges.size() < inside) combined_somewhere++;
        if (req.bound < 0) {
          EXPECT_TRUE(got.edges.empty()) << at;
        }

        // Through the coordinator, the pruned rows and all rows agree.
        for (SqlMode mode : {SqlMode::kNsql, SqlMode::kTsql}) {
          const std::vector<Tuple> want =
              CoordinatorRows(mode, all, dist, opposite_l, min_cost);
          const std::vector<Tuple> have =
              CoordinatorRows(mode, got.edges, dist, opposite_l, min_cost);
          EXPECT_EQ(Show(have), Show(want)) << at << " " << SqlModeName(mode);
        }
        checked++;
      }
    }
  }
  EXPECT_EQ(checked, 2 * 12 * 3);
  EXPECT_GT(pruned_somewhere, 0);
  EXPECT_GT(combined_somewhere, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ShardPruneCombineTest,
    ::testing::Values(IndexStrategy::kNoIndex, IndexStrategy::kCluIndex,
                      IndexStrategy::kIndex),
    [](const ::testing::TestParamInfo<IndexStrategy>& info) {
      return std::string(IndexStrategyName(info.param));
    });

}  // namespace
}  // namespace relgraph
