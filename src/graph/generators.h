#pragma once

#include <cstdint>

#include "src/graph/memgraph.h"

namespace relgraph {

/// Graph generators for the paper's workloads (§5.1 "Data Sets"). Weights
/// are always drawn uniformly from [weight_lo, weight_hi]; the paper uses
/// [1,100] everywhere.
struct WeightRange {
  weight_t lo = 1;
  weight_t hi = 100;
};

/// Paper's Random graphs: "we randomly select the source and target node
/// for m times among n nodes" — m independent uniform edges (self-loops
/// excluded, duplicates allowed, directed).
EdgeList GenerateRandomGraph(int64_t n, int64_t m, WeightRange weights,
                             uint64_t seed);

/// Paper's Power graphs (Barabási Graph Generator): preferential-attachment
/// scale-free graph where each new node attaches `degree` out-edges to
/// existing nodes with probability proportional to their current degree.
/// Edges are emitted in both directions (the generator's graphs are
/// undirected; storing both directions matches a symmetric TEdges).
EdgeList GenerateBarabasiAlbert(int64_t n, int64_t degree, WeightRange weights,
                                uint64_t seed);

/// Community-structured graph standing in for DBLP (dense intra-community
/// collaboration, sparse inter-community links). Undirected (both
/// directions stored).
EdgeList GenerateCommunityGraph(int64_t n, int64_t avg_degree,
                                int64_t num_communities, double intra_fraction,
                                WeightRange weights, uint64_t seed);

/// 4-neighbour grid standing in for a road network (used by examples).
EdgeList GenerateGridGraph(int64_t rows, int64_t cols, WeightRange weights,
                           uint64_t seed);

/// Named stand-ins for the paper's real datasets, scaled by `scale` in
/// (0, 1]: scale=1 approximates the original node count. Each keeps the
/// dataset's topology class and average degree, not its edges: DBLP is a
/// community graph, GoogleWeb and LiveJournal are power-law graphs.
EdgeList MakeDblpStandIn(double scale, uint64_t seed);
EdgeList MakeGoogleWebStandIn(double scale, uint64_t seed);
EdgeList MakeLiveJournalStandIn(double scale, uint64_t seed);

}  // namespace relgraph
