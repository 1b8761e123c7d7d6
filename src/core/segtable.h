#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/fem.h"
#include "src/db/database.h"
#include "src/graph/graph_store.h"

namespace relgraph {

/// How a SegTable is built. Its physical design is not an option: TOutSegs
/// and TInSegs are stored under the graph's IndexStrategy (Fig 8(c)), and
/// the construction's work tables, keyed on skey with an open tree on
/// (f, dist), under WorkingTableStrategy.
struct SegTableOptions {
  /// The index threshold l_thd (§4.2): every shortest segment with
  /// distance <= lthd is pre-computed.
  weight_t lthd = 5;
  SqlMode sql_mode = SqlMode::kNsql;
  /// Table-name prefix ("<prefix>TOutSegs", "<prefix>TInSegs", working
  /// tables). Must be unique per SegTable within one database.
  std::string prefix = "seg_";
};

/// Construction metrics reported by Figure 9: entry counts ("encoding
/// number"), wall-clock, iterations, statements, I/O.
struct SegTableBuildStats {
  int64_t out_entries = 0;
  int64_t in_entries = 0;
  int64_t iterations = 0;
  int64_t statements = 0;
  int64_t build_us = 0;
  int64_t buffer_misses = 0;
  int64_t disk_reads = 0;
};

/// The SegTable index (Definition 4): TOutSegs holds, for every node pair
/// (u,v) with shortest distance <= lthd, the tuple (u, v, pre(v), δ(u,v)),
/// plus every original edge (u,v,u,w) whose pair is not covered; TInSegs is
/// the symmetric incoming-direction copy. Both are built *through the FEM
/// framework itself* (§4.2 — construction is the paper's second showcase of
/// the framework): each direction's work table runs the F/E/M rounds, its
/// open set an OpenSet as each TVisited direction's is. Both are stored
/// under the base graph's index strategy.
class SegTable {
 public:
  static Status Build(Database* db, GraphStore* graph, SegTableOptions options,
                      std::unique_ptr<SegTable>* out,
                      SegTableBuildStats* stats = nullptr);

  /// Adjacency views for the BSEG path finder: forward joins TOutSegs on
  /// fid and emits (tid, pid); backward joins TInSegs on tid and emits
  /// (fid, pid).
  EdgeRelation Forward() const;
  EdgeRelation Backward() const;

  /// Incremental maintenance under edge insertion — the paper's §7 future
  /// work ("the pre-computed results, such as SegTable, should be
  /// maintained incrementally"). A new edge (u,v,w) can only create or
  /// improve segments of the form x ~> u -> v ~> y, and both halves'
  /// distances are existing SegTable entries (the edge cannot shorten
  /// them), so the delta is the join TInSegs(tid=u) x TOutSegs(fid=v)
  /// filtered to δ(x,u)+w+δ(v,y) <= lthd, merged into both tables. Call
  /// after GraphStore::AddEdge with the same edge. `changed` (optional)
  /// reports inserted+updated segment rows across both tables.
  Status ApplyEdgeInsertion(const Edge& edge, int64_t* changed = nullptr);

  /// Incremental maintenance under edge *deletion* (the other half of §7's
  /// future work). Call after GraphStore::RemoveEdge with the same edge.
  ///
  /// Only sources x that could route a <= lthd segment through (u,v) —
  /// i.e. δ_old(x,u) + w <= lthd, read straight off TInSegs at tid=u —
  /// can lose forward segments, so exactly those sources (plus u itself)
  /// get their TOutSegs rows recomputed on the updated base graph by the
  /// construction's own FEM rounds, seeded with only those sources; sinks
  /// are handled symmetrically on TInSegs. The work table is created and
  /// dropped as in Build. `changed` (optional) reports rows deleted +
  /// inserted across both tables.
  Status ApplyEdgeDeletion(GraphStore* graph, const Edge& edge,
                           int64_t* changed = nullptr);

  weight_t lthd() const { return options_.lthd; }
  int64_t num_out_entries() const { return out_segs_->num_rows(); }
  int64_t num_in_entries() const { return in_segs_->num_rows(); }
  Table* out_segs() const { return out_segs_; }
  Table* in_segs() const { return in_segs_; }

 private:
  SegTable() = default;

  /// Runs the bounded multi-source FEM expansion for one direction from
  /// `sources` (every node when null), folds in the sources' raw edges, and
  /// publishes the result into the final segs table, replacing the rows
  /// keyed on those sources. `rel` is the base graph's adjacency for that
  /// direction. `changed` (optional) is increased by the rows deleted and
  /// inserted.
  static Status BuildDirection(Database* db, GraphStore* graph,
                               const SegTableOptions& options,
                               const EdgeRelation& rel, bool forward,
                               const std::vector<node_id_t>* sources,
                               Table* final_table, SegTableBuildStats* stats,
                               int64_t* changed);

  Database* db_ = nullptr;
  SegTableOptions options_;
  Table* out_segs_ = nullptr;
  Table* in_segs_ = nullptr;
};

}  // namespace relgraph
