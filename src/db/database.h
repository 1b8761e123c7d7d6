#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>

#include "src/catalog/catalog.h"
#include "src/common/status.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"

namespace relgraph {

/// Feature profile of the underlying "RDBMS". The paper evaluates on a
/// commercial system (DBMS-X: window function + MERGE) and PostgreSQL 9.0
/// (window function, but MERGE landed only in PostgreSQL 15 — the paper
/// substitutes an update statement followed by an insert). The profile
/// gates which physical M-operator plan the FEM layer may build.
enum class EngineProfile {
  kDbmsX,
  kPostgres90,
};

struct DatabaseOptions {
  /// Buffer pool capacity in kPageSize pages (the paper's "buffer size").
  /// A cap, not an allocation: frames are created as pages need them.
  size_t buffer_pool_pages = 8192;  // at most 32 MiB
  /// Keep pages in anonymous memory instead of a file. Unit tests use this;
  /// benchmarks use file-backed storage.
  bool in_memory = true;
  /// Backing file for on-disk mode; empty picks a temp path.
  std::string path;
  EngineProfile profile = EngineProfile::kDbmsX;
  /// Per-physical-read busy-wait (µs) modelling a disk; see DiskManager.
  int64_t simulated_io_latency_us = 0;
  /// Per-statement busy-wait (µs) modelling the client/server round-trip
  /// the paper pays on every SQL statement (JDBC to DBMS-X/PostgreSQL).
  /// Our embedded engine has near-zero statement overhead, which shifts
  /// the set-at-a-time trade-off; this knob restores the paper's regime
  /// for the experiments that depend on it (Figure 7(c,d)).
  int64_t simulated_statement_latency_us = 0;
  /// Locks the buffer pool so multiple threads may *read* this database
  /// at once (writes still require external serialization). The
  /// distributed shard databases set this — their pages are served to
  /// pooled connections of concurrent query sessions. Off by default:
  /// single-session databases must not pay a lock per page access on the
  /// engine's hottest path.
  bool concurrent_readers = false;
};

/// Counters exposed to clients, mirroring what the paper's client reads
/// from the RDBMS side (statement counts stand in for JDBC round-trips,
/// affected-row counts stand in for SQLCA). `prepares` counts physical
/// plan constructions (initial compiles and catalog-version replans);
/// `plan_cache_hits` counts text-keyed plan-cache lookups that were
/// served without one. A steady-state client is parse-free exactly when
/// `prepares` stops moving while `statements` keeps counting.
///
/// The counters are atomics: a shard database serves many pooled
/// connections at once under the distributed coordinator, and every
/// connection's statements must count. Relaxed ordering — these are pure
/// tallies, nothing synchronizes on them.
struct DatabaseStats {
  std::atomic<int64_t> statements{0};
  std::atomic<int64_t> prepares{0};
  std::atomic<int64_t> plan_cache_hits{0};

  void Reset() {
    statements.store(0, std::memory_order_relaxed);
    prepares.store(0, std::memory_order_relaxed);
    plan_cache_hits.store(0, std::memory_order_relaxed);
  }
};

/// One embedded database instance: disk manager + buffer pool + catalog.
/// The paper's client/server split (Java client issuing SQL over JDBC)
/// becomes a library boundary: src/core is the "client" and may only touch
/// graph data through tables, executors, and DML statements of this engine.
class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions{});

  /// Attach constructor: wraps an already-open disk manager (e.g. a
  /// verified snapshot file opened with DiskManager::Open) instead of
  /// creating fresh storage. The catalog starts empty — the snapshot
  /// loader re-attaches tables from the manifest. `options.in_memory` and
  /// `options.path` are ignored in this form.
  Database(DatabaseOptions options, std::unique_ptr<DiskManager> disk);

  Catalog* catalog() { return catalog_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }
  const DatabaseOptions& options() const { return options_; }
  EngineProfile profile() const { return options_.profile; }

  /// True when the engine accepts the MERGE statement.
  bool SupportsMerge() const {
    return options_.profile == EngineProfile::kDbmsX;
  }

  /// Called by the FEM layer once per logical SQL statement issued.
  /// `sql_text` is a callable returning the SQL the statement corresponds
  /// to (the Listing 2/3/4 equivalents); it runs only while the log is
  /// enabled, so a client that builds its text there pays nothing for it
  /// otherwise. Empty text is not logged. Safe to call from concurrent
  /// connections (the counter is atomic and the log is mutex-guarded).
  template <typename TextFn>
    requires std::is_invocable_r_v<std::string, TextFn&>
  void RecordStatement(TextFn&& sql_text) {
    stats_.statements.fetch_add(1, std::memory_order_relaxed);
    if (log_enabled_ && max_log_entries_ > 0) AppendToLog(sql_text());
    MaybeSimulateStatementLatency();
  }
  /// A statement with no text to log.
  void RecordStatement() {
    RecordStatement([] { return std::string(); });
  }

  /// Keeps the SQL text of up to `max_entries` most recent statements —
  /// a trace of what the client would have sent over JDBC. Enable/disable
  /// and reading the log back are single-threaded setup/teardown
  /// operations; only RecordStatement() itself is concurrency-safe.
  void EnableStatementLog(size_t max_entries = 4096) {
    log_enabled_ = true;
    max_log_entries_ = max_entries;
  }
  void DisableStatementLog() {
    log_enabled_ = false;
    statement_log_.clear();
  }
  /// Oldest first. A full log drops its oldest entry per new one, in O(1).
  const std::deque<std::string>& statement_log() const {
    return statement_log_;
  }

  /// Called by the SQL layer once per physical plan construction / per
  /// plan-cache hit (see DatabaseStats).
  void RecordPrepare() {
    stats_.prepares.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordPlanCacheHit() {
    stats_.plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
  }

  const DatabaseStats& stats() const { return stats_; }
  void ResetStats();

 private:
  void MaybeSimulateStatementLatency();
  void AppendToLog(std::string sql);

  DatabaseOptions options_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  DatabaseStats stats_;
  bool log_enabled_ = false;
  size_t max_log_entries_ = 0;
  std::mutex log_mu_;
  std::deque<std::string> statement_log_;
};

}  // namespace relgraph
