// Shared harness of the repo benchmark (bench_suite): arguments, the metric
// report, the span tracer, latency statistics, counter snapshots and the
// MemGraph oracle check. Every workload measures the engine from outside:
// it times its own calls into each layer's public functions and reads the
// counters the engine already exposes.
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/path_finder.h"
#include "src/db/database.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double Sec(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Where file-backed databases live while the run lasts.
  std::string work_dir = ".";
  /// Chrome trace-event JSON written at exit; empty records no spans.
  std::string trace_path;
  /// Result JSON (every metric); empty prints the metrics only.
  std::string out_path;
};

/// Trials per run. Each trial sets the workload up afresh and then replays
/// the same seeded op sequence, from its start, for seconds / kTrials. An
/// op's latency is the best of its trials: on a shared machine, other
/// processes slow a run in bursts that last seconds, and the best of four
/// trials spread over the run filters them out. setup_s is the median of
/// the trials' set-ups, so first-in-process costs stay out of it.
constexpr int kTrials = 4;

/// Confines the calling thread, and every thread it starts, to one CPU for
/// this object's lifetime: trial t runs on the t-th CPU the process may use.
/// On a shared VM one vCPU can run a third slower than the others for
/// minutes, so each trial draws on another one. Confining a trial to one
/// CPU also keeps the wake-ups between its threads local (see
/// workload_dist.cc). The previous CPU mask comes back on destruction; if
/// the mask cannot be read or set, the trial runs unconfined.
class TrialCpu {
 public:
  explicit TrialCpu(int trial);
  ~TrialCpu();
  TrialCpu(const TrialCpu&) = delete;
  TrialCpu& operator=(const TrialCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Each workload's graph is a fixed data set of stated size, generated from
/// this constant. The run's seed draws everything sent to it: queries and
/// writes. Graph structure at these sizes varies too much between generator
/// seeds (label entries by +-20%, buffer misses per query by +-16%) for a
/// 25% regression bound to hold across seeds.
constexpr uint64_t kGraphSeed = 4242;

/// Independent input streams derived from the run's seed.
enum Stream : uint64_t {
  kQueryStream = 1,
  kWarmupStream = 2,
};
uint64_t StreamSeed(uint64_t seed, Stream stream);

/// A uniform s != t pair over [0, num_nodes).
std::pair<node_id_t, node_id_t> NextPair(Rng* rng, int64_t num_nodes);

/// The metrics of one run plus its op accounting. Every per-layer metric
/// exists from construction with value 0, so a layer a workload never
/// enters reads 0 instead of going missing.
class Report {
 public:
  Report();

  void Set(const std::string& name, double value, const char* unit);
  /// Records a wrong answer or a broken invariant; the run then fails.
  void Wrong(const std::string& what);
  bool correct() const { return wrong_ == 0; }

  /// One "name value unit" line per metric.
  void Print() const;
  std::string Json(const Args& args) const;

  int64_t attempted = 0;
  int64_t failed = 0;
  /// Wall time of the trials' timed phases.
  double timed_s = 0;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::atomic<int64_t> wrong_{0};
};

/// Counter deltas attached to a span as its args.
using SpanArgs = std::initializer_list<std::pair<const char*, double>>;

/// Records spans in memory and writes them as Chrome trace-event JSON
/// ("ph":"X" complete events; args carry the span id, parent id, request
/// id and counter deltas). A disabled tracer records nothing. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Span ids are allocated up front so a child recorded before its parent
  /// can name it.
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t id, int64_t parent, int64_t request, SpanArgs args = {});
  Status Write(const std::string& path) const;

  /// Time spent inside Record(): the tracer's own cost.
  double recording_s() const;

 private:
  struct Event {
    const char* name;
    double ts_us;
    double dur_us;
    int tid;
    int64_t id;
    int64_t parent;
    int64_t request;
    std::vector<std::pair<const char*, double>> args;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Event> events_;
  int64_t recording_ns_ = 0;
};

/// Nearest-rank percentile, p in (0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Mean(const std::vector<double>& v);

/// One op sequence's latencies in every trial, indexed by op.
class TrialLatencies {
 public:
  void Set(int trial, int64_t op, double ms);
  /// For each op that every trial reached, its best latency over the trials
  /// where it succeeded; NaN when it failed in all of them.
  std::vector<double> Best() const;

 private:
  std::vector<std::vector<double>> trials_ =
      std::vector<std::vector<double>>(kTrials);
};

/// The successful entries of Best() whose op index satisfies `keep`.
std::vector<double> BestOf(const std::vector<double>& best,
                           const std::function<bool(size_t)>& keep);

/// Process CPU time and peak resident memory across the trials: the
/// setup_rss_mb metric and the process.* metrics. Memory is taken at the
/// end of the first set-up: in-memory databases keep growing with every
/// query, so a later reading would grow with throughput and make a faster
/// engine look bigger.
class ProcessMeter {
 public:
  /// Call right after a trial's set-up.
  void BeginTrial();
  void EndTrial(int64_t ops);
  void ReportTo(Report* report) const;

 private:
  struct Sample {
    double cpu_s;
    double peak_rss_mb;
  };
  static Sample Now();

  int trials_ = 0;
  Sample begin_{};
  double setup_rss_mb_ = 0;
  double rss_growth_mb_ = 0;  // over the first trial
  int64_t first_trial_ops_ = 0;
  double cpu_s_ = 0;
  int64_t ops_ = 0;
};

/// Buffer-pool, disk and statement counters summed over databases. Read
/// between phases, when no query runs.
struct DbCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t dirty_writebacks = 0;
  int64_t disk_reads = 0;
  int64_t disk_writes = 0;
  int64_t statements = 0;
  int64_t prepares = 0;
  int64_t plan_cache_hits = 0;

  static DbCounters Of(const std::vector<Database*>& dbs);
  /// Adds the change from `before` to `after`.
  void AddDelta(const DbCounters& before, const DbCounters& after);
};

/// storage.* and sql.* metrics: the counter deltas of the trials, per op.
void ReportStorageAndSql(const DbCounters& delta, int64_t ops, Report* report);

/// The end-to-end latency metrics every workload reports: setup_s, and the
/// median, 95th percentile and mean of the ops' best latencies.
void ReportEndToEnd(const std::vector<double>& setup_s,
                    const std::vector<double>& best_ms, Report* report);

/// The QueryStats parts of full-path Find() calls, summed for core.*.
struct CoreTotals {
  int64_t finds = 0;
  double f_us = 0, e_us = 0, m_us = 0, aux_us = 0, recovery_us = 0;
  double wall_us = 0;
  double statements = 0, expansions = 0, visited_rows = 0, path_nodes = 0;

  /// Adds one call. The parts must add up: f+e+m+aux and f+e+m+recovery
  /// are each <= QueryStats.total_us <= the benchmark's wall time for the
  /// call (aux and recovery overlap by the meeting-node probe). Returns a
  /// description of the violation, or an empty string.
  std::string Add(const QueryStats& qs, double call_wall_us,
                  size_t path_nodes);
  void ReportTo(Report* report) const;
};

/// One answered query, kept for the oracle check after the timed phase.
struct Answer {
  int64_t op = 0;
  node_id_t s = 0;
  node_id_t t = 0;
  bool found = false;
  weight_t distance = kInfinity;
  bool with_path = false;
  std::vector<node_id_t> path;
};

/// Checks answers[begin, end) against the MemGraph Dijkstra oracle on
/// `graph`: reachability and distance must match, and a returned path must
/// be a walk from s to t whose PathLength is the distance. Runs on up to 4
/// threads (only ever after the timed phase) and reports each wrong answer
/// with the workload, op index and pair.
void CheckAnswers(const std::string& workload, const MemGraph& graph,
                  const std::vector<Answer>& answers, size_t begin, size_t end,
                  Report* report);

Status RunFemPaths(const Args& args, Tracer* tracer, Report* report);
Status RunFemPaged(const Args& args, Tracer* tracer, Report* report);
Status RunLabelServe(const Args& args, Tracer* tracer, Report* report);
Status RunDistPaths(const Args& args, Tracer* tracer, Report* report);

}  // namespace perfbench
}  // namespace relgraph
