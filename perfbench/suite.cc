#include "perfbench/suite.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace relgraph {
namespace perfbench {

namespace {

/// Every per-layer metric with its unit. Each run reports all of them; a
/// layer the workload never enters reads 0 (that workload is its control).
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.f_ms", "ms"},
    {"core.e_ms", "ms"},
    {"core.m_ms", "ms"},
    {"core.aux_ms", "ms"},
    {"core.recovery_ms", "ms"},
    {"core.residual_ms", "ms"},
    {"core.statements", "count"},
    {"core.expansions", "count"},
    {"core.visited_rows", "count"},
    {"core.path_yield", "1"},
    {"storage.hit_rate", "1"},
    {"storage.misses", "count"},
    {"storage.evictions", "count"},
    {"storage.dirty_writebacks", "count"},
    {"storage.disk_reads", "count"},
    {"storage.disk_writes", "count"},
    {"graph.load_s", "s"},
    {"graph.remove_edge_ms", "ms"},
    {"graph.add_edge_ms", "ms"},
    {"sql.statements", "count"},
    {"sql.prepares", "count"},
    {"sql.plan_cache_hits", "count"},
    {"labels.build_s", "s"},
    {"labels.build_statements", "count"},
    {"labels.build_rounds", "count"},
    {"labels.entries", "count"},
    {"labels.probe_us", "us"},
    {"labels.hit_rate", "1"},
    {"labels.path_fallbacks", "count"},
    {"labels.fallback_ms", "ms"},
    {"dist.serial_ms", "ms"},
    {"dist.rounds", "count"},
    {"dist.rows_shipped", "count"},
    {"dist.shard_statements", "count"},
    {"dist.coord_statements", "count"},
    {"net.requests_served", "count"},
    {"net.retries", "count"},
    {"net.failures", "count"},
    {"net.breaker_opens", "count"},
    {"net.sheds", "count"},
    {"ops.read_p50_ms", "ms"},
    {"ops.read_p99_ms", "ms"},
    {"ops.write_p50_ms", "ms"},
    {"ops.write_p95_ms", "ms"},
    {"ops.dist_p50_us", "us"},
    {"ops.dist_p99_us", "us"},
    {"process.cpu_ms_per_op", "ms"},
    {"process.rss_growth_kb_per_op", "KB"},
    {"trace.overhead_pct", "%"},
};

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out->push_back(c);
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  out->append(buf);
}

int ThreadNumber() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

}  // namespace

TrialCpu::TrialCpu(int trial) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int allowed = CPU_COUNT(&saved_);
  if (allowed == 0) return;
  int nth = trial % allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (!CPU_ISSET(cpu, &saved_) || nth-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

TrialCpu::~TrialCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

uint64_t StreamSeed(uint64_t seed, Stream stream) {
  return seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(stream);
}

std::pair<node_id_t, node_id_t> NextPair(Rng* rng, int64_t num_nodes) {
  for (;;) {
    node_id_t s = rng->NextInt(0, num_nodes - 1);
    node_id_t t = rng->NextInt(0, num_nodes - 1);
    if (s != t) return {s, t};
  }
}

// ------------------------------------------------------------------ Report

Report::Report() {
  for (const auto& [name, unit] : kLayerMetrics) {
    metrics_.push_back({name, 0.0, unit});
  }
}

void Report::Set(const std::string& name, double value, const char* unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Wrong(const std::string& what) {
  // The first few name the failures; the count covers the rest.
  if (wrong_.fetch_add(1) < 20) {
    std::fprintf(stderr, "WRONG %s\n", what.c_str());
  }
}

void Report::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-28s %16lld\n%-28s %16lld\n%-28s %16lld\n", "attempted",
              static_cast<long long>(attempted), "failed",
              static_cast<long long>(failed), "wrong",
              static_cast<long long>(wrong_.load()));
}

std::string Report::Json(const Args& args) const {
  std::string out = "{\"workload\": ";
  AppendQuoted(&out, args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": ";
  AppendNumber(&out, args.seconds);
  out += ", \"traced\": ";
  out += args.trace_path.empty() ? "false" : "true";
  out += ", \"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); i++) {
    if (i > 0) out += ", ";
    AppendQuoted(&out, metrics_[i].name);
    out += ": {\"value\": ";
    AppendNumber(&out, metrics_[i].value);
    out += ", \"unit\": ";
    AppendQuoted(&out, metrics_[i].unit);
    out += "}";
  }
  out += "}}\n";
  return out;
}

// ------------------------------------------------------------------ Tracer

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, int64_t id, int64_t parent,
                    int64_t request, SpanArgs args) {
  if (!enabled_) return;
  const Clock::time_point entered = Clock::now();
  Event e{name,    Us(start - origin_), Us(end - start), ThreadNumber(),
          id,      parent,              request,         {}};
  e.args.assign(args.begin(), args.end());
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
  recording_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - entered)
                       .count();
}

Status Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < events_.size(); i++) {
    const Event& e = events_[i];
    out += "{\"name\": ";
    AppendQuoted(&out, e.name);
    out += ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(e.tid);
    out += ", \"ts\": ";
    AppendNumber(&out, e.ts_us);
    out += ", \"dur\": ";
    AppendNumber(&out, e.dur_us);
    out += ", \"args\": {\"id\": " + std::to_string(e.id) +
           ", \"parent\": " + std::to_string(e.parent) +
           ", \"request\": " + std::to_string(e.request);
    for (const auto& [k, v] : e.args) {
      out += ", ";
      AppendQuoted(&out, k);
      out += ": ";
      AppendNumber(&out, v);
    }
    out += i + 1 < events_.size() ? "}},\n" : "}}\n";
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write trace " + path);
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  if (std::fclose(f) != 0 || !ok) {
    return Status::IOError("short write of trace " + path);
  }
  return Status::OK();
}

double Tracer::recording_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<double>(recording_ns_) / 1e9;
}

// -------------------------------------------------------------- statistics

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void TrialLatencies::Set(int trial, int64_t op, double ms) {
  std::vector<double>& t = trials_[trial];
  const size_t i = static_cast<size_t>(op);
  if (t.size() <= i) t.resize(i + 1, std::nan(""));
  t[i] = ms;
}

std::vector<double> TrialLatencies::Best() const {
  size_t common = trials_[0].size();
  for (const auto& t : trials_) common = std::min(common, t.size());
  std::vector<double> best(common, std::nan(""));
  for (size_t op = 0; op < common; op++) {
    for (const auto& t : trials_) {
      if (!std::isnan(t[op]) && !(t[op] >= best[op])) best[op] = t[op];
    }
  }
  return best;
}

std::vector<double> BestOf(const std::vector<double>& best,
                           const std::function<bool(size_t)>& keep) {
  std::vector<double> out;
  for (size_t op = 0; op < best.size(); op++) {
    if (!std::isnan(best[op]) && keep(op)) out.push_back(best[op]);
  }
  return out;
}

ProcessMeter::Sample ProcessMeter::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  // Peak RSS of this address space. ru_maxrss would do, but Linux carries
  // the pre-exec image's peak into it, so it reports the launcher's memory
  // (about 14 MB for run.py) whenever the workload needs less.
  double peak_kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &peak_kb) == 1) break;
    }
    std::fclose(f);
  }
  return {secs(ru.ru_utime) + secs(ru.ru_stime), peak_kb / 1024.0};
}

void ProcessMeter::BeginTrial() {
  begin_ = Now();
  if (trials_ == 0) setup_rss_mb_ = begin_.peak_rss_mb;
}

void ProcessMeter::EndTrial(int64_t ops) {
  const Sample end = Now();
  if (trials_ == 0) {
    rss_growth_mb_ = end.peak_rss_mb - begin_.peak_rss_mb;
    first_trial_ops_ = ops;
  }
  trials_++;
  cpu_s_ += end.cpu_s - begin_.cpu_s;
  ops_ += ops;
}

void ProcessMeter::ReportTo(Report* report) const {
  report->Set("setup_rss_mb", setup_rss_mb_, "MB");
  report->Set("process.cpu_ms_per_op",
              1e3 * cpu_s_ / static_cast<double>(std::max<int64_t>(ops_, 1)),
              "ms");
  report->Set("process.rss_growth_kb_per_op",
              1024.0 * rss_growth_mb_ /
                  static_cast<double>(std::max<int64_t>(first_trial_ops_, 1)),
              "KB");
}

// ---------------------------------------------------------------- counters

DbCounters DbCounters::Of(const std::vector<Database*>& dbs) {
  DbCounters c;
  for (Database* db : dbs) {
    const BufferPoolStats& bp = db->buffer_pool()->stats();
    const DiskStats& disk = db->disk()->stats();
    const DatabaseStats& st = db->stats();
    c.hits += bp.hits;
    c.misses += bp.misses;
    c.evictions += bp.evictions;
    c.dirty_writebacks += bp.dirty_writebacks;
    c.disk_reads += disk.reads;
    c.disk_writes += disk.writes;
    c.statements += st.statements.load(std::memory_order_relaxed);
    c.prepares += st.prepares.load(std::memory_order_relaxed);
    c.plan_cache_hits += st.plan_cache_hits.load(std::memory_order_relaxed);
  }
  return c;
}

void DbCounters::AddDelta(const DbCounters& before, const DbCounters& after) {
  hits += after.hits - before.hits;
  misses += after.misses - before.misses;
  evictions += after.evictions - before.evictions;
  dirty_writebacks += after.dirty_writebacks - before.dirty_writebacks;
  disk_reads += after.disk_reads - before.disk_reads;
  disk_writes += after.disk_writes - before.disk_writes;
  statements += after.statements - before.statements;
  prepares += after.prepares - before.prepares;
  plan_cache_hits += after.plan_cache_hits - before.plan_cache_hits;
}

void ReportStorageAndSql(const DbCounters& d, int64_t ops, Report* report) {
  const double n = static_cast<double>(std::max<int64_t>(ops, 1));
  const int64_t fetches = d.hits + d.misses;
  report->Set("storage.hit_rate",
              fetches == 0 ? 0.0 : static_cast<double>(d.hits) / fetches, "1");
  report->Set("storage.misses", d.misses / n, "count");
  report->Set("storage.evictions", d.evictions / n, "count");
  report->Set("storage.dirty_writebacks", d.dirty_writebacks / n, "count");
  report->Set("storage.disk_reads", d.disk_reads / n, "count");
  report->Set("storage.disk_writes", d.disk_writes / n, "count");
  report->Set("sql.statements", d.statements / n, "count");
  report->Set("sql.prepares", d.prepares / n, "count");
  report->Set("sql.plan_cache_hits", d.plan_cache_hits / n, "count");
}

void ReportEndToEnd(const std::vector<double>& setup_s,
                    const std::vector<double>& best_ms, Report* report) {
  const std::vector<double> ok = BestOf(best_ms, [](size_t) { return true; });
  report->Set("setup_s", Percentile(setup_s, 50), "s");
  report->Set("p50_ms", Percentile(ok, 50), "ms");
  report->Set("p95_ms", Percentile(ok, 95), "ms");
  report->Set("mean_ms", Mean(ok), "ms");
}

// --------------------------------------------------------------- core parts

std::string CoreTotals::Add(const QueryStats& qs, double call_wall_us,
                            size_t nodes) {
  // PathFinder::Find times FemEngine::MeetingNode in both aux and recovery,
  // so only the sums without that overlap are bounded by total_us.
  const int64_t fem = qs.f_operator_us + qs.e_operator_us + qs.m_operator_us;
  const int64_t parts =
      fem + std::max(qs.stat_collection_us, qs.path_recovery_us);
  finds++;
  f_us += static_cast<double>(qs.f_operator_us);
  e_us += static_cast<double>(qs.e_operator_us);
  m_us += static_cast<double>(qs.m_operator_us);
  aux_us += static_cast<double>(qs.stat_collection_us);
  recovery_us += static_cast<double>(qs.path_recovery_us);
  wall_us += call_wall_us;
  statements += static_cast<double>(qs.statements);
  expansions += static_cast<double>(qs.expansions);
  visited_rows += static_cast<double>(qs.visited_rows);
  path_nodes += static_cast<double>(nodes);
  if (parts > qs.total_us ||
      static_cast<double>(qs.total_us) > call_wall_us) {
    return "f+e+m+max(aux, recovery) " + std::to_string(parts) +
           " us, QueryStats.total_us " +
           std::to_string(qs.total_us) + " us, call wall " +
           std::to_string(call_wall_us) + " us";
  }
  return "";
}

void CoreTotals::ReportTo(Report* report) const {
  const double n = static_cast<double>(std::max<int64_t>(finds, 1));
  report->Set("core.f_ms", f_us / n / 1e3, "ms");
  report->Set("core.e_ms", e_us / n / 1e3, "ms");
  report->Set("core.m_ms", m_us / n / 1e3, "ms");
  report->Set("core.aux_ms", aux_us / n / 1e3, "ms");
  report->Set("core.recovery_ms", recovery_us / n / 1e3, "ms");
  report->Set("core.residual_ms",
              (wall_us - f_us - e_us - m_us - aux_us - recovery_us) / n / 1e3,
              "ms");
  report->Set("core.statements", statements / n, "count");
  report->Set("core.expansions", expansions / n, "count");
  report->Set("core.visited_rows", visited_rows / n, "count");
  report->Set("core.path_yield",
              visited_rows > 0 ? path_nodes / visited_rows : 0.0, "1");
}

// ------------------------------------------------------------------- oracle

namespace {

/// Runs fn(i) for i in [0, n) on up to 4 threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  const size_t threads = std::min<size_t>(
      {4, std::max(1u, std::thread::hardware_concurrency()), n});
  if (threads <= 1) {
    for (size_t i = 0; i < n; i++) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t w = 0; w < threads; w++) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

}  // namespace

void CheckAnswers(const std::string& workload, const MemGraph& graph,
                  const std::vector<Answer>& answers, size_t begin, size_t end,
                  Report* report) {
  ParallelFor(end - begin, [&](size_t k) {
    const Answer& a = answers[begin + k];
    const MemPathResult want = graph.Dijkstra(a.s, a.t);
    std::string why;
    if (a.found != want.found) {
      why = a.found ? "found a path the oracle does not have"
                    : "found no path, the oracle has one";
    } else if (a.found && a.distance != want.distance) {
      why = "distance " + std::to_string(a.distance) + ", oracle " +
            std::to_string(want.distance);
    } else if (a.found && a.with_path) {
      if (a.path.empty() || a.path.front() != a.s || a.path.back() != a.t) {
        why = "path does not run from s to t";
      } else if (graph.PathLength(a.path) != a.distance) {
        why = "path length " + std::to_string(graph.PathLength(a.path)) +
              " != distance " + std::to_string(a.distance);
      }
    }
    if (!why.empty()) {
      report->Wrong(workload + " op " + std::to_string(a.op) + " pair " +
                    std::to_string(a.s) + "->" + std::to_string(a.t) + ": " +
                    why);
    }
  });
}

}  // namespace perfbench
}  // namespace relgraph
