// bench_suite: runs the repo benchmark. One process runs one workload:
//
//   bench_suite --workload NAME --seed S [--seconds T] [--work-dir DIR]
//               [--trace FILE] [--out FILE]
//
// Workloads: fem_paths, fem_paged, label_serve, dist_paths (perfbench/
// README.md says what each runs and why). The run prints every metric by
// name with its unit and writes them as JSON to --out. --trace also records
// one span per layer call and writes them to FILE as Chrome trace-event
// JSON. Exit codes: 0 all answers right; 1 an answer disagreed with the
// MemGraph oracle or a timing breakdown did not add up; 2 usage or set-up
// error (no result is written).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/suite.h"

namespace {

using relgraph::Status;
using namespace relgraph::perfbench;

struct WorkloadEntry {
  const char* name;
  Status (*run)(const Args&, Tracer*, Report*);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"fem_paths", RunFemPaths},
    {"fem_paged", RunFemPaged},
    {"label_serve", RunLabelServe},
    {"dist_paths", RunDistPaths},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_suite: %s\nusage: bench_suite --workload NAME --seed S "
               "[--seconds T] [--work-dir DIR] [--trace FILE] [--out FILE]\n"
               "workloads: fem_paths fem_paged label_serve dist_paths\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      *error = std::string("missing value for ") + argv[i];
      return false;
    }
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') {
        *error = "bad --seed";
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0 && args->seconds <= 600)) {
        *error = "--seconds must be in (0, 600]";
        return false;
      }
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else if (flag == "--out") {
      args->out_path = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (args.workload == w.name) entry = &w;
  }
  if (entry == nullptr) return Usage("unknown or missing --workload");

  Tracer tracer(!args.trace_path.empty());
  Report report;
  Status st = entry->run(args, &tracer, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_suite %s: %s\n", entry->name,
                 st.ToString().c_str());
    return 2;
  }
  if (tracer.enabled()) {
    Status written = tracer.Write(args.trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "bench_suite: %s\n", written.ToString().c_str());
      return 2;
    }
  }
  report.Set("trace.overhead_pct",
             report.timed_s > 0 ? 100.0 * tracer.recording_s() / report.timed_s
                                : 0.0,
             "%");
  report.Print();
  if (!args.out_path.empty()) {
    const std::string json = report.Json(args);
    std::FILE* f = std::fopen(args.out_path.c_str(), "w");
    bool ok = f != nullptr;
    if (ok) ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    if (!ok) {
      std::fprintf(stderr, "bench_suite: cannot write %s\n",
                   args.out_path.c_str());
      return 2;
    }
  }
  if (!report.correct()) {
    std::fprintf(stderr, "bench_suite %s: wrong answers (see WRONG lines)\n",
                 entry->name);
    return 1;
  }
  return 0;
}
