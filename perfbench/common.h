// Shared plumbing of the end-to-end benchmark (README.md): options, the
// result line, quantiles, process memory, provenance, and the benchmark's
// own span log.
//
// Every timer and counter the benchmark reports is taken here, outside the
// library, around its public calls; the library's own numbers (trace
// records, metrics histograms) are read back through its public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";  // working files, inside the checkout
  std::string commit = "unknown";
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload run reports: the correctness verdict, how many
// operations it attempted and how many failed (refused, errored or
// answered wrongly), and its metrics.
struct outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a wrong answer: it fails the correctness gate and counts as a
  // failed operation.
  void wrong(const std::string& what);
};

// Prints the result as the last line of standard output.
void emit(const outcome& out);

using bench_clock = std::chrono::steady_clock;

// Microseconds since process start on the steady clock (span timestamps).
double now_us();
double seconds_since(bench_clock::time_point t0);

// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty vector.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

// Prints one "# provenance {...}" line: commit, nproc, workers, L3 size,
// build type, seed, workload and the input scales.
void print_provenance(const options& opts, const std::string& scales);

// Spans the benchmark records around its calls into the library: name,
// start, end, the span that caused it and a per-request id shared by all
// spans of one request. Kept in memory; written out once at the end.
struct span {
  std::string name;
  uint64_t request = 0;
  int64_t parent = -1;  // index into the log, -1 for a root
  double start_us = 0.0;
  double end_us = 0.0;
};

class span_log {
 public:
  // Appends a closed span and returns its index (the parent handle for
  // spans it caused). Thread-safe.
  int64_t add(std::string name, uint64_t request, int64_t parent,
              double start_us, double end_us);
  size_t size() const;
  // Per span name: count, total time and self time (duration minus the
  // part of it that child spans cover), printed as "# span ..." lines.
  void print_summary(std::FILE* f) const;
  // One JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<span> spans_;
};

// Work-stealing scheduler activity (steals, parks) read through the
// library's scheduler collector; subtract two reads to get a phase's share.
struct scheduler_counts {
  double steals = 0.0;
  double parks = 0.0;
};
scheduler_counts read_scheduler_counts();

// Every per-layer metric name with its unit, in report order. A traced run
// prints all of them; a layer the workload does not exercise reads 0.
const std::vector<metric>& per_layer_catalog();
// Adds each catalog metric `out` lacks (as 0) and orders the metrics like
// the catalog. Throws std::logic_error on a name not in the catalog.
void complete_per_layer(outcome& out);

// The query kinds the serving workloads send, by their engine names, and
// the paper apps the analytics workload runs, with the two input names.
inline const std::vector<std::string> kServeKinds = {"bfs", "sssp", "cc",
                                                     "kcore", "pagerank"};
inline const std::vector<std::string> kApps = {
    "bfs", "bc", "radii", "cc", "pagerank", "bellman_ford", "kcore"};
inline const std::vector<std::string> kInputs = {"rmat", "grid"};

// Times `f` and returns its wall time in seconds.
template <class F>
double time_s(F&& f) {
  const auto t0 = bench_clock::now();
  f();
  return seconds_since(t0);
}

}  // namespace perfbench
