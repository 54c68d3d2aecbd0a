#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>
#include <sstream>
#include <thread>

#include "obs/collectors.h"
#include "obs/metrics.h"
#include "parallel/scheduler.h"

namespace perfbench {

namespace {

const bench_clock::time_point kProcessStart = bench_clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Shortest round-trip form, so every digit measured reaches the output.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

void outcome::wrong(const std::string& what) {
  if (failed < 3) std::fprintf(stderr, "perfbench: wrong answer: %s\n", what.c_str());
  correct = false;
  failed++;
}

void emit(const outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); i++) {
    const metric& m = out.metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + json_escape(m.name) + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  s += "}}";
  std::fflush(stderr);
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

double now_us() {
  return std::chrono::duration<double, std::micro>(bench_clock::now() -
                                                   kProcessStart)
      .count();
}

double seconds_since(bench_clock::time_point t0) {
  return std::chrono::duration<double>(bench_clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void print_provenance(const options& opts, const std::string& scales) {
  std::string l3 =
      read_first_line("/sys/devices/system/cpu/cpu0/cache/index3/size");
  if (l3.empty()) l3 = "unknown";
  std::printf(
      "# provenance {\"commit\": \"%s\", \"nproc\": %u, \"workers\": %d, "
      "\"l3\": \"%s\", \"build\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %d, \"trace\": %d, \"scales\": \"%s\"}\n",
      json_escape(opts.commit).c_str(), std::thread::hardware_concurrency(),
      ligra::parallel::num_workers(), json_escape(l3).c_str(),
      PERFBENCH_BUILD_TYPE, opts.workload.c_str(),
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0, json_escape(scales).c_str());
}

int64_t span_log::add(std::string name, uint64_t request, int64_t parent,
                      double start_us, double end_us) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({std::move(name), request, parent, start_us, end_us});
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t span_log::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

void span_log::print_summary(std::FILE* f) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); i++)
    if (spans_[i].parent >= 0)
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
  struct totals {
    uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, totals> by_name;
  for (size_t i = 0; i < spans_.size(); i++) {
    const span& s = spans_[i];
    // Union of the child intervals clipped to this span.
    std::vector<std::pair<double, double>> iv;
    for (size_t c : children[i])
      iv.emplace_back(std::max(s.start_us, spans_[c].start_us),
                      std::min(s.end_us, spans_[c].end_us));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (auto [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    totals& t = by_name[s.name];
    t.count++;
    t.total_us += s.end_us - s.start_us;
    t.self_us += s.end_us - s.start_us - covered;
  }
  for (const auto& [name, t] : by_name)
    std::fprintf(f, "# span %-22s count %8llu  total_ms %12.3f  self_ms %12.3f\n",
                 name.c_str(), static_cast<unsigned long long>(t.count),
                 t.total_us / 1e3, t.self_us / 1e3);
}

void span_log::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); i++) {
    const span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << json_escape(s.name)
        << "\",\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"start_us\":" << json_number(s.start_us)
        << ",\"end_us\":" << json_number(s.end_us) << "}\n";
  }
}

scheduler_counts read_scheduler_counts() {
  static ligra::obs::metrics_registry reg;
  static const uint64_t collector = ligra::obs::install_scheduler_collector(reg);
  (void)collector;
  reg.visit([](const std::string&, const ligra::obs::counter&) {},
            [](const std::string&, const ligra::obs::gauge&) {},
            [](const std::string&, const ligra::obs::histogram&) {});
  return {static_cast<double>(reg.get_gauge("scheduler_steals").value()),
          static_cast<double>(reg.get_gauge("scheduler_parks").value())};
}

const std::vector<metric>& per_layer_catalog() {
  static const std::vector<metric> catalog = [] {
    std::vector<metric> c;
    auto add = [&](const std::string& name, const char* unit) {
      c.push_back({name, 0.0, unit});
    };
    add("net.overhead_us_p50", "us");
    add("net.overhead_us_p99", "us");
    add("net.codec_us", "us");
    add("net.bytes_per_req", "bytes");
    add("engine.queue_wait_us_p50", "us");
    add("engine.queue_wait_us_p99", "us");
    for (const char* q : {"p50", "p99"})
      for (const auto& k : kServeKinds)
        add(std::string("engine.exec_us_") + q + "." + k, "us");
    add("engine.cache_hit_ratio", "ratio");
    add("engine.batch_width_mean", "count");
    add("engine.rejected", "count");
    add("engine.shed", "count");
    add("engine.update_us_p50", "us");
    add("engine.update_us_p99", "us");
    for (const auto& k : kServeKinds) add("apps." + k + "_us", "us");
    for (const auto& a : kApps)
      for (const auto& in : kInputs) add("apps." + a + "_s." + in, "s");
    for (const auto& a : kApps) add("baseline." + a + "_s", "s");
    for (const auto& a : kApps)
      for (const auto& in : kInputs) {
        add("ligra.rounds." + a + "." + in, "count");
        add("ligra.edges_scanned." + a + "." + in, "count");
        add("ligra.dense_round_share." + a + "." + in, "ratio");
        add("ligra.edge_map_us." + a + "." + in, "us");
      }
    for (const auto& in : kInputs) {
      add("ligra.kcore_steps." + in, "count");
      add("apps.kcore_rounds_s." + in, "s");
    }
    add("dynamic.apply_us", "us");
    add("dynamic.cc_inc_us", "us");
    add("dynamic.pr_inc_us", "us");
    add("dynamic.compactions", "count");
    add("dynamic.pr_inc_rel_err", "ratio");
    add("dynamic.wal_append_us_p99", "us");
    add("dynamic.fsync_us_p99", "us");
    add("dynamic.checkpoint_ms_p50", "ms");
    add("dynamic.overlay_bfs_us", "us");
    add("parallel.steals_per_s", "1/s");
    add("parallel.parks_per_s", "1/s");
    add("loadgen.update_p50_ms", "ms");
    add("loadgen.update_p99_ms", "ms");
    add("loadgen.lag_ms_p99", "ms");
    add("trace.qps_delta", "1/s");
    add("trace.latency_p99_delta_ms", "ms");
    return c;
  }();
  return catalog;
}

void complete_per_layer(outcome& out) {
  std::map<std::string, metric> have;
  for (const metric& m : out.metrics) {
    bool known = false;
    for (const metric& c : per_layer_catalog()) known = known || c.name == m.name;
    if (!known) throw std::logic_error("per-layer metric not in catalog: " + m.name);
    have[m.name] = m;
  }
  std::vector<metric> ordered;
  for (const metric& c : per_layer_catalog()) {
    auto it = have.find(c.name);
    ordered.push_back(it != have.end() ? it->second : c);
  }
  out.metrics = std::move(ordered);
}

}  // namespace perfbench
