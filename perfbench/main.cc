// End-to-end benchmark of the engine (README.md).
//
//   perfbench --workload <serve_mixed|serve_updates|analytics> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>] [--commit <id>]
//   perfbench --list-metrics
//
// Prints progress and provenance lines starting with '#', then, as the
// last line of standard output, one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1). Exits non-zero, printing no result, on bad arguments or
// when a workload cannot run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

void write_spans(const span_log& spans, const options& opts) {
  const std::string path = opts.workdir + "/spans-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".jsonl";
  spans.write_jsonl(path);
  std::printf("# spans: %zu written to %s\n", spans.size(), path.c_str());
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_mixed|serve_updates|analytics> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--commit <id>]\n       perfbench --list-metrics\n");
  return 2;
}

void list_metrics() {
  for (const perfbench::metric& m : perfbench::per_layer_catalog())
    std::printf("%s %s\n", m.name.c_str(), m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::options opts;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") opts.workload = v;
    else if (a == "--seed") opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") opts.seconds = std::atoi(v.c_str());
    else if (a == "--trace") opts.trace = v == "1";
    else if (a == "--workdir") opts.workdir = v;
    else if (a == "--commit") opts.commit = v;
    else return usage();
  }
  if (opts.seconds < 1) return usage();
  try {
    std::filesystem::create_directories(opts.workdir);
    perfbench::outcome out;
    if (opts.workload == "serve_mixed") out = perfbench::run_serve_mixed(opts);
    else if (opts.workload == "serve_updates") out = perfbench::run_serve_updates(opts);
    else if (opts.workload == "analytics") out = perfbench::run_analytics(opts);
    else return usage();
    perfbench::emit(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
