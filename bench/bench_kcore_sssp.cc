// Experiment A4 — the Julienne bucketing extension: work-efficient
// bucketed algorithms versus their Ligra-only counterparts.
//   * k-core: bucketed peeling vs whole-set round peeling. Julienne shape:
//     bucketing wins when the core structure is deep (rMat), because round
//     peeling rescans all n vertices per sub-round.
//   * SSSP: Δ-stepping (several Δ) vs Bellman-Ford vs serial Dijkstra.
//
// Ends with one machine-readable line:
//   KCORE_JSON {"counters":{...},"gauges":{...},"histograms":{...}}
// Gauges, per input: kcore_micros{input,kernel="bucketed"|"rounds"} and
// kcore_steps{input,kernel} (buckets popped / sub-rounds), and
// sssp_micros{input,kernel="dijkstra"|"bellman_ford"|"delta_stepping"}
// with a delta label on the Δ-stepping cells. Every time is the best of
// five runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "apps/bellman_ford.h"
#include "apps/delta_stepping.h"
#include "apps/kcore.h"
#include "baseline/serial.h"
#include "bench/inputs.h"
#include "obs/metrics.h"
#include "util/table.h"
#include "util/timer.h"

using namespace ligra;

namespace {

constexpr int kRuns = 5;

// Every A4 number lands here; the KCORE_JSON line is its render_json().
obs::metrics_registry& a4_metrics() {
  static obs::metrics_registry reg;
  return reg;
}

void set_gauge(const std::string& name, int64_t v) {
  a4_metrics().get_gauge(name).set(v);
}

int64_t micros(double seconds) { return static_cast<int64_t>(seconds * 1e6); }

void print_kcore() {
  std::printf("\n=== A4: k-core — bucketed (Julienne) vs round peeling ===\n");
  table_printer t({"Input", "max core", "Bucketed (s)", "Rounds-based (s)",
                   "bucketed steps", "round steps"});
  for (const auto& in : bench::table1_inputs()) {
    // The two kernels alternate, so drift in the host's speed during the
    // runs reaches both sides alike.
    apps::kcore_result kb, kr;
    double tb = 0, tr = 0;
    for (int run = 0; run < kRuns; run++) {
      const double b = time_it([&] { kb = apps::kcore(in.g); });
      const double r = time_it([&] { kr = apps::kcore_rounds(in.g); });
      tb = run == 0 ? b : std::min(tb, b);
      tr = run == 0 ? r : std::min(tr, r);
    }
    if (kb.coreness != kr.coreness)
      std::printf("!! coreness mismatch on %s\n", in.name.c_str());
    const std::string input = "{input=\"" + in.name + "\",kernel=";
    set_gauge("kcore_micros" + input + "\"bucketed\"}", micros(tb));
    set_gauge("kcore_micros" + input + "\"rounds\"}", micros(tr));
    set_gauge("kcore_steps" + input + "\"bucketed\"}", static_cast<int64_t>(kb.num_rounds));
    set_gauge("kcore_steps" + input + "\"rounds\"}", static_cast<int64_t>(kr.num_rounds));
    t.add_row({in.name, std::to_string(kb.max_core), format_double(tb, 4),
               format_double(tr, 4), std::to_string(kb.num_rounds),
               std::to_string(kr.num_rounds)});
  }
  t.print();
}

void print_sssp() {
  std::printf("\n=== A4: SSSP — Δ-stepping vs Bellman-Ford vs serial Dijkstra "
              "(seconds) ===\n");
  table_printer t({"Input", "Dijkstra(serial)", "Bellman-Ford", "Δ=1", "Δ=4",
                   "Δ=16", "Δ=64"});
  for (const auto& [name, wg] : bench::weighted_inputs()) {
    std::vector<std::string> row = {name};
    const std::string input = "{input=\"" + name + "\",kernel=";
    auto cell = [&](const std::string& kernel, auto&& run) {
      const double secs = time_best_of(kRuns, run);
      set_gauge("sssp_micros" + input + kernel + "}", micros(secs));
      row.push_back(format_double(secs, 4));
    };
    cell("\"dijkstra\"", [&] { baseline::dijkstra(wg, 0); });
    cell("\"bellman_ford\"", [&] { apps::bellman_ford(wg, 0); });
    for (int64_t delta : {1, 4, 16, 64}) {
      cell("\"delta_stepping\",delta=\"" + std::to_string(delta) + "\"",
           [&] { apps::delta_stepping(wg, 0, delta); });
    }
    t.add_row(row);
  }
  t.print();
  std::printf("\n");
}

void BM_Kcore(benchmark::State& state, const char* input_name, bool bucketed) {
  const graph& g = bench::input_named(input_name);
  for (auto _ : state) {
    auto r = bucketed ? apps::kcore(g) : apps::kcore_rounds(g);
    benchmark::DoNotOptimize(r.max_core);
  }
}

void BM_DeltaStepping(benchmark::State& state) {
  const auto& wg = bench::weighted_inputs().back().second;  // rMat weighted
  for (auto _ : state) {
    auto r = apps::delta_stepping(wg, 0, state.range(0));
    benchmark::DoNotOptimize(r.num_buckets_processed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  print_kcore();
  print_sssp();
  benchmark::RegisterBenchmark("KCore/rMat/bucketed", BM_Kcore, "rMat", true)
      ->Unit(benchmark::kMillisecond)->Iterations(1);
  benchmark::RegisterBenchmark("KCore/rMat/rounds", BM_Kcore, "rMat", false)
      ->Unit(benchmark::kMillisecond)->Iterations(1);
  benchmark::RegisterBenchmark("DeltaStepping/rMat", BM_DeltaStepping)
      ->Arg(1)->Arg(16)->Arg(64)
      ->Unit(benchmark::kMillisecond)->Iterations(1);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("KCORE_JSON %s\n\n", a4_metrics().render_json().c_str());
  benchmark::Shutdown();
  return 0;
}
