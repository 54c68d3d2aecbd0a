// Dynamic-graph update benchmark (docs/DYNAMIC.md).
//
// Two experiments over the Table 1 inputs:
//
//   1. Update throughput — batches of random inserts/deletes chained
//      through `mutable_graph::apply` (store only) and through
//      `registry::apply_updates` (full epoch publish: apply + incremental
//      CC + registry swap). Reported as updates/sec.
//
//   2. Incremental vs full recompute — for batches at ~0.5% of the edge
//      count, `components_inc` / `pagerank_delta_inc` seeded from the
//      batch's effective edges against `connected_components` /
//      `pagerank_delta` on the pre-materialized merged CSR. The full side
//      is NOT charged for materialization, so the reported speedup is a
//      lower bound on the real win.
//
// Ends with one machine-readable line:
//   DYNAMIC_JSON {"counters":{...},"gauges":{...},"histograms":{...}}
// Gauges carry updates/sec and speedup ×1000 (gauges are integral);
// histograms carry the raw per-round microsecond timings, so consumers can
// recompute ratios from `mean` if they prefer.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/components.h"
#include "apps/pagerank.h"
#include "bench/inputs.h"
#include "dynamic/incremental.h"
#include "dynamic/mutable_graph.h"
#include "dynamic/update_batch.h"
#include "engine/registry.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

using namespace ligra;
namespace dyn = ligra::dynamic;

namespace {

// Every timing lands in this registry; the DYNAMIC_JSON line at the end is
// its render_json().
obs::metrics_registry& dynamic_metrics() {
  static obs::metrics_registry reg;
  return reg;
}

// A batch of `n_ins` random absent-edge inserts and `n_del` random
// present-edge deletes against the live view `g`. Inserts avoid the delete
// set (normalize_batch rejects insert/delete conflicts) and deletes avoid
// repeats, so the batch is effective by construction.
dyn::update_batch random_batch(const dyn::mutable_graph& g, size_t n_ins,
                               size_t n_del, uint64_t seed) {
  const vertex_id n = g.num_vertices();
  rng r(seed);
  uint64_t i = 0;
  dyn::update_batch b;

  auto canon = [](vertex_id u, vertex_id v) {
    return std::pair<vertex_id, vertex_id>(std::min(u, v), std::max(u, v));
  };
  std::vector<std::pair<vertex_id, vertex_id>> dels;
  while (b.deletes.size() < n_del && i < 64 * (n_del + 1)) {
    vertex_id u = static_cast<vertex_id>(r.bounded(i++, n));
    const size_t deg = g.out_degree(u);
    if (deg == 0) continue;
    const size_t pick = r.bounded(i++, deg);
    vertex_id v = kNoVertex;
    g.decode_out(u, [&](vertex_id ngh, empty_weight, size_t j) {
      if (j == pick) {
        v = ngh;
        return false;
      }
      return true;
    });
    if (v == kNoVertex || v == u) continue;
    auto c = canon(u, v);
    if (std::find(dels.begin(), dels.end(), c) != dels.end()) continue;
    dels.push_back(c);
    b.deletes.emplace_back(c.first, c.second);
  }
  while (b.inserts.size() < n_ins && i < 64 * (n_ins + 1) + 64 * (n_del + 1)) {
    vertex_id u = static_cast<vertex_id>(r.bounded(i++, n));
    vertex_id v = static_cast<vertex_id>(r.bounded(i++, n));
    if (u == v || g.has_edge(u, v)) continue;
    auto c = canon(u, v);
    if (std::find(dels.begin(), dels.end(), c) != dels.end()) continue;
    b.inserts.emplace_back(c.first, c.second);
  }
  return b;
}

// Batch sizes as a fraction of the undirected edge count, split evenly
// between inserts and deletes (floor of 16 updates so tiny
// LIGRA_BENCH_SCALE runs still measure something).
size_t batch_updates(const dyn::mutable_graph& g, double frac) {
  const double und = static_cast<double>(g.num_edges()) / 2.0;
  return std::max<size_t>(16, static_cast<size_t>(und * frac));
}

void record_micros(const std::string& name, double seconds) {
  dynamic_metrics().get_histogram(name).record(
      static_cast<uint64_t>(seconds * 1e6));
}

// --- experiment 1: update throughput ---------------------------------------

constexpr int kThroughputBatches = 6;

void run_throughput_experiment() {
  table_printer t({"Input", "Batch", "Store apply (upd/s)",
                   "Epoch publish (upd/s)"});
  for (const auto& in : bench::table1_inputs()) {
    dyn::mutable_graph head{graph(in.g)};
    const size_t upd = batch_updates(head, 0.005);

    // Store only: chained functional applies, no analytics refresh.
    size_t applied_updates = 0;
    double store_secs = 0;
    for (int b = 0; b < kThroughputBatches; b++) {
      dyn::update_batch batch =
          random_batch(head, upd / 2, upd - upd / 2, 0x51u + b);
      applied_updates += batch.size();
      double s = time_it([&] {
        dyn::applied ap = head.apply(std::move(batch));
        head = std::move(ap.next);
      });
      store_secs += s;
      record_micros("dynamic_apply_micros{path=\"store\",input=\"" + in.name +
                        "\"}",
                    s);
    }
    const double store_rate = applied_updates / store_secs;

    // Epoch publish: the registry's whole write path — apply, incremental
    // CC + PageRank, entry swap, metrics.
    engine::registry reg;
    reg.add_mutable("bench", graph(in.g));
    size_t epoch_updates = 0;
    double epoch_secs = 0;
    for (int b = 0; b < kThroughputBatches; b++) {
      dyn::update_batch batch = random_batch(*reg.get("bench")->dyn(), upd / 2,
                                             upd - upd / 2, 0x51u + b);
      epoch_updates += batch.size();
      double s = time_it([&] { reg.apply_updates("bench", batch); });
      epoch_secs += s;
      record_micros("dynamic_apply_micros{path=\"epoch\",input=\"" + in.name +
                        "\"}",
                    s);
    }
    const double epoch_rate = epoch_updates / epoch_secs;

    dynamic_metrics()
        .get_gauge("dynamic_updates_per_sec{path=\"store\",input=\"" +
                   in.name + "\"}")
        .set(static_cast<int64_t>(store_rate));
    dynamic_metrics()
        .get_gauge("dynamic_updates_per_sec{path=\"epoch\",input=\"" +
                   in.name + "\"}")
        .set(static_cast<int64_t>(epoch_rate));
    t.add_row({in.name, std::to_string(upd),
               std::to_string(static_cast<int64_t>(store_rate)),
               std::to_string(static_cast<int64_t>(epoch_rate))});
  }
  std::printf("Update throughput (%d batches, ~0.5%% of edges each)\n",
              kThroughputBatches);
  t.print();
}

// --- experiment 2: incremental vs full recompute ----------------------------

constexpr int kIncRounds = 3;

std::string fmt_ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", seconds * 1e3);
  return buf;
}

std::string fmt_x(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1fx", ratio);
  return buf;
}

// Batch fractions swept: incremental recompute is batch-proportional, full
// recompute is graph-proportional, so the win grows as batches shrink.
struct batch_frac {
  double frac;
  const char* label;
};
constexpr batch_frac kFracs[] = {{0.001, "0.1%"}, {0.01, "1%"}};

void run_incremental_experiment() {
  table_printer t({"Input", "Frac", "Batch", "CC inc (ms)", "CC full (ms)",
                   "CC", "PR inc (ms)", "PR full (ms)", "PR"});
  for (const auto& in : bench::table1_inputs()) {
    for (const batch_frac& bf : kFracs) {
      dyn::mutable_graph head{graph(in.g)};
      apps::components_result cc = apps::connected_components(head.base());
      apps::pagerank_result pr =
          apps::pagerank_delta(head.base(), dyn::maintenance_pr_options());
      const size_t upd = batch_updates(head, bf.frac);
      const std::string labels =
          "input=\"" + in.name + "\",batch=\"" + bf.label + "\"}";

      double cc_inc_secs = 0, cc_full_secs = 0;
      double pr_inc_secs = 0, pr_full_secs = 0;
      for (int round = 0; round < kIncRounds; round++) {
        dyn::update_batch batch =
            random_batch(head, upd / 2, upd - upd / 2, 0xD1u + round);
        dyn::applied ap = head.apply(std::move(batch));

        apps::components_result cc_next;
        double s = time_it([&] {
          cc_next = dyn::components_inc(ap.next, cc.labels, ap.inserted,
                                        ap.deleted);
        });
        cc_inc_secs += s;
        record_micros("dynamic_cc_micros{mode=\"incremental\"," + labels, s);

        apps::pagerank_result pr_next;
        s = time_it([&] {
          pr_next = dyn::pagerank_delta_inc(ap.next, head, pr.rank,
                                            ap.inserted, ap.deleted);
        });
        pr_inc_secs += s;
        record_micros("dynamic_pr_micros{mode=\"incremental\"," + labels, s);

        // Full recompute runs on the merged CSR; materialization is untimed
        // (charged to neither side), which favors the full baseline.
        graph merged = ap.next.materialize();
        s = time_it([&] { apps::connected_components(merged); });
        cc_full_secs += s;
        record_micros("dynamic_cc_micros{mode=\"full\"," + labels, s);
        s = time_it([&] {
          apps::pagerank_delta(merged, dyn::maintenance_pr_options());
        });
        pr_full_secs += s;
        record_micros("dynamic_pr_micros{mode=\"full\"," + labels, s);

        head = std::move(ap.next);
        cc = std::move(cc_next);
        pr = std::move(pr_next);
      }

      const double cc_speedup = cc_full_secs / cc_inc_secs;
      const double pr_speedup = pr_full_secs / pr_inc_secs;
      dynamic_metrics()
          .get_gauge("dynamic_cc_speedup_x1000{" + labels)
          .set(static_cast<int64_t>(cc_speedup * 1000));
      dynamic_metrics()
          .get_gauge("dynamic_pr_speedup_x1000{" + labels)
          .set(static_cast<int64_t>(pr_speedup * 1000));
      t.add_row({in.name, bf.label, std::to_string(upd),
                 fmt_ms(cc_inc_secs / kIncRounds),
                 fmt_ms(cc_full_secs / kIncRounds), fmt_x(cc_speedup),
                 fmt_ms(pr_inc_secs / kIncRounds),
                 fmt_ms(pr_full_secs / kIncRounds), fmt_x(pr_speedup)});
    }
  }
  std::printf("Incremental vs full recompute (avg of %d rounds)\n",
              kIncRounds);
  t.print();
}

// --- google-benchmark registration (interactive use) ------------------------

void BM_ApplyBatch(benchmark::State& state, const bench::input& in) {
  dyn::mutable_graph head{graph(in.g)};
  const size_t upd = batch_updates(head, 0.005);
  uint64_t seed = 0xBE;
  for (auto _ : state) {
    state.PauseTiming();
    dyn::update_batch batch =
        random_batch(head, upd / 2, upd - upd / 2, seed++);
    state.ResumeTiming();
    dyn::applied ap = head.apply(std::move(batch));
    state.PauseTiming();
    head = std::move(ap.next);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(upd));
}

void register_benchmarks() {
  for (const auto& in : bench::table1_inputs()) {
    benchmark::RegisterBenchmark(("dynamic/apply/" + in.name).c_str(),
                                 BM_ApplyBatch, in);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  run_throughput_experiment();
  run_incremental_experiment();
  register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  // One line, machine-readable: throughput, speedups, raw timings.
  std::printf("DYNAMIC_JSON %s\n\n", dynamic_metrics().render_json().c_str());
  benchmark::Shutdown();
  return 0;
}
