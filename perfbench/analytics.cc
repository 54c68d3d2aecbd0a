// Workload `analytics`: the paper's applications called in process on its
// Table 1 generators (rMat and 3d-grid at scale 18), with no engine and no
// network, checked against the serial oracles of src/baseline.
#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/apps.h"
#include "baseline/serial.h"
#include "common.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace ligra;

namespace {

constexpr int kScale = 18;
constexpr vertex_id kGridSide = 64;  // 262144 vertices, like rMat at 18
constexpr int kRadiiSamples = 64;
constexpr int kSetups = 3;
// PageRank: two power iterations stopped at an L1 change below 1e-7 agree
// to far better than this per vertex.
constexpr double kRankTolerance = 1e-6;

struct input {
  std::string name;
  graph g;
  wgraph wg;  // weights uniform in [1, kScale], as in the paper's BF runs
  vertex_id source = 0;
};

// The expected outputs of every app on one input, from the serial code.
struct oracle {
  std::vector<int64_t> levels;
  std::vector<double> dependency;
  std::vector<int64_t> radii;
  std::vector<vertex_id> labels;
  std::vector<double> rank;
  std::vector<int64_t> dist;
  std::vector<vertex_id> core;
  std::vector<double> seconds;  // per app, the oracle's own time
};

std::vector<input> make_inputs(uint64_t seed) {
  std::vector<input> in(2);
  in[0].name = "rmat";
  in[0].g = gen::rmat_graph(kScale, edge_id{16} << kScale, seed);
  in[1].name = "grid";
  in[1].g = gen::grid3d_graph(kGridSide);
  for (size_t i = 0; i < in.size(); i++) {
    in[i].wg = gen::add_random_weights(in[i].g, 1, kScale, seed + i);
    // A seeded source with at least one edge (rMat leaves some vertices
    // isolated; a search from one of them measures nothing).
    rng r(seed * 7 + i);
    const vertex_id n = in[i].g.num_vertices();
    for (uint64_t k = 0;; k++) {
      auto v = static_cast<vertex_id>(r.bounded(k, n));
      if (in[i].g.out_degree(v) > 0) {
        in[i].source = v;
        break;
      }
    }
  }
  return in;
}

// The sources radii_estimate samples for `seed` (documented behaviour:
// the first `samples` distinct draws of rng(seed).bounded(i, n)).
std::vector<vertex_id> radii_sources(vertex_id n, uint64_t seed, int samples) {
  rng r(seed);
  std::vector<uint8_t> used(n, 0);
  std::vector<vertex_id> out;
  for (uint64_t i = 0; out.size() < static_cast<size_t>(samples); i++) {
    auto v = static_cast<vertex_id>(r.bounded(i, n));
    if (!used[v]) {
      used[v] = 1;
      out.push_back(v);
    }
  }
  return out;
}

oracle make_oracle(const input& in, uint64_t seed) {
  oracle o;
  o.seconds.assign(kApps.size(), 0.0);
  const graph& g = in.g;
  o.seconds[0] = time_s([&] { o.levels = baseline::bfs_levels(g, in.source); });
  o.seconds[1] = time_s([&] { o.dependency = baseline::bc(g, in.source); });
  // Radii: one serial BFS per sampled source, a few at a time; the
  // reported time is the sum of the single-thread searches.
  {
    o.radii.assign(g.num_vertices(), -1);
    const std::vector<vertex_id> sources = radii_sources(g.num_vertices(), seed, kRadiiSamples);
    constexpr size_t kChunk = 8;
    for (size_t c = 0; c < sources.size(); c += kChunk) {
      const size_t w = std::min(kChunk, sources.size() - c);
      std::vector<std::vector<int64_t>> levels(w);
      std::vector<double> secs(w);
      parallel::parallel_for(0, w, [&](size_t k) {
        secs[k] = time_s([&] { levels[k] = baseline::bfs_levels(g, sources[c + k]); });
      }, 1);
      for (size_t k = 0; k < w; k++) {
        o.seconds[2] += secs[k];
        for (size_t v = 0; v < levels[k].size(); v++)
          o.radii[v] = std::max(o.radii[v], levels[k][v]);
      }
    }
  }
  o.seconds[3] = time_s([&] { o.labels = baseline::connected_components(g); });
  o.seconds[4] = time_s([&] { o.rank = baseline::pagerank(g); });
  o.seconds[5] = time_s([&] { o.dist = baseline::dijkstra(in.wg, in.source); });
  o.seconds[6] = time_s([&] { o.core = baseline::kcore(g); });
  return o;
}

bool same_partition(const std::vector<vertex_id>& a,
                    const std::vector<vertex_id>& b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<vertex_id, vertex_id> ab, ba;
  for (size_t v = 0; v < a.size(); v++) {
    auto [i, fresh_a] = ab.emplace(a[v], b[v]);
    auto [j, fresh_b] = ba.emplace(b[v], a[v]);
    if (i->second != b[v] || j->second != a[v]) return false;
  }
  return true;
}

// Runs app `a` once on `in`, timed; checks the output against `o` outside
// the timed region. Returns the call's wall time in seconds.
double run_app(size_t a, const input& in, const oracle& o, uint64_t seed,
               outcome& out) {
  const graph& g = in.g;
  const std::string what = kApps[a] + " on " + in.name;
  double t = 0.0;
  switch (a) {
    case 0: {
      apps::bfs_result r;
      t = time_s([&] { r = apps::bfs(g, in.source); });
      bool ok = r.parents.size() == o.levels.size() &&
                r.parents[in.source] == in.source;
      for (vertex_id v = 0; ok && v < g.num_vertices(); v++) {
        const vertex_id p = r.parents[v];
        if ((p == kNoVertex) != (o.levels[v] < 0)) ok = false;
        else if (p != kNoVertex && v != in.source)
          ok = o.levels[p] == o.levels[v] - 1 && g.has_edge(p, v);
      }
      if (!ok) out.wrong(what + ": not a BFS tree of bfs_levels");
      break;
    }
    case 1: {
      apps::bc_result r;
      t = time_s([&] { r = apps::bc(g, in.source); });
      bool ok = r.dependency.size() == o.dependency.size();
      for (size_t v = 0; ok && v < r.dependency.size(); v++)
        ok = std::abs(r.dependency[v] - o.dependency[v]) <=
             1e-9 * std::max(1.0, std::abs(o.dependency[v]));
      if (!ok) out.wrong(what + ": dependency differs from baseline::bc");
      break;
    }
    case 2: {
      apps::radii_result r;
      t = time_s([&] { r = apps::radii_estimate(g, seed, kRadiiSamples); });
      if (r.radii != o.radii) out.wrong(what + ": radii differ from serial BFS sweep");
      break;
    }
    case 3: {
      apps::components_result r;
      t = time_s([&] { r = apps::connected_components(g); });
      if (!same_partition(r.labels, o.labels))
        out.wrong(what + ": partition differs from baseline::connected_components");
      break;
    }
    case 4: {
      apps::pagerank_result r;
      t = time_s([&] { r = apps::pagerank(g); });
      bool ok = r.rank.size() == o.rank.size();
      for (size_t v = 0; ok && v < r.rank.size(); v++)
        ok = std::abs(r.rank[v] - o.rank[v]) <= kRankTolerance;
      if (!ok) out.wrong(what + ": ranks differ from baseline::pagerank");
      break;
    }
    case 5: {
      apps::bellman_ford_result r;
      t = time_s([&] { r = apps::bellman_ford(in.wg, in.source); });
      if (r.negative_cycle || r.distances != o.dist)
        out.wrong(what + ": distances differ from baseline::dijkstra");
      break;
    }
    case 6: {
      apps::kcore_result r;
      t = time_s([&] { r = apps::kcore(g); });
      if (r.coreness != o.core) out.wrong(what + ": coreness differs from baseline::kcore");
      break;
    }
  }
  out.attempted++;
  return t;
}

// What the traced pass learns about one app call from its edge_map rounds.
struct round_stats {
  double rounds = 0, edges = 0, dense = 0, edge_map_us = 0;
};

round_stats summarize(const obs::query_trace& trace) {
  round_stats s;
  for (const obs::trace_round& r : trace.rounds()) {
    s.rounds += 1;
    s.edges += static_cast<double>(r.frontier_edges);
    if (std::string(r.direction) != "sparse") s.dense += 1;
    s.edge_map_us += r.micros;
  }
  return s;
}

}  // namespace

outcome run_analytics(const options& opts) {
  print_provenance(opts, "rmat 2^18 x 16 edges, 3d-grid 64^3");
  outcome out;

  // Set-up: generate the inputs; repeated so the median is steady.
  std::vector<double> setups;
  std::vector<input> inputs;
  for (int i = 0; i < (opts.trace ? 1 : kSetups); i++) {
    inputs.clear();
    setups.push_back(time_s([&] { inputs = make_inputs(opts.seed); }));
  }
  std::vector<oracle> oracles;
  for (const input& in : inputs) oracles.push_back(make_oracle(in, opts.seed));

  // Passes: each app once on each input, until the phase's time is used.
  // A pass is the workload's query: the paper's whole suite, whose time is
  // the sum of its calls (checks excluded). calls[a][i] collects the
  // seconds of each call of app a on input i; pass_s the time of each pass.
  using times = std::vector<std::vector<std::vector<double>>>;
  auto run_passes = [&](double seconds, bool traced, times& calls,
                        std::vector<double>& pass_s,
                        std::vector<std::vector<round_stats>>* rounds,
                        span_log* spans) {
    calls.assign(kApps.size(), std::vector<std::vector<double>>(inputs.size()));
    const auto t0 = bench_clock::now();
    uint64_t call = 0;
    do {
      double pass = 0.0;
      for (size_t a = 0; a < kApps.size(); a++)
        for (size_t i = 0; i < inputs.size(); i++) {
          obs::query_trace trace;
          std::optional<obs::trace_scope> scope;
          if (traced) scope.emplace(&trace);
          const double s0 = now_us();
          calls[a][i].push_back(run_app(a, inputs[i], oracles[i], opts.seed, out));
          scope.reset();
          pass += calls[a][i].back();
          if (spans != nullptr)
            spans->add("apps." + kApps[a] + "." + inputs[i].name, call++, -1, s0, now_us());
          if (rounds != nullptr) (*rounds)[a][i] = summarize(trace);
        }
      pass_s.push_back(pass);
    } while (seconds_since(t0) < seconds);
  };

  times untraced;
  std::vector<double> untraced_passes;
  run_passes(opts.trace ? opts.seconds / 2.0 : opts.seconds, false, untraced,
             untraced_passes, nullptr, nullptr);

  // Passes per second of pass time, and the pass-time quantiles.
  auto qps = [](const std::vector<double>& passes) {
    double total_s = 0.0;
    for (double p : passes) total_s += p;
    return static_cast<double>(passes.size()) / total_s;
  };
  auto p99_ms = [](const std::vector<double>& passes) { return quantile(passes, 0.99) * 1e3; };

  if (!opts.trace) {
    out.add("qps", qps(untraced_passes), "1/s");
    out.add("latency_p50_ms", median(untraced_passes) * 1e3, "ms");
    out.add("latency_p99_ms", p99_ms(untraced_passes), "ms");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("# analytics: %zu passes, %llu app calls checked; median call per app "
                "(rmat + grid):",
                untraced_passes.size(), static_cast<unsigned long long>(out.attempted));
    for (size_t a = 0; a < kApps.size(); a++)
      std::printf(" %s %.4f s", kApps[a].c_str(), median(untraced[a][0]) + median(untraced[a][1]));
    std::printf("\n");
    return out;
  }

  // Traced run: the same passes with a query_trace installed around every
  // call, plus the serial and round-peeling references.
  span_log spans;
  times traced;
  std::vector<double> traced_passes;
  std::vector<std::vector<round_stats>> rounds(
      kApps.size(), std::vector<round_stats>(inputs.size()));
  const scheduler_counts c0 = read_scheduler_counts();
  const auto t0 = bench_clock::now();
  run_passes(opts.seconds / 2.0, true, traced, traced_passes, &rounds, &spans);
  const double traced_s = seconds_since(t0);
  const scheduler_counts c1 = read_scheduler_counts();

  for (size_t a = 0; a < kApps.size(); a++) {
    for (size_t i = 0; i < inputs.size(); i++) {
      const std::string key = kApps[a] + "." + inputs[i].name;
      const round_stats& r = rounds[a][i];
      out.add("apps." + kApps[a] + "_s." + inputs[i].name, median(untraced[a][i]), "s");
      out.add("ligra.rounds." + key, r.rounds, "count");
      out.add("ligra.edges_scanned." + key, r.edges, "count");
      out.add("ligra.dense_round_share." + key, r.rounds > 0 ? r.dense / r.rounds : 0.0,
              "ratio");
      out.add("ligra.edge_map_us." + key, r.edge_map_us, "us");
    }
    out.add("baseline." + kApps[a] + "_s", oracles[0].seconds[a] + oracles[1].seconds[a],
            "s");
  }
  for (const input& in : inputs) {
    apps::kcore_result bucketed, rounds_ref;
    const double s0 = now_us();
    bucketed = apps::kcore(in.g);
    const double s1 = now_us();
    rounds_ref = apps::kcore_rounds(in.g);
    const double s2 = now_us();
    spans.add("apps.kcore." + in.name, 0, -1, s0, s1);
    spans.add("apps.kcore_rounds." + in.name, 0, -1, s1, s2);
    if (rounds_ref.coreness != bucketed.coreness)
      out.wrong("kcore_rounds on " + in.name + ": coreness differs from kcore");
    out.add("ligra.kcore_steps." + in.name, static_cast<double>(bucketed.num_rounds),
            "count");
    out.add("apps.kcore_rounds_s." + in.name, (s2 - s1) / 1e6, "s");
  }
  out.add("parallel.steals_per_s", (c1.steals - c0.steals) / traced_s, "1/s");
  out.add("parallel.parks_per_s", (c1.parks - c0.parks) / traced_s, "1/s");
  out.add("trace.qps_delta", qps(traced_passes) - qps(untraced_passes), "1/s");
  out.add("trace.latency_p99_delta_ms", p99_ms(traced_passes) - p99_ms(untraced_passes), "ms");

  spans.print_summary(stdout);
  write_spans(spans, opts);
  complete_per_layer(out);
  return out;
}

}  // namespace perfbench
