// Tests for the per-epoch derived views that answer component_id, coreness
// and pagerank_topk (docs/ENGINE.md "Registry"): concurrent cold touches
// share one build, an abandoned build never poisons its view, every
// answer path agrees with the serial oracles on immutable and mutable
// entries, and a reload answers from the new graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "apps/pagerank.h"
#include "apps/query_adapters.h"
#include "baseline/serial.h"
#include "engine/derived_view.h"
#include "engine/executor.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace e = ligra::engine;
namespace dyn = ligra::dynamic;
using namespace ligra;

namespace {

uint64_t builds(obs::metrics_registry& m, const char* view) {
  return m
      .get_counter(std::string("engine_view_builds_total{view=\"") + view +
                   "\"}")
      .value();
}

e::query_request point(const std::string& g, e::query_kind kind,
                       vertex_id v) {
  e::query_request q;
  q.graph = g;
  q.kind = kind;
  q.source = v;
  return q;
}

e::query_request topk(const std::string& g, size_t k) {
  e::query_request q;
  q.graph = g;
  q.kind = e::query_kind::pagerank_topk;
  q.k = k;
  return q;
}

// The top-k list agrees with the oracle ranks: every listed rank is within
// 1e-3 relative of the oracle's rank for that vertex, the list is
// rank-descending, and no unlisted vertex clearly outranks its tail.
void expect_topk_matches(const std::vector<std::pair<vertex_id, double>>& got,
                         const std::vector<double>& oracle, size_t k,
                         const std::string& what) {
  ASSERT_EQ(got.size(), std::min(k, oracle.size())) << what;
  std::vector<char> listed(oracle.size(), 0);
  for (size_t i = 0; i < got.size(); i++) {
    const auto [v, rank] = got[i];
    ASSERT_LT(v, oracle.size()) << what;
    listed[v] = 1;
    EXPECT_NEAR(rank, oracle[v], 1e-3 * oracle[v]) << what << " vertex " << v;
    if (i > 0) {
      EXPECT_GE(got[i - 1].second, rank) << what;
    }
  }
  if (got.empty()) return;
  const double tail = got.back().second;
  for (vertex_id v = 0; v < oracle.size(); v++) {
    if (!listed[v]) {
      EXPECT_LE(oracle[v], tail * (1 + 1e-3)) << what << " vertex " << v;
    }
  }
}

// A random small batch: a few absent-edge inserts and live-edge deletes.
dyn::update_batch random_batch(const graph& g, uint64_t seed) {
  dyn::update_batch b;
  const vertex_id n = g.num_vertices();
  for (uint64_t i = 0; i < 8; i++) {
    const auto u = static_cast<vertex_id>(hash64(seed * 131 + 2 * i) % n);
    const auto v = static_cast<vertex_id>(hash64(seed * 131 + 2 * i + 1) % n);
    if (u != v) b.inserts.push_back({u, v});
  }
  for (uint64_t i = 0; i < 8; i++) {
    const auto u = static_cast<vertex_id>(hash64(seed * 977 + i) % n);
    auto nbrs = g.out_neighbors(u);
    if (!nbrs.empty())
      b.deletes.push_back({u, nbrs[hash64(seed + i) % nbrs.size()]});
  }
  return b;
}

// Every vertex's component_id and coreness, read through `submit` (twice,
// so the second pass shows no stale cache answer) and `run`, equals the
// oracle on `g`.
void expect_points_match(e::query_executor& ex, const std::string& name,
                         const graph& g, const std::string& what) {
  const auto cc = baseline::connected_components(g);
  const auto core = baseline::kcore(g);
  for (int pass = 0; pass < 2; pass++) {
    std::vector<std::future<e::query_result>> ccf, coref;
    for (vertex_id v = 0; v < g.num_vertices(); v++) {
      ccf.push_back(ex.submit(point(name, e::query_kind::component_id, v)));
      coref.push_back(ex.submit(point(name, e::query_kind::coreness, v)));
    }
    for (vertex_id v = 0; v < g.num_vertices(); v++) {
      auto r = ccf[v].get();
      EXPECT_FALSE(r.cache_hit);
      ASSERT_EQ(r.value, cc[v]) << what << " cc vertex " << v;
      ASSERT_EQ(coref[v].get().value, core[v]) << what << " core vertex " << v;
    }
  }
  for (vertex_id v = 0; v < g.num_vertices(); v += 7) {
    ASSERT_EQ(ex.run(point(name, e::query_kind::component_id, v)).value, cc[v])
        << what << " run cc vertex " << v;
    ASSERT_EQ(ex.run(point(name, e::query_kind::coreness, v)).value, core[v])
        << what << " run core vertex " << v;
  }
}

}  // namespace

// (a) Concurrent cold touches share one build per view.
TEST(EngineViews, ConcurrentColdQueriesBuildEachViewOnce) {
  obs::metrics_registry m;
  e::registry reg(&m);
  const graph g = gen::rmat_graph(12, 1 << 15, /*seed=*/3);
  reg.add("g", g);
  e::query_executor ex(reg, {.max_concurrency = 8, .cache_capacity = 0});

  std::vector<std::future<e::query_result>> cc, core, top;
  for (vertex_id v = 0; v < 8; v++) {
    cc.push_back(ex.submit(point("g", e::query_kind::component_id, v)));
    core.push_back(ex.submit(point("g", e::query_kind::coreness, v)));
    top.push_back(ex.submit(topk("g", 10)));
  }
  const auto cc_exp = baseline::connected_components(g);
  const auto core_exp = baseline::kcore(g);
  const auto pr_exp = baseline::pagerank(g);
  for (vertex_id v = 0; v < 8; v++) {
    EXPECT_EQ(cc[v].get().value, cc_exp[v]);
    EXPECT_EQ(core[v].get().value, core_exp[v]);
    expect_topk_matches(top[v].get().topk, pr_exp, 10, "top-10");
  }
  EXPECT_EQ(builds(m, "cc"), 1u);
  EXPECT_EQ(builds(m, "coreness"), 1u);
  EXPECT_EQ(builds(m, "pagerank"), 1u);

  // Direct touches from plain threads released together: still one build.
  reg.add("h", g);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  std::vector<vertex_id> seen(8);
  auto entry = reg.get("h");
  for (size_t t = 0; t < 8; t++)
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 8) std::this_thread::yield();
      seen[t] = entry->coreness_view()[t];
    });
  for (auto& t : threads) t.join();
  for (size_t t = 0; t < 8; t++) EXPECT_EQ(seen[t], core_exp[t]);
  EXPECT_EQ(builds(m, "coreness"), 2u);  // one for "g", one for "h"
}

// A built view counts in the entry's footprint and the registry gauge.
TEST(EngineViews, BuiltViewsCountInMemoryMetrics) {
  obs::metrics_registry m;
  e::registry reg(&m);
  auto h = reg.add("g", gen::rmat_graph(10, 1 << 13, /*seed=*/5));
  const size_t base = h->memory_bytes();
  const auto& gauge = m.get_gauge("engine_graph_memory_bytes");
  EXPECT_EQ(static_cast<size_t>(gauge.value()), base);

  const size_t n = h->num_vertices();
  h->cc_view();
  EXPECT_GE(h->memory_bytes(), base + n * sizeof(vertex_id));
  h->pagerank_view();
  h->coreness_view();
  const size_t with_views = h->memory_bytes();
  EXPECT_GE(with_views, base + 2 * n * sizeof(vertex_id) + n * sizeof(double));
  EXPECT_EQ(static_cast<size_t>(gauge.value()), with_views);
  EXPECT_EQ(reg.list().front().memory_bytes, with_views);
  EXPECT_EQ(reg.total_memory_bytes(), with_views);
  h->cc_view();  // a second touch builds nothing
  EXPECT_EQ(builds(m, "cc"), 1u);
  EXPECT_EQ(h->memory_bytes(), with_views);
}

// (b) A first toucher whose token trips inside the build leaves the view
// unbuilt; the next query builds it and answers correctly.
TEST(EngineViews, CancelledFirstToucherLeavesTheViewUnbuilt) {
  obs::metrics_registry m;
  e::registry reg(&m);
  const graph g = gen::rmat_graph(10, 1 << 13, /*seed=*/9);
  auto h = reg.add("g", g);
  const size_t base = h->memory_bytes();
  // run() does not settle a tripped token up front (submit does), so the
  // body starts the build and the build's first poll throws.
  e::query_executor ex(reg, {.cache_capacity = 0});
  e::cancel_source src;
  src.request_cancel();
  for (e::query_request q : {point("g", e::query_kind::component_id, 17),
                             point("g", e::query_kind::coreness, 17),
                             topk("g", 10)}) {
    q.token = src.token();
    EXPECT_THROW(ex.run(q), e::cancelled_error)
        << e::query_kind_name(q.kind);
  }
  for (const char* view : {"cc", "coreness", "pagerank"})
    EXPECT_EQ(builds(m, view), 0u) << view;
  EXPECT_EQ(h->memory_bytes(), base);

  EXPECT_EQ(ex.run(point("g", e::query_kind::component_id, 17)).value,
            baseline::connected_components(g)[17]);
  EXPECT_EQ(ex.run(point("g", e::query_kind::coreness, 17)).value,
            baseline::kcore(g)[17]);
  expect_topk_matches(ex.run(topk("g", 10)).topk, baseline::pagerank(g), 10,
                      "top-10 after cancel");
  for (const char* view : {"cc", "coreness", "pagerank"})
    EXPECT_EQ(builds(m, view), 1u) << view;
  EXPECT_GT(h->memory_bytes(), base);
}

// (b) Mid-build, deterministically: the builder is cancelled while it is
// running and a waiter that arrived meanwhile takes the build over.
TEST(EngineViews, WaiterTakesOverABuildCancelledMidway) {
  e::derived_view<int> view;
  e::cancel_source src;
  std::promise<void> started;
  std::atomic<int> runs{0};
  auto builder = std::async(std::launch::async, [&] {
    view.get(src.token(), [&]() -> std::vector<int> {
      runs++;
      started.set_value();
      // Stand-in for the app's rounds: poll until the token trips.
      while (!src.token().should_stop()) std::this_thread::yield();
      src.token().poll();
      return {};
    });
  });
  started.get_future().wait();
  bool built = false;
  auto waiter = std::async(std::launch::async, [&] {
    return view.get({}, [&] { runs++; return std::vector<int>{4, 5, 6}; },
                    &built);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(view.ready());
  src.request_cancel();
  EXPECT_THROW(builder.get(), e::cancelled_error);
  EXPECT_EQ(waiter.get(), (std::vector<int>{4, 5, 6}));
  EXPECT_TRUE(built);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_TRUE(view.ready());
  EXPECT_GE(view.memory_bytes(), 3 * sizeof(int));
}

// A waiter's own cancel ends its wait without disturbing the builder.
TEST(EngineViews, CancelledWaiterLeavesTheBuilderRunning) {
  e::derived_view<int> view;
  std::promise<void> started;
  std::promise<void> finish;
  auto builder = std::async(std::launch::async, [&] {
    return view.get({}, [&] {
      started.set_value();
      finish.get_future().wait();
      return std::vector<int>{7};
    });
  });
  started.get_future().wait();
  e::cancel_source src;
  auto waiter = std::async(std::launch::async, [&] {
    view.get(src.token(), []() -> std::vector<int> {
      ADD_FAILURE() << "a waiter must not build while the builder runs";
      return {};
    });
  });
  src.request_cancel();
  EXPECT_THROW(waiter.get(), e::cancelled_error);
  EXPECT_FALSE(view.ready());
  finish.set_value();
  EXPECT_EQ(builder.get(), std::vector<int>{7});
  EXPECT_TRUE(view.ready());
}

// (c) Every answer path agrees with the serial oracles on small random
// rMat and grid graphs, immutable and mutable, cached and uncached.
TEST(EngineViews, PointAnswersMatchSerialOracles) {
  for (uint64_t seed = 1; seed <= 3; seed++) {
    std::vector<std::pair<std::string, graph>> inputs;
    inputs.emplace_back("rmat", gen::rmat_graph(7 + static_cast<int>(seed),
                                                (1 << 9) << seed, seed));
    inputs.emplace_back("grid",
                        gen::grid3d_graph(static_cast<vertex_id>(3 + seed)));
    for (size_t cap : {size_t{0}, size_t{1024}}) {
      for (auto& [name, g] : inputs) {
        const std::string what = name + " seed " + std::to_string(seed) +
                                 " cache " + std::to_string(cap);
        e::registry reg;
        reg.add(name, g);
        e::query_executor ex(reg, {.max_concurrency = 3,
                                   .max_queue = size_t{1} << 14,
                                   .cache_capacity = cap});
        expect_points_match(ex, name, g, what);
        const auto pr = baseline::pagerank(g);
        for (size_t k : {size_t{1}, size_t{10}, size_t{100}}) {
          expect_topk_matches(ex.submit(topk(name, k)).get().topk, pr, k,
                              what + " submit top-k");
          expect_topk_matches(ex.run(topk(name, k)).topk, pr, k,
                              what + " run top-k");
        }

        // The same graph as a mutable entry, through random update batches.
        reg.add_mutable("m", g);
        for (uint64_t b = 0; b < 3; b++) {
          const graph cur = reg.get("m")->dyn()->materialize();
          auto batch = std::make_shared<dyn::update_batch>(
              random_batch(cur, seed * 10 + b));
          e::query_request up;
          up.graph = "m";
          up.kind = e::query_kind::update;
          up.updates = batch;
          ex.submit(up).get();
          auto h = reg.get("m");
          const graph live = h->dyn()->materialize();
          expect_points_match(ex, "m", live,
                              what + " mutable batch " + std::to_string(b));
          // Mutable top-k reads the epoch's PageRank view, built by the
          // same apps::pagerank as a static epoch's.
          EXPECT_EQ(ex.run(topk("m", 10)).topk,
                    apps::topk_ranks(apps::pagerank(live).rank, 10))
              << what;
        }
      }
    }
  }
}

// (d) A reload publishes a new epoch whose views answer from the new graph,
// while a handle to the old epoch keeps its own views.
TEST(EngineViews, ReloadAnswersFromTheNewEpoch) {
  obs::metrics_registry m;
  e::registry reg(&m);
  e::query_executor ex(reg, {});
  auto old_entry = reg.add("g", gen::path_graph(40));
  EXPECT_EQ(ex.run(point("g", e::query_kind::component_id, 39)).value, 0);
  EXPECT_EQ(ex.run(point("g", e::query_kind::coreness, 39)).value, 1);
  const auto old_top = ex.run(topk("g", 3)).topk;

  // Two components and a 4-clique: every answer changes.
  graph next = gen::complete_graph(4);
  std::vector<edge> edges;
  for (vertex_id u = 0; u < 4; u++)
    for (vertex_id v : next.out_neighbors(u)) edges.push_back({u, v});
  for (vertex_id u = 10; u + 1 < 40; u++) {
    edges.push_back({u, u + 1});
    edges.push_back({u + 1, u});
  }
  next = graph::from_symmetric_edges(40, std::move(edges));
  reg.add("g", next);

  EXPECT_EQ(ex.run(point("g", e::query_kind::component_id, 39)).value, 10);
  EXPECT_EQ(ex.run(point("g", e::query_kind::coreness, 2)).value, 3);
  EXPECT_EQ(ex.run(point("g", e::query_kind::coreness, 39)).value, 1);
  expect_topk_matches(ex.run(topk("g", 3)).topk, baseline::pagerank(next), 3,
                      "new epoch top-3");
  EXPECT_NE(ex.run(topk("g", 3)).topk, old_top);
  EXPECT_EQ(builds(m, "cc"), 2u);
  EXPECT_EQ(builds(m, "coreness"), 2u);

  // The pinned old epoch still answers from its own views.
  EXPECT_EQ(old_entry->cc_view()[39], 0u);
  EXPECT_EQ(old_entry->coreness_view()[39], 1u);
  EXPECT_EQ(builds(m, "cc"), 2u);
}

// (e) A mutable entry does no PageRank work on writes: add_mutable and
// update batches build no PageRank view, and each epoch that gets a top-k
// read builds its own view once, equal to PageRank of that epoch's graph.
TEST(EngineViews, MutablePagerankViewBuildsOnlyOnTopkRead) {
  obs::metrics_registry m;
  e::registry reg(&m);
  e::query_executor ex(reg, {.cache_capacity = 0});
  reg.add_mutable("m", gen::rmat_graph(9, 1 << 12, /*seed=*/131));
  auto update = [&](uint64_t seed) {
    e::query_request up;
    up.graph = "m";
    up.kind = e::query_kind::update;
    up.updates = std::make_shared<dyn::update_batch>(
        random_batch(reg.get("m")->dyn()->materialize(), seed));
    ex.run(up);
  };
  auto expect_topk = [&](const std::string& what) {
    const graph live = reg.get("m")->dyn()->materialize();
    EXPECT_EQ(ex.run(topk("m", 10)).topk,
              apps::topk_ranks(apps::pagerank(live).rank, 10))
        << what;
  };
  EXPECT_EQ(builds(m, "pagerank"), 0u);
  for (uint64_t b = 0; b < 3; b++) update(b);
  EXPECT_EQ(builds(m, "pagerank"), 0u);

  expect_topk("epoch 3");
  expect_topk("epoch 3 again");
  EXPECT_EQ(builds(m, "pagerank"), 1u);

  update(3);
  EXPECT_EQ(builds(m, "pagerank"), 1u);
  expect_topk("epoch 4");
  EXPECT_EQ(builds(m, "pagerank"), 2u);

  update(4);
  update(5);
  EXPECT_EQ(builds(m, "pagerank"), 2u);
}
