// Tests for BFS (paper §4.1): parent-array validity, level agreement with
// the serial baseline across graph families and seeds, traversal-strategy
// equivalence, the direction-switching trace (the premise of experiments
// F1/F2), and the early-exit point BFS over the CSR and the mutable view.
#include "apps/bfs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>

#include "apps/query_adapters.h"
#include "baseline/serial.h"
#include "dynamic/incremental.h"
#include "dynamic/mutable_graph.h"
#include "engine/cancel.h"
#include "graph/generators.h"
#include "util/rng.h"

using namespace ligra;
namespace dyn = ligra::dynamic;

namespace {

// A parent array is a valid BFS tree iff: parents[src] == src; every other
// reached vertex v has an edge (parents[v], v) and level exactly one more
// than its parent's; reachability matches the baseline.
void expect_valid_bfs_tree(const graph& g, vertex_id src,
                           const std::vector<vertex_id>& parents) {
  auto level = baseline::bfs_levels(g, src);
  ASSERT_EQ(parents.size(), g.num_vertices());
  EXPECT_EQ(parents[src], src);
  for (vertex_id v = 0; v < g.num_vertices(); v++) {
    if (level[v] == -1) {
      EXPECT_EQ(parents[v], kNoVertex) << "vertex " << v;
    } else {
      ASSERT_NE(parents[v], kNoVertex) << "vertex " << v;
      if (v != src) {
        EXPECT_TRUE(g.has_edge(parents[v], v))
            << parents[v] << "->" << v << " not an edge";
        EXPECT_EQ(level[v], level[parents[v]] + 1) << "vertex " << v;
      }
    }
  }
}

// `rounds` rounds of random updates: `count` uniform inserts, then `count`
// deletes of live edges, as separate batches so that no batch both inserts
// and deletes one edge.
dyn::mutable_graph random_updates(dyn::mutable_graph g, size_t rounds,
                                  size_t count, uint64_t seed) {
  const vertex_id n = g.num_vertices();
  const rng r(seed);
  uint64_t k = 0;
  for (size_t round = 0; round < rounds; round++) {
    dyn::update_batch ins, del;
    for (size_t i = 0; i < count; i++) {
      ins.inserts.emplace_back(static_cast<vertex_id>(r.bounded(k, n)),
                               static_cast<vertex_id>(r.bounded(k + 1, n)));
      const auto u = static_cast<vertex_id>(r.bounded(k + 2, n));
      const size_t pick = r.bounded(k + 3, std::max<size_t>(1, g.out_degree(u)));
      k += 4;
      g.decode_out(u, [&](vertex_id w, empty_weight, size_t j) {
        if (j != pick) return true;
        del.deletes.emplace_back(u, w);
        return false;
      });
    }
    g = g.apply(std::move(ins)).next;
    g = g.apply(std::move(del)).next;
  }
  return g;
}

// Forwards to `g`, and cancels `source` the first time `trip`'s adjacency
// is read: a cancellation that lands in the middle of a traversal.
template <class G>
struct tripping_graph {
  using weight_type = typename G::weight_type;
  const G& g;
  vertex_id trip;
  engine::cancel_source* source;

  vertex_id num_vertices() const { return g.num_vertices(); }
  edge_id num_edges() const { return g.num_edges(); }
  size_t out_degree(vertex_id v) const { return g.out_degree(v); }
  template <class F>
  void decode_out(vertex_id v, F&& f) const {
    if (v == trip) source->request_cancel();
    g.decode_out(v, std::forward<F>(f));
  }
  template <class F>
  void decode_in(vertex_id v, F&& f) const {
    if (v == trip) source->request_cancel();
    g.decode_in(v, std::forward<F>(f));
  }
};

// Point BFS on `g` from 0 to its last vertex, cancelled when the traversal
// reads vertex n/2: throws cancelled_error, and only after the trip.
template <class G>
void expect_cancelled_mid_traversal(const G& g, const char* what) {
  engine::cancel_source source;
  const vertex_id n = g.num_vertices();
  tripping_graph<G> tg{g, n / 2, &source};
  EXPECT_THROW(apps::bfs_hop_distance(tg, 0, n - 1, source.token()),
               engine::cancelled_error)
      << what;
  EXPECT_TRUE(source.triggered()) << what;
  // Untripped, the same traversal runs to the end.
  engine::cancel_source idle;
  tripping_graph<G> far{g, n, &idle};
  EXPECT_EQ(apps::bfs_hop_distance(far, 0, n - 1, idle.token()),
            apps::bfs_hop_distance(g, 0, n - 1))
      << what;
  EXPECT_FALSE(idle.triggered()) << what;
}

}  // namespace

class BfsGraphs : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BfsGraphs, RmatTreeValid) {
  uint64_t seed = GetParam();
  auto g = gen::rmat_graph(10, 1 << 13, seed);
  auto result = apps::bfs(g, 0);
  expect_valid_bfs_tree(g, 0, result.parents);
}

TEST_P(BfsGraphs, RandomGraphLevelsMatchBaseline) {
  uint64_t seed = GetParam();
  auto g = gen::random_graph(3000, 4, seed);
  auto src = static_cast<vertex_id>(seed % g.num_vertices());
  EXPECT_EQ(apps::bfs_levels(g, src), baseline::bfs_levels(g, src));
}

TEST_P(BfsGraphs, DirectedGraphLevelsMatchBaseline) {
  uint64_t seed = GetParam();
  auto g = gen::rmat_digraph(10, 1 << 12, seed);
  EXPECT_EQ(apps::bfs_levels(g, 0), baseline::bfs_levels(g, 0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsGraphs, ::testing::Values(1, 2, 3, 4, 5));

TEST(Bfs, PathGraphHasLinearLevels) {
  auto g = gen::path_graph(100);
  auto result = apps::bfs(g, 0);
  EXPECT_EQ(result.num_reached, 100u);
  EXPECT_EQ(result.num_rounds, 100u);  // 99 frontier rounds + final empty
  auto level = apps::bfs_levels(g, 0);
  for (vertex_id v = 0; v < 100; v++) EXPECT_EQ(level[v], v);
}

TEST(Bfs, DisconnectedComponentUnreached) {
  // Two disjoint paths: 0-1-2 and 3-4.
  auto g = graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}}, {.symmetrize = true});
  auto result = apps::bfs(g, 0);
  EXPECT_EQ(result.num_reached, 3u);
  EXPECT_EQ(result.parents[3], kNoVertex);
  EXPECT_EQ(result.parents[4], kNoVertex);
}

TEST(Bfs, SingleVertexGraph) {
  auto g = graph::from_edges(1, {}, {.symmetrize = true});
  auto result = apps::bfs(g, 0);
  EXPECT_EQ(result.num_reached, 1u);
  EXPECT_EQ(result.num_rounds, 1u);  // one edge_map on {0}, empty output
}

TEST(Bfs, OutOfRangeSourceThrows) {
  auto g = gen::path_graph(10);
  EXPECT_THROW(apps::bfs(g, 10), std::invalid_argument);
  EXPECT_THROW(apps::bfs_levels(g, 99), std::invalid_argument);
}

TEST(Bfs, AllStrategiesGiveSameLevels) {
  auto g = gen::rmat_graph(11, 1 << 14, 7);
  auto automatic = apps::bfs_levels(g, 0);
  for (traversal t : {traversal::sparse, traversal::dense,
                      traversal::dense_forward}) {
    // bfs_levels uses the default options; emulate forced strategies via
    // the bfs() trace API instead and compare reach + rounds.
    apps::bfs_options opts;
    opts.edge_map.strategy = t;
    auto result = apps::bfs(g, 0, opts);
    size_t reached_auto = 0;
    for (auto l : automatic)
      if (l >= 0) reached_auto++;
    EXPECT_EQ(result.num_reached, reached_auto) << traversal_name(t);
    expect_valid_bfs_tree(g, 0, result.parents);
  }
}

TEST(Bfs, HybridSwitchesDirectionOnRmat) {
  // On a low-diameter skewed graph the hybrid must use sparse for the tiny
  // first frontier and dense for the bulge — the paper's Figure 2 story.
  auto g = gen::rmat_graph(13, 16u << 13, 1);
  edge_map_stats stats;  // enables tracing
  apps::bfs_options opts;
  opts.edge_map.stats = &stats;
  auto result = apps::bfs(g, 0, opts);
  ASSERT_GE(result.trace.size(), 3u);
  EXPECT_EQ(result.trace.front().used, traversal::sparse);
  bool used_dense = false, sparse_after_dense = false, seen_dense = false;
  for (const auto& row : result.trace) {
    if (row.used == traversal::dense) {
      used_dense = true;
      seen_dense = true;
    }
    if (seen_dense && row.used == traversal::sparse) sparse_after_dense = true;
  }
  EXPECT_TRUE(used_dense);
  EXPECT_TRUE(sparse_after_dense);  // tail frontiers shrink again
}

TEST(Bfs, TraceFrontierSizesSumToReached) {
  auto g = gen::random_graph(4096, 8, 3);
  edge_map_stats stats;
  apps::bfs_options opts;
  opts.edge_map.stats = &stats;
  auto result = apps::bfs(g, 5, opts);
  size_t sum = 0;
  for (const auto& row : result.trace) sum += row.frontier_size;
  EXPECT_EQ(sum, result.num_reached);  // every frontier counted once
}

TEST(Bfs, NumRoundsIsSourceEccentricity) {
  auto g = gen::grid3d_graph(6);
  auto result = apps::bfs(g, 0);
  auto level = baseline::bfs_levels(g, 0);
  int64_t ecc = *std::max_element(level.begin(), level.end());
  EXPECT_EQ(result.num_rounds, static_cast<size_t>(ecc) + 1);
}

// The early-exit point BFS answers every (s, t) pair alike on the CSR, on
// a mutable_graph after random batches, and in the serial oracle over the
// materialized graph. rMat at 2^12 and 2^14 runs dense rounds; the grid's
// wide frontiers run multi-block sparse rounds. Pairs include s == t and
// unreachable targets.
TEST(BfsHopDistance, CsrMutableAndSerialAgree) {
  std::vector<std::pair<std::string, graph>> inputs;
  inputs.emplace_back("rmat12", gen::rmat_graph(12, 8u << 12, 3));
  inputs.emplace_back("rmat14", gen::rmat_graph(14, 8u << 14, 5));
  inputs.emplace_back("grid", gen::grid3d_graph(16));
  size_t pairs = 0, same = 0, unreachable = 0;
  for (auto& [name, g0] : inputs) {
    const vertex_id n = g0.num_vertices();
    const dyn::mutable_graph live =
        random_updates(dyn::mutable_graph(g0), 4, 64, n);
    const graph mat = live.materialize();
    const rng r(n + 17);
    for (uint64_t si = 0; si < 25; si++) {
      const auto s = static_cast<vertex_id>(r.bounded(si, n));
      const std::vector<int64_t> want = baseline::bfs_levels(mat, s);
      for (uint64_t ti = 0; ti < 10; ti++) {
        const vertex_id t =
            ti == 0 ? s : static_cast<vertex_id>(r.bounded(1000 + 10 * si + ti, n));
        const std::string what =
            name + " " + std::to_string(s) + "->" + std::to_string(t);
        ASSERT_EQ(apps::bfs_hop_distance(mat, s, t), want[t]) << what;
        ASSERT_EQ(dyn::bfs_hop_distance(live, s, t), want[t]) << what;
        pairs++;
        same += s == t ? 1 : 0;
        unreachable += want[t] < 0 ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(pairs, 750u);
  EXPECT_EQ(same, 75u);
  EXPECT_GT(unreachable, 0u);
}

// A token tripped mid-traversal stops the point BFS with cancelled_error,
// on the CSR and on the mutable view alike.
TEST(BfsHopDistance, CancelMidTraversalThrowsOnBothGraphTypes) {
  const graph path = gen::path_graph(200);
  expect_cancelled_mid_traversal(path, "csr");
  dyn::update_batch b;
  b.inserts = {{0, 2}};
  const dyn::mutable_graph live = dyn::mutable_graph(path).apply(b).next;
  expect_cancelled_mid_traversal(live, "mutable");
}
