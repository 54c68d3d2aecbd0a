// Tests for PageRank and PageRank-Delta (paper §4.5): agreement with the
// serial baseline, rank-sum conservation, convergence behaviour, and the
// paper's claim that Delta's active set shrinks monotonically toward
// convergence (experiment F4's premise).
#include "apps/pagerank.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "baseline/serial.h"
#include "graph/generators.h"

using namespace ligra;

namespace {

double l1_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0;
  for (size_t i = 0; i < a.size(); i++) d += std::fabs(a[i] - b[i]);
  return d;
}

}  // namespace

class PrGraphs : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrGraphs, MatchesSerialBaselineExactly) {
  // Same algorithm, same float order per vertex (in-neighbor CSR order in
  // dense mode), so agreement should be near machine precision.
  uint64_t seed = GetParam();
  auto g = gen::rmat_graph(9, 1 << 12, seed);
  auto par = apps::pagerank(g);
  auto ser = baseline::pagerank(g);
  ASSERT_EQ(par.rank.size(), ser.size());
  EXPECT_LT(l1_distance(par.rank, ser), 1e-10);
}

TEST_P(PrGraphs, DirectedGraphMatchesBaseline) {
  uint64_t seed = GetParam();
  auto g = gen::rmat_digraph(9, 1 << 12, seed + 10);
  auto par = apps::pagerank(g);
  auto ser = baseline::pagerank(g);
  EXPECT_LT(l1_distance(par.rank, ser), 1e-10);
}

TEST_P(PrGraphs, DeltaConvergesToPowerIteration) {
  uint64_t seed = GetParam();
  auto g = gen::rmat_graph(9, 1 << 12, seed + 20);
  apps::pagerank_options exact_opts;
  exact_opts.tolerance = 1e-12;
  exact_opts.max_iterations = 300;
  auto exact = apps::pagerank(g, exact_opts);
  apps::pagerank_delta_options d;
  d.tolerance = 1e-9;
  d.local_tolerance = 1e-4;
  d.max_iterations = 300;
  auto delta = apps::pagerank_delta(g, d);
  EXPECT_LT(l1_distance(delta.rank, exact.rank), 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrGraphs, ::testing::Values(1, 2, 3, 4));

TEST(Pagerank, MatchesBaselinePerVertexOnLargeRmat) {
  // n and n + m far past parallel_for's 2048 cutoff and the dense
  // kernel's 4096-slot blocks: the pull commit and the push kernels (which
  // accumulate, then damp) must all agree with the serial oracle.
  auto g = gen::rmat_graph(14, 1 << 17, 7);
  auto expect_close = [&](const std::vector<double>& got,
                          const std::vector<double>& want, const char* what) {
    ASSERT_EQ(got.size(), want.size());
    for (vertex_id v = 0; v < g.num_vertices(); v++)
      ASSERT_LE(std::fabs(got[v] - want[v]), 1e-9 * std::fabs(want[v]))
          << what << ", vertex " << v;
  };
  expect_close(apps::pagerank(g).rank, baseline::pagerank(g), "default");
  // A fixed round count (tolerance 0), so push kernels' different float
  // order cannot move the stopping round.
  const auto fixed = baseline::pagerank(g, 0.85, 0.0, 30);
  apps::pagerank_options pull, sparse, forward;
  for (auto* o : {&pull, &sparse, &forward}) {
    o->tolerance = 0.0;
    o->max_iterations = 30;
  }
  sparse.edge_map.strategy = traversal::sparse;
  forward.edge_map.prefer_dense_forward = true;
  expect_close(apps::pagerank(g, pull).rank, fixed, "pull");
  expect_close(apps::pagerank(g, sparse).rank, fixed, "sparse");
  expect_close(apps::pagerank(g, forward).rank, fixed, "dense_forward");
}

TEST(Pagerank, RankSumIsOneOnSinklessGraph) {
  // Symmetric graphs have no sinks: total rank mass is conserved at 1.
  auto g = gen::grid3d_graph(6);
  auto result = apps::pagerank(g);
  double sum = std::accumulate(result.rank.begin(), result.rank.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Pagerank, UniformOnRegularGraph) {
  // Every vertex of a cycle has the same rank by symmetry.
  auto g = gen::cycle_graph(100);
  auto result = apps::pagerank(g);
  for (vertex_id v = 0; v < 100; v++)
    EXPECT_NEAR(result.rank[v], 0.01, 1e-9);
}

TEST(Pagerank, StarCenterOutranksLeaves) {
  auto g = gen::star_graph(50);
  auto result = apps::pagerank(g);
  for (vertex_id v = 1; v < 50; v++)
    EXPECT_GT(result.rank[0], result.rank[v] * 5);
}

TEST(Pagerank, ConvergesWithinMaxIterations) {
  auto g = gen::rmat_graph(10, 1 << 13, 5);
  apps::pagerank_options opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 200;
  auto result = apps::pagerank(g, opts);
  EXPECT_LT(result.num_iterations, 200u);
  EXPECT_LT(result.final_residual, 1e-8);
}

TEST(Pagerank, SingleIterationMatchesClosedForm) {
  // One iteration from the uniform start on a d-regular graph leaves ranks
  // uniform (the Table 2 configuration uses 1 iteration).
  auto g = gen::cycle_graph(10);
  apps::pagerank_options opts;
  opts.max_iterations = 1;
  auto result = apps::pagerank(g, opts);
  EXPECT_EQ(result.num_iterations, 1u);
  for (vertex_id v = 0; v < 10; v++) EXPECT_NEAR(result.rank[v], 0.1, 1e-12);
}

TEST(PagerankDelta, ActiveSetShrinks) {
  auto g = gen::rmat_graph(11, 1 << 14, 6);
  apps::pagerank_delta_options opts;
  opts.max_iterations = 50;
  auto result = apps::pagerank_delta(g, opts);
  ASSERT_GE(result.active_history.size(), 3u);
  EXPECT_EQ(result.active_history[0], g.num_vertices());  // starts full
  // Strictly fewer active vertices by the last recorded round.
  EXPECT_LT(result.active_history.back(), result.active_history.front());
}

TEST(PagerankDelta, FewerTotalEdgeTraversalsThanPowerIteration) {
  // The Delta variant's whole point (F4): summed active sets across rounds
  // are far below (rounds * n).
  auto g = gen::rmat_graph(11, 1 << 14, 7);
  apps::pagerank_delta_options opts;
  opts.tolerance = 1e-7;
  auto result = apps::pagerank_delta(g, opts);
  size_t total_active = 0;
  for (size_t a : result.active_history) total_active += a;
  size_t power_equivalent = result.num_iterations * g.num_vertices();
  EXPECT_LT(total_active, power_equivalent);
}

TEST(PagerankDelta, EmptyGraph) {
  graph g;
  auto result = apps::pagerank_delta(g);
  EXPECT_TRUE(result.rank.empty());
}

TEST(Pagerank, DanglingVerticesLoseMassConsistently) {
  // Directed path 0->1->2: vertex 2 is a sink; parallel and serial agree
  // on the (mass-losing) convention.
  auto g = graph::from_edges(3, {{0, 1}, {1, 2}}, {});
  auto par = apps::pagerank(g);
  auto ser = baseline::pagerank(g);
  EXPECT_LT(l1_distance(par.rank, ser), 1e-12);
  double sum = std::accumulate(par.rank.begin(), par.rank.end(), 0.0);
  EXPECT_LT(sum, 1.0);
}
