// Tests for k-core decomposition (Julienne extension): both the bucketed
// and the round-based peeling must match the serial Matula-Beck baseline,
// plus structural sanity on known topologies.
#include "apps/kcore.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/serial.h"
#include "graph/generators.h"
#include "parallel/scheduler.h"

using namespace ligra;

class KcoreSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KcoreSeeds, BucketedMatchesSerial) {
  uint64_t seed = GetParam();
  auto g = gen::rmat_graph(10, 1 << 13, seed);
  EXPECT_EQ(apps::kcore(g).coreness, baseline::kcore(g));
}

TEST_P(KcoreSeeds, RoundBasedMatchesSerial) {
  uint64_t seed = GetParam();
  auto g = gen::rmat_graph(9, 1 << 12, seed + 30);
  EXPECT_EQ(apps::kcore_rounds(g).coreness, baseline::kcore(g));
}

TEST_P(KcoreSeeds, BothParallelVariantsAgree) {
  uint64_t seed = GetParam();
  auto g = gen::random_graph(2000, 6, seed);
  EXPECT_EQ(apps::kcore(g).coreness, apps::kcore_rounds(g).coreness);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KcoreSeeds, ::testing::Values(1, 2, 3, 4, 5));

TEST(Kcore, CompleteGraphIsSingleCore) {
  auto g = gen::complete_graph(10);
  auto result = apps::kcore(g);
  for (vertex_id v = 0; v < 10; v++) EXPECT_EQ(result.coreness[v], 9u);
  EXPECT_EQ(result.max_core, 9u);
}

TEST(Kcore, TreeIsOneCore) {
  auto g = gen::binary_tree_graph(63);
  auto result = apps::kcore(g);
  for (vertex_id v = 0; v < 63; v++) EXPECT_EQ(result.coreness[v], 1u);
}

TEST(Kcore, IsolatedVerticesAreZeroCore) {
  auto g = graph::from_edges(5, {{0, 1}}, {.symmetrize = true});
  auto result = apps::kcore(g);
  EXPECT_EQ(result.coreness[0], 1u);
  EXPECT_EQ(result.coreness[2], 0u);
  EXPECT_EQ(result.coreness[4], 0u);
}

TEST(Kcore, TriangleWithPendant) {
  // Triangle {0,1,2} core 2; pendant 3 attached to 0 core 1.
  auto g = graph::from_edges(4, {{0, 1}, {1, 2}, {2, 0}, {0, 3}},
                             {.symmetrize = true});
  auto result = apps::kcore(g);
  EXPECT_EQ(result.coreness[0], 2u);
  EXPECT_EQ(result.coreness[1], 2u);
  EXPECT_EQ(result.coreness[2], 2u);
  EXPECT_EQ(result.coreness[3], 1u);
  EXPECT_EQ(result.max_core, 2u);
}

TEST(Kcore, CoreInvariant) {
  // Every vertex with coreness k must have >= k neighbors of coreness >= k.
  auto g = gen::rmat_graph(10, 1 << 13, 9);
  auto result = apps::kcore(g);
  for (vertex_id v = 0; v < g.num_vertices(); v++) {
    size_t strong = 0;
    for (vertex_id u : g.out_neighbors(v))
      if (result.coreness[u] >= result.coreness[v]) strong++;
    EXPECT_GE(strong, result.coreness[v]) << "vertex " << v;
  }
}

TEST(Kcore, RequiresSymmetric) {
  auto g = gen::rmat_digraph(8, 1 << 9, 1);
  EXPECT_THROW(apps::kcore(g), std::invalid_argument);
  EXPECT_THROW(apps::kcore_rounds(g), std::invalid_argument);
}

TEST(Kcore, EmptyGraph) {
  auto g = graph::from_edges(0, {}, {.symmetrize = true});
  EXPECT_TRUE(apps::kcore(g).coreness.empty());
  EXPECT_TRUE(apps::kcore_rounds(g).coreness.empty());
}

TEST(Kcore, BucketedDoesFewerRoundsThanRoundBasedOnSkewedGraph) {
  // The point of Julienne: bucketed peeling touches only affected vertices.
  // Round counts are a proxy observable here.
  auto g = gen::rmat_graph(11, 1 << 14, 2);
  auto bucketed = apps::kcore(g);
  auto rounds = apps::kcore_rounds(g);
  EXPECT_EQ(bucketed.coreness, rounds.coreness);
  EXPECT_GT(bucketed.num_rounds, 0u);
}

// Graphs large enough that peeling steps and bucket insertions run in
// parallel, at one worker and at the default count.
TEST(Kcore, LargeInputsMatchSerialAtOneAndDefaultWorkers) {
  const graph inputs[] = {gen::rmat_graph(14, edge_id{16} << 14, 5),
                          gen::rmat_graph(16, edge_id{8} << 16, 5),
                          gen::random_graph(1 << 14, 10, 6),
                          gen::grid3d_graph(25)};
  const int before = parallel::num_workers();
  for (int workers : {1, parallel::scheduler::default_num_workers()}) {
    parallel::set_num_workers(workers);
    for (const graph& g : inputs) {
      auto expected = baseline::kcore(g);
      auto bucketed = apps::kcore(g);
      EXPECT_EQ(bucketed.coreness, expected) << workers << " workers, n=" << g.num_vertices();
      EXPECT_EQ(bucketed.max_core, *std::max_element(expected.begin(), expected.end()));
    }
  }
  parallel::set_num_workers(before);
}
