// Tests for edge_map (DESIGN.md S8) — the paper's core contribution.
//
// The central property: all three traversal strategies (sparse, dense,
// dense_forward) and the hybrid must produce identical results for
// commutative/idempotent update functions. Verified on parameterized
// random graphs against a sequential oracle, plus targeted tests for the
// threshold rule, early exit, duplicate removal, weights, and no-output,
// and the dense kernel's gather form against its update form.
#include "ligra/edge_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "compress/compressed_graph.h"
#include "dynamic/mutable_graph.h"
#include "graph/generators.h"
#include "ligra/vertex_subset.h"
#include "parallel/atomics.h"
#include "util/rng.h"

using namespace ligra;

namespace {

// Mark functor: marks targets not yet marked; output = newly marked.
struct mark_f {
  uint8_t* marked;
  bool update(vertex_id, vertex_id v) const {
    if (!marked[v]) {
      marked[v] = 1;
      return true;
    }
    return false;
  }
  bool update_atomic(vertex_id, vertex_id v) const {
    return compare_and_swap(&marked[v], uint8_t{0}, uint8_t{1});
  }
  bool cond(vertex_id v) const { return atomic_load(&marked[v]) == 0; }
};

// Sequential oracle for one mark step: the set of unmarked out-neighbors
// of the frontier.
std::vector<vertex_id> oracle_step(const graph& g,
                                   const std::vector<vertex_id>& frontier,
                                   const std::vector<uint8_t>& marked) {
  std::set<vertex_id> out;
  for (vertex_id u : frontier)
    for (vertex_id v : g.out_neighbors(u))
      if (!marked[v]) out.insert(v);
  return {out.begin(), out.end()};
}

std::vector<vertex_id> run_mark_step(const graph& g,
                                     const std::vector<vertex_id>& frontier,
                                     std::vector<uint8_t> marked,
                                     traversal strategy) {
  vertex_subset vs(g.num_vertices(), frontier);
  edge_map_options opts;
  opts.strategy = strategy;
  auto out = edge_map(g, vs, mark_f{marked.data()}, opts);
  return out.to_sorted_vector();
}

}  // namespace

class EdgeMapRandomGraphs : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EdgeMapRandomGraphs, AllStrategiesMatchOracle) {
  uint64_t seed = GetParam();
  auto g = gen::rmat_graph(9, 1 << 12, seed);
  const vertex_id n = g.num_vertices();
  rng r(seed * 31 + 1);

  // Random initial marking and random frontier drawn from marked vertices.
  std::vector<uint8_t> marked(n, 0);
  std::vector<vertex_id> frontier;
  for (vertex_id v = 0; v < n; v++) {
    if (r.uniform(v) < 0.1) {
      marked[v] = 1;
      if (r.uniform(v + n) < 0.5) frontier.push_back(v);
    }
  }
  auto expect = oracle_step(g, frontier, marked);
  for (traversal t : {traversal::sparse, traversal::dense,
                      traversal::dense_forward, traversal::automatic}) {
    EXPECT_EQ(run_mark_step(g, frontier, marked, t), expect)
        << "strategy " << traversal_name(t);
  }
}

TEST_P(EdgeMapRandomGraphs, DirectedGraphStrategiesAgree) {
  uint64_t seed = GetParam();
  auto g = gen::rmat_digraph(9, 1 << 12, seed + 100);
  std::vector<uint8_t> marked(g.num_vertices(), 0);
  std::vector<vertex_id> frontier;
  for (vertex_id v = 0; v < g.num_vertices(); v += 17) {
    marked[v] = 1;
    frontier.push_back(v);
  }
  auto expect = oracle_step(g, frontier, marked);
  for (traversal t : {traversal::sparse, traversal::dense,
                      traversal::dense_forward}) {
    EXPECT_EQ(run_mark_step(g, frontier, marked, t), expect)
        << "strategy " << traversal_name(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeMapRandomGraphs,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(EdgeMap, ThresholdSelectsSparseThenDense) {
  auto g = gen::rmat_graph(10, 1 << 13, 1);
  std::vector<uint8_t> marked(g.num_vertices(), 0);

  // Tiny frontier of low-degree vertices -> sparse.
  vertex_id small = 0;
  for (vertex_id v = 0; v < g.num_vertices(); v++)
    if (g.out_degree(v) == 1) {
      small = v;
      break;
    }
  vertex_subset tiny(g.num_vertices(), small);
  edge_map_stats stats;
  edge_map_options opts;
  opts.stats = &stats;
  edge_map(g, tiny, mark_f{marked.data()}, opts);
  EXPECT_EQ(stats.used, traversal::sparse);

  // Full frontier -> dense.
  std::fill(marked.begin(), marked.end(), 0);
  vertex_subset all = vertex_subset::all(g.num_vertices());
  edge_map(g, all, mark_f{marked.data()}, opts);
  EXPECT_EQ(stats.used, traversal::dense);
  EXPECT_EQ(stats.frontier_size, g.num_vertices());
  EXPECT_EQ(stats.frontier_edges, g.num_edges());
}

TEST(EdgeMap, ThresholdDenominatorIsRespected) {
  auto g = gen::rmat_graph(10, 1 << 13, 2);
  // Denominator 1: dense only when |U| + outdeg(U) > m -> full frontier is
  // borderline; a small frontier must stay sparse even at denominator 1,
  // and everything goes dense at a huge denominator.
  std::vector<uint8_t> marked(g.num_vertices(), 0);
  vertex_subset one(g.num_vertices(), vertex_id{0});
  edge_map_stats stats;
  edge_map_options opts;
  opts.stats = &stats;
  opts.threshold_denominator = 1;
  edge_map(g, one, mark_f{marked.data()}, opts);
  EXPECT_EQ(stats.used, traversal::sparse);

  opts.threshold_denominator = g.num_edges() + 1;  // threshold ~ 0
  vertex_subset one2(g.num_vertices(), vertex_id{0});
  std::fill(marked.begin(), marked.end(), 0);
  edge_map(g, one2, mark_f{marked.data()}, opts);
  EXPECT_EQ(stats.used, traversal::dense);
}

TEST(EdgeMap, PreferDenseForwardOption) {
  auto g = gen::rmat_graph(9, 1 << 12, 3);
  std::vector<uint8_t> marked(g.num_vertices(), 0);
  vertex_subset all = vertex_subset::all(g.num_vertices());
  edge_map_stats stats;
  edge_map_options opts;
  opts.stats = &stats;
  opts.prefer_dense_forward = true;
  edge_map(g, all, mark_f{marked.data()}, opts);
  EXPECT_EQ(stats.used, traversal::dense_forward);
}

TEST(EdgeMap, ResolveTraversalMatchesChoiceMade) {
  // resolve_traversal is the rule edge_map applies; callers that prepare
  // kernel-specific state (PageRank) rely on the two never disagreeing.
  auto g = gen::rmat_graph(10, 1 << 13, 4);
  const vertex_id n = g.num_vertices();
  std::vector<std::vector<vertex_id>> frontiers = {{0}, {}, {}};
  for (vertex_id v = 0; v < n; v += 3) frontiers[1].push_back(v);
  for (vertex_id v = 0; v < n; v++) frontiers[2].push_back(v);
  for (traversal t : {traversal::automatic, traversal::sparse,
                      traversal::dense, traversal::dense_forward}) {
    for (bool forward : {false, true}) {
      for (uint64_t denom : {uint64_t{1}, uint64_t{20}, uint64_t{1} << 20}) {
        for (const auto& members : frontiers) {
          std::vector<uint8_t> marked(n, 0);
          vertex_subset u(n, std::vector<vertex_id>(members));
          edge_map_stats stats;
          edge_map_options opts;
          opts.strategy = t;
          opts.prefer_dense_forward = forward;
          opts.threshold_denominator = denom;
          opts.stats = &stats;
          edge_map(g, u, mark_f{marked.data()}, opts);
          EXPECT_EQ(resolve_traversal(opts, stats.frontier_size,
                                      stats.frontier_edges, g.num_edges()),
                    stats.used)
              << traversal_name(t) << " forward=" << forward
              << " denom=" << denom << " |U|=" << members.size();
        }
      }
    }
  }
}

TEST(EdgeMap, CondEarlyExitLimitsDenseUpdates) {
  // Star graph, all leaves in the frontier, target = center. With a cond
  // that flips false after the first update, the dense traversal must stop
  // scanning the center's in-list after one hit.
  const vertex_id n = 1000;
  auto g = gen::star_graph(n);
  std::vector<int> hits(n, 0);
  struct once_f {
    int* hits;
    bool update(vertex_id, vertex_id v) const {
      hits[v]++;
      return true;
    }
    bool update_atomic(vertex_id, vertex_id v) const {
      write_add(&hits[v], 1);
      return true;
    }
    bool cond(vertex_id v) const { return atomic_load(&hits[v]) == 0; }
  };
  std::vector<vertex_id> leaves;
  for (vertex_id v = 1; v < n; v++) leaves.push_back(v);
  vertex_subset frontier(n, leaves);
  edge_map_options opts;
  opts.strategy = traversal::dense;
  auto out = edge_map(g, frontier, once_f{hits.data()}, opts);
  EXPECT_EQ(hits[0], 1);  // early exit: one update despite n-1 in-edges
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.contains(0));
}

TEST(EdgeMap, RemoveDuplicatesDeduplicatesSparseOutput) {
  // Functor that returns true unconditionally: without dedup, a target
  // with k frontier in-neighbors appears k times.
  auto g = gen::complete_graph(50);
  struct always_f {
    bool update(vertex_id, vertex_id) const { return true; }
    bool update_atomic(vertex_id, vertex_id) const { return true; }
    bool cond(vertex_id) const { return true; }
  };
  std::vector<vertex_id> half;
  for (vertex_id v = 0; v < 25; v++) half.push_back(v);

  vertex_subset f1(50, half);
  edge_map_options opts;
  opts.strategy = traversal::sparse;
  opts.remove_duplicates = true;
  auto out = edge_map(g, f1, always_f{}, opts);
  EXPECT_EQ(out.size(), 50u);  // every vertex exactly once
  auto ids = out.to_sorted_vector();
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

TEST(EdgeMap, WeightedUpdateReceivesCorrectWeights) {
  // Weighted path 0-1-2 with distinct weights; sum the weights seen.
  std::vector<weighted_edge> edges = {{0, 1, 10}, {1, 2, 20}};
  auto g = wgraph::from_edges(3, edges, {.symmetrize = true});
  struct sum_f {
    int64_t* total;
    bool update(vertex_id, vertex_id, int32_t w) const {
      write_add(total, static_cast<int64_t>(w));
      return false;
    }
    bool update_atomic(vertex_id u, vertex_id v, int32_t w) const {
      return update(u, v, w);
    }
    bool cond(vertex_id) const { return true; }
  };
  for (traversal t : {traversal::sparse, traversal::dense,
                      traversal::dense_forward}) {
    int64_t total = 0;
    vertex_subset frontier(3, vertex_id{1});
    edge_map_options opts;
    opts.strategy = t;
    edge_map(g, frontier, sum_f{&total}, opts);
    EXPECT_EQ(total, 30) << traversal_name(t);  // edges 1->0 (10) and 1->2 (20)
  }
}

TEST(EdgeMap, NoOutputSkipsSubsetButAppliesUpdates) {
  auto g = gen::cycle_graph(100);
  std::vector<uint8_t> marked(100, 0);
  vertex_subset frontier(100, vertex_id{0});
  edge_map_no_output(g, frontier, mark_f{marked.data()});
  EXPECT_EQ(marked[1] + marked[99], 2);
}

TEST(EdgeMap, EmptyFrontierYieldsEmptyOutput) {
  auto g = gen::cycle_graph(10);
  vertex_subset frontier(10);
  auto out = edge_map(g, frontier, mark_f{nullptr});
  EXPECT_TRUE(out.empty());
}

TEST(EdgeMap, MismatchedUniverseThrows) {
  auto g = gen::cycle_graph(10);
  vertex_subset frontier(5, vertex_id{0});
  EXPECT_THROW(edge_map(g, frontier, mark_f{nullptr}), std::invalid_argument);
}

TEST(EdgeMap, MultiRoundBfsReachesWholeComponent) {
  // Iterating the mark step from one vertex must mark the component —
  // checked across all strategies for identical reach counts.
  auto g = gen::random_graph(1 << 12, 5, 9);
  size_t reach[3];
  int ti = 0;
  for (traversal t : {traversal::sparse, traversal::dense,
                      traversal::automatic}) {
    std::vector<uint8_t> marked(g.num_vertices(), 0);
    marked[0] = 1;
    vertex_subset frontier(g.num_vertices(), vertex_id{0});
    edge_map_options opts;
    opts.strategy = t;
    while (!frontier.empty())
      frontier = edge_map(g, frontier, mark_f{marked.data()}, opts);
    reach[ti++] = static_cast<size_t>(
        std::count(marked.begin(), marked.end(), uint8_t{1}));
  }
  EXPECT_EQ(reach[0], reach[1]);
  EXPECT_EQ(reach[1], reach[2]);
  EXPECT_GT(reach[0], g.num_vertices() / 2);  // random deg-10 graph: giant CC
}

// --- dense kernel: gather form vs update form -------------------------------

namespace {

// Both functors sum val(u) = u + 1 over v's frontier in-neighbors into
// sum[v]; v joins the output when it had any. cond(v) is false where
// skip[v] is set. Integer sums, so any fold order gives the same value.
struct sum_update_f {
  uint64_t* sum;
  const uint8_t* skip;
  bool update(vertex_id u, vertex_id v) const {
    sum[v] += uint64_t{u} + 1;
    return true;
  }
  bool update_atomic(vertex_id u, vertex_id v) const {
    write_add(&sum[v], uint64_t{u} + 1);
    return true;
  }
  bool cond(vertex_id v) const { return skip[v] == 0; }
};

struct sum_gather_f : sum_update_f {
  struct acc_t {
    uint64_t sum = 0;
    bool any = false;
  };
  acc_t gather_init(vertex_id) const { return {}; }
  void gather(acc_t& a, vertex_id u, vertex_id) const {
    a.sum += uint64_t{u} + 1;
    a.any = true;
  }
  bool gather_commit(vertex_id v, const acc_t& a) const {
    sum[v] = a.sum;
    return a.any;
  }
};

struct dense_outcome {
  std::vector<vertex_id> out;
  std::vector<uint64_t> sum;
  size_t blocks = 0;
};

// One forced-dense edge_map of F over `frontier` (a fresh copy per call).
template <class F, class G>
dense_outcome run_dense(const G& g, vertex_subset frontier, bool produce,
                        const std::vector<uint8_t>& skip) {
  dense_outcome r;
  r.sum.assign(g.num_vertices(), 0);
  F f;
  f.sum = r.sum.data();
  f.skip = skip.data();
  edge_map_stats stats;
  edge_map_options opts;
  opts.strategy = traversal::dense;
  opts.produce_output = produce;
  opts.stats = &stats;
  r.out = edge_map(g, frontier, f, opts).to_sorted_vector();
  r.blocks = stats.blocks;
  return r;
}

// Serial oracle over the graph's own in-edge iteration.
template <class G>
dense_outcome oracle_dense(const G& g, const std::vector<uint8_t>& member,
                           const std::vector<uint8_t>& skip) {
  dense_outcome r;
  r.sum.assign(g.num_vertices(), 0);
  for (vertex_id v = 0; v < g.num_vertices(); v++) {
    if (skip[v]) continue;
    bool any = false;
    g.decode_in(v, [&](vertex_id u, auto, size_t) {
      if (member[u]) {
        r.sum[v] += uint64_t{u} + 1;
        any = true;
      }
      return true;
    });
    if (any) r.out.push_back(v);
  }
  return r;
}

// Random graph plus a hub (vertex 0) adjacent to every vertex: at n = 20000
// its in-edges span several kEdgeBlockSize blocks.
graph with_hub(vertex_id n, uint64_t seed) {
  auto edges = gen::random_graph(n, 4, seed).to_edges();
  for (vertex_id v = 1; v < n; v++) edges.emplace_back(v, 0);
  build_options o;
  o.symmetrize = true;
  return graph::from_edges(n, std::move(edges), o);
}

// Checks gather == update == oracle on `g` for all-vertex (byte and id-list
// forms) and partial frontiers, with and without output.
template <class G>
void expect_gather_matches_update(const G& g, uint64_t seed) {
  const vertex_id n = g.num_vertices();
  rng r(seed);
  std::vector<uint8_t> skip(n), partial(n);
  for (vertex_id v = 0; v < n; v++) {
    skip[v] = r[2 * v] % 7 == 0 ? 1 : 0;
    partial[v] = r[2 * v + 1] % 3 == 0 ? 1 : 0;
  }
  partial[0] = 1;  // the hub is in the partial frontier
  std::vector<vertex_id> all_ids(n), partial_ids;
  for (vertex_id v = 0; v < n; v++) {
    all_ids[v] = v;
    if (partial[v]) partial_ids.push_back(v);
  }
  const std::vector<uint8_t> everyone(n, 1);
  struct frontier_case {
    const char* name;
    const std::vector<uint8_t>& member;
    vertex_subset subset;
  };
  std::vector<frontier_case> cases;
  cases.push_back({"all (bytes)", everyone, vertex_subset::all(n)});
  cases.push_back({"all (ids)", everyone, vertex_subset(n, all_ids)});
  cases.push_back({"partial", partial, vertex_subset(n, partial_ids)});
  for (const auto& c : cases) {
    const auto want = oracle_dense(g, c.member, skip);
    for (bool produce : {true, false}) {
      SCOPED_TRACE(std::string(c.name) + (produce ? ", output" : ", no output") +
                   ", n=" + std::to_string(n));
      auto gathered = run_dense<sum_gather_f>(g, c.subset, produce, skip);
      auto updated = run_dense<sum_update_f>(g, c.subset, produce, skip);
      EXPECT_EQ(gathered.sum, want.sum);
      EXPECT_EQ(updated.sum, want.sum);
      EXPECT_EQ(gathered.out, produce ? want.out : std::vector<vertex_id>{});
      EXPECT_EQ(updated.out, gathered.out);
      EXPECT_GE(gathered.blocks, 1u);
    }
  }
}

}  // namespace

class DenseGather : public ::testing::TestWithParam<vertex_id> {};

TEST_P(DenseGather, CsrGatherMatchesUpdate) {
  const vertex_id n = GetParam();
  auto g = with_hub(n, n);
  expect_gather_matches_update(g, 11);
  if (n > 4 * kEdgeBlockSize) {
    // The hub's in-edges alone fill several blocks; the layout still
    // covers all of [0, n + m).
    vertex_subset all = vertex_subset::all(n);
    std::vector<uint8_t> skip(n);
    EXPECT_GE(run_dense<sum_gather_f>(g, all, false, skip).blocks,
              (n + g.num_edges()) / kEdgeBlockSize);
  }
}

TEST_P(DenseGather, DirectedCsrGatherMatchesUpdate) {
  const vertex_id n = GetParam();
  auto edges = gen::random_graph(n, 4, n + 1).to_edges();
  for (vertex_id v = 1; v < n; v++) edges.emplace_back(v, 0);
  expect_gather_matches_update(graph::from_edges(n, std::move(edges)), 12);
}

TEST_P(DenseGather, CompressedGatherMatchesUpdate) {
  const vertex_id n = GetParam();
  auto cg = compress::compressed_graph::from_graph(with_hub(n, n + 2));
  expect_gather_matches_update(cg, 13);
}

TEST_P(DenseGather, MutableViewGatherMatchesUpdate) {
  const vertex_id n = GetParam();
  dynamic::mutable_graph base(with_hub(n, n + 3));
  dynamic::update_batch batch;
  rng r(n);
  for (vertex_id i = 0; i < 64; i++) {
    // Inserts between the two halves of [1, n) never meet the deletes,
    // which all touch the hub.
    batch.inserts.emplace_back(
        static_cast<vertex_id>(1 + r[2 * i] % (n / 2)),
        static_cast<vertex_id>(n / 2 + 1 + r[2 * i + 1] % (n / 2 - 1)));
    batch.deletes.emplace_back(vertex_id{0}, 2 * i + 1);
  }
  auto view = base.apply(std::move(batch)).next;
  ASSERT_GT(view.delta_edges(), 0u);
  expect_gather_matches_update(view, 14);
}

// n on both sides of parallel_for's 2048-element cutoff, and one large
// enough that the hub spans several edge blocks.
INSTANTIATE_TEST_SUITE_P(Sizes, DenseGather,
                         ::testing::Values(vertex_id{1000}, vertex_id{3000},
                                           vertex_id{20000}));
