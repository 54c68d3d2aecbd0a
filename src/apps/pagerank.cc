#include "apps/pagerank.h"

#include <cmath>

#include "ligra/vertex_map.h"
#include "parallel/atomics.h"

namespace ligra::apps {

namespace {

// Rank mass into v: the dense (pull) kernel sums v's in-neighbors'
// contributions in a register and commits p_next[v] = scale·sum + offset
// once; push rounds (sparse, dense_forward) accumulate raw contributions
// into a zeroed p_next instead.
struct pr_f {
  const double* contribution;  // p_curr[u] / outdeg(u), precomputed
  double* p_next;
  double scale = 1.0;
  double offset = 0.0;

  double gather_init(vertex_id) const { return 0.0; }
  void gather(double& acc, vertex_id u, vertex_id) const {
    acc += contribution[u];
  }
  bool gather_commit(vertex_id v, double acc) const {
    p_next[v] = scale * acc + offset;
    return true;
  }
  bool update_atomic(vertex_id u, vertex_id v) const {
    write_add(&p_next[v], contribution[u]);
    return true;
  }
  bool cond(vertex_id) const { return true; }
};

}  // namespace

pagerank_result pagerank(const graph& g, const pagerank_options& opts) {
  const vertex_id n = g.num_vertices();
  pagerank_result result;
  if (n == 0) return result;
  const double one_over_n = 1.0 / static_cast<double>(n);
  const double base = (1.0 - opts.damping) * one_over_n;

  std::vector<double> p_curr(n, one_over_n), p_next(n, 0.0), contribution(n);
  vertex_subset all = vertex_subset::all(n);
  // The pull commit writes every p_next[v] damped; a push kernel (sparse
  // or dense_forward) adds raw contributions, so only then is p_next
  // zeroed before the round and damped after it.
  const edge_map_options& em = opts.edge_map;
  const bool push = resolve_traversal(em, n, g.num_edges(), g.num_edges()) !=
                    traversal::dense;

  for (size_t iter = 0; iter < opts.max_iterations; iter++) {
    if (opts.poll) opts.poll();
    result.num_iterations++;
    parallel::parallel_for(0, n, [&](size_t v) {
      size_t d = g.out_degree(static_cast<vertex_id>(v));
      contribution[v] = d == 0 ? 0.0 : p_curr[v] / static_cast<double>(d);
    });
    if (push) parallel::parallel_for(0, n, [&](size_t v) { p_next[v] = 0.0; });
    edge_map_no_output(
        g, all,
        pr_f{contribution.data(), p_next.data(), opts.damping, base}, em);
    if (push) {
      parallel::parallel_for(0, n, [&](size_t v) {
        p_next[v] = opts.damping * p_next[v] + base;
      });
    }
    result.final_residual = parallel::reduce_add(
        n, [&](size_t v) { return std::fabs(p_next[v] - p_curr[v]); });
    result.active_history.push_back(n);
    std::swap(p_curr, p_next);
    if (result.final_residual < opts.tolerance) break;
  }
  result.rank = std::move(p_curr);
  return result;
}

pagerank_result pagerank_delta(const graph& g,
                               const pagerank_delta_options& opts) {
  const vertex_id n = g.num_vertices();
  pagerank_result result;
  if (n == 0) return result;
  const double one_over_n = 1.0 / static_cast<double>(n);
  const double base = (1.0 - opts.damping) * one_over_n;

  // rank accumulates; delta is the last change; ngh_sum gathers weighted
  // deltas from active in-neighbors each round.
  std::vector<double> rank(n, 0.0), delta(n, one_over_n), ngh_sum(n, 0.0);
  std::vector<double> contribution(n);

  vertex_subset frontier = vertex_subset::all(n);
  for (size_t iter = 0; iter < opts.max_iterations && !frontier.empty();
       iter++) {
    if (opts.poll) opts.poll();
    result.num_iterations++;
    result.active_history.push_back(frontier.size());
    vertex_map(frontier, [&](vertex_id v) {
      size_t d = g.out_degree(v);
      contribution[v] = d == 0 ? 0.0 : delta[v] / static_cast<double>(d);
    });
    edge_map_no_output(g, frontier,
                       pr_f{contribution.data(), ngh_sum.data()},
                       opts.edge_map);

    // Fold gathered mass into ranks; a vertex stays active while its change
    // is non-negligible relative to its rank. Round 1 is special: every
    // vertex receives the teleport constant and sheds its initial 1/n seed
    // (which was "virtual" mass used only to kick-start propagation).
    vertex_subset all = vertex_subset::all(n);
    vertex_subset next = vertex_filter(all, [&](vertex_id v) -> bool {
      if (iter == 0) {
        delta[v] = opts.damping * ngh_sum[v] + base;
        rank[v] += delta[v];
        delta[v] -= one_over_n;
      } else {
        delta[v] = opts.damping * ngh_sum[v];
        rank[v] += delta[v];
      }
      return std::fabs(delta[v]) > opts.local_tolerance * rank[v];
    });
    result.final_residual =
        parallel::reduce_add(n, [&](size_t v) { return std::fabs(delta[v]); });
    parallel::parallel_for(0, n, [&](size_t v) { ngh_sum[v] = 0.0; });
    frontier = std::move(next);
    if (result.final_residual < opts.tolerance) break;
  }
  result.rank = std::move(rank);
  return result;
}

}  // namespace ligra::apps
