#include "apps/query_adapters.h"

#include <algorithm>
#include <numeric>

#include "apps/bellman_ford.h"
#include "apps/components.h"
#include "apps/kcore.h"
#include "apps/pagerank.h"
#include "apps/triangle.h"

namespace ligra::apps {

int64_t sssp_distance(const wgraph& g, vertex_id source, vertex_id target,
                      const engine::cancel_token& cancel) {
  check_vertex("sssp_distance source", source, g.num_vertices());
  check_vertex("sssp_distance target", target, g.num_vertices());
  obs::span_scope rounds("rounds");
  auto r = bellman_ford(g, source, {}, poll_of(cancel));
  if (r.negative_cycle)
    throw std::runtime_error("sssp_distance: graph has a negative cycle");
  int64_t d = r.distances[target];
  return d >= kInfiniteDistance ? -1 : d;
}

std::vector<std::pair<vertex_id, double>> pagerank_topk(
    const graph& g, size_t k, const engine::cancel_token& cancel) {
  pagerank_options opts;
  opts.poll = poll_of(cancel);
  pagerank_result pr;
  {
    obs::span_scope rounds("rounds");
    pr = pagerank(g, opts);
  }
  // Rank extraction is a separate phase from the power iteration: on large
  // graphs the partial_sort is visible in traces.
  obs::span_scope finalize("finalize");
  return topk_ranks(pr.rank, k);
}

std::vector<std::pair<vertex_id, double>> topk_ranks(
    const std::vector<double>& rank, size_t k) {
  const size_t n = rank.size();
  if (k > n) k = n;
  std::vector<vertex_id> order(n);
  std::iota(order.begin(), order.end(), vertex_id{0});
  auto better = [&](vertex_id a, vertex_id b) {
    return rank[a] != rank[b] ? rank[a] > rank[b] : a < b;
  };
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                    order.end(), better);
  std::vector<std::pair<vertex_id, double>> top(k);
  for (size_t i = 0; i < k; i++) top[i] = {order[i], rank[order[i]]};
  return top;
}

vertex_id component_id(const graph& g, vertex_id v,
                       const engine::cancel_token& cancel) {
  check_vertex("component_id", v, g.num_vertices());
  obs::span_scope rounds("rounds");
  return connected_components(g, {}, poll_of(cancel)).labels[v];
}

vertex_id vertex_coreness(const graph& g, vertex_id v,
                          const engine::cancel_token& cancel) {
  check_vertex("vertex_coreness", v, g.num_vertices());
  obs::span_scope rounds("rounds");
  return kcore(g, poll_of(cancel)).coreness[v];
}

uint64_t count_triangles(const graph& g, const engine::cancel_token& cancel) {
  obs::span_scope rounds("rounds");
  return triangle_count(g, poll_of(cancel)).num_triangles;
}

}  // namespace ligra::apps
