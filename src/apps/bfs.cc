#include "apps/bfs.h"

#include <stdexcept>

#include "parallel/atomics.h"

namespace ligra::apps {

namespace {

// The paper's BFS update functor (Figure 2 of the paper): claim v's parent
// slot; a vertex joins the next frontier the first time it is claimed.
struct bfs_f {
  vertex_id* parents;

  bool update(vertex_id u, vertex_id v) const {
    // Dense traversal: only one thread touches v, plain write suffices.
    if (parents[v] == kNoVertex) {
      parents[v] = u;
      return true;
    }
    return false;
  }
  bool update_atomic(vertex_id u, vertex_id v) const {
    return compare_and_swap(&parents[v], kNoVertex, u);
  }
  // atomic_load: in sparse rounds cond races with other threads' CAS.
  bool cond(vertex_id v) const { return atomic_load(&parents[v]) == kNoVertex; }
};

}  // namespace

bfs_result bfs(const graph& g, vertex_id source, const bfs_options& options) {
  if (source >= g.num_vertices())
    throw std::invalid_argument("bfs: source out of range");
  bfs_result result;
  result.parents.assign(g.num_vertices(), kNoVertex);
  result.parents[source] = source;
  result.num_reached = 1;

  vertex_subset frontier(g.num_vertices(), source);
  const bool want_trace = options.edge_map.stats != nullptr;
  // One traversal scratch for the whole BFS: every round after the first
  // reuses its buffers, so steady-state rounds allocate nothing beyond the
  // next frontier itself (unless the caller already supplied a scratch).
  edge_map_scratch scratch;
  while (!frontier.empty()) {
    edge_map_stats stats;
    edge_map_options opts = options.edge_map;
    opts.stats = &stats;
    if (opts.scratch == nullptr) opts.scratch = &scratch;
    frontier = edge_map(g, frontier, bfs_f{result.parents.data()}, opts);
    result.num_rounds++;
    result.num_reached += frontier.size();
    if (want_trace) {
      result.trace.push_back(
          {stats.frontier_size, stats.frontier_edges, stats.used});
    }
  }
  return result;
}

std::vector<vertex_id> bfs_parents(const graph& g, vertex_id source) {
  return bfs(g, source).parents;
}

}  // namespace ligra::apps
