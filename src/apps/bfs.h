// Breadth-first search (paper §4.1) — the flagship application: parent-
// pointer BFS with direction-optimizing traversal falling out of edge_map's
// hybrid strategy for free.
#pragma once

#include <functional>
#include <stdexcept>
#include <vector>

#include "graph/graph.h"
#include "ligra/edge_map.h"
#include "parallel/atomics.h"

namespace ligra::apps {

struct bfs_options {
  // Forwarded to every edge_map call (lets benchmarks force sparse/dense
  // traversal and sweep the threshold — experiments F1/F2).
  edge_map_options edge_map;
};

// One row of the per-iteration trace (experiment F1): the frontier the
// round started from and the traversal direction the hybrid picked.
struct bfs_round_stats {
  size_t frontier_size = 0;
  edge_id frontier_edges = 0;
  traversal used = traversal::automatic;
};

struct bfs_result {
  // parents[v] = BFS-tree parent of v; source maps to itself; unreachable
  // vertices map to kNoVertex.
  std::vector<vertex_id> parents;
  size_t num_reached = 0;   // vertices in the BFS tree (incl. source)
  size_t num_rounds = 0;    // = eccentricity of source within its component
  std::vector<bfs_round_stats> trace;  // filled iff options request it
};

// Runs BFS from `source`. Works on directed and undirected graphs (dense
// traversal uses in-edges, which graph_t always carries).
bfs_result bfs(const graph& g, vertex_id source, const bfs_options& options = {});

// Convenience: just the parent array.
std::vector<vertex_id> bfs_parents(const graph& g, vertex_id source);

// BFS levels: distance in hops from source, or -1 if unreachable. Written
// once over the edge_map graph concept, so the CSR and the mutable
// base+delta view (src/dynamic/) share this one traversal. `poll` (if set)
// is invoked once per round and may throw to abort the traversal — the
// query engine's cancellation hook. With `stop` set to a vertex, the
// traversal returns after the round that labels it: `stop`'s level is
// exact, vertices farther out read -1.
template <class G>
std::vector<int64_t> bfs_levels(const G& g, vertex_id source,
                                const std::function<void()>& poll = {},
                                vertex_id stop = kNoVertex) {
  if (source >= g.num_vertices())
    throw std::invalid_argument("bfs_levels: source out of range");
  std::vector<int64_t> level(g.num_vertices(), -1);
  level[source] = 0;

  // Level stamping: the CAS winner of each newly discovered vertex returns
  // true, so the output frontier is duplicate-free.
  struct level_f {
    int64_t* level;
    int64_t round;
    bool update(vertex_id, vertex_id v) const {
      if (level[v] == -1) {
        level[v] = round;
        return true;
      }
      return false;
    }
    bool update_atomic(vertex_id, vertex_id v) const {
      return compare_and_swap(&level[v], int64_t{-1}, round);
    }
    bool cond(vertex_id v) const { return atomic_load(&level[v]) == -1; }
  };

  vertex_subset frontier(g.num_vertices(), source);
  edge_map_scratch scratch;
  edge_map_options opts;
  opts.scratch = &scratch;
  int64_t round = 0;
  while (!frontier.empty() && (stop == kNoVertex || level[stop] == -1)) {
    if (poll) poll();
    round++;
    frontier = edge_map(g, frontier, level_f{level.data(), round}, opts);
  }
  return level;
}

}  // namespace ligra::apps
