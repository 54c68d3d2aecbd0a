// Thin value-returning query adapters over the applications — the surface
// the concurrent query engine (src/engine/) executes. Each adapter maps
// (graph, params) to a compact answer instead of a full per-vertex result
// vector, validates its parameters, and throws std::invalid_argument on
// out-of-range vertices so engine futures carry diagnosable errors.
//
// Every adapter takes an optional engine::cancel_token and polls it at
// round boundaries of the underlying app (deadline/cancellation latency is
// one round, so Ligra's inner kernels stay branch-free). A triggered token
// surfaces as engine::cancelled_error / engine::deadline_exceeded_error.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/bfs.h"
#include "engine/cancel.h"
#include "graph/graph.h"
#include "obs/trace.h"

namespace ligra::apps {

// Throws std::invalid_argument naming `what` when v is not in [0, n).
inline void check_vertex(const char* what, vertex_id v, vertex_id n) {
  if (v >= n)
    throw std::invalid_argument(std::string(what) + ": vertex " +
                                std::to_string(v) + " out of range [0, " +
                                std::to_string(n) + ")");
}

// Round-boundary poll hook for `cancel`. An inactive token yields an empty
// hook, so the apps skip the per-round branch entirely.
inline std::function<void()> poll_of(const engine::cancel_token& cancel) {
  if (!cancel.active()) return {};
  return [cancel] { cancel.poll(); };
}

// Hop distance from `source` to `target`; -1 if unreachable. Runs
// bfs_levels only until the round that reaches `target`, over any edge_map
// graph — the CSR or a dynamic::mutable_graph view.
template <class G>
int64_t bfs_hop_distance(const G& g, vertex_id source, vertex_id target,
                         const engine::cancel_token& cancel = {}) {
  check_vertex("bfs_hop_distance source", source, g.num_vertices());
  check_vertex("bfs_hop_distance target", target, g.num_vertices());
  obs::span_scope rounds("rounds");
  return bfs_levels(g, source, poll_of(cancel), target)[target];
}

// Shortest-path weight from `source` to `target` (Bellman-Ford, so negative
// weights are fine); -1 if unreachable. Throws std::runtime_error if the
// graph has a negative cycle.
int64_t sssp_distance(const wgraph& g, vertex_id source, vertex_id target,
                      const engine::cancel_token& cancel = {});

// The k highest-ranked vertices as (vertex, rank) pairs, rank descending,
// ties broken by vertex id. k is clamped to num_vertices.
std::vector<std::pair<vertex_id, double>> pagerank_topk(
    const graph& g, size_t k, const engine::cancel_token& cancel = {});

// pagerank_topk's extraction phase over an arbitrary rank vector — rank
// descending, ties broken by vertex id, k clamped to rank.size(). Exposed
// so the engine can serve top-k from an epoch's PageRank view without
// rerunning PageRank.
std::vector<std::pair<vertex_id, double>> topk_ranks(
    const std::vector<double>& rank, size_t k);

// Connected-component label of `v` (smallest vertex id in v's component).
// Requires a symmetric graph.
vertex_id component_id(const graph& g, vertex_id v,
                       const engine::cancel_token& cancel = {});

// Coreness of `v` (largest k such that v is in the k-core). Requires a
// symmetric graph.
vertex_id vertex_coreness(const graph& g, vertex_id v,
                          const engine::cancel_token& cancel = {});

// Exact triangle count. Requires a symmetric graph.
uint64_t count_triangles(const graph& g,
                         const engine::cancel_token& cancel = {});

}  // namespace ligra::apps
