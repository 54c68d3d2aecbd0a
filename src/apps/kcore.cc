#include "apps/kcore.h"

#include <algorithm>
#include <stdexcept>

#include "ligra/bucket.h"
#include "ligra/edge_map.h"
#include "ligra/vertex_map.h"
#include "parallel/atomics.h"

namespace ligra::apps {

namespace {

void require_symmetric(const graph& g, const char* who) {
  if (!g.symmetric())
    throw std::invalid_argument(std::string(who) + ": requires a symmetric graph");
}

// Atomically lowers *deg by one but never below `floor` (a neighbor being
// peeled at core k cannot push a survivor's remaining degree below k).
// Returns the new value.
vertex_id decrement_to_floor(vertex_id* deg, vertex_id floor) {
  vertex_id current = atomic_load(deg);
  while (current > floor) {
    if (compare_and_swap(deg, current, current - 1)) return current - 1;
    current = atomic_load(deg);
  }
  return current;
}

// Bucketed peeling keeps a "queued for re-bucketing this step" flag in the
// top bit of each remaining degree, so claiming a neighbor costs no atomic
// beyond the decrement itself. Degrees stay below 2^31.
constexpr vertex_id kQueued = vertex_id{1} << 31;

// decrement_to_floor on a flagged degree that also sets kQueued. Returns
// true iff this call lowered the degree and was the first to do so since
// the flag was last cleared: the caller then queues the vertex.
bool decrement_and_claim(vertex_id* deg, vertex_id floor) {
  vertex_id current = atomic_load(deg);
  while ((current & ~kQueued) > floor) {
    if (compare_and_swap(deg, current, (current - 1) | kQueued))
      return (current & kQueued) == 0;
    current = atomic_load(deg);
  }
  return false;
}

}  // namespace

kcore_result kcore(const graph& g, const std::function<void()>& poll) {
  require_symmetric(g, "kcore");
  const vertex_id n = g.num_vertices();
  kcore_result result;
  result.coreness.assign(n, 0);
  if (n == 0) return result;

  std::vector<vertex_id> degree(n);
  std::vector<uint8_t> alive(n, 1);
  parallel::parallel_for(0, n, [&](size_t v) {
    degree[v] = static_cast<vertex_id>(g.out_degree(static_cast<vertex_id>(v)));
  });

  // Read only between steps, when every kQueued flag is clear.
  auto get_bucket = [&](uint32_t v) -> uint64_t {
    return alive[v] ? degree[v] : kNullBucket;
  };
  auto buckets = make_buckets(n, get_bucket, /*num_open=*/128);

  // A step with less work (peeled vertices plus their edges) than this
  // runs on one thread: most peeling steps are tiny.
  constexpr size_t kSerialWork = size_t{1} << 12;
  const size_t max_blocks = 8 * static_cast<size_t>(parallel::num_workers());
  std::vector<std::vector<uint32_t>> block_queued(max_blocks);
  std::vector<uint32_t> affected;
  size_t finished = 0;
  while (finished < n) {
    if (poll) poll();
    auto popped = buckets.next_bucket();
    if (!popped) break;
    const vertex_id k = static_cast<vertex_id>(popped->bucket);
    const std::vector<uint32_t>& ids = popped->ids;
    result.num_rounds++;
    finished += ids.size();
    if (k > result.max_core) result.max_core = k;

    // Peel: fix coreness, then lower each surviving neighbor's degree by
    // its number of peeled neighbors, clamped at k. Every peeled vertex,
    // including those of this step, has remaining degree <= k, so the
    // clamp alone keeps them fixed. Lowered neighbors are re-bucketed.
    const edge_id peeled_edges = parallel::reduce_add(
        ids.size(), [&](size_t i) { return static_cast<edge_id>(g.out_degree(ids[i])); });
    const size_t work = ids.size() + peeled_edges;
    const bool parallel_step = work >= kSerialWork;
    // A step touching a large share of the graph reads its claimed
    // neighbors back by a scan of the kQueued flags over all vertices. The
    // scan lists them in id order, so the pops they land in walk the graph
    // in order too; on random graphs that locality is what lets bucketed
    // peeling beat round peeling (EXPERIMENTS.md A4).
    const bool dense = parallel_step && work * 4 >= n;
    parallel::parallel_for(
        0, ids.size(),
        [&](size_t i) {
          result.coreness[ids[i]] = k;
          alive[ids[i]] = 0;
        },
        kSerialWork);
    if (finished == n) break;  // nobody left to lower

    if (dense) {
      parallel::parallel_for(0, ids.size(), [&](size_t i) {
        for (vertex_id u : g.out_neighbors(ids[i])) decrement_and_claim(&degree[u], k);
      });
      affected = parallel::pack_index<uint32_t>(
          n, [&](size_t v) { return (degree[v] & kQueued) != 0; });
      parallel::parallel_for(0, affected.size(),
                             [&](size_t i) { degree[affected[i]] &= ~kQueued; });
    } else {
      // Sparse: each block of peeled vertices lists the neighbors it claims.
      const size_t blocks = parallel_step ? std::min(ids.size(), max_blocks) : 1;
      parallel::parallel_for(
          0, blocks,
          [&](size_t b) {
            auto [lo, hi] = parallel::internal::block_range(ids.size(), blocks, b);
            auto& out = block_queued[b];
            out.clear();
            for (size_t i = lo; i < hi; i++)
              for (vertex_id u : g.out_neighbors(ids[i]))
                if (decrement_and_claim(&degree[u], k)) out.push_back(u);
          },
          1);
      std::vector<size_t> start(blocks + 1, 0);
      for (size_t b = 0; b < blocks; b++) start[b + 1] = start[b] + block_queued[b].size();
      affected.resize(start.back());
      parallel::parallel_for(
          0, blocks,
          [&](size_t b) {
            std::copy(block_queued[b].begin(), block_queued[b].end(),
                      affected.begin() + static_cast<ptrdiff_t>(start[b]));
            for (uint32_t u : block_queued[b]) degree[u] &= ~kQueued;
          },
          1);
    }
    buckets.update_buckets(affected);
  }
  return result;
}

kcore_result kcore_rounds(const graph& g) {
  require_symmetric(g, "kcore_rounds");
  const vertex_id n = g.num_vertices();
  kcore_result result;
  result.coreness.assign(n, 0);
  if (n == 0) return result;

  std::vector<vertex_id> degree(n);
  std::vector<uint8_t> alive(n, 1);
  parallel::parallel_for(0, n, [&](size_t v) {
    degree[v] = static_cast<vertex_id>(g.out_degree(static_cast<vertex_id>(v)));
  });

  size_t remaining = n;
  vertex_id k = 0;
  while (remaining > 0) {
    // Peel all vertices with remaining degree <= k; if none, raise k.
    auto to_peel = parallel::pack_index<vertex_id>(n, [&](size_t v) {
      return alive[v] && degree[v] <= k;
    });
    result.num_rounds++;
    if (to_peel.empty()) {
      k++;
      continue;
    }
    parallel::parallel_for(0, to_peel.size(), [&](size_t i) {
      vertex_id v = to_peel[i];
      result.coreness[v] = k;
      alive[v] = 0;
    });
    remaining -= to_peel.size();
    parallel::parallel_for(
        0, to_peel.size(),
        [&](size_t i) {
          for (vertex_id u : g.out_neighbors(to_peel[i])) {
            if (atomic_load(&alive[u])) decrement_to_floor(&degree[u], k);
          }
        });
  }
  result.max_core = k;
  return result;
}

}  // namespace ligra::apps
