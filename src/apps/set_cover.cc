#include "apps/set_cover.h"

#include <cmath>
#include <stdexcept>

#include "ligra/bucket.h"
#include "parallel/atomics.h"
#include "parallel/sort.h"
#include "util/rng.h"

namespace ligra::apps {

namespace {

// Discretized coverage level: floor(log_{1+eps} c) for c >= 1.
uint64_t level_of(size_t coverage, double log_base) {
  if (coverage == 0) return kNullBucket;
  return static_cast<uint64_t>(std::log(static_cast<double>(coverage)) /
                               log_base);
}

}  // namespace

set_cover_result approximate_set_cover(const graph& g, vertex_id num_sets,
                                       double epsilon) {
  if (!g.symmetric())
    throw std::invalid_argument("approximate_set_cover: requires symmetric graph");
  if (num_sets > g.num_vertices())
    throw std::invalid_argument("approximate_set_cover: num_sets > n");
  if (!(epsilon > 0.0))
    throw std::invalid_argument("approximate_set_cover: epsilon must be > 0");
  const vertex_id n = g.num_vertices();
  // Bipartiteness check.
  bool bipartite = parallel::reduce(
      n,
      [&](size_t ui) {
        auto u = static_cast<vertex_id>(ui);
        bool left = u < num_sets;
        for (vertex_id v : g.out_neighbors(u))
          if ((v < num_sets) == left) return false;
        return true;
      },
      true, [](bool a, bool b) { return a && b; });
  if (!bipartite)
    throw std::invalid_argument(
        "approximate_set_cover: edges must connect sets to elements");

  const double log_base = std::log1p(epsilon);
  set_cover_result result;
  std::vector<uint8_t> covered(n, 0);  // indexed by element vertex id
  std::vector<uint8_t> chosen(num_sets, 0);
  // Cached uncovered-coverage per set; refreshed lazily at pop time.
  std::vector<size_t> coverage(num_sets);
  parallel::parallel_for(0, num_sets, [&](size_t s) {
    coverage[s] = g.out_degree(static_cast<vertex_id>(s));
  });

  auto get_bucket = [&](uint32_t s) -> uint64_t {
    if (chosen[s]) return kNullBucket;
    return level_of(coverage[s], log_base);
  };
  auto buckets = make_buckets(num_sets, get_bucket, /*num_open=*/64,
                              bucket_order::decreasing);

  while (auto popped = buckets.next_bucket()) {
    result.num_buckets_processed++;
    const uint64_t level = popped->bucket;
    std::vector<uint32_t> demoted;
    parallel::sort_inplace(popped->ids);
    // Candidates in id order: recompute true coverage; select if the set
    // still belongs to this level, else re-bucket at its true level.
    for (uint32_t s : popped->ids) {
      auto sv = static_cast<vertex_id>(s);
      size_t live = 0;
      for (vertex_id e : g.out_neighbors(sv))
        if (!covered[e]) live++;
      coverage[s] = live;
      if (level_of(live, log_base) == level) {
        chosen[s] = 1;
        result.chosen_sets.push_back(sv);
        auto nbrs = g.out_neighbors(sv);
        parallel::parallel_for(0, nbrs.size(),
                               [&](size_t j) { covered[nbrs[j]] = 1; });
      } else if (live > 0) {
        demoted.push_back(s);
      }
    }
    buckets.update_buckets(demoted);
  }

  result.covered_elements = parallel::count_if_index(
      n - num_sets, [&](size_t i) { return covered[num_sets + i] != 0; });
  return result;
}

graph random_set_cover_instance(vertex_id num_sets, vertex_id num_elements,
                                size_t sets_per_element, uint64_t seed) {
  if (num_sets == 0) throw std::invalid_argument("need at least one set");
  rng r(seed);
  std::vector<edge> edges(static_cast<size_t>(num_elements) * sets_per_element);
  parallel::parallel_for(0, edges.size(), [&](size_t i) {
    auto element =
        static_cast<vertex_id>(num_sets + static_cast<vertex_id>(i / sets_per_element));
    auto set = static_cast<vertex_id>(r.bounded(i, num_sets));
    edges[i] = {set, element};
  });
  return graph::from_edges(num_sets + num_elements, std::move(edges),
                           {.symmetrize = true});
}

}  // namespace ligra::apps
