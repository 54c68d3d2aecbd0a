// Tests for the engine's LRU result cache: hit/miss/eviction semantics,
// recency refresh on access, epoch-keyed invalidation, counters, the
// capacity-0 disabled mode, and which query kinds the executor caches.
#include "engine/result_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "graph/generators.h"

namespace e = ligra::engine;

namespace {

e::cache_key key(uint64_t epoch, uint64_t a, uint64_t b = 0) {
  e::cache_key k;
  k.epoch = epoch;
  k.kind = e::query_kind::bfs_distance;
  k.a = a;
  k.b = b;
  return k;
}

std::shared_ptr<const e::query_result> value(int64_t v) {
  auto r = std::make_shared<e::query_result>();
  r->value = v;
  return r;
}

}  // namespace

TEST(EngineCache, MissThenHit) {
  e::result_cache cache(8);
  EXPECT_EQ(cache.get(key(1, 0)), nullptr);
  cache.put(key(1, 0), value(42));
  auto hit = cache.get(key(1, 0));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value, 42);
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.insertions, 1u);
}

TEST(EngineCache, DistinctParamsDistinctEntries) {
  e::result_cache cache(8);
  cache.put(key(1, 0, 5), value(1));
  cache.put(key(1, 0, 6), value(2));
  cache.put(key(2, 0, 5), value(3));  // same params, different epoch
  EXPECT_EQ(cache.get(key(1, 0, 5))->value, 1);
  EXPECT_EQ(cache.get(key(1, 0, 6))->value, 2);
  EXPECT_EQ(cache.get(key(2, 0, 5))->value, 3);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(EngineCache, EvictsLeastRecentlyUsed) {
  e::result_cache cache(2);
  cache.put(key(1, 1), value(1));
  cache.put(key(1, 2), value(2));
  EXPECT_NE(cache.get(key(1, 1)), nullptr);  // refresh 1: now 2 is LRU
  cache.put(key(1, 3), value(3));            // evicts 2
  EXPECT_EQ(cache.get(key(1, 2)), nullptr);
  EXPECT_NE(cache.get(key(1, 1)), nullptr);
  EXPECT_NE(cache.get(key(1, 3)), nullptr);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EngineCache, PutRefreshesExistingKey) {
  e::result_cache cache(2);
  cache.put(key(1, 1), value(1));
  cache.put(key(1, 2), value(2));
  cache.put(key(1, 1), value(10));  // refresh, not insert: no eviction
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_EQ(cache.get(key(1, 1))->value, 10);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EngineCache, ClearDropsEntriesKeepsCounters) {
  e::result_cache cache(8);
  cache.put(key(1, 1), value(1));
  (void)cache.get(key(1, 1));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get(key(1, 1)), nullptr);
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(EngineCache, ZeroCapacityDisables) {
  e::result_cache cache(0);
  cache.put(key(1, 1), value(1));
  EXPECT_EQ(cache.get(key(1, 1)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EngineCache, HitRate) {
  e::result_cache cache(8);
  cache.put(key(1, 1), value(1));
  (void)cache.get(key(1, 1));
  (void)cache.get(key(1, 1));
  (void)cache.get(key(1, 2));
  EXPECT_NEAR(cache.counters().hit_rate(), 2.0 / 3.0, 1e-9);
}

TEST(EngineCache, ConcurrentGetPut) {
  e::result_cache cache(64);
  const int threads = 8, iters = 2000;
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < iters; i++) {
        uint64_t k = static_cast<uint64_t>((t * 7 + i) % 100);
        if (auto hit = cache.get(key(1, k))) {
          ASSERT_EQ(hit->value, static_cast<int64_t>(k));
        } else {
          cache.put(key(1, k), value(static_cast<int64_t>(k)));
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_LE(cache.size(), 64u);
  auto c = cache.counters();
  EXPECT_EQ(c.hits + c.misses,
            static_cast<uint64_t>(threads) * static_cast<uint64_t>(iters));
}

TEST(EngineCache, SnapshotReportsCountersSizeAndCapacity) {
  e::result_cache cache(4);
  cache.put(key(1, 0), value(1));
  cache.put(key(1, 1), value(2));
  cache.get(key(1, 0));
  cache.get(key(9, 9));  // miss
  auto snap = cache.snapshot();
  EXPECT_EQ(snap.size, 2u);
  EXPECT_EQ(snap.capacity, 4u);
  EXPECT_EQ(snap.counters.hits, 1u);
  EXPECT_EQ(snap.counters.misses, 1u);
  EXPECT_EQ(snap.counters.insertions, 2u);
  EXPECT_EQ(snap.counters.insert_failures, 0u);
}

TEST(EngineCache, ConcurrentCounterUpdatesDoNotTear) {
  // Counters are atomics bumped outside the LRU mutex; hammer the same keys
  // from many threads and check the totals add up exactly.
  e::result_cache cache(64);
  constexpr int kThreads = 8, kOps = 2048;  // whole number of 32-key cycles
  for (uint64_t i = 0; i < 16; i++) cache.put(key(1, i), value(int64_t(i)));
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++)
    ts.emplace_back([&] {
      for (int i = 0; i < kOps; i++) cache.get(key(1, uint64_t(i) % 32));
    });
  for (auto& t : ts) t.join();
  auto c = cache.counters();
  EXPECT_EQ(c.hits + c.misses, uint64_t(kThreads) * kOps);
  EXPECT_EQ(c.hits, uint64_t(kThreads) * kOps / 2);  // half the keys exist
}

// --- batched accessors (one lock per batch; docs/ENGINE.md) -----------------

TEST(EngineCache, GetManyMirrorsIndividualGets) {
  e::result_cache cache(8);
  cache.put(key(1, 0), value(10));
  cache.put(key(1, 2), value(12));
  auto found = cache.get_many({key(1, 0), key(1, 1), key(1, 2), key(9, 0)});
  ASSERT_EQ(found.size(), 4u);
  ASSERT_NE(found[0], nullptr);
  EXPECT_EQ(found[0]->value, 10);
  EXPECT_EQ(found[1], nullptr);
  ASSERT_NE(found[2], nullptr);
  EXPECT_EQ(found[2]->value, 12);
  EXPECT_EQ(found[3], nullptr);
  // Counters advance exactly as four individual get() calls would.
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 2u);
}

TEST(EngineCache, GetManyRefreshesRecency) {
  e::result_cache cache(2);
  cache.put(key(1, 1), value(1));
  cache.put(key(1, 2), value(2));
  (void)cache.get_many({key(1, 1)});  // refresh 1: now 2 is LRU
  cache.put(key(1, 3), value(3));    // evicts 2
  EXPECT_EQ(cache.get(key(1, 2)), nullptr);
  EXPECT_NE(cache.get(key(1, 1)), nullptr);
}

TEST(EngineCache, PutManyInsertsRefreshesAndEvicts) {
  e::result_cache cache(3);
  cache.put(key(1, 1), value(1));
  cache.put(key(1, 2), value(2));
  cache.put_many({{key(1, 1), value(10)},   // refresh, not insert
                  {key(1, 3), value(3)},    // insert (fills capacity)
                  {key(1, 4), value(4)}});  // insert (evicts LRU = 2)
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.get(key(1, 1))->value, 10);
  EXPECT_EQ(cache.get(key(1, 2)), nullptr);
  EXPECT_EQ(cache.get(key(1, 3))->value, 3);
  EXPECT_EQ(cache.get(key(1, 4))->value, 4);
  auto c = cache.counters();
  EXPECT_EQ(c.insertions, 4u);  // 2 singular + 2 batched
  EXPECT_EQ(c.evictions, 1u);
}

TEST(EngineCache, BatchedAccessorsNoOpWhenDisabled) {
  e::result_cache cache(0);
  cache.put_many({{key(1, 1), value(1)}});
  auto found = cache.get_many({key(1, 1)});
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EngineCache, EmptyBatchesAreHarmless) {
  e::result_cache cache(4);
  EXPECT_TRUE(cache.get_many({}).empty());
  cache.put_many({});
  auto c = cache.counters();
  EXPECT_EQ(c.hits + c.misses + c.insertions, 0u);
}

// The executor caches only answers that are expensive to recompute: bfs and
// sssp pairs, top-k by k, triangle counts. component_id and coreness read
// one entry of the graph's derived view, so they never touch the cache.
TEST(EngineCache, ExecutorCachesOnlyExpensiveKinds) {
  e::registry reg;
  reg.add("g", ligra::gen::rmat_graph(8, 1 << 11, /*seed=*/4));
  reg.add("w", ligra::gen::add_random_weights(ligra::gen::grid3d_graph(4), 1,
                                              9, /*seed=*/4));
  e::query_executor ex(reg, {});
  auto req = [](const char* g, e::query_kind kind) {
    e::query_request q;
    q.graph = g;
    q.kind = kind;
    q.source = 1;
    q.target = 5;
    q.k = 3;
    return q;
  };
  for (auto kind : {e::query_kind::component_id, e::query_kind::coreness}) {
    for (int i = 0; i < 2; i++) {
      EXPECT_FALSE(ex.run(req("g", kind)).cache_hit);
      EXPECT_FALSE(ex.submit(req("g", kind)).get().cache_hit);
    }
  }
  EXPECT_EQ(ex.cache().size(), 0u);
  auto c = ex.cache().counters();
  EXPECT_EQ(c.hits + c.misses, 0u);

  const std::pair<const char*, e::query_kind> cached[] = {
      {"g", e::query_kind::bfs_distance},
      {"w", e::query_kind::sssp_distance},
      {"g", e::query_kind::pagerank_topk},
      {"g", e::query_kind::triangle_count}};
  for (const auto& [g, kind] : cached) {
    EXPECT_FALSE(ex.run(req(g, kind)).cache_hit) << e::query_kind_name(kind);
    EXPECT_TRUE(ex.run(req(g, kind)).cache_hit) << e::query_kind_name(kind);
  }
  EXPECT_EQ(ex.cache().size(), 4u);

  // Top-k is keyed by k: a different k is a different answer.
  auto other_k = req("g", e::query_kind::pagerank_topk);
  other_k.k = 4;
  EXPECT_FALSE(ex.run(other_k).cache_hit);
}
