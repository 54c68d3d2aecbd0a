// Tests for the Julienne-style bucket structure (DESIGN.md S11): ordered
// extraction, lazy deletion of stale entries, re-insertion into the
// current bucket, overflow-window advancement, and null-bucket dropping,
// plus differential checks of the parallel (multi-block) insertion path.
#include "ligra/bucket.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

using namespace ligra;

TEST(Bucket, ExtractsBucketsInIncreasingOrder) {
  // id i lives in bucket i % 10.
  std::vector<uint64_t> bucket_of(100);
  for (size_t i = 0; i < 100; i++) bucket_of[i] = i % 10;
  auto b = make_buckets(100, [&](uint32_t v) { return bucket_of[v]; });

  uint64_t prev = 0;
  size_t total = 0;
  bool first = true;
  while (auto popped = b.next_bucket()) {
    if (!first) EXPECT_GT(popped->bucket, prev);
    prev = popped->bucket;
    first = false;
    EXPECT_EQ(popped->ids.size(), 10u);
    for (uint32_t v : popped->ids) {
      EXPECT_EQ(bucket_of[v], popped->bucket);
      bucket_of[v] = kNullBucket;  // consumed
    }
    total += popped->ids.size();
  }
  EXPECT_EQ(total, 100u);
}

TEST(Bucket, NullBucketIdsNeverAppear) {
  std::vector<uint64_t> bucket_of = {0, kNullBucket, 1, kNullBucket, 2};
  auto b = make_buckets(5, [&](uint32_t v) { return bucket_of[v]; });
  std::vector<uint32_t> seen;
  while (auto popped = b.next_bucket()) {
    for (uint32_t v : popped->ids) {
      seen.push_back(v);
      bucket_of[v] = kNullBucket;
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 2, 4}));
}

TEST(Bucket, StaleEntriesAreDroppedAfterMove) {
  // Move id 0 from bucket 1 to bucket 5 before popping anything.
  std::vector<uint64_t> bucket_of = {1, 1, 2};
  auto b = make_buckets(3, [&](uint32_t v) { return bucket_of[v]; });
  bucket_of[0] = 5;
  b.update_buckets({0});

  auto p1 = b.next_bucket();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->bucket, 1u);
  EXPECT_EQ(p1->ids, (std::vector<uint32_t>{1}));  // 0's old entry is stale
  bucket_of[1] = kNullBucket;

  auto p2 = b.next_bucket();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->bucket, 2u);
  bucket_of[2] = kNullBucket;

  auto p3 = b.next_bucket();
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->bucket, 5u);
  EXPECT_EQ(p3->ids, (std::vector<uint32_t>{0}));
}

TEST(Bucket, ReinsertionIntoCurrentBucketIsReturnedAgain) {
  // Pop bucket 3 containing {0}; then move id 1 (bucket 7) into bucket 3
  // and expect bucket 3 to be returned again.
  std::vector<uint64_t> bucket_of = {3, 7};
  auto b = make_buckets(2, [&](uint32_t v) { return bucket_of[v]; });

  auto p1 = b.next_bucket();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->bucket, 3u);
  bucket_of[0] = kNullBucket;
  bucket_of[1] = 3;
  b.update_buckets({1});

  auto p2 = b.next_bucket();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->bucket, 3u);
  EXPECT_EQ(p2->ids, (std::vector<uint32_t>{1}));
}

TEST(Bucket, DuplicateInsertionsAreDeduplicated) {
  std::vector<uint64_t> bucket_of = {4};
  auto b = make_buckets(1, [&](uint32_t v) { return bucket_of[v]; });
  b.update_buckets({0});
  b.update_buckets({0});
  auto p = b.next_bucket();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ids.size(), 1u);
}

TEST(Bucket, OverflowWindowAdvances) {
  // Buckets far beyond the open window (num_open = 4).
  std::vector<uint64_t> bucket_of = {2, 1000, 5000, 1000};
  auto b = make_buckets(4, [&](uint32_t v) { return bucket_of[v]; }, 4);

  auto p1 = b.next_bucket();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->bucket, 2u);
  bucket_of[0] = kNullBucket;

  auto p2 = b.next_bucket();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->bucket, 1000u);
  EXPECT_EQ(p2->ids.size(), 2u);
  bucket_of[1] = bucket_of[3] = kNullBucket;

  auto p3 = b.next_bucket();
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->bucket, 5000u);
  bucket_of[2] = kNullBucket;
  EXPECT_FALSE(b.next_bucket().has_value());
}

TEST(Bucket, EmptyStructure) {
  auto b = make_buckets(0, [](uint32_t) -> uint64_t { return 0; });
  EXPECT_FALSE(b.next_bucket().has_value());
}

TEST(Bucket, AllNullAtConstruction) {
  auto b = make_buckets(10, [](uint32_t) { return kNullBucket; });
  EXPECT_FALSE(b.next_bucket().has_value());
}

TEST(Bucket, LargeRandomSimulationMatchesSortedOrder) {
  // n ids with random buckets; consuming everything must visit ids grouped
  // by bucket in increasing bucket order — equivalent to a bucket sort.
  const size_t n = 50000;
  std::vector<uint64_t> bucket_of(n);
  for (size_t i = 0; i < n; i++)
    bucket_of[i] = (i * 2654435761u) % 1000;  // deterministic scatter
  auto live = bucket_of;
  auto b = make_buckets(n, [&](uint32_t v) { return live[v]; }, 16);

  uint64_t prev_bucket = 0;
  bool first = true;
  size_t count = 0;
  while (auto popped = b.next_bucket()) {
    if (!first) ASSERT_GT(popped->bucket, prev_bucket);
    first = false;
    prev_bucket = popped->bucket;
    for (uint32_t v : popped->ids) {
      ASSERT_EQ(bucket_of[v], popped->bucket);
      live[v] = kNullBucket;
    }
    count += popped->ids.size();
  }
  EXPECT_EQ(count, n);
}

TEST(Bucket, DynamicDecrementsLikePeeling) {
  // Simulate a peeling pattern: pop minimum, then lower some survivors'
  // buckets (but never below the popped bucket) and re-insert.
  const size_t n = 1000;
  std::vector<uint64_t> value(n);
  for (size_t i = 0; i < n; i++) value[i] = 10 + (i % 50);
  std::vector<uint8_t> done(n, 0);
  auto get = [&](uint32_t v) -> uint64_t {
    return done[v] ? kNullBucket : value[v];
  };
  auto b = make_buckets(n, get, 8);
  size_t popped_total = 0;
  uint64_t prev = 0;
  while (auto popped = b.next_bucket()) {
    EXPECT_GE(popped->bucket, prev);
    prev = popped->bucket;
    std::vector<uint32_t> touched;
    for (uint32_t v : popped->ids) {
      done[v] = 1;
      popped_total++;
      // Lower the next id's bucket by one (clamped to current bucket).
      uint32_t u = (v + 1) % n;
      if (!done[u] && value[u] > popped->bucket) {
        value[u]--;
        touched.push_back(u);
      }
    }
    b.update_buckets(touched);
  }
  EXPECT_EQ(popped_total, n);
}

// ---- Differential tests of the parallel insertion path ----------------------
//
// Insert lists several blocks long (the structure runs serially below 2048
// ids), checked pop by pop against a naive reference: with every id's
// current bucket in `value`, the next pop must return exactly the live ids
// whose value is the extreme live value. Between pops each round re-files a
// random batch (every id listed twice) that moves ids ahead of the cursor,
// far beyond the 16-bucket window (overflow, redistributed as the window
// advances), behind the cursor (clamped into the current bucket; like
// k-core's floor, the caller then reports the current bucket), or to
// kNullBucket (dropped). Pops below 2048 entries dedup serially and larger
// ones in parallel; both sizes occur.

namespace {

class WorkerCount {
 public:
  explicit WorkerCount(int w) : before_(parallel::num_workers()) {
    parallel::set_num_workers(w);
  }
  ~WorkerCount() { parallel::set_num_workers(before_); }

 private:
  int before_;
};

struct differential_config {
  size_t n;
  uint64_t null_percent;  // ids never inserted
  uint64_t base, range;   // initial buckets are [base, base + range)
};
constexpr differential_config kDense{12000, 10, 0, 600};
constexpr differential_config kSparse{size_t{1} << 18, 92, 600, 10};

void run_differential(bucket_order order, differential_config cfg, uint64_t seed) {
  const size_t n = cfg.n;
  const bool inc = order == bucket_order::increasing;
  rng r(seed);
  uint64_t draw = 0;
  std::vector<uint64_t> value(n);
  for (size_t i = 0; i < n; i++)
    value[i] = r.bounded(draw++, 100) < cfg.null_percent ? kNullBucket
                                                          : cfg.base + r.bounded(draw++, cfg.range);
  auto b = make_buckets(n, [&](uint32_t v) { return value[v]; }, 16, order);

  size_t pops = 0;
  while (true) {
    // Reference: extreme live value and its members.
    uint64_t best = kNullBucket;
    for (uint64_t x : value)
      if (x != kNullBucket && (best == kNullBucket || (inc ? x < best : x > best))) best = x;
    auto popped = b.next_bucket();
    if (best == kNullBucket) {
      ASSERT_FALSE(popped.has_value());
      break;
    }
    ASSERT_TRUE(popped.has_value()) << "pop " << pops;
    ASSERT_EQ(popped->bucket, best) << "pop " << pops;
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < n; i++)
      if (value[i] == best) expected.push_back(static_cast<uint32_t>(i));
    std::vector<uint32_t> got = popped->ids;
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expected) << "pop " << pops << " bucket " << best;
    for (uint32_t v : got) value[v] = kNullBucket;
    pops++;
    if (pops > 40) continue;  // then drain without further moves

    std::vector<uint32_t> live;
    for (size_t i = 0; i < n; i++)
      if (value[i] != kNullBucket) live.push_back(static_cast<uint32_t>(i));
    if (live.empty()) continue;
    std::vector<uint32_t> batch, clamped;
    const size_t moves = 3 * 2048 + 123;
    for (size_t j = 0; j < moves; j++) {
      const uint32_t v = live[r.bounded(draw++, live.size())];
      if (value[v] == kNullBucket) continue;  // finished earlier in this batch
      const uint64_t kind = r.bounded(draw++, 20);
      const uint64_t step = 17 + r.bounded(draw++, 300);  // > window width
      if (kind < 11) {  // ahead: possibly far beyond the window
        value[v] = inc ? value[v] + step : (value[v] > step ? value[v] - step : best);
      } else if (kind < 15) {  // ahead, near the cursor
        const uint64_t near = 1 + r.bounded(draw++, 8);
        value[v] = inc ? best + near : best - std::min(best, near);
      } else if (kind < 19) {  // behind the cursor
        if (inc && best == 0) continue;
        value[v] = inc ? best - 1 - r.bounded(draw++, best) : best + 1 + r.bounded(draw++, 50);
        clamped.push_back(v);
      } else {
        value[v] = kNullBucket;
      }
      batch.push_back(v);
      batch.push_back(v);
    }
    b.update_buckets(batch);
    for (uint32_t v : clamped)
      if (value[v] != kNullBucket && (inc ? value[v] < best : value[v] > best)) value[v] = best;
  }
  EXPECT_GT(pops, 10u);
}

}  // namespace

TEST(Bucket, ParallelInsertMatchesReferenceIncreasing) {
  for (int w : {1, 4}) {
    WorkerCount workers(w);
    run_differential(bucket_order::increasing, kDense, 11);
    run_differential(bucket_order::increasing, kSparse, 13);
  }
}

TEST(Bucket, ParallelInsertMatchesReferenceDecreasing) {
  for (int w : {1, 4}) {
    WorkerCount workers(w);
    run_differential(bucket_order::decreasing, kDense, 12);
    run_differential(bucket_order::decreasing, kSparse, 14);
  }
}

TEST(Bucket, LargeConstructionAndPopsMatchReference) {
  // Construction places ids directly into the window (a multi-block
  // insertion); each pop, deduplicated in parallel, returns exactly the
  // members.
  WorkerCount workers(4);
  const size_t n = 1 << 16;
  std::vector<uint64_t> value(n);
  for (size_t i = 0; i < n; i++) value[i] = (i * 2654435761u) % 7 == 0 ? kNullBucket : i % 3;
  auto b = make_buckets(n, [&](uint32_t v) { return value[v]; });
  for (uint64_t bucket = 0; bucket < 3; bucket++) {
    auto popped = b.next_bucket();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->bucket, bucket);
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < n; i++)
      if (value[i] == bucket) expected.push_back(static_cast<uint32_t>(i));
    std::vector<uint32_t> got = popped->ids;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
    for (uint32_t v : got) value[v] = kNullBucket;
  }
  EXPECT_FALSE(b.next_bucket().has_value());
}
