// Parallel semisort — reorder records so equal keys are contiguous without
// fully sorting (Gu, Shun, Sun, Blelloch, SPAA'15; in the paper authors'
// bibliography). The workhorse behind group-by operations over unbounded
// keys. (The bucket structure does not need it: its destinations form a
// small dense range, so it partitions by a blocked count-then-scatter.)
//
// Implementation: hash keys into B buckets (B ~ n / expected-group-size,
// power of two), count-scan-scatter into bucket order (stable within a
// bucket), then sort each bucket locally by hash so equal keys — which
// share a hash — become contiguous. Equal keys land contiguous because
// they share a bucket and compare equal under the hash ordering; the local
// sort is over typically-tiny buckets, so total work is O(n) expected for
// n/B = O(1)-sized groups, versus O(n log n) for a full sort.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "parallel/primitives.h"
#include "util/rng.h"

namespace ligra::parallel {

// Reorders `records` so that all records with equal `key(record)` are
// adjacent (no ordering guaranteed across groups). `key` must return an
// integral type. Stable within each group.
template <class T, class Key>
void semisort_inplace(std::vector<T>& records, Key&& key) {
  const size_t n = records.size();
  if (n <= 1) return;
  if (n <= 2048) {
    // Small input: a stable comparison sort on hashed keys is cheapest.
    std::stable_sort(records.begin(), records.end(),
                     [&](const T& a, const T& b) {
                       return hash64(static_cast<uint64_t>(key(a))) <
                              hash64(static_cast<uint64_t>(key(b)));
                     });
    return;
  }
  // Bucket count: next power of two around n / 64 (expected 64 records per
  // bucket keeps the local sorts cache-resident).
  size_t buckets = 1;
  while (buckets < n / 64) buckets <<= 1;
  const uint64_t mask = buckets - 1;
  auto bucket_of = [&](const T& r) {
    return hash64(static_cast<uint64_t>(key(r))) & mask;
  };

  // Count per (block, bucket), scan column-major so each block scatters to
  // stable positions.
  const size_t nblocks = internal::num_blocks(n);
  std::vector<size_t> counts(nblocks * buckets, 0);
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        auto [lo, hi] = internal::block_range(n, nblocks, b);
        size_t* row = counts.data() + b * buckets;
        for (size_t i = lo; i < hi; i++) row[bucket_of(records[i])]++;
      },
      1);
  // Column-major exclusive scan: offset of (block b, bucket k) =
  // sum of all (block, bucket) pairs ordered by (bucket, block).
  std::vector<size_t> offsets(nblocks * buckets);
  size_t total = 0;
  std::vector<size_t> bucket_start(buckets + 1);
  for (size_t k = 0; k < buckets; k++) {
    bucket_start[k] = total;
    for (size_t b = 0; b < nblocks; b++) {
      offsets[b * buckets + k] = total;
      total += counts[b * buckets + k];
    }
  }
  bucket_start[buckets] = total;

  std::vector<T> scratch(n);
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        auto [lo, hi] = internal::block_range(n, nblocks, b);
        size_t* row = offsets.data() + b * buckets;
        for (size_t i = lo; i < hi; i++)
          scratch[row[bucket_of(records[i])]++] = records[i];
      },
      1);

  // Local stable sort of each bucket by key hash groups equal keys.
  parallel_for(
      0, buckets,
      [&](size_t k) {
        auto* first = scratch.data() + bucket_start[k];
        auto* last = scratch.data() + bucket_start[k + 1];
        std::stable_sort(first, last, [&](const T& a, const T& b) {
          return hash64(static_cast<uint64_t>(key(a))) <
                 hash64(static_cast<uint64_t>(key(b)));
        });
      },
      1);
  records.swap(scratch);
}

// Group boundaries of a semisorted sequence: indices i where a new key
// group begins (always includes 0 for nonempty input).
template <class T, class Key>
std::vector<size_t> group_starts(const std::vector<T>& records, Key&& key) {
  return pack_index<size_t>(records.size(), [&](size_t i) {
    return i == 0 || !(key(records[i]) == key(records[i - 1]));
  });
}

}  // namespace ligra::parallel
