// Parallel sequence primitives — the PBBS-style layer (DESIGN.md S2) that
// Ligra's edge_map and the applications are written against: map, reduce,
// scan (prefix sums), pack/filter, and pack_index.
//
// All primitives are deterministic: outputs are identical regardless of the
// number of workers or scheduling, because combination trees are shaped by
// index arithmetic only.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/scheduler.h"

namespace ligra::parallel {

namespace internal {

// Block decomposition used by the two-pass primitives. Deliberately a
// function of n only — NOT of the worker count — so that results (in
// particular floating-point reduction orders) are bit-identical for any
// number of workers. 512 blocks saturates any realistic core count while
// the min block size keeps tiny inputs sequential.
inline size_t num_blocks(size_t n, size_t min_block_size = 2048) {
  if (n == 0) return 0;
  constexpr size_t kMaxBlocks = 512;
  size_t blocks = (n + min_block_size - 1) / min_block_size;
  if (blocks > kMaxBlocks) blocks = kMaxBlocks;
  if (blocks < 1) blocks = 1;
  return blocks;
}

inline std::pair<size_t, size_t> block_range(size_t n, size_t nblocks, size_t b) {
  size_t lo = n * b / nblocks;
  size_t hi = n * (b + 1) / nblocks;
  return {lo, hi};
}

}  // namespace internal

// ---- reduce ---------------------------------------------------------------

// Returns identity ⊕ get(0) ⊕ ... ⊕ get(n-1). `op` must be associative;
// `identity` its unit. Blocked two-level reduction (sequential within a
// block, sequential over per-block partials) — deterministic for any op,
// including floating-point sums.
template <class T, class Get, class Op>
T reduce(size_t n, Get&& get, T identity, Op&& op) {
  size_t nblocks = internal::num_blocks(n);
  if (nblocks <= 1) {
    T acc = identity;
    for (size_t i = 0; i < n; i++) acc = op(acc, get(i));
    return acc;
  }
  // Wrapped so that T = bool does not get std::vector<bool>, whose packed
  // bits would make the blocks' concurrent writes race on shared words.
  struct slot {
    T value;
  };
  std::vector<slot> partial(nblocks, slot{identity});
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        auto [lo, hi] = internal::block_range(n, nblocks, b);
        T acc = identity;
        for (size_t i = lo; i < hi; i++) acc = op(acc, get(i));
        partial[b].value = acc;
      },
      1);
  T acc = identity;
  for (size_t b = 0; b < nblocks; b++) acc = op(acc, partial[b].value);
  return acc;
}

template <class Get>
auto reduce_add(size_t n, Get&& get) {
  using T = decltype(get(size_t{0}));
  return reduce(
      n, get, T{}, [](T a, T b) { return a + b; });
}

template <class Get>
auto reduce_max(size_t n, Get&& get, decltype(get(size_t{0})) identity) {
  using T = decltype(get(size_t{0}));
  return reduce(n, get, identity, [](T a, T b) { return a < b ? b : a; });
}

// Counts indices in [0, n) satisfying pred.
template <class Pred>
size_t count_if_index(size_t n, Pred&& pred) {
  return reduce_add(n, [&](size_t i) -> size_t { return pred(i) ? 1 : 0; });
}

// ---- scan (exclusive prefix sums) ------------------------------------------

// In-place exclusive scan over data[0..n): data[i] becomes
// identity ⊕ data[0] ⊕ ... ⊕ data[i-1]; returns the grand total.
// Classic three-phase blocked algorithm (per-block reduce, sequential scan
// of block sums, per-block local scan).
template <class T, class Op>
T scan_inplace(T* data, size_t n, T identity, Op&& op) {
  size_t nblocks = internal::num_blocks(n);
  if (nblocks <= 1) {
    T acc = identity;
    for (size_t i = 0; i < n; i++) {
      T next = op(acc, data[i]);
      data[i] = acc;
      acc = next;
    }
    return acc;
  }
  std::vector<T> block_sum(nblocks);
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        auto [lo, hi] = internal::block_range(n, nblocks, b);
        T acc = identity;
        for (size_t i = lo; i < hi; i++) acc = op(acc, data[i]);
        block_sum[b] = acc;
      },
      1);
  T total = identity;
  for (size_t b = 0; b < nblocks; b++) {
    T next = op(total, block_sum[b]);
    block_sum[b] = total;
    total = next;
  }
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        auto [lo, hi] = internal::block_range(n, nblocks, b);
        T acc = block_sum[b];
        for (size_t i = lo; i < hi; i++) {
          T next = op(acc, data[i]);
          data[i] = acc;
          acc = next;
        }
      },
      1);
  return total;
}

template <class T>
T scan_add_inplace(T* data, size_t n) {
  return scan_inplace(data, n, T{}, [](T a, T b) { return a + b; });
}

template <class T>
T scan_add_inplace(std::vector<T>& data) {
  return scan_add_inplace(data.data(), data.size());
}

// ---- pack / filter ----------------------------------------------------------

// Returns get(i) for each i in [0, n) with pred(i), preserving index order.
// Two-pass: per-block count, scan, per-block write at the right offset.
// Above one block pred(i) therefore runs twice per index, so it must be
// pure: a predicate with side effects belongs in a flag pass first.
template <class Get, class Pred>
auto pack(size_t n, Get&& get, Pred&& pred)
    -> std::vector<std::decay_t<decltype(get(size_t{0}))>> {
  using T = std::decay_t<decltype(get(size_t{0}))>;
  size_t nblocks = internal::num_blocks(n);
  if (nblocks <= 1) {
    std::vector<T> out;
    for (size_t i = 0; i < n; i++)
      if (pred(i)) out.push_back(get(i));
    return out;
  }
  std::vector<size_t> offset(nblocks);
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        auto [lo, hi] = internal::block_range(n, nblocks, b);
        size_t cnt = 0;
        for (size_t i = lo; i < hi; i++) cnt += pred(i) ? 1 : 0;
        offset[b] = cnt;
      },
      1);
  size_t total = scan_add_inplace(offset);
  std::vector<T> out(total);
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        auto [lo, hi] = internal::block_range(n, nblocks, b);
        size_t pos = offset[b];
        for (size_t i = lo; i < hi; i++)
          if (pred(i)) out[pos++] = get(i);
      },
      1);
  return out;
}

// Indices in [0, n) where pred holds, in increasing order, as type Id.
template <class Id, class Pred>
std::vector<Id> pack_index(size_t n, Pred&& pred) {
  return pack(
      n, [](size_t i) { return static_cast<Id>(i); },
      static_cast<Pred&&>(pred));
}

// Elements of `in` satisfying pred, order-preserving.
template <class T, class Pred>
std::vector<T> filter(const std::vector<T>& in, Pred&& pred) {
  return pack(
      in.size(), [&](size_t i) { return in[i]; },
      [&](size_t i) { return pred(in[i]); });
}

// ---- block search / scatter -------------------------------------------------

// Largest index i in [0, n) with data[i] <= value, for ascending `data`
// (runs of equal values allowed). Requires n > 0 and data[0] <= value.
// The blocked edge_map kernel uses this to locate, in a degree prefix-sum
// array, the frontier vertex whose edge range contains a block boundary:
// with data[i] <= value < data[i+1] the result's range is never empty even
// when zero-degree vertices produce runs of equal offsets.
template <class T>
size_t binary_search_leq(const T* data, size_t n, T value) {
  size_t lo = 0, hi = n;  // invariant: data[lo] <= value, data[hi] > value
  while (hi - lo > 1) {
    size_t mid = lo + (hi - lo) / 2;
    if (data[mid] <= value) lo = mid;
    else hi = mid;
  }
  return lo;
}

// Compacts fixed-stride per-block buffers into a contiguous output: block
// b's items occupy src[b*stride ..) and land in [offsets[b], offsets[b+1])
// of `out`, where `offsets` is the exclusive scan of the per-block counts
// (offsets[nblocks] = total). The companion of the blocked edge_map's
// per-block local buffers: one scan over block counts plus this scatter
// replaces a full-width sentinel pack over every traversed edge.
template <class T, class Off>
void scatter_blocks(const T* src, size_t stride, const Off* offsets,
                    size_t nblocks, T* out) {
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        const size_t cnt = static_cast<size_t>(offsets[b + 1] - offsets[b]);
        const T* s = src + b * stride;
        T* d = out + offsets[b];
        for (size_t i = 0; i < cnt; i++) d[i] = s[i];
      },
      1);
}

// ---- map -------------------------------------------------------------------

template <class F>
auto tabulate(size_t n, F&& f) -> std::vector<std::decay_t<decltype(f(size_t{0}))>> {
  using T = std::decay_t<decltype(f(size_t{0}))>;
  std::vector<T> out(n);
  parallel_for(0, n, [&](size_t i) { out[i] = f(i); });
  return out;
}

template <class T, class F>
auto map(const std::vector<T>& in, F&& f)
    -> std::vector<std::decay_t<decltype(f(in[0]))>> {
  return tabulate(in.size(), [&](size_t i) { return f(in[i]); });
}

}  // namespace ligra::parallel
