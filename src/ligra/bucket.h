// Bucketing structure in the style of Julienne (Dhulipala, Blelloch, Shun,
// SPAA'17) — the authors' extension of Ligra for bucketing-based algorithms
// (k-core peeling, Δ-stepping SSSP, approximate set cover). DESIGN.md S11.
//
// Maintains identifiers [0, n) partitioned into ordered buckets given by a
// user functor `get_bucket(i)` (which must always report the *current*
// bucket of i — typically it reads the algorithm's state, e.g. a vertex's
// remaining degree or tentative distance). The structure materializes a
// window of `num_open` consecutive buckets; identifiers beyond the window
// go to an overflow pool that is re-distributed when the window advances.
//
// Both processing orders are supported: increasing (peeling, Δ-stepping)
// and decreasing (set cover, which repeatedly takes the sets of maximum
// remaining coverage).
//
// Deletion is lazy: when an identifier moves buckets, the caller re-inserts
// it via update_buckets and the stale copy is discarded when its bucket is
// popped (membership is re-checked against get_bucket at pop time). This is
// the standard practical realization of Julienne's interface.
//
// Every operation costs time linear in the identifiers it touches, with no
// sorting or hashing: insertion computes each id's destination (a window
// slot, the overflow pool, or dropped) once and appends it by a blocked
// count-then-scatter; a pop filters stale copies and removes duplicates
// with a per-id mark.
//
// `kNullBucket` marks identifiers that should never be returned again
// (e.g. finished vertices / fully-covered sets).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "parallel/atomics.h"
#include "parallel/primitives.h"

namespace ligra {

inline constexpr uint64_t kNullBucket = ~uint64_t{0};

enum class bucket_order : uint8_t { increasing, decreasing };

template <class GetBucket>
class bucket_structure {
 public:
  // Inserts every i in [0, n) whose get_bucket(i) != kNullBucket. The
  // window opens at the extreme (first to process) initial bucket.
  bucket_structure(size_t n, GetBucket get_bucket, size_t num_open = 128,
                   bucket_order order = bucket_order::increasing)
      : get_bucket_(std::move(get_bucket)),
        window_(num_open == 0 ? 1 : num_open),
        mark_(n, 0),
        order_(order) {
    auto id_at = [](size_t i) { return static_cast<uint32_t>(i); };
    if (auto extreme = extreme_bucket(n, id_at)) {
      open_window(*extreme);
      distribute(n, id_at);
    }
  }

  struct popped {
    uint64_t bucket;             // bucket id
    std::vector<uint32_t> ids;   // its current members: nonempty, distinct,
                                 // in no particular order
  };

  // Removes and returns the next nonempty bucket in processing order, or
  // nullopt when no identifiers remain.
  std::optional<popped> next_bucket() {
    while (true) {
      if (initialized_) {
        for (size_t slot = cursor_; slot < window_.size(); slot++) {
          if (window_[slot].empty()) continue;
          uint64_t bid = bucket_of_slot(slot);
          std::vector<uint32_t> members = live_members(std::move(window_[slot]), bid);
          window_[slot].clear();
          if (members.empty()) {
            if (slot == cursor_) cursor_ = slot + 1;
            continue;
          }
          cursor_ = slot;  // bucket may receive new ids; stay on it
          return popped{bid, std::move(members)};
        }
      }
      // Window exhausted (or never opened): advance to the extreme
      // remaining bucket among live overflow entries that genuinely lie
      // beyond the just-closed window. Stale entries are re-filed with the
      // rest and dropped when their slot is popped.
      if (overflow_.empty()) return std::nullopt;
      std::vector<uint32_t> pool = std::move(overflow_);
      overflow_.clear();
      auto extreme = extreme_bucket(pool.size(), [&](size_t i) { return pool[i]; });
      if (!extreme) return std::nullopt;
      open_window(*extreme);
      distribute(pool.size(), [&](size_t i) { return pool[i]; });
    }
  }

  // Re-files identifiers whose bucket may have changed. Identifiers mapping
  // to kNullBucket are dropped; identifiers mapping to buckets behind the
  // cursor in processing order (already popped, or before the initial
  // window) are clamped into the current bucket — monotone algorithms never
  // do this, but the clamp keeps the structure safe. Duplicates are
  // deduplicated at pop time.
  void update_buckets(const std::vector<uint32_t>& ids) {
    distribute(ids.size(), [&](size_t i) { return ids[i]; });
  }

  // Total live identifiers (including stale copies; for tests/diagnostics).
  size_t approx_size() const {
    size_t s = overflow_.size();
    for (const auto& b : window_) s += b.size();
    return s;
  }

  bucket_order order() const { return order_; }

 private:
  // Below this many ids an insertion or pop runs serially: fork-join costs
  // more than the work.
  static constexpr size_t kGrain = 2048;
  static constexpr uint32_t kDrop = ~uint32_t{0};
  static constexpr uint32_t kStale = ~uint32_t{0};

  static bool run_serially(size_t m) {
    return m < kGrain || parallel::num_workers() == 1;
  }

  // Position of bucket b in processing order. Every order-dependent
  // decision goes through it; it maps [0, kNullBucket) onto itself and is
  // its own inverse.
  uint64_t rank(uint64_t b) const {
    return order_ == bucket_order::increasing ? b : kNullBucket - 1 - b;
  }

  void open_window(uint64_t start_bucket) {
    start_ = rank(start_bucket);
    cursor_ = 0;
    initialized_ = true;
  }

  uint64_t bucket_of_slot(size_t slot) const { return rank(start_ + slot); }

  // True iff bucket b lies strictly beyond the window in processing order
  // (i.e. still to be reached after the window is exhausted).
  bool beyond_window(uint64_t b) const {
    const uint64_t r = rank(b);
    return r >= start_ && r - start_ >= window_.size();
  }

  // The first bucket in processing order among ids id_at(0..m) that are
  // live and (once a window has been opened) beyond it; nullopt if none.
  template <class IdAt>
  std::optional<uint64_t> extreme_bucket(size_t m, IdAt id_at) const {
    const uint64_t best = parallel::reduce(
        m,
        [&](size_t i) {
          const uint64_t b = get_bucket_(id_at(i));
          const bool eligible = b != kNullBucket && (!initialized_ || beyond_window(b));
          return eligible ? rank(b) : kNullBucket;
        },
        kNullBucket, [](uint64_t x, uint64_t y) { return x < y ? x : y; });
    if (best == kNullBucket) return std::nullopt;
    return rank(best);
  }

  // Destination of an id: a window slot in [0, window size), the overflow
  // pool (== window size), or kDrop. Buckets the cursor has already passed
  // are clamped into the current slot.
  uint32_t destination(uint32_t id) const {
    const uint64_t b = get_bucket_(id);
    if (b == kNullBucket) return kDrop;
    const size_t w = window_.size();
    if (!initialized_) return static_cast<uint32_t>(w);
    const uint64_t r = rank(b);
    if (r < start_ || r - start_ < cursor_)
      return static_cast<uint32_t>(cursor_ < w ? cursor_ : w - 1);
    return static_cast<uint32_t>(r - start_ < w ? r - start_ : w);
  }

  std::vector<uint32_t>& destination_vector(uint32_t d) {
    return d < window_.size() ? window_[d] : overflow_;
  }

  // Appends each id_at(i), i in [0, m), to its destination. Parallel path:
  // destinations are computed once into a scratch array, counted per block,
  // and each block scatters into its reserved range at the tail of every
  // destination vector.
  template <class IdAt>
  void distribute(size_t m, IdAt id_at) {
    if (m == 0) return;
    if (run_serially(m)) {
      for (size_t i = 0; i < m; i++) {
        const uint32_t id = id_at(i);
        const uint32_t d = destination(id);
        if (d != kDrop) destination_vector(d).push_back(id);
      }
      return;
    }
    const size_t num_dest = window_.size() + 1;
    const size_t max_blocks = 8 * static_cast<size_t>(parallel::num_workers());
    const size_t nblocks = std::min((m + kGrain - 1) / kGrain, max_blocks);
    if (dest_.size() < m) dest_.resize(m);
    // counts[b * num_dest + d]: ids of block b bound for destination d;
    // after the scan, the write position of block b in destination d.
    std::vector<size_t> counts(nblocks * num_dest, 0);
    parallel::parallel_for(
        0, nblocks,
        [&](size_t b) {
          auto [lo, hi] = parallel::internal::block_range(m, nblocks, b);
          size_t* row = counts.data() + b * num_dest;
          for (size_t i = lo; i < hi; i++) {
            const uint32_t d = destination(id_at(i));
            dest_[i] = d;
            if (d != kDrop) row[d]++;
          }
        },
        1);
    std::vector<uint32_t*> base(num_dest);
    for (size_t d = 0; d < num_dest; d++) {
      auto& vec = destination_vector(static_cast<uint32_t>(d));
      size_t pos = vec.size();
      for (size_t b = 0; b < nblocks; b++) {
        const size_t c = counts[b * num_dest + d];
        counts[b * num_dest + d] = pos;
        pos += c;
      }
      vec.resize(pos);
      base[d] = vec.data();
    }
    parallel::parallel_for(
        0, nblocks,
        [&](size_t b) {
          auto [lo, hi] = parallel::internal::block_range(m, nblocks, b);
          size_t* row = counts.data() + b * num_dest;
          for (size_t i = lo; i < hi; i++) {
            const uint32_t d = dest_[i];
            if (d != kDrop) base[d][row[d]++] = id_at(i);
          }
        },
        1);
  }

  // The distinct members of a popped slot whose current bucket is `bid`:
  // stale copies (moved or finished since insertion) fail the membership
  // check and duplicates share one per-id mark.
  std::vector<uint32_t> live_members(std::vector<uint32_t> members, uint64_t bid) {
    const size_t m = members.size();
    std::vector<uint32_t> out;
    if (run_serially(m)) {
      for (uint32_t id : members) {
        if (get_bucket_(id) != bid || mark_[id]) continue;
        mark_[id] = 1;
        out.push_back(id);
      }
    } else {
      parallel::parallel_for(0, m, [&](size_t i) {
        const uint32_t id = members[i];
        if (get_bucket_(id) != bid || !compare_and_swap(&mark_[id], uint8_t{0}, uint8_t{1}))
          members[i] = kStale;
      });
      out = parallel::pack(
          m, [&](size_t i) { return members[i]; },
          [&](size_t i) { return members[i] != kStale; });
    }
    parallel::parallel_for(0, out.size(), [&](size_t i) { mark_[out[i]] = 0; }, kGrain);
    return out;
  }

  GetBucket get_bucket_;
  std::vector<std::vector<uint32_t>> window_;
  std::vector<uint32_t> overflow_;  // buckets beyond the window
  std::vector<uint8_t> mark_;       // per-id claim used to dedup a pop
  std::vector<uint32_t> dest_;      // distribute scratch: per-id destination
  uint64_t start_ = 0;              // rank of slot 0's bucket (once initialized)
  size_t cursor_ = 0;               // first unpopped slot within the window
  bool initialized_ = false;        // window opened (at construction or pop)
  bucket_order order_;
};

// Deduction-friendly factory.
template <class GetBucket>
bucket_structure<GetBucket> make_buckets(
    size_t n, GetBucket get_bucket, size_t num_open = 128,
    bucket_order order = bucket_order::increasing) {
  return bucket_structure<GetBucket>(n, std::move(get_bucket), num_open,
                                     order);
}

}  // namespace ligra
