// edge_map — Ligra's central operation (paper §3, DESIGN.md S8).
//
//   edge_map(G, U, F) applies F to the out-edges (u, v) of the frontier U
//   whose targets satisfy F.cond(v), and returns the subset of targets for
//   which F's update returned true.
//
// Three traversal strategies, selected automatically by the paper's
// threshold |U| + outdeg(U) > m / 20:
//
//   * sparse ("push", edgeMapSparse): iterate the out-edges of frontier
//     members; updates race on targets, so F::update_atomic is used.
//     Work O(|U| + outdeg(U)). The default kernel is *edge-balanced and
//     blocked* (Dhulipala-Blelloch-Shun style): the frontier's edge range
//     is cut into kEdgeBlockSize-edge blocks located by binary search into
//     the degree prefix-sum array, one scheduler task per block, survivors
//     written to a per-block local buffer and compacted with one scan +
//     scatter. A skewed frontier (one hub + thousands of leaves) therefore
//     splits the hub across blocks instead of serializing on it, and no
//     outdeg(U)-sized sentinel array is ever allocated or re-scanned. The
//     legacy per-vertex kernel is kept behind edge_map_options::blocked =
//     false for ablation (bench_fig_edgemap_strategies).
//   * dense ("pull", edgeMapDense): for every vertex v with cond(v),
//     scan v's in-edges for frontier members; only one task touches v, so
//     F needs no atomics there. One blocked kernel serves every functor:
//       - blocked pull: [0, n + m) (one slot per vertex plus one per
//         in-edge) is cut into blocks of at least kEdgeBlockSize slots
//         (at most kDenseBlocksPerWorker per worker), each locating its
//         vertex range by binary search in the CSR in-offsets, so a block
//         of hubs and a block of leaves cost about the same. Graphs with
//         no in-offsets (compressed_graph, the mutable view) use blocks of
//         at least kDenseVertexBlock vertices.
//       - gather form: when F provides it (below), v's in-edges fold into
//         a register accumulator and one gather_commit writes v's state —
//         PageRank sums in registers instead of a read-modify-write of
//         p_next[v] per edge. Functors with only update/cond call the
//         plain F::update per edge and break as soon as cond(v) flips
//         false (the early exit that makes BFS bottom-up cheap).
//       - all-vertex path: when |U| = n (PageRank's every round), the
//         frontier is never converted to a bitmap, no in-edge tests a
//         membership bit, and outdeg(U) = m is taken without a degree sum.
//     Other frontiers are consumed as a Beamer-style bitmap (1 bit per
//     vertex): 8x less frontier memory traffic than the byte form.
//   * dense_forward (edgeMapDenseForward): push over the out-edges of a
//     dense frontier — avoids the sparse output compaction at large
//     frontiers but needs atomics and has no early exit. Iterates the
//     frontier bitmap word-by-word, dismissing 64 absent vertices per zero
//     word. Offered as an explicit mode and exercised by ablation A1.
//
// Scratch reuse: every round needs a degree prefix array, block buffers,
// and (with remove_duplicates) a winner array. These live in an
// edge_map_scratch that is reused across rounds — via opts.scratch, an
// installed edge_map_scratch_scope (how the query executor gives each
// dispatcher its own), or a per-call local as a fallback. In steady state
// (scratch capacity warmed up by the largest round) edge_map performs no
// heap allocation beyond the returned frontier itself. The degree prefix
// is computed once per round and shared between the m/20 threshold
// decision and the sparse kernel's block layout.
//
// The update functor F provides:
//     bool update(vertex_id u, vertex_id v [, W w])         // non-racing
//     bool update_atomic(vertex_id u, vertex_id v [, W w])  // racing
//     bool cond(vertex_id v)
// and optionally the gather form, which the dense kernel then uses in place
// of update:
//     T gather_init(vertex_id v)
//     void gather(T& acc, vertex_id u, vertex_id v [, W w])  // one in-edge
//     bool gather_commit(vertex_id v, const T& acc)  // true: v joins output
// gather_commit runs once for every v with cond(v), whether or not any
// in-neighbor was in the frontier. A functor with the gather form needs no
// update (push rounds still use update_atomic). The weight parameter is
// optional — unweighted algorithms keep the paper's two-argument
// signature; detection is by overload resolution.
//
// edge_map is generic over any graph type G exposing
//     num_vertices(), num_edges(), out_degree(v),
//     decode_out(v, f), decode_in(v, f), weight_type
// — satisfied by graph_t<W> and by compress::compressed_graph (Ligra+).
// Graphs additionally exposing decode_out_range(v, jlo, jhi, f) (the CSR
// types) get O(block) work per block even when a hub straddles many
// blocks; others fall back to a skip-decode.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/graph.h"
#include "ligra/vertex_subset.h"
#include "obs/trace.h"
#include "parallel/atomics.h"
#include "parallel/primitives.h"
#include "util/timer.h"

namespace ligra {

// Which traversal edge_map used / should use.
enum class traversal : uint8_t { automatic, sparse, dense, dense_forward };

// Human-readable traversal name (benches, traces).
inline const char* traversal_name(traversal t) {
  switch (t) {
    case traversal::automatic: return "auto";
    case traversal::sparse: return "sparse";
    case traversal::dense: return "dense";
    case traversal::dense_forward: return "dense-fwd";
  }
  return "?";
}

// Edges per block of the blocked sparse kernel. Large enough that per-block
// scheduling and compaction overheads vanish against the edge work, small
// enough that one hub vertex fans out across many tasks.
inline constexpr size_t kEdgeBlockSize = 4096;

// Sentinel "no edge index" value (winner slot unclaimed).
inline constexpr edge_id kNoEdge = std::numeric_limits<edge_id>::max();

// Per-call statistics, filled when edge_map_options::stats is set. The
// frontier-trace experiment (F1) records one entry per BFS iteration.
struct edge_map_stats {
  size_t frontier_size = 0;    // |U|
  edge_id frontier_edges = 0;  // outdeg(U)
  traversal used = traversal::automatic;
  size_t blocks = 0;           // blocks processed (sparse blocked, dense)
  size_t scratch_bytes = 0;    // capacity of the scratch used this call
};

// Reusable per-round working memory. One scratch serves one edge_map call
// at a time; reusing it across rounds makes steady-state traversal
// allocation-free (buffers only ever grow, so their data pointers are
// stable once the largest round has been seen — asserted by the
// scratch-reuse test). Ownership options, in resolution order:
//   1. edge_map_options::scratch (apps that run multi-round loops),
//   2. an installed edge_map_scratch_scope (the query executor installs
//      one per dispatcher around each query body),
//   3. a per-call local (correct, but allocates every round).
struct edge_map_scratch {
  // Exclusive degree prefix of the current sparse frontier (k+1 entries);
  // offsets[k] = outdeg(U). Shared between the traversal decision and the
  // sparse kernel's block layout.
  std::vector<edge_id> offsets;
  // Per-block survivor counts (nblocks+1; scanned in place into offsets).
  std::vector<edge_id> block_counts;
  // Per-block survivor buffers, kEdgeBlockSize apart.
  std::vector<vertex_id> block_buffer;
  // remove_duplicates winner array, kNoEdge-filled, one entry per vertex.
  // After each round only the touched entries (= the round's output ids)
  // are reset, so the O(n) fill happens once per scratch lifetime.
  std::vector<edge_id> winner;

  void ensure_winner(size_t n) {
    if (winner.size() < n) winner.assign(n, kNoEdge);
  }

  size_t bytes() const {
    return offsets.capacity() * sizeof(edge_id) +
           block_counts.capacity() * sizeof(edge_id) +
           block_buffer.capacity() * sizeof(vertex_id) +
           winner.capacity() * sizeof(edge_id);
  }
};

namespace detail {
// Thread-local scratch installation (same delivery pattern as obs::trace:
// whoever owns the scratch installs it on the thread that runs the rounds;
// edge_map pays one TLS load per round when resolving).
inline thread_local edge_map_scratch* tl_scratch = nullptr;
}  // namespace detail

// The scratch installed on this thread, or nullptr.
inline edge_map_scratch* current_edge_map_scratch() {
  return detail::tl_scratch;
}

// Installs `s` as the current scratch for this scope (nullptr suspends).
// Restores the previous scratch on destruction, so scopes nest — a nested
// query body injected onto the same worker sees its own scratch, never a
// half-used outer one.
class edge_map_scratch_scope {
 public:
  explicit edge_map_scratch_scope(edge_map_scratch* s)
      : prev_(detail::tl_scratch) {
    detail::tl_scratch = s;
  }
  ~edge_map_scratch_scope() { detail::tl_scratch = prev_; }
  edge_map_scratch_scope(const edge_map_scratch_scope&) = delete;
  edge_map_scratch_scope& operator=(const edge_map_scratch_scope&) = delete;

 private:
  edge_map_scratch* prev_;
};

struct edge_map_options {
  traversal strategy = traversal::automatic;
  // Dense when |U| + outdeg(U) > m / threshold_denominator (paper: 20).
  uint64_t threshold_denominator = 20;
  // When `automatic` picks a dense traversal, use dense_forward instead of
  // the pull-based dense (Ligra's per-graph option).
  bool prefer_dense_forward = false;
  // Deduplicate the sparse output (needed when update_atomic may return
  // true more than once per target). Uses the scratch-resident winner
  // array; only touched entries are reset per round.
  bool remove_duplicates = false;
  // When false, edge_map skips building the output subset (Ligra's
  // edgeMap with no output — e.g. PageRank, which writes into dense
  // arrays and never looks at the returned frontier).
  bool produce_output = true;
  // Edge-balanced blocked sparse kernel (default). false selects the
  // legacy per-vertex kernel — one task per frontier vertex, outdeg(U)
  // sentinel slots, full-width pack — kept for ablation benchmarks.
  bool blocked = true;
  // Round-scratch override; see edge_map_scratch for resolution order.
  edge_map_scratch* scratch = nullptr;
  edge_map_stats* stats = nullptr;
};

// The traversal edge_map runs for a frontier of `frontier_size` vertices
// with `out_degrees` out-edges on a graph of `num_edges` edges: the forced
// strategy, or under `automatic` the paper's threshold rule. Callers that
// prepare state for the kernel (PageRank zeroes its accumulator only for
// push rounds) ask here instead of restating the rule.
inline traversal resolve_traversal(const edge_map_options& opts,
                                   size_t frontier_size, edge_id out_degrees,
                                   edge_id num_edges) {
  if (opts.strategy != traversal::automatic) return opts.strategy;
  const uint64_t threshold =
      num_edges / std::max<uint64_t>(1, opts.threshold_denominator);
  if (frontier_size + out_degrees <= threshold) return traversal::sparse;
  return opts.prefer_dense_forward ? traversal::dense_forward
                                   : traversal::dense;
}

namespace detail {

template <class F, class W>
bool call_update(F& f, vertex_id u, vertex_id v, W w) {
  if constexpr (requires(F& g) { g.update(u, v, w); }) {
    return f.update(u, v, w);
  } else {
    (void)w;
    return f.update(u, v);
  }
}

template <class F, class W>
bool call_update_atomic(F& f, vertex_id u, vertex_id v, W w) {
  if constexpr (requires(F& g) { g.update_atomic(u, v, w); }) {
    return f.update_atomic(u, v, w);
  } else {
    (void)w;
    return f.update_atomic(u, v);
  }
}

// decode_out restricted to edge indices [jlo, jhi): direct indexing when
// the graph supports it (CSR), skip-decode otherwise (compressed CSR).
template <class W, class G, class F>
void decode_out_range(const G& g, vertex_id u, size_t jlo, size_t jhi,
                      F&& f) {
  if constexpr (requires { g.decode_out_range(u, jlo, jhi, f); }) {
    g.decode_out_range(u, jlo, jhi, f);
  } else {
    g.decode_out(u, [&](vertex_id v, W w, size_t j) {
      if (j < jlo) return true;
      if (j >= jhi) return false;
      return f(v, w, j);
    });
  }
}

// Builds the exclusive degree prefix of `ids` into scr.offsets (k+1
// entries); returns outdeg(U) = offsets[k]. Computed once per round and
// shared between the m/20 threshold and the sparse kernel.
template <class G>
edge_id build_degree_prefix(const G& g, const std::vector<vertex_id>& ids,
                            edge_map_scratch& scr) {
  const size_t k = ids.size();
  scr.offsets.resize(k + 1);
  parallel::parallel_for(0, k, [&](size_t i) {
    scr.offsets[i] = g.out_degree(ids[i]);
  });
  scr.offsets[k] = 0;
  return parallel::scan_add_inplace(scr.offsets.data(), k + 1);
}

// Edge-balanced blocked sparse (push) traversal. Precondition: scr.offsets
// holds the frontier's degree prefix (build_degree_prefix). Each block of
// kEdgeBlockSize consecutive edges is one scheduler task: it locates its
// first vertex by binary search into the prefix, applies F to its edge
// slice, and appends survivors to its private buffer; one scan + scatter
// compacts the buffers into the output.
template <class G, class F>
vertex_subset edge_map_sparse_blocked(const G& g,
                                      const std::vector<vertex_id>& frontier,
                                      F& f, const edge_map_options& opts,
                                      edge_map_scratch& scr,
                                      size_t& blocks_used) {
  using W = typename G::weight_type;
  const size_t k = frontier.size();
  const vertex_id n = g.num_vertices();
  const edge_id total = scr.offsets[k];
  const size_t nblocks =
      static_cast<size_t>((total + kEdgeBlockSize - 1) / kEdgeBlockSize);
  blocks_used = nblocks;
  if (nblocks == 0) return vertex_subset(n);
  const bool produce = opts.produce_output;
  const bool dedup = produce && opts.remove_duplicates;
  if (dedup) scr.ensure_winner(n);
  if (produce) {
    scr.block_counts.resize(nblocks + 1);
    scr.block_buffer.resize(nblocks * kEdgeBlockSize);
  }
  const edge_id* offsets = scr.offsets.data();
  parallel::parallel_for(
      0, nblocks,
      [&](size_t b) {
        const edge_id lo = static_cast<edge_id>(b) * kEdgeBlockSize;
        const edge_id hi = std::min<edge_id>(lo + kEdgeBlockSize, total);
        // First vertex whose edge range contains lo (zero-degree runs in
        // the prefix are skipped by choosing the *last* index <= lo).
        size_t i = parallel::binary_search_leq(offsets, k + 1, lo);
        vertex_id* buf =
            produce ? scr.block_buffer.data() + b * kEdgeBlockSize : nullptr;
        size_t cnt = 0;
        edge_id pos = lo;
        while (pos < hi) {
          while (offsets[i + 1] <= pos) i++;  // advance past exhausted ranges
          const vertex_id u = frontier[i];
          const size_t jlo = static_cast<size_t>(pos - offsets[i]);
          const size_t jhi = static_cast<size_t>(
              std::min<edge_id>(offsets[i + 1], hi) - offsets[i]);
          decode_out_range<W>(g, u, jlo, jhi,
                              [&](vertex_id v, W w, size_t) {
                                if (f.cond(v) &&
                                    call_update_atomic(f, u, v, w)) {
                                  if (produce &&
                                      (!dedup ||
                                       compare_and_swap(&scr.winner[v], kNoEdge,
                                                        pos)))
                                    buf[cnt++] = v;
                                }
                                return true;
                              });
          pos = offsets[i] + jhi;
        }
        if (produce) scr.block_counts[b] = static_cast<edge_id>(cnt);
      },
      1);
  if (!produce) return vertex_subset(n);
  scr.block_counts[nblocks] = 0;
  const edge_id out_total =
      parallel::scan_add_inplace(scr.block_counts.data(), nblocks + 1);
  std::vector<vertex_id> out(out_total);
  parallel::scatter_blocks(scr.block_buffer.data(), kEdgeBlockSize,
                           scr.block_counts.data(), nblocks, out.data());
  if (dedup) {
    // Winners are exactly the output ids: reset only those entries.
    parallel::parallel_for(0, out.size(),
                           [&](size_t s) { scr.winner[out[s]] = kNoEdge; });
  }
  return vertex_subset(n, std::move(out));
}

// Legacy per-vertex sparse traversal (pre-blocking): one task per frontier
// vertex, one sentinel slot per traversed edge, full-width pack, O(n)
// winner allocation per dedup round. Kept behind opts.blocked = false as
// the ablation baseline. Precondition when produce_output: scr.offsets
// holds the degree prefix (shared with the threshold decision).
template <class G, class F>
vertex_subset edge_map_sparse_per_vertex(
    const G& g, const std::vector<vertex_id>& frontier, F& f,
    const edge_map_options& opts, const edge_map_scratch& scr) {
  using W = typename G::weight_type;
  const size_t k = frontier.size();
  if (!opts.produce_output) {
    parallel::parallel_for(0, k, [&](size_t i) {
      vertex_id u = frontier[i];
      g.decode_out(u, [&](vertex_id v, W w, size_t) {
        if (f.cond(v)) call_update_atomic(f, u, v, w);
        return true;
      });
    });
    return vertex_subset(g.num_vertices());
  }
  const edge_id* offsets = scr.offsets.data();
  std::vector<vertex_id> slots(offsets[k], kNoVertex);
  parallel::parallel_for(0, k, [&](size_t i) {
    vertex_id u = frontier[i];
    edge_id base = offsets[i];
    g.decode_out(u, [&](vertex_id v, W w, size_t j) {
      if (f.cond(v) && call_update_atomic(f, u, v, w))
        slots[base + j] = v;
      return true;
    });
  });
  if (opts.remove_duplicates) {
    // Keep one slot per distinct target: winner chosen by CAS on a scratch
    // array holding the slot index.
    std::vector<edge_id> winner(g.num_vertices(), kNoEdge);
    parallel::parallel_for(0, slots.size(), [&](size_t s) {
      vertex_id v = slots[s];
      if (v == kNoVertex) return;
      if (!compare_and_swap(&winner[v], kNoEdge, static_cast<edge_id>(s)))
        slots[s] = kNoVertex;  // someone else claimed v
    });
  }
  auto out = parallel::pack(
      slots.size(), [&](size_t s) { return slots[s]; },
      [&](size_t s) { return slots[s] != kNoVertex; });
  return vertex_subset(g.num_vertices(), std::move(out));
}

// Whether F offers the gather form (see the header comment): an
// accumulator per target instead of a write per in-edge.
template <class F>
concept gather_functor = requires(F& f, vertex_id v) {
  f.gather_init(v);
  { f.gather_commit(v, f.gather_init(v)) } -> std::convertible_to<bool>;
};

template <class F, class T, class W>
void call_gather(F& f, T& acc, vertex_id u, vertex_id v, W w) {
  if constexpr (requires(F& g) { g.gather(acc, u, v, w); }) {
    f.gather(acc, u, v, w);
  } else {
    (void)w;
    f.gather(acc, u, v);
  }
}

// Least vertices per dense block on graphs without CSR in-offsets: about
// kEdgeBlockSize edges at the average degree (16) of the paper's inputs.
inline constexpr size_t kDenseVertexBlock = 256;

// Most dense blocks per worker: a block is one scheduler task, and a round
// of thousands of small blocks (BFS's dense rounds, where most vertices
// fail cond) pays more in forks than it gains in balance.
inline constexpr size_t kDenseBlocksPerWorker = 32;

// The in-offsets (n+1 entries) of a CSR graph, or nullptr for graph types
// that have none (compressed_graph, the mutable view).
template <class G>
const edge_id* csr_in_offsets(const G& g) {
  if constexpr (requires { g.in_offsets(); }) {
    const auto& off = g.in_offsets();
    if (off.size() == static_cast<size_t>(g.num_vertices()) + 1)
      return off.data();
  }
  return nullptr;
}

// Pulls v's in-edges from the frontier (every vertex when All) into F and
// sets v's bit in `out` (when non-null) if v joins the output. The gather
// form folds into a register accumulator and commits once; the update form
// writes per edge and stops as soon as cond(v) flips false.
template <bool All, class G, class F>
void pull_vertex(const G& g, const uint64_t* frontier, F& f, vertex_id v,
                 uint64_t* out) {
  using W = typename G::weight_type;
  auto member = [frontier](vertex_id u) {
    if constexpr (All) {
      (void)frontier;
      (void)u;
      return true;
    } else {
      return ((frontier[u >> 6] >> (u & 63)) & 1) != 0;
    }
  };
  const uint64_t bit = uint64_t{1} << (v & 63);
  if constexpr (gather_functor<F>) {
    auto acc = f.gather_init(v);
    g.decode_in(v, [&](vertex_id u, W w, size_t) {
      if (member(u)) call_gather(f, acc, u, v, w);
      return true;
    });
    if (f.gather_commit(v, acc) && out != nullptr) write_or(&out[v >> 6], bit);
  } else {
    g.decode_in(v, [&](vertex_id u, W w, size_t) {
      if (member(u) && call_update(f, u, v, w) && out != nullptr)
        write_or(&out[v >> 6], bit);
      return f.cond(v);  // early exit: stop once v's state is settled
    });
  }
}

// Dense (pull) traversal: every vertex v with cond(v) pulls from its
// in-edges; only one task touches v, so no atomics are needed on F's side.
// Blocks are edge-balanced: vertex v occupies slots [v + off[v], v + 1 +
// off[v+1]) of [0, n + m), the space is cut into blocks of at least
// kEdgeBlockSize slots, and each block runs the vertices whose first slot
// it holds (located by binary search in the in-offsets).
template <bool All, class G, class F>
vertex_subset edge_map_dense(const G& g, const uint64_t* frontier, F& f,
                             const edge_map_options& opts,
                             size_t& blocks_used) {
  const vertex_id n = g.num_vertices();
  std::vector<uint64_t> next;
  if (opts.produce_output) next.assign(vertex_subset::num_bitmap_words(n), 0);
  uint64_t* const out = opts.produce_output ? next.data() : nullptr;
  const edge_id* off = csr_in_offsets(g);
  const size_t span = off != nullptr ? n + static_cast<size_t>(off[n]) : n;
  const size_t block = std::max(
      off != nullptr ? kEdgeBlockSize : kDenseVertexBlock,
      span / (kDenseBlocksPerWorker *
              static_cast<size_t>(parallel::num_workers())) + 1);
  // First vertex whose first slot is >= pos.
  auto first_vertex = [&](size_t pos) -> size_t {
    if (off == nullptr) return std::min<size_t>(pos, n);
    size_t lo = 0, hi = n;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (mid + static_cast<size_t>(off[mid]) < pos) lo = mid + 1;
      else hi = mid;
    }
    return lo;
  };
  const size_t nblocks = (span + block - 1) / block;
  blocks_used = nblocks;
  parallel::parallel_for(
      0, nblocks,
      [&](size_t b) {
        // Task-local copies: F's fields and the two bitmaps stay in
        // registers across the atomics in F and in write_or, instead of
        // being reloaded through references after each one.
        F fl = f;
        const uint64_t* const fr = frontier;
        uint64_t* const o = out;
        const size_t vhi = first_vertex(std::min(span, (b + 1) * block));
        for (size_t vi = first_vertex(b * block); vi < vhi; vi++) {
          const auto v = static_cast<vertex_id>(vi);
          if (fl.cond(v)) pull_vertex<All>(g, fr, fl, v, o);
        }
      },
      1);
  if (!opts.produce_output) return vertex_subset(n);
  return vertex_subset::from_bitmap(n, std::move(next));
}

// Dense-forward traversal: push over out-edges of a dense frontier,
// iterated word-by-word over the bitmap — a zero word dismisses 64
// vertices with a single load.
template <class G, class F>
vertex_subset edge_map_dense_forward(const G& g,
                                     const std::vector<uint64_t>& frontier,
                                     F& f, const edge_map_options& opts) {
  using W = typename G::weight_type;
  const vertex_id n = g.num_vertices();
  const size_t nwords = vertex_subset::num_bitmap_words(n);
  std::vector<uint64_t> next;
  if (opts.produce_output) next.assign(nwords, 0);
  parallel::parallel_for(0, nwords, [&](size_t wi) {
    uint64_t word = frontier[wi];
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      const auto u = static_cast<vertex_id>(wi * 64 + static_cast<size_t>(b));
      g.decode_out(u, [&](vertex_id v, W w, size_t) {
        if (f.cond(v) && call_update_atomic(f, u, v, w)) {
          // Racing ORs of the same bit are fine via atomic fetch_or.
          if (opts.produce_output)
            write_or(&next[v >> 6], uint64_t{1} << (v & 63));
        }
        return true;
      });
    }
  });
  if (!opts.produce_output) return vertex_subset(n);
  return vertex_subset::from_bitmap(n, std::move(next));
}

}  // namespace detail

// Applies F over the out-edges of `frontier` and returns the new frontier.
// `frontier` is taken by mutable reference because the chosen traversal may
// convert its physical representation (sparse<->bytes<->bitmap) in place;
// membership is never changed.
template <class G, class F>
vertex_subset edge_map(const G& g, vertex_subset& frontier, F f,
                       const edge_map_options& opts = {}) {
  if (frontier.universe_size() != g.num_vertices())
    throw std::invalid_argument("edge_map: frontier universe != graph size");
  // Per-query traversal tracing (docs/OBSERVABILITY.md): when a trace is
  // installed on this thread, every edge_map call appends one round event.
  // Disabled cost: the thread-local load below and a few never-taken
  // branches per round — never per edge.
  obs::query_trace* trace = obs::current_trace();
  // Scratch resolution: explicit option, then the thread's installed
  // scratch, then a per-call local (allocates; the first two do not).
  edge_map_scratch local_scratch;
  edge_map_scratch* scr = opts.scratch != nullptr ? opts.scratch
                          : detail::tl_scratch != nullptr ? detail::tl_scratch
                                                          : &local_scratch;
  const traversal forced = opts.strategy;
  const uint64_t threshold =
      g.num_edges() / std::max<uint64_t>(1, opts.threshold_denominator);
  edge_id out_degrees = 0;
  bool have_prefix = false;
  const bool want_degrees = forced == traversal::automatic ||
                            opts.stats != nullptr || trace != nullptr;
  // A sparse frontier's degree prefix doubles as the blocked kernel's
  // layout — compute it once here whenever the sparse kernel might run,
  // instead of an out_degree_sum for the threshold plus a recomputation
  // inside the kernel.
  const bool sparse_possible =
      forced == traversal::sparse || forced == traversal::automatic;
  // An all-vertex frontier (PageRank's every round) has outdeg(U) = m and
  // needs no bitmap: the dense kernel skips the per-edge membership test.
  const bool all = frontier.size() == g.num_vertices() && !frontier.empty();
  if (all) {
    out_degrees = g.num_edges();
  } else if (frontier.is_sparse() && sparse_possible) {
    out_degrees = detail::build_degree_prefix(g, frontier.sparse(), *scr);
    have_prefix = true;
  } else if (want_degrees) {
    out_degrees = frontier.out_degree_sum(g);
  }
  const traversal mode =
      resolve_traversal(opts, frontier.size(), out_degrees, g.num_edges());
  if (opts.stats != nullptr) {
    opts.stats->frontier_size = frontier.size();
    opts.stats->frontier_edges = out_degrees;
    opts.stats->used = mode;
  }
  const size_t frontier_size = frontier.size();
  size_t blocks_used = 0;
  monotonic_time t0{};
  if (trace != nullptr) t0 = mono_now();
  auto run = [&]() -> vertex_subset {
    switch (mode) {
      case traversal::sparse: {
        frontier.to_sparse();
        // Forced-sparse calls on a dense/bitmap frontier arrive without a
        // prefix; the legacy no-output path is the only one that can skip it.
        if (!have_prefix && (opts.blocked || opts.produce_output)) {
          detail::build_degree_prefix(g, frontier.sparse(), *scr);
          have_prefix = true;
        }
        if (opts.blocked) {
          return detail::edge_map_sparse_blocked(g, frontier.sparse(), f,
                                                 opts, *scr, blocks_used);
        }
        return detail::edge_map_sparse_per_vertex(g, frontier.sparse(), f,
                                                  opts, *scr);
      }
      case traversal::dense:
        if (all) {
          return detail::edge_map_dense<true>(g, nullptr, f, opts,
                                              blocks_used);
        }
        frontier.to_bitmap();
        return detail::edge_map_dense<false>(g, frontier.bitmap().data(), f,
                                             opts, blocks_used);
      case traversal::dense_forward:
        frontier.to_bitmap();
        return detail::edge_map_dense_forward(g, frontier.bitmap(), f, opts);
      case traversal::automatic:
        break;
    }
    throw std::logic_error("edge_map: unreachable");
  };
  vertex_subset out = run();
  if (opts.stats != nullptr) {
    opts.stats->blocks = blocks_used;
    opts.stats->scratch_bytes = scr->bytes();
  }
  if (trace != nullptr) {
    trace->add_round(traversal_name(mode), frontier_size, out_degrees,
                     threshold, micros_since(t0), blocks_used, scr->bytes());
  }
  return out;
}

// Ligra's "edgeMap with no output": applies updates but skips constructing
// the result subset.
template <class G, class F>
void edge_map_no_output(const G& g, vertex_subset& frontier, F f,
                        edge_map_options opts = {}) {
  opts.produce_output = false;
  edge_map(g, frontier, std::move(f), opts);
}

// Reduction over the out-edges of the frontier: returns
//   identity ⊕ f(u, v, w) for every edge (u, v) with u in `frontier`.
// A read-only companion to edge_map for analytics that aggregate over a
// frontier's edges (e.g. counting cut edges, summing weights) without
// mutating vertex state. `op` must be associative and commutative — edge
// visit order is unspecified.
template <class G, class T, class F, class Op>
T edge_map_reduce(const G& g, const vertex_subset& frontier, F&& f,
                  T identity, Op&& op) {
  using W = typename G::weight_type;
  if (frontier.universe_size() != g.num_vertices())
    throw std::invalid_argument(
        "edge_map_reduce: frontier universe != graph size");
  auto per_vertex = [&](vertex_id u) {
    T acc = identity;
    g.decode_out(u, [&](vertex_id v, W w, size_t) {
      acc = op(acc, f(u, v, w));
      return true;
    });
    return acc;
  };
  if (frontier.is_dense()) {
    const auto& flags = frontier.dense();
    return parallel::reduce(
        g.num_vertices(),
        [&](size_t u) {
          return flags[u] ? per_vertex(static_cast<vertex_id>(u)) : identity;
        },
        identity, op);
  }
  if (frontier.is_bitmap()) {
    const auto& words = frontier.bitmap();
    return parallel::reduce(
        words.size(),
        [&](size_t wi) {
          T acc = identity;
          uint64_t word = words[wi];
          while (word != 0) {
            const int b = std::countr_zero(word);
            word &= word - 1;
            acc = op(acc, per_vertex(static_cast<vertex_id>(
                              wi * 64 + static_cast<size_t>(b))));
          }
          return acc;
        },
        identity, op);
  }
  const auto& ids = frontier.sparse();
  return parallel::reduce(
      ids.size(), [&](size_t i) { return per_vertex(ids[i]); }, identity, op);
}

// Counts frontier out-edges satisfying `pred(u, v, w)`.
template <class G, class Pred>
edge_id edge_map_count(const G& g, const vertex_subset& frontier,
                       Pred&& pred) {
  using W = typename G::weight_type;
  return edge_map_reduce(
      g, frontier,
      [&](vertex_id u, vertex_id v, W w) -> edge_id {
        return pred(u, v, w) ? 1 : 0;
      },
      edge_id{0}, [](edge_id a, edge_id b) { return a + b; });
}

}  // namespace ligra
