// Workloads `serve_mixed` and `serve_updates`: a loopback net::server over
// a default-option engine::query_executor, driven through net::client by
// closed-loop readers (and, for serve_updates, an open-loop writer), with
// every answer checked against the serial oracles of src/baseline.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "apps/bellman_ford.h"
#include "apps/components.h"
#include "apps/pagerank.h"
#include "apps/query_adapters.h"
#include "baseline/serial.h"
#include "common.h"
#include "dynamic/incremental.h"
#include "dynamic/mutable_graph.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace_store.h"
#include "parallel/scheduler.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace ligra;

namespace {

constexpr int kScale = 14;
constexpr vertex_id kGridSide = 25;  // 15625 vertices, about 2^14
constexpr int kSetups = 9;  // a set-up takes well under a second
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kMixedConnections = 3;
// serve_mixed spreads its reads over several seed-derived rMat graphs: the
// k-core recompute that sets p99 varies about 10% between single graphs,
// and averaging over four halves that spread from seed to seed.
constexpr const char* kMixedGraphs[] = {"rmat0", "rmat1", "rmat2", "rmat3"};
constexpr size_t kReaderConnections = 2;  // plus one writer
constexpr double kUpdatesPerSecond = 50.0;
constexpr size_t kUpdateEdges = 128;  // inserts, and as many deletes
constexpr size_t kReplayPerKind = 32;
constexpr size_t kCodecReplay = 2000;
constexpr size_t kFinalReads = 64;
// Top-k ranks: the immutable path reruns PageRank to an L1 change below
// 1e-7. (serve_updates sends no top-k reads: see updates_read.)
constexpr double kRankRelTolerance = 1e-3;
constexpr double kRankAbsTolerance = 1e-7;

using topk_list = std::vector<std::pair<vertex_id, double>>;

// What a read or write asked for; `graph` names a registry entry (a
// string literal).
struct request {
  const char* graph = nullptr;
  engine::query_kind kind = engine::query_kind::bfs_distance;
  uint32_t k = 10;
  vertex_id source = 0;
  vertex_id target = 0;
};

net::wire_request to_wire(const request& r) {
  net::wire_request q;
  q.graph = r.graph;
  q.kind = r.kind;
  q.k = r.k;
  q.source = r.source;
  q.target = r.target;
  return q;
}

// One request and its answer, kept small: a run keeps hundreds of
// thousands of them, and their memory counts in peak_rss_mb.
struct sample {
  request req;
  bool answered = false;  // an ok response (correctness checked later)
  int32_t topk = -1;      // index of the answer in the phase's topk_pool
  int64_t value = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  double due_us = 0.0;  // open-loop writer: when the request was due
  obs::trace_id tid{};
};

// Distinct top-k answers of a phase, stored once (most repeat).
class topk_pool {
 public:
  int32_t intern(topk_list list) {
    uint64_t h = list.size();
    for (const auto& [v, r] : list) {
      uint64_t bits = 0;
      std::memcpy(&bits, &r, sizeof bits);
      h = hash64(h ^ hash64(v ^ (bits << 1)));
    }
    std::lock_guard<std::mutex> lk(mu_);
    auto [lo, hi] = index_.equal_range(h);
    for (auto it = lo; it != hi; ++it)
      if (lists_[static_cast<size_t>(it->second)] == list) return it->second;
    const auto id = static_cast<int32_t>(lists_.size());
    lists_.push_back(std::move(list));
    index_.emplace(h, id);
    return id;
  }
  // Stays valid while the pool lives (deque elements never move).
  const topk_list& at(int32_t id) const {
    std::lock_guard<std::mutex> lk(mu_);
    return lists_[static_cast<size_t>(id)];
  }

 private:
  mutable std::mutex mu_;
  std::deque<topk_list> lists_;
  std::unordered_multimap<uint64_t, int32_t> index_;
};

// A registry, executor and loopback server, torn down in reverse order
// (server first, so no request is in flight when the executor goes).
struct stack {
  obs::metrics_registry metrics;
  engine::registry graphs{&metrics};
  std::unique_ptr<obs::trace_store> traces;
  std::unique_ptr<engine::query_executor> ex;
  std::unique_ptr<net::server> srv;

  // Default executor options, except that a traced stack keeps a trace
  // record of every request.
  void start(bool traced) {
    engine::executor_options eo;
    eo.metrics = &metrics;
    if (traced) {
      traces = std::make_unique<obs::trace_store>(size_t{1} << 18);
      eo.traces = traces.get();
    }
    ex = std::make_unique<engine::query_executor>(graphs, eo);
    srv = std::make_unique<net::server>(*ex);
    srv->start();
  }
};

// Sends one request; failures are reported (the first few) on stderr.
sample send(net::client& c, const request& req, topk_pool* pool,
            const dynamic::update_batch* updates = nullptr) {
  static std::atomic<int> reported{0};
  sample s;
  s.req = req;
  net::wire_request q = to_wire(req);
  if (updates != nullptr) q.updates = *updates;
  s.start_us = now_us();
  try {
    engine::query_result r = c.run(std::move(q));
    s.answered = true;
    s.value = r.value;
    if (pool != nullptr && req.kind == engine::query_kind::pagerank_topk)
      s.topk = pool->intern(std::move(r.topk));
  } catch (const std::exception& e) {
    if (reported++ < 3)
      std::fprintf(stderr, "perfbench: %s request failed: %s\n",
                   engine::query_kind_name(req.kind), e.what());
  }
  s.end_us = now_us();
  s.tid = c.last_trace_id();
  return s;
}

// Set-up ends with the first answer, as a user would see it.
void first_answer(const stack& st, const char* graph) {
  net::client c;
  c.connect("127.0.0.1", st.srv->port());
  request q;
  q.graph = graph;
  q.target = 1;
  if (!send(c, q, nullptr).answered) throw std::runtime_error("no first answer");
}

// The read stream of one phase, measured from `warm_us` on.
struct read_phase {
  std::deque<sample> reads;
  std::unique_ptr<topk_pool> topk = std::make_unique<topk_pool>();
  double warm_us = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t measured = 0;
};

void summarize(read_phase& p) {
  std::vector<double> lat;
  double last_end = p.warm_us;
  size_t answered = 0;
  for (const sample& s : p.reads) {
    if (s.start_us < p.warm_us) continue;
    // A failed request misses every latency limit.
    lat.push_back(s.answered ? (s.end_us - s.start_us) / 1e3 : INFINITY);
    last_end = std::max(last_end, s.end_us);
    answered += s.answered ? 1 : 0;
  }
  p.measured = lat.size();
  p.qps = last_end > p.warm_us ? static_cast<double>(answered) /
                                     ((last_end - p.warm_us) / 1e6)
                               : 0.0;
  p.p50_ms = quantile(lat, 0.50);
  p.p99_ms = quantile(lat, 0.99);
}

// Runs `conns` closed-loop readers (one request in flight per connection)
// for a warm-up plus `seconds`, while `during` (if any) runs on the calling
// thread until the same end.
read_phase run_readers(const stack& st, size_t conns, double seconds,
                       double trace_sample,
                       const std::function<request(size_t, uint64_t)>& next,
                       const std::function<void(bench_clock::time_point)>& during = {}) {
  read_phase p;
  const auto end = bench_clock::now() +
                   std::chrono::duration_cast<bench_clock::duration>(
                       std::chrono::duration<double>(kWarmupSeconds + seconds));
  p.warm_us = now_us() + kWarmupSeconds * 1e6;
  // One log for all connections: merging per-connection logs afterwards
  // would hold two copies at once and inflate peak_rss_mb.
  std::mutex reads_mu;
  std::vector<std::exception_ptr> errors(conns);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; c++)
    threads.emplace_back([&, c] {
      try {
        net::client_options co;
        co.trace_sample = trace_sample;
        net::client cl(co);
        cl.connect("127.0.0.1", st.srv->port());
        for (uint64_t i = 0; bench_clock::now() < end && cl.connected(); i++) {
          sample s = send(cl, next(c, i), p.topk.get());
          std::lock_guard<std::mutex> lk(reads_mu);
          p.reads.push_back(s);
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  std::exception_ptr during_error;
  if (during) {
    try {
      during(end);
    } catch (...) {
      during_error = std::current_exception();
    }
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  if (during_error) std::rethrow_exception(during_error);
  summarize(p);
  return p;
}

bool rank_close(double got, double want) {
  return std::abs(got - want) <= kRankAbsTolerance + kRankRelTolerance * want;
}

// A top-k answer is right when it has min(k, n) entries, each with its
// oracle rank (within tolerance), and no unlisted vertex clearly
// outranks the lowest listed one.
bool topk_ok(const topk_list& got, uint32_t k, const std::vector<double>& rank) {
  if (got.size() != std::min<size_t>(k, rank.size())) return false;
  std::unordered_set<vertex_id> listed;
  double lowest = INFINITY;
  for (const auto& [v, r] : got) {
    if (v >= rank.size() || !rank_close(r, rank[v])) return false;
    listed.insert(v);
    lowest = std::min(lowest, rank[v]);
  }
  for (vertex_id v = 0; v < rank.size(); v++)
    if (!listed.count(v) && !rank_close(lowest, rank[v]) && rank[v] > lowest)
      return false;
  return true;
}

// Checks every answered read against the oracles of `g` (and `wg` for
// sssp); unanswered ones are failures. Counts into `out`.
void check_reads(const std::deque<sample>& reads, const topk_pool& pool,
                 const graph& g, const wgraph* wg, outcome& out) {
  bool need_cc = false, need_core = false, need_pr = false;
  // Reads grouped by search source; one serial search per distinct source,
  // several at a time, keeping only the distances the reads asked for.
  std::unordered_map<uint64_t, std::vector<size_t>> by_source;
  for (size_t i = 0; i < reads.size(); i++) {
    const sample& s = reads[i];
    out.attempted++;
    if (!s.answered) {
      out.failed++;
      continue;
    }
    switch (s.req.kind) {
      case engine::query_kind::bfs_distance:
      case engine::query_kind::sssp_distance:
        by_source[uint64_t{s.req.source} * 2 +
                  (s.req.kind == engine::query_kind::sssp_distance)]
            .push_back(i);
        break;
      case engine::query_kind::component_id: need_cc = true; break;
      case engine::query_kind::coreness: need_core = true; break;
      case engine::query_kind::pagerank_topk: need_pr = true; break;
      default: break;
    }
  }
  std::vector<const std::vector<size_t>*> groups;
  for (const auto& [key, idx] : by_source) groups.push_back(&idx);
  std::vector<int64_t> want(reads.size(), 0);
  parallel::parallel_for(0, groups.size(), [&](size_t gi) {
    const auto& idx = *groups[gi];
    const request& q0 = reads[idx[0]].req;
    const bool sssp = q0.kind == engine::query_kind::sssp_distance;
    const std::vector<int64_t> d =
        sssp ? baseline::dijkstra(*wg, q0.source) : baseline::bfs_levels(g, q0.source);
    for (size_t i : idx) {
      const int64_t w = d[reads[i].req.target];
      want[i] = sssp && w >= apps::kInfiniteDistance ? -1 : w;
    }
  }, 1);
  const std::vector<vertex_id> cc = need_cc ? baseline::connected_components(g)
                                            : std::vector<vertex_id>{};
  const std::vector<vertex_id> core = need_core ? baseline::kcore(g) : std::vector<vertex_id>{};
  const std::vector<double> pr = need_pr ? baseline::pagerank(g) : std::vector<double>{};
  // Component labels must induce the oracle's partition.
  std::unordered_map<int64_t, vertex_id> label_to_oracle;
  std::unordered_map<vertex_id, int64_t> oracle_to_label;
  std::unordered_map<int32_t, bool> topk_checked;
  for (size_t i = 0; i < reads.size(); i++) {
    const sample& s = reads[i];
    if (!s.answered) continue;
    const request& q = s.req;
    const std::string what = std::string(engine::query_kind_name(q.kind)) +
                             " source " + std::to_string(q.source);
    switch (q.kind) {
      case engine::query_kind::bfs_distance:
        if (s.value != want[i]) out.wrong(what + ": distance differs from bfs_levels");
        break;
      case engine::query_kind::sssp_distance:
        if (s.value != want[i]) out.wrong(what + ": distance differs from dijkstra");
        break;
      case engine::query_kind::component_id: {
        const vertex_id o = cc[q.source];
        auto [a, fa] = label_to_oracle.emplace(s.value, o);
        auto [b, fb] = oracle_to_label.emplace(o, s.value);
        if (a->second != o || b->second != s.value)
          out.wrong(what + ": component differs from connected_components");
        break;
      }
      case engine::query_kind::coreness:
        if (s.value != static_cast<int64_t>(core[q.source]))
          out.wrong(what + ": coreness differs from kcore");
        break;
      case engine::query_kind::pagerank_topk: {
        auto [it, fresh] = topk_checked.emplace(s.topk, false);
        if (fresh) it->second = topk_ok(pool.at(s.topk), q.k, pr);
        if (!it->second)
          out.wrong("pagerank top-" + std::to_string(q.k) + ": differs from pagerank");
        break;
      }
      default:
        break;
    }
  }
}

// Per-layer numbers of a traced read phase, joined with the server's trace
// records by trace id. Adds spans for every read.
void add_serving_layers(const stack& st, const read_phase& p, span_log& spans,
                        outcome& out) {
  struct tid_hash {
    size_t operator()(const obs::trace_id& t) const { return hash64(t.hi ^ hash64(t.lo)); }
  };
  std::unordered_map<obs::trace_id, obs::trace_record, tid_hash> records;
  for (obs::trace_record& r : st.traces->recent(0)) records.emplace(r.id, std::move(r));
  std::vector<double> overhead, queued;
  std::unordered_map<std::string, std::vector<double>> exec;
  uint64_t request_id = 0;
  for (const sample& s : p.reads) {
    const int64_t root = spans.add("client.run", request_id, -1, s.start_us, s.end_us);
    auto it = s.tid.valid() ? records.find(s.tid) : records.end();
    if (s.start_us >= p.warm_us && s.answered && it != records.end()) {
      const obs::trace_record& r = it->second;
      const double total = s.end_us - s.start_us;
      const double server = r.queued_micros + r.exec_micros;
      overhead.push_back(total - server);
      queued.push_back(r.queued_micros);
      if (!r.cache_hit) exec[r.kind].push_back(r.exec_micros);
      // The server's stages, placed with the wire time split evenly
      // around them (the record carries durations, not offsets).
      const double q0 = s.start_us + std::max(0.0, total - server) / 2.0;
      spans.add("engine.queued", request_id, root, q0, q0 + r.queued_micros);
      spans.add("engine.exec", request_id, root, q0 + r.queued_micros, q0 + server);
    }
    request_id++;
  }
  out.add("net.overhead_us_p50", quantile(overhead, 0.50), "us");
  out.add("net.overhead_us_p99", quantile(overhead, 0.99), "us");
  out.add("engine.queue_wait_us_p50", quantile(queued, 0.50), "us");
  out.add("engine.queue_wait_us_p99", quantile(queued, 0.99), "us");
  for (const std::string& k : kServeKinds) {
    out.add("engine.exec_us_p50." + k, quantile(exec[k], 0.50), "us");
    out.add("engine.exec_us_p99." + k, quantile(exec[k], 0.99), "us");
  }

  // Codec: encode each request frame and decode its response, as the
  // client does, on a replay of the phase's answered reads.
  std::vector<net::wire_request> requests;
  std::vector<std::vector<char>> responses;
  for (const sample& s : p.reads) {
    if (!s.answered || requests.size() >= kCodecReplay) continue;
    engine::query_result r;
    r.kind = s.req.kind;
    r.value = s.value;
    if (s.topk >= 0) r.topk = p.topk->at(s.topk);
    requests.push_back(to_wire(s.req));
    responses.push_back(net::encode_response_frame(net::make_response(1, r)));
  }
  const double t0 = now_us();
  size_t sink = 0;
  for (size_t i = 0; i < requests.size(); i++) {
    sink += net::encode_request_frame(requests[i]).size();
    size_t used = 0;
    auto f = net::try_parse_frame(responses[i].data(), responses[i].size(), &used);
    if (f) sink += net::decode_response(f->payload, f->payload_len, f->flags).topk.size() + 1;
  }
  const double codec_us =
      requests.empty() ? 0.0 : (now_us() - t0) / static_cast<double>(requests.size());
  if (!requests.empty() && sink == 0) throw std::logic_error("codec replay decoded nothing");
  out.add("net.codec_us", codec_us, "us");

  obs::metrics_registry& m = st.ex->metrics();
  const double frames =
      static_cast<double>(m.get_counter("engine_net_frames_total{dir=\"in\"}").value());
  const double bytes =
      static_cast<double>(m.get_counter("engine_net_bytes_total{dir=\"in\"}").value() +
                          m.get_counter("engine_net_bytes_total{dir=\"out\"}").value());
  out.add("net.bytes_per_req", frames > 0 ? bytes / frames : 0.0, "bytes");
  out.add("engine.cache_hit_ratio", st.ex->cache().counters().hit_rate(), "ratio");
  out.add("engine.batch_width_mean", m.get_histogram("engine_batch_width").snapshot().mean(),
          "count");
  const engine::engine_stats_snapshot stats = st.ex->stats();
  out.add("engine.rejected", static_cast<double>(stats.rejected), "count");
  out.add("engine.shed", static_cast<double>(stats.shed), "count");
}

// Direct adapter calls on a replayed sample of the phase's reads: the
// app's own cost, without executor, cache or network. Checks that each
// agrees with what the server answered.
void add_direct_calls(const stack& st, const std::deque<sample>& reads, span_log& spans,
                      outcome& out) {
  std::unordered_map<std::string, std::vector<double>> us;
  uint64_t request_id = uint64_t{1} << 32;
  for (const sample& s : reads) {
    if (!s.answered) continue;
    const request& q = s.req;
    const std::string kind = engine::query_kind_name(q.kind);
    if (us[kind].size() >= kReplayPerKind) continue;
    const engine::graph_handle h = st.graphs.get(q.graph);
    int64_t got = 0;
    const double t0 = now_us();
    switch (q.kind) {
      case engine::query_kind::bfs_distance:
        got = apps::bfs_hop_distance(h->structure(), q.source, q.target);
        break;
      case engine::query_kind::sssp_distance:
        got = apps::sssp_distance(h->weights(), q.source, q.target);
        break;
      case engine::query_kind::component_id: got = apps::component_id(h->structure(), q.source); break;
      case engine::query_kind::coreness: got = apps::vertex_coreness(h->structure(), q.source); break;
      case engine::query_kind::pagerank_topk:
        got = static_cast<int64_t>(apps::pagerank_topk(h->structure(), q.k).size());
        break;
      default: continue;
    }
    const double t1 = now_us();
    spans.add("apps." + kind, request_id++, -1, t0, t1);
    us[kind].push_back(t1 - t0);
    if (got != s.value) out.wrong(kind + " direct call differs from the served answer");
  }
  for (const std::string& k : kServeKinds)
    if (!us[k].empty()) out.add("apps." + k + "_us", median(us[k]), "us");
}

void add_end_to_end(const read_phase& p, const std::vector<double>& setups,
                    double rss_mb, outcome& out) {
  out.add("qps", p.qps, "1/s");
  out.add("latency_p50_ms", p.p50_ms, "ms");
  out.add("latency_p99_ms", p.p99_ms, "ms");
  out.add("setup_s", median(setups), "s");
  out.add("peak_rss_mb", rss_mb, "MB");
  std::printf("# reads: %zu measured (p99 has %zu beyond it), qps %.1f\n", p.measured,
              p.measured - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(p.measured))),
              p.qps);
}

void add_trace_overhead(const read_phase& untraced, const read_phase& traced,
                        outcome& out) {
  out.add("trace.qps_delta", traced.qps - untraced.qps, "1/s");
  out.add("trace.latency_p99_delta_ms", traced.p99_ms - untraced.p99_ms, "ms");
}

// --- serve_mixed -----------------------------------------------------------

request mixed_request(uint64_t seed, size_t conn, uint64_t i) {
  const rng r = rng(seed).fork(1000 + conn);
  const vertex_id n = vertex_id{1} << kScale;
  const vertex_id n_grid = kGridSide * kGridSide * kGridSide;
  request q;
  q.graph = kMixedGraphs[r.bounded(5 * i + 3, std::size(kMixedGraphs))];
  q.source = static_cast<vertex_id>(r.bounded(5 * i + 1, n));
  q.target = static_cast<vertex_id>(r.bounded(5 * i + 2, n));
  const double u = r.uniform(5 * i);
  if (u < 0.40) {
    q.kind = engine::query_kind::bfs_distance;
  } else if (u < 0.50) {
    q.kind = engine::query_kind::sssp_distance;
    q.graph = "grid";
    q.source = static_cast<vertex_id>(r.bounded(5 * i + 1, n_grid));
    q.target = static_cast<vertex_id>(r.bounded(5 * i + 2, n_grid));
  } else if (u < 0.75) {
    q.kind = engine::query_kind::component_id;
  } else if (u < 0.85) {
    q.kind = engine::query_kind::coreness;
  } else {
    q.kind = engine::query_kind::pagerank_topk;
    q.k = r.bounded(5 * i + 4, 2) == 0 ? 10 : 100;
  }
  return q;
}

std::unique_ptr<stack> setup_mixed(uint64_t seed, bool traced, std::vector<double>& setups) {
  const auto t0 = bench_clock::now();
  auto st = std::make_unique<stack>();
  for (size_t g = 0; g < std::size(kMixedGraphs); g++)
    st->graphs.add(kMixedGraphs[g],
                   gen::rmat_graph(kScale, edge_id{8} << kScale, seed * std::size(kMixedGraphs) + g));
  st->graphs.add("grid", gen::add_random_weights(gen::grid3d_graph(kGridSide), 1, kScale, seed));
  st->start(traced);
  first_answer(*st, kMixedGraphs[0]);
  setups.push_back(seconds_since(t0));
  return st;
}

// Checks each graph's reads against that graph's oracles.
void check_mixed(const stack& st, const read_phase& p, outcome& out) {
  const engine::graph_handle grid = st.graphs.get("grid");
  std::unordered_map<std::string, std::deque<sample>> by_graph;
  for (const sample& s : p.reads) by_graph[s.req.graph].push_back(s);
  for (const auto& [name, reads] : by_graph) {
    const engine::graph_handle h = st.graphs.get(name);
    check_reads(reads, *p.topk, h->structure(), &grid->weights(), out);
  }
}

// --- serve_updates ---------------------------------------------------------

// The writer's own copy of the live edge set, as canonical (min, max)
// pairs: deletes are drawn from it and inserts are pairs absent from it, so
// the edge count stays flat.
class edge_model {
 public:
  explicit edge_model(const graph& g) : n_(g.num_vertices()) {
    for (vertex_id u = 0; u < n_; u++)
      for (vertex_id v : g.out_neighbors(u))
        if (u < v) add({u, v});
  }

  dynamic::update_batch draw(const rng& r) const {
    dynamic::update_batch b;
    std::unordered_set<uint64_t> picked;
    uint64_t j = 0;
    while (b.deletes.size() < kUpdateEdges) {
      const edge& e = live_[r.bounded(j++, live_.size())];
      if (picked.insert(key(e)).second) b.deletes.push_back(e);
    }
    while (b.inserts.size() < kUpdateEdges) {
      auto u = static_cast<vertex_id>(r.bounded(j++, n_));
      auto v = static_cast<vertex_id>(r.bounded(j++, n_));
      if (u == v) continue;
      const edge e{std::min(u, v), std::max(u, v)};
      if (!index_.count(key(e)) && picked.insert(key(e)).second) b.inserts.push_back(e);
    }
    return b;
  }

  void apply(const dynamic::update_batch& b) {
    for (const edge& e : b.deletes) {
      auto it = index_.find(key(e));
      const size_t i = it->second;
      index_.erase(it);
      if (i + 1 != live_.size()) {
        live_[i] = live_.back();
        index_[key(live_[i])] = i;
      }
      live_.pop_back();
    }
    for (const edge& e : b.inserts) add(e);
  }

  graph to_graph() const {
    build_options bo;
    bo.symmetrize = true;
    return graph::from_edges(n_, live_, bo);
  }

  size_t size() const { return live_.size(); }

 private:
  static uint64_t key(const edge& e) { return (uint64_t{e.u} << 32) | e.v; }
  void add(const edge& e) {
    index_.emplace(key(e), live_.size());
    live_.push_back(e);
  }

  vertex_id n_;
  std::vector<edge> live_;
  std::unordered_map<uint64_t, size_t> index_;
};

// Reads on the live graph: 60% bfs_distance, 40% component_id. No top-k:
// the engine's maintained PageRank drifts from the live graph's true
// PageRank as batches land (README.md, "Known defect"), so those answers
// would be wrong; the traced run measures the drift instead
// (dynamic.pr_inc_rel_err).
request updates_read(uint64_t seed, size_t conn, uint64_t i) {
  const rng r = rng(seed).fork(2000 + conn);
  const vertex_id n = vertex_id{1} << kScale;
  request q;
  q.graph = "live";
  q.source = static_cast<vertex_id>(r.bounded(4 * i + 1, n));
  q.target = static_cast<vertex_id>(r.bounded(4 * i + 2, n));
  q.kind = r.uniform(4 * i) < 0.60 ? engine::query_kind::bfs_distance
                                   : engine::query_kind::component_id;
  return q;
}

struct updates_setup {
  std::unique_ptr<stack> st;
  graph initial;    // the generated graph, for the writer's model and replay
  std::string dir;  // the durable store's directory

  // Stops the server and executor, then deletes the store.
  void teardown() {
    st.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

updates_setup setup_updates(const options& opts, bool traced, int attempt,
                            std::vector<double>& setups) {
  updates_setup s;
  s.dir = opts.workdir + "/store-" + std::to_string(opts.seed) + "-" +
          std::to_string(attempt) + (traced ? "-traced" : "");
  std::filesystem::remove_all(s.dir);
  const auto t0 = bench_clock::now();
  s.st = std::make_unique<stack>();
  graph g = gen::rmat_graph(kScale, edge_id{8} << kScale, opts.seed);
  s.initial = g;
  s.st->graphs.add_mutable("live", std::move(g), s.dir);
  s.st->start(traced);
  first_answer(*s.st, "live");
  setups.push_back(seconds_since(t0));
  return s;
}

struct write_phase {
  std::vector<sample> writes;
  std::vector<dynamic::update_batch> applied;  // answered batches, in order
};

// Open loop on one connection: a batch is due every 1/rate seconds from
// the start; each is timed from when it was due.
void open_loop_writer(uint16_t port, uint64_t seed, double trace_sample, edge_model& model,
                      bench_clock::time_point end, write_phase& w) {
  net::client_options co;
  co.trace_sample = trace_sample;
  net::client c(co);
  c.connect("127.0.0.1", port);
  const auto start = bench_clock::now();
  const double start_us = now_us();
  const rng r = rng(seed).fork(3000);
  request q;
  q.graph = "live";
  q.kind = engine::query_kind::update;
  for (uint64_t k = 0;; k++) {
    const auto due = start + std::chrono::duration_cast<bench_clock::duration>(
                                 std::chrono::duration<double>(k / kUpdatesPerSecond));
    if (due >= end || !c.connected()) break;
    std::this_thread::sleep_until(due);
    dynamic::update_batch batch = model.draw(r.fork(k));
    sample s = send(c, q, nullptr, &batch);
    s.due_us = start_us + static_cast<double>(k) / kUpdatesPerSecond * 1e6;
    if (s.answered) {
      model.apply(batch);
      w.applied.push_back(std::move(batch));
    }
    w.writes.push_back(s);
  }
}

// Writer checks: every batch answered, published epochs strictly rising.
void check_writes(const write_phase& w, outcome& out) {
  int64_t last = -1;
  for (const sample& s : w.writes) {
    out.attempted++;
    if (!s.answered) {
      out.failed++;
      continue;
    }
    if (s.value <= last) out.wrong("update epochs not strictly increasing");
    last = s.value;
  }
}

// Sanity of reads answered while writes landed (their epoch is unknown,
// so only the final state is compared with the oracle exactly).
void check_live_reads(const read_phase& p, outcome& out) {
  const int64_t n = int64_t{1} << kScale;
  for (const sample& s : p.reads) {
    out.attempted++;
    if (!s.answered) {
      out.failed++;
      continue;
    }
    bool ok = true;
    switch (s.req.kind) {
      case engine::query_kind::bfs_distance: ok = s.value >= -1 && s.value < n; break;
      case engine::query_kind::component_id:  // the component's smallest id
        ok = s.value >= 0 && s.value <= static_cast<int64_t>(s.req.source);
        break;
      default: break;
    }
    if (!ok) out.wrong(std::string(engine::query_kind_name(s.req.kind)) + " answer out of range");
  }
}

// After the writer stopped: the served graph must be the writer's model,
// and fresh reads must match the oracles on the model's edge set.
void check_final_state(const stack& st, const edge_model& model, uint64_t seed,
                       outcome& out) {
  const engine::graph_handle h = st.graphs.get("live");
  if (h->num_edges() != 2 * model.size())
    out.wrong("live edge count differs from the writer's model");
  net::client c;
  c.connect("127.0.0.1", st.srv->port());
  topk_pool pool;
  std::deque<sample> reads;
  const rng r = rng(seed).fork(4000);
  const vertex_id n = vertex_id{1} << kScale;
  for (uint64_t i = 0; i < kFinalReads; i++) {
    request q;
    q.graph = "live";
    q.source = static_cast<vertex_id>(r.bounded(2 * i, n));
    q.target = static_cast<vertex_id>(r.bounded(2 * i + 1, n));
    q.kind = i % 2 == 0 ? engine::query_kind::bfs_distance : engine::query_kind::component_id;
    reads.push_back(send(c, q, &pool));
  }
  check_reads(reads, pool, model.to_graph(), nullptr, out);
}

// The dynamic layer in process: the phase's batch stream replayed on a
// mutable_graph with the incremental recomputes the registry runs, and
// overlay BFS against BFS on the materialized CSR.
void add_dynamic_layers(const graph& initial, const write_phase& w, const stack& st,
                        const read_phase& p, span_log& spans, outcome& out) {
  dynamic::mutable_graph mg(initial);
  std::vector<vertex_id> labels = apps::connected_components(initial).labels;
  std::vector<double> rank = apps::pagerank_delta(initial, dynamic::maintenance_pr_options()).rank;
  std::vector<double> apply_us, cc_us, pr_us;
  double compactions = 0;
  uint64_t request_id = uint64_t{2} << 32;
  for (const dynamic::update_batch& b : w.applied) {
    const double t0 = now_us();
    dynamic::applied a = mg.apply(b);
    const double t1 = now_us();
    labels = dynamic::components_inc(a.next, std::move(labels), a.inserted, a.deleted).labels;
    const double t2 = now_us();
    rank = dynamic::pagerank_delta_inc(a.next, mg, std::move(rank), a.inserted, a.deleted).rank;
    const double t3 = now_us();
    const int64_t root = spans.add("dynamic.batch", request_id, -1, t0, t3);
    spans.add("dynamic.apply", request_id, root, t0, t1);
    spans.add("dynamic.components_inc", request_id, root, t1, t2);
    spans.add("dynamic.pagerank_delta_inc", request_id, root, t2, t3);
    request_id++;
    apply_us.push_back(t1 - t0);
    cc_us.push_back(t2 - t1);
    pr_us.push_back(t3 - t2);
    compactions += a.stats.compacted ? 1 : 0;
    mg = std::move(a.next);
  }
  out.add("dynamic.apply_us", median(apply_us), "us");
  out.add("dynamic.cc_inc_us", median(cc_us), "us");
  out.add("dynamic.pr_inc_us", median(pr_us), "us");
  out.add("dynamic.compactions", compactions, "count");
  // How far the maintained ranks drifted from PageRank of the final graph,
  // over the oracle's 100 highest-ranked vertices.
  const std::vector<double> truth = baseline::pagerank(mg.materialize());
  std::vector<vertex_id> order(truth.size());
  for (vertex_id v = 0; v < order.size(); v++) order[v] = v;
  const size_t top = std::min<size_t>(100, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(top), order.end(),
                    [&](vertex_id a, vertex_id b) { return truth[a] > truth[b]; });
  double drift = 0.0;
  for (size_t i = 0; i < top; i++)
    drift = std::max(drift, std::abs(rank[order[i]] - truth[order[i]]) / truth[order[i]]);
  out.add("dynamic.pr_inc_rel_err", drift, "ratio");

  obs::metrics_registry& m = st.ex->metrics();
  const auto update = m.get_histogram("engine_graph_update_micros").snapshot();
  out.add("engine.update_us_p50", update.p50(), "us");
  out.add("engine.update_us_p99", update.p99(), "us");
  out.add("dynamic.wal_append_us_p99", m.get_histogram("engine_wal_append_micros").snapshot().p99(),
          "us");
  out.add("dynamic.fsync_us_p99", m.get_histogram("engine_wal_fsync_micros").snapshot().p99(), "us");
  out.add("dynamic.checkpoint_ms_p50",
          m.get_histogram("engine_checkpoint_write_micros").snapshot().p50() / 1e3, "ms");

  // Overlay BFS on the final version against BFS on its materialized CSR,
  // and the full-graph kinds on that CSR.
  const engine::graph_handle h = st.graphs.get("live");
  const graph& csr = h->structure();
  std::unordered_map<std::string, std::vector<double>> us;
  std::vector<double> overlay_us;
  for (const sample& s : p.reads) {
    const request& q = s.req;
    const std::string kind = engine::query_kind_name(q.kind);
    if (us[kind].size() >= kReplayPerKind) continue;
    const double t0 = now_us();
    if (q.kind == engine::query_kind::bfs_distance) {
      const int64_t overlay = dynamic::bfs_hop_distance(*h->dyn(), q.source, q.target);
      const double t1 = now_us();
      const int64_t plain = apps::bfs_hop_distance(csr, q.source, q.target);
      const double t2 = now_us();
      spans.add("dynamic.bfs_hop_distance", request_id, -1, t0, t1);
      spans.add("apps.bfs", request_id++, -1, t1, t2);
      overlay_us.push_back(t1 - t0);
      us[kind].push_back(t2 - t1);
      if (overlay != plain) out.wrong("overlay BFS differs from BFS on the materialized CSR");
      continue;
    }
    apps::component_id(csr, q.source);
    const double t1 = now_us();
    spans.add("apps." + kind, request_id++, -1, t0, t1);
    us[kind].push_back(t1 - t0);
  }
  out.add("dynamic.overlay_bfs_us", median(overlay_us), "us");
  for (const char* k : {"bfs", "cc"})
    out.add(std::string("apps.") + k + "_us", median(us[k]), "us");
}

// Update latency, timed from each batch's due time, and how late the
// writer sent, over the batches due after the warm-up.
struct update_stats {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lag_p99_ms = 0.0;
  size_t measured = 0;
};

update_stats update_latency(const write_phase& w, double warm_us) {
  std::vector<double> lat, lag;
  for (const sample& s : w.writes) {
    if (s.due_us < warm_us) continue;
    lat.push_back(s.answered ? (s.end_us - s.due_us) / 1e3 : INFINITY);
    lag.push_back((s.start_us - s.due_us) / 1e3);
  }
  return {quantile(lat, 0.50), quantile(lat, 0.99), quantile(lag, 0.99), lat.size()};
}

}  // namespace

outcome run_serve_mixed(const options& opts) {
  print_provenance(opts, "4 x rmat 2^14 x 8 edges, weighted 3d-grid 25^3");
  outcome out;
  std::vector<double> setups;
  std::unique_ptr<stack> st;
  for (int i = 0; i < (opts.trace ? 1 : kSetups); i++) {
    st.reset();
    st = setup_mixed(opts.seed, false, setups);
  }
  const double seconds = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  auto next = [&](size_t c, uint64_t i) { return mixed_request(opts.seed, c, i); };
  read_phase untraced = run_readers(*st, kMixedConnections, seconds, 0.0, next);
  const double rss_mb = peak_rss_mb();  // before the oracles allocate
  check_mixed(*st, untraced, out);
  if (!opts.trace) {
    add_end_to_end(untraced, setups, rss_mb, out);
    return out;
  }

  st.reset();
  st = setup_mixed(opts.seed, true, setups);
  span_log spans;
  const scheduler_counts c0 = read_scheduler_counts();
  read_phase traced = run_readers(*st, kMixedConnections, seconds, 1.0, next);
  const scheduler_counts c1 = read_scheduler_counts();
  const double phase_s = kWarmupSeconds + seconds;
  check_mixed(*st, traced, out);
  add_serving_layers(*st, traced, spans, out);
  add_direct_calls(*st, traced.reads, spans, out);
  out.add("parallel.steals_per_s", (c1.steals - c0.steals) / phase_s, "1/s");
  out.add("parallel.parks_per_s", (c1.parks - c0.parks) / phase_s, "1/s");
  add_trace_overhead(untraced, traced, out);
  spans.print_summary(stdout);
  write_spans(spans, opts);
  complete_per_layer(out);
  return out;
}

outcome run_serve_updates(const options& opts) {
  print_provenance(opts, "mutable rmat 2^14 x 8 edges, durable");
  outcome out;
  std::vector<double> setups;
  updates_setup s;
  for (int i = 0; i < (opts.trace ? 1 : kSetups); i++) {
    s.teardown();
    s = setup_updates(opts, false, i, setups);
  }
  const double seconds = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  double rss_mb = 0.0;
  auto run_phase = [&](updates_setup& su, double trace_sample, write_phase& w) {
    edge_model model(su.initial);
    read_phase p = run_readers(
        *su.st, kReaderConnections, seconds, trace_sample,
        [&](size_t c, uint64_t i) { return updates_read(opts.seed, c, i); },
        [&](bench_clock::time_point end) {
          open_loop_writer(su.st->srv->port(), opts.seed, trace_sample, model, end, w);
        });
    rss_mb = peak_rss_mb();  // before the oracles allocate
    check_writes(w, out);
    check_live_reads(p, out);
    check_final_state(*su.st, model, opts.seed, out);
    return p;
  };

  write_phase w_untraced;
  read_phase untraced = run_phase(s, 0.0, w_untraced);
  const update_stats u = update_latency(w_untraced, untraced.warm_us);
  std::printf("# updates: %zu measured, p50 %.3f ms, p99 %.3f ms, writer lag p99 %.3f ms\n",
              u.measured, u.p50_ms, u.p99_ms, u.lag_p99_ms);
  if (!opts.trace) {
    add_end_to_end(untraced, setups, rss_mb, out);
    s.teardown();
    return out;
  }

  s.teardown();
  s = setup_updates(opts, true, 0, setups);
  span_log spans;
  write_phase w;
  const scheduler_counts c0 = read_scheduler_counts();
  read_phase traced = run_phase(s, 1.0, w);
  const scheduler_counts c1 = read_scheduler_counts();
  const double phase_s = kWarmupSeconds + seconds;
  add_serving_layers(*s.st, traced, spans, out);
  // The writer's own latency comes from the untraced phase, like the
  // end-to-end numbers; its lag is the traced phase's.
  out.add("loadgen.update_p50_ms", u.p50_ms, "ms");
  out.add("loadgen.update_p99_ms", u.p99_ms, "ms");
  out.add("loadgen.lag_ms_p99", update_latency(w, traced.warm_us).lag_p99_ms, "ms");
  add_dynamic_layers(s.initial, w, *s.st, traced, spans, out);
  out.add("parallel.steals_per_s", (c1.steals - c0.steals) / phase_s, "1/s");
  out.add("parallel.parks_per_s", (c1.parks - c0.parks) / phase_s, "1/s");
  add_trace_overhead(untraced, traced, out);
  s.teardown();
  spans.print_summary(stdout);
  write_spans(spans, opts);
  complete_per_layer(out);
  return out;
}

}  // namespace perfbench
