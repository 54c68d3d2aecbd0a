#include "engine/executor.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include <unordered_map>

#include "apps/query_adapters.h"
#include "dynamic/incremental.h"
#include "ligra/edge_map.h"
#include "ligra/multi_bfs.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "parallel/scheduler.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ligra::engine {

namespace {

void check_vertex(const char* what, vertex_id v, vertex_id n) {
  if (v >= n)
    throw std::invalid_argument(std::string(what) + ": vertex " +
                                std::to_string(v) + " out of range [0, " +
                                std::to_string(n) + ")");
}

// Round-boundary poll hook for the dynamic traversals (same shape the app
// adapters use); empty for inactive tokens so the per-round branch is free.
std::function<void()> poll_of(const cancel_token& token) {
  if (!token.active()) return {};
  return [token] { token.poll(); };
}

}  // namespace

query_executor::query_executor(registry& graphs, executor_options opts)
    : registry_(graphs),
      opts_(opts),
      owned_metrics_(opts.metrics == nullptr
                         ? std::make_unique<obs::metrics_registry>()
                         : nullptr),
      metrics_(opts.metrics != nullptr ? opts.metrics : owned_metrics_.get()),
      cache_(opts.cache_capacity, metrics_),
      stats_(*metrics_),
      g_queue_depth_(&metrics_->get_gauge("engine_queue_depth")),
      g_running_(&metrics_->get_gauge("engine_running")),
      c_batches_(&metrics_->get_counter("engine_batch_batches_total")),
      c_batch_members_(&metrics_->get_counter("engine_batch_members_total")),
      c_batch_dedup_(&metrics_->get_counter("engine_batch_dedup_total")),
      h_batch_width_(&metrics_->get_histogram("engine_batch_width")),
      h_batch_wait_(&metrics_->get_histogram("engine_batch_wait_micros")) {
  // Force pool construction from this thread before any dispatcher starts:
  // lazy construction from a dispatcher would adopt it as worker 0 and
  // alias deque ownership with the caller's thread.
  size_t workers = static_cast<size_t>(parallel::num_workers());
  if (opts_.max_concurrency == 0)
    opts_.max_concurrency = std::min<size_t>(4, workers);
  if (opts_.max_queue == 0) opts_.max_queue = 1;
  if (opts_.batch_max > 64) opts_.batch_max = 64;  // one bit per source
  dispatchers_.reserve(opts_.max_concurrency);
  for (size_t i = 0; i < opts_.max_concurrency; i++)
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

query_executor::~query_executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : dispatchers_) t.join();
  {
    std::lock_guard<std::mutex> lock(wd_mutex_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  watchdog_.join();
}

bool query_executor::cacheable(const query_request& req) const {
  if (cache_.capacity() == 0 || req.trace != nullptr) return false;
  switch (req.kind) {
    case query_kind::bfs_distance:
    case query_kind::sssp_distance:
    case query_kind::pagerank_topk:
    case query_kind::triangle_count:
      return true;
    case query_kind::component_id:  // one index into a derived view
    case query_kind::coreness:
    case query_kind::update:  // a write, never a cached answer
    case query_kind::custom:
      return false;
  }
  return false;
}

cache_key query_executor::make_key(const query_request& req, uint64_t epoch) {
  cache_key key;
  key.epoch = epoch;
  key.kind = req.kind;
  if (req.kind == query_kind::pagerank_topk) {
    key.b = req.k;
  } else if (req.kind != query_kind::triangle_count) {
    key.a = req.source;
    key.b = req.target;
  }
  return key;
}

query_result query_executor::execute(const query_request& req,
                                     const graph_entry& e,
                                     const cancel_token& token) {
  query_result r;
  r.kind = req.kind;
  // cc, coreness and top-k read the entry's per-epoch derived views, built
  // once per epoch on first touch. Only BFS depends on mutability: mutable
  // entries traverse the live base+delta view instead of a CSR.
  switch (req.kind) {
    case query_kind::bfs_distance:
      if (e.is_mutable()) {
        check_vertex("bfs_hop_distance source", req.source, e.num_vertices());
        check_vertex("bfs_hop_distance target", req.target, e.num_vertices());
        r.value = dynamic::bfs_hop_distance(*e.dyn(), req.source, req.target,
                                            poll_of(token));
      } else {
        r.value = apps::bfs_hop_distance(e.structure(), req.source, req.target,
                                         token);
      }
      break;
    case query_kind::sssp_distance:
      r.value = apps::sssp_distance(e.weights(), req.source, req.target, token);
      break;
    case query_kind::pagerank_topk:
      r.topk = apps::topk_ranks(e.pagerank_view(token), req.k);
      r.value = static_cast<int64_t>(r.topk.size());
      break;
    case query_kind::component_id:
      check_vertex("component_id", req.source, e.num_vertices());
      r.value = e.cc_view(token)[req.source];
      break;
    case query_kind::coreness:
      check_vertex("vertex_coreness", req.source, e.num_vertices());
      r.value = e.coreness_view(token)[req.source];
      break;
    case query_kind::triangle_count:
      r.value = static_cast<int64_t>(apps::count_triangles(e.structure(), token));
      break;
    case query_kind::update: {
      if (!req.updates)
        throw engine_error("update query without a batch");
      // The entry resolved at submission pins the *old* epoch; the apply
      // resolves the name again so serialized batches chain correctly.
      graph_handle next = registry_.apply_updates(req.graph, *req.updates);
      r.value = static_cast<int64_t>(next->epoch());
      break;
    }
    case query_kind::custom:
      if (!req.custom)
        throw engine_error("custom query without a callable");
      r.value = req.custom(e, token);
      break;
  }
  return r;
}

bool query_executor::draw_sample() {
  if (opts_.trace_sample_rate <= 0.0) return false;
  if (opts_.trace_sample_rate >= 1.0) return true;
  // Hash draw over a process-wide counter: deterministic per process (no
  // clock reads on the submit path), uniform, and lock-free.
  const uint64_t n = sample_ctr_.fetch_add(1, std::memory_order_relaxed);
  const double u =
      static_cast<double>(hash64(n) >> 11) * 0x1.0p-53;  // [0, 1)
  return u < opts_.trace_sample_rate;
}

void query_executor::observe_done(const obs::trace_id& tid,
                                  const query_request& req, bool sampled,
                                  obs::query_trace* trace, uint64_t epoch,
                                  double queued_micros, const char* outcome,
                                  double exec_micros, const query_result* r,
                                  const std::string& error,
                                  uint32_t retry_after_ms, uint64_t batch_id,
                                  uint32_t batch_width) {
  if (!observing()) return;
  const size_t rounds = trace != nullptr ? trace->rounds().size() : 0;
  if (opts_.flightrec != nullptr) {
    obs::flight_entry e;
    e.id = tid;
    e.set_kind(query_kind_name(req.kind));
    e.set_graph(req.graph);
    e.set_outcome(outcome);
    e.epoch = epoch;
    e.queued_micros = queued_micros;
    e.exec_micros = exec_micros;
    e.rounds = static_cast<uint32_t>(rounds);
    e.retry_after_ms = retry_after_ms;
    if (r != nullptr) {
      // Approximate wire size of the answer (net/protocol.h response body).
      e.result_bytes = 8 + 12 * r->topk.size();
      e.cache_hit = r->cache_hit;
    }
    opts_.flightrec->record(e);
  }
  if (opts_.traces == nullptr) return;
  // Retention rules (docs/OBSERVABILITY.md): sampled queries always; every
  // non-ok outcome always; slow queries always.
  const bool is_ok = error.empty() && std::string_view(outcome) == "ok";
  const bool slow =
      opts_.slow_trace_micros > 0 &&
      exec_micros >= static_cast<double>(opts_.slow_trace_micros);
  if (!sampled && is_ok && !slow) return;
  obs::trace_record rec;
  rec.id = tid;
  rec.kind = query_kind_name(req.kind);
  rec.graph = req.graph;
  rec.outcome = outcome;
  rec.sampled = sampled;
  rec.cache_hit = r != nullptr && r->cache_hit;
  rec.epoch = epoch;
  rec.queued_micros = queued_micros;
  rec.exec_micros = exec_micros;
  rec.retry_after_ms = retry_after_ms;
  rec.rounds = rounds;
  rec.batch_id = batch_id;
  rec.batch_width = batch_width;
  rec.error = error;
  if (trace != nullptr) rec.trace_json = trace->to_json();
  opts_.traces->insert(std::move(rec));
}

std::future<query_result> query_executor::submit(query_request req) {
  stats_.record_submitted();
  auto j = std::make_shared<job>();
  j->req = std::move(req);
  j->submit_t0 = mono_now();
  // Mint a correlation id for requests that arrive without one whenever a
  // sink is attached; echo a caller-supplied id either way. Sampling is
  // sticky from here: the wire bit (or the server-side draw) decides once.
  if (observing() && !j->req.tid.valid()) j->req.tid = obs::trace_id::mint();
  j->tid = j->req.tid;
  j->sampled = j->req.sampled || (observing() && draw_sample());
  // Log lines fired from the submission path carry the query's id.
  obs::trace_id_scope id_scope(j->tid);
  std::future<query_result> fut = j->promise.get_future();

  j->handle = registry_.try_get(j->req.graph);
  if (!j->handle) {
    stats_.record_failed();
    const std::string msg =
        "no graph named '" + j->req.graph + "' is registered";
    observe_done(j->tid, j->req, j->sampled, nullptr, 0, 0.0, "not_found", 0.0,
                 nullptr, msg, 0);
    j->promise.set_exception(std::make_exception_ptr(not_found_error(msg)));
    return fut;
  }
  j->epoch = j->handle->epoch();

  j->cacheable = cacheable(j->req);
  if (j->cacheable) {
    j->key = make_key(j->req, j->handle->epoch());
    if (auto cached = cache_.get(j->key)) {
      query_result r = *cached;
      r.cache_hit = true;
      r.micros = 0.0;
      r.tid = j->tid;
      stats_.record_completed();
      observe_done(j->tid, j->req, j->sampled, nullptr, j->epoch, 0.0, "ok",
                   0.0, &r, "", 0);
      j->promise.set_value(std::move(r));
      return fut;
    }
  }

  // Arm an executor-owned trace when the caller didn't bring one and the
  // retention rules could want rounds to show: sampled queries, queries
  // that can end in a deadline, and (when slow retention is configured)
  // every query. Owned traces do NOT disable caching — the cacheable
  // decision above only looks at caller traces, so a sampled query still
  // fills the cache for its unsampled siblings.
  if (j->req.trace != nullptr) {
    j->trace = j->req.trace;
  } else if (opts_.traces != nullptr &&
             (j->sampled || j->req.deadline.count() > 0 ||
              opts_.slow_trace_micros > 0)) {
    j->owned_trace = std::make_unique<obs::query_trace>();
    j->trace = j->owned_trace.get();
  }

  // Coalescing eligibility (docs/ENGINE.md "Batched execution"): point BFS
  // on a static entry. Mutable entries answer BFS over the live base+delta
  // view (no shared CSR to fan out over), and a caller-supplied trace
  // promises per-round detail this query's own traversal would produce —
  // batch members share the leader's rounds, so those stay singular.
  j->batchable = opts_.batch_max > 1 &&
                 j->req.kind == query_kind::bfs_distance &&
                 !j->handle->is_mutable() && j->req.trace == nullptr;

  // Layer the per-query deadline on top of any caller token. Queries with
  // neither keep an inactive token: the apps then skip the per-round poll
  // branch entirely.
  if (j->req.deadline.count() > 0)
    j->deadline_at = std::chrono::steady_clock::now() + j->req.deadline;
  if (j->req.token.active() ||
      j->deadline_at != std::chrono::steady_clock::time_point::max()) {
    j->source = cancel_source(j->req.token, j->deadline_at);
    j->token = j->source.token();
    j->has_source = true;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (opts_.shed_watermark > 0 && queue_.size() >= opts_.shed_watermark &&
        j->req.priority == query_priority::low) {
      stats_.record_shed();
      // Advice scales with how far past the watermark the queue is: the
      // deeper the backlog, the longer the caller should stay away.
      auto over = queue_.size() - opts_.shed_watermark + 1;
      auto advice = std::chrono::milliseconds(
          std::min<uint64_t>(1000, 20 * static_cast<uint64_t>(over)));
      const std::string msg =
          "load shedding active (" + std::to_string(queue_.size()) +
          " pending >= watermark " + std::to_string(opts_.shed_watermark) +
          "); low-priority query shed";
      const auto advice_ms = static_cast<uint32_t>(advice.count());
      observe_done(j->tid, j->req, j->sampled, nullptr, j->epoch, 0.0, "shed",
                   0.0, nullptr, msg, advice_ms);
      if (observing())
        obs::log_warn("engine", "query shed",
                      {{"kind", query_kind_name(j->req.kind)},
                       {"graph", j->req.graph},
                       {"queue_depth", queue_.size()},
                       {"retry_after_ms", advice_ms}});
      throw shed_error(msg, advice);
    }
    if (draining_) {
      stats_.record_rejected();
      const std::string msg = "executor draining; no new queries admitted";
      observe_done(j->tid, j->req, j->sampled, nullptr, j->epoch, 0.0,
                   "rejected", 0.0, nullptr, msg, 1000);
      throw rejected_error(msg, std::chrono::milliseconds(1000));
    }
    if (queue_.size() >= opts_.max_queue) {
      stats_.record_rejected();
      // Same advice scaling as shedding: a full queue is maximal overload,
      // so the advice starts where the shed formula's range does.
      auto advice = std::chrono::milliseconds(std::min<uint64_t>(
          1000, 20 * static_cast<uint64_t>(queue_.size() - opts_.max_queue + 1 +
                                           opts_.max_queue / 2)));
      const std::string msg =
          "admission queue full (" + std::to_string(queue_.size()) +
          " pending, limit " + std::to_string(opts_.max_queue) +
          "); retry later";
      const auto advice_ms = static_cast<uint32_t>(advice.count());
      observe_done(j->tid, j->req, j->sampled, nullptr, j->epoch, 0.0,
                   "rejected", 0.0, nullptr, msg, advice_ms);
      if (observing())
        obs::log_warn("engine", "query rejected",
                      {{"kind", query_kind_name(j->req.kind)},
                       {"graph", j->req.graph},
                       {"queue_depth", queue_.size()},
                       {"retry_after_ms", advice_ms}});
      throw rejected_error(msg, advice);
    }
    // The span must start before the queue lock drops: once push_back
    // publishes the job, the dispatcher may read queued_span concurrently.
    if (j->trace != nullptr) j->queued_span = j->trace->begin_span("queued");
    queue_.push_back(j);
    g_queue_depth_->set(static_cast<int64_t>(queue_.size()));
  }
  notify_work();

  if (j->deadline_at != std::chrono::steady_clock::time_point::max()) {
    {
      std::lock_guard<std::mutex> lock(wd_mutex_);
      wd_heap_.push(wd_entry{j->deadline_at, j});
    }
    wd_cv_.notify_one();
  }
  return fut;
}

query_result query_executor::run(const query_request& req) {
  stats_.record_submitted();
  // Same observability contract as submit(): mint when a sink is attached,
  // echo otherwise (the REPL path shows up in /traces too).
  obs::trace_id tid = req.tid;
  bool sampled = req.sampled;
  if (observing()) {
    if (!tid.valid()) tid = obs::trace_id::mint();
    sampled = sampled || draw_sample();
  }
  obs::trace_id_scope id_scope(tid);
  graph_handle handle;
  try {
    handle = registry_.get(req.graph);
  } catch (const not_found_error& e) {
    stats_.record_failed();
    observe_done(tid, req, sampled, nullptr, 0, 0.0, "not_found", 0.0, nullptr,
                 e.what(), 0);
    throw;
  }
  const uint64_t epoch = handle->epoch();
  const bool use_cache = cacheable(req);
  cache_key key;
  if (use_cache) {
    key = make_key(req, epoch);
    if (auto cached = cache_.get(key)) {
      query_result r = *cached;
      r.cache_hit = true;
      r.micros = 0.0;
      r.tid = tid;
      stats_.record_completed();
      observe_done(tid, req, sampled, nullptr, epoch, 0.0, "ok", 0.0, &r, "",
                   0);
      return r;
    }
  }
  // Arm an executor-owned trace under the same rules as the async path.
  std::unique_ptr<obs::query_trace> owned_trace;
  obs::query_trace* trace = req.trace;
  if (trace == nullptr && opts_.traces != nullptr &&
      (sampled || req.deadline.count() > 0 || opts_.slow_trace_micros > 0)) {
    owned_trace = std::make_unique<obs::query_trace>();
    trace = owned_trace.get();
  }
  // Synchronous path: deadline enforced by polling only (there is no one to
  // settle the caller's stack frame early).
  cancel_token token = req.token;
  cancel_source source;
  if (req.deadline.count() > 0) {
    source = cancel_source(req.token,
                           std::chrono::steady_clock::now() + req.deadline);
    token = source.token();
  }
  const monotonic_time t0 = mono_now();
  try {
    query_result r;
    {
      obs::trace_scope tracing(trace);
      obs::span_scope span("execute");
      r = execute(req, *handle, token);
    }
    r.micros = micros_since(t0);
    r.tid = tid;
    if (use_cache) {
      try {
        cache_.put(key, std::make_shared<query_result>(r));
      } catch (...) {
        // Cache insertion failure never fails a completed query.
      }
    }
    stats_.record_latency(req.kind, r.micros);
    stats_.record_completed();
    observe_done(tid, req, sampled, trace, epoch, 0.0, "ok", r.micros, &r, "",
                 0);
    return r;
  } catch (const cancelled_error& e) {
    stats_.record_cancelled();
    observe_done(tid, req, sampled, trace, epoch, 0.0, "cancelled",
                 micros_since(t0), nullptr, e.what(), 0);
    throw;
  } catch (const deadline_exceeded_error& e) {
    stats_.record_deadline_exceeded();
    observe_done(tid, req, sampled, trace, epoch, 0.0, "deadline",
                 micros_since(t0), nullptr, e.what(), 0);
    throw;
  } catch (const std::exception& e) {
    stats_.record_failed();
    observe_done(tid, req, sampled, trace, epoch, 0.0, "error",
                 micros_since(t0), nullptr, e.what(), 0);
    throw;
  } catch (...) {
    stats_.record_failed();
    observe_done(tid, req, sampled, trace, epoch, 0.0, "error",
                 micros_since(t0), nullptr, "unknown error", 0);
    throw;
  }
}

void query_executor::settle_error(const job_ptr& j, std::exception_ptr err) {
  if (j->settled.exchange(true)) return;  // watchdog got there first
  try {
    std::rethrow_exception(err);
  } catch (const cancelled_error&) {
    stats_.record_cancelled();
  } catch (const deadline_exceeded_error&) {
    stats_.record_deadline_exceeded();
  } catch (...) {
    stats_.record_failed();
  }
  j->promise.set_exception(std::move(err));
}

void query_executor::execute_job(const job_ptr& j,
                                 edge_map_scratch* scratch) {
  j->queued_micros = micros_since(j->submit_t0);
  obs::trace_id_scope id_scope(j->tid);
  if (j->trace != nullptr && j->queued_span != SIZE_MAX)
    j->trace->end_span(j->queued_span);
  // A queued job whose token already tripped (deadline passed or caller
  // cancelled while it waited) is settled without running the body.
  if (j->token.should_stop()) {
    std::exception_ptr err;
    const char* outcome;
    std::string msg;
    if (j->token.deadline_exceeded()) {
      outcome = "deadline";
      msg = "query deadline exceeded while queued";
      err = std::make_exception_ptr(deadline_exceeded_error(msg));
    } else {
      outcome = "cancelled";
      msg = "query cancelled while queued";
      err = std::make_exception_ptr(cancelled_error(msg));
    }
    settle_error(j, std::move(err));
    observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
                 j->queued_micros, outcome, 0.0, nullptr, msg, 0);
    return;
  }
  if (j->settled.load(std::memory_order_acquire)) {
    // The watchdog already settled this job while it sat in the queue; it
    // never ran, but the flight recorder still wants the refusal.
    observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
                 j->queued_micros, "deadline", 0.0, nullptr,
                 "query deadline exceeded while queued (watchdog)", 0);
    return;
  }

  const monotonic_time t0 = mono_now();
  query_result r;
  std::exception_ptr err;
  // The trace and the dispatcher's round scratch are installed *inside*
  // the body closure: with use_pool the body runs on a pool worker thread,
  // and that is where edge_map must see them (query bodies execute whole
  // on one worker — run_on_pool injects the closure, it does not split
  // it). The scratch is owned by the dispatcher, which runs one body at a
  // time, so consecutive queries through the same dispatcher reuse warmed
  // buffers; the scope nests, so a body injected onto a worker that is
  // mid-join in another query never sees that query's scratch. The trace
  // installed is the *effective* one (caller's or executor-armed), and the
  // trace id rides along so log lines fired inside the body correlate.
  auto body = [&]() noexcept {
    obs::trace_scope tracing(j->trace);
    obs::trace_id_scope body_id_scope(j->tid);
    edge_map_scratch_scope scratch_scope(scratch);
    obs::span_scope span("execute");
    try {
      if (LIGRA_FAILPOINT("executor.dispatch"))
        throw engine_error(
            "injected dispatch failure (failpoint executor.dispatch)");
      r = execute(j->req, *j->handle, j->token);
    } catch (...) {
      err = std::current_exception();
    }
  };
  if (opts_.use_pool) {
    parallel::run_on_pool(body);
  } else {
    body();
  }
  const double exec_micros = micros_since(t0);
  if (err) {
    // Derive the retained outcome from the exception type; settle_error
    // repeats the classification for stats (it may lose the settle race to
    // the watchdog, observation here happens exactly once either way).
    const char* outcome = "error";
    std::string msg = "unknown error";
    try {
      std::rethrow_exception(err);
    } catch (const cancelled_error& e) {
      outcome = "cancelled";
      msg = e.what();
    } catch (const deadline_exceeded_error& e) {
      outcome = "deadline";
      msg = e.what();
    } catch (const std::exception& e) {
      msg = e.what();
    } catch (...) {
    }
    settle_error(j, err);
    observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
                 j->queued_micros, outcome, exec_micros, nullptr, msg, 0);
    return;
  }
  if (j->settled.exchange(true)) {
    // Late result: the watchdog already delivered deadline_exceeded to the
    // caller. Retained with the body's real cost — this is exactly the
    // query a post-mortem wants to see (what was still burning CPU after
    // its deadline), with every round the body ran.
    observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
                 j->queued_micros, "deadline", exec_micros, nullptr,
                 "query deadline exceeded (watchdog): late result discarded",
                 0);
    return;
  }
  r.micros = exec_micros;
  r.tid = j->tid;
  if (j->cacheable) {
    try {
      cache_.put(j->key, std::make_shared<query_result>(r));
    } catch (...) {
      // Cache insertion failure (failpoint or allocation) never fails a
      // completed query — the answer still goes out, just uncached.
    }
  }
  stats_.record_latency(j->req.kind, r.micros);
  stats_.record_completed();
  observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
               j->queued_micros, "ok", r.micros, &r, "", 0);
  j->promise.set_value(std::move(r));
}

std::deque<query_executor::job_ptr>::iterator
query_executor::find_eligible_locked() {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    size_t cap = opts_.per_kind_limits[static_cast<size_t>((*it)->req.kind)];
    if (cap == 0 || running_by_kind_[static_cast<size_t>((*it)->req.kind)] < cap)
      return it;
  }
  return queue_.end();
}

void query_executor::notify_work() {
  if (opts_.batch_window_micros > 0 && opts_.batch_max > 1)
    work_cv_.notify_all();
  else
    work_cv_.notify_one();
}

void query_executor::collect_batch_locked(std::vector<job_ptr>& batch) {
  // Copied, not a reference: push_back below reallocates the vector.
  const job_ptr leader = batch.front();
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < opts_.batch_max;) {
    // Same entry object (one handle pins one immutable epoch), so the
    // members provably traverse the same structure. Members join the
    // leader's traversal regardless of the per-kind cap: riding an
    // already-running fan-out only reduces total work.
    if ((*it)->batchable && (*it)->handle == leader->handle &&
        (*it)->epoch == leader->epoch) {
      running_++;
      running_by_kind_[static_cast<size_t>((*it)->req.kind)]++;
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  g_queue_depth_->set(static_cast<int64_t>(queue_.size()));
  g_running_->set(static_cast<int64_t>(running_));
}

void query_executor::dispatcher_loop() {
  // This dispatcher's traversal working memory, reused by every query it
  // runs for the executor's lifetime (ligra/edge_map.h scratch contract);
  // mb_scratch additionally carries the multi-BFS bit vectors across
  // batches.
  edge_map_scratch scratch;
  multi_bfs_scratch mb_scratch;
  while (true) {
    job_ptr j;
    std::vector<job_ptr> batch;
    double wait_micros = 0.0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // During shutdown caps are ignored so the queue always drains.
      work_cv_.wait(lock, [this] {
        return stop_ ? true : find_eligible_locked() != queue_.end();
      });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      auto it = stop_ ? queue_.begin() : find_eligible_locked();
      if (it == queue_.end()) continue;
      j = std::move(*it);
      queue_.erase(it);
      running_++;
      running_by_kind_[static_cast<size_t>(j->req.kind)]++;
      g_queue_depth_->set(static_cast<int64_t>(queue_.size()));
      g_running_->set(static_cast<int64_t>(running_));
      if (j->batchable && !stop_) {
        batch.push_back(j);
        collect_batch_locked(batch);
        // Hold the window open for companions when configured (skipped
        // while draining or shutting down — nothing new is coming).
        if (opts_.batch_window_micros > 0 && batch.size() < opts_.batch_max &&
            !draining_) {
          const monotonic_time w0 = mono_now();
          const auto until =
              std::chrono::steady_clock::now() +
              std::chrono::microseconds(opts_.batch_window_micros);
          while (batch.size() < opts_.batch_max && !stop_ && !draining_) {
            const auto status = work_cv_.wait_until(lock, until);
            collect_batch_locked(batch);
            if (status == std::cv_status::timeout) break;
          }
          wait_micros = micros_since(w0);
        }
      }
    }
    if (batch.size() > 1) {
      execute_batch(batch, &scratch, &mb_scratch, wait_micros);
    } else {
      execute_job(j, &scratch);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const size_t done = batch.empty() ? 1 : batch.size();
      running_ -= done;
      running_by_kind_[static_cast<size_t>(j->req.kind)] -= done;
      g_running_->set(static_cast<int64_t>(running_));
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
    // A kind slot freed up; a queued job previously passed over for its cap
    // may be eligible now.
    notify_work();
  }
}

void query_executor::execute_batch(std::vector<job_ptr>& batch,
                                   edge_map_scratch* scratch,
                                   multi_bfs_scratch* mb_scratch,
                                   double wait_micros) {
  const uint64_t batch_id =
      batch_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto width = static_cast<uint32_t>(batch.size());

  // Per-member prologue, exactly the singular path's: close the queued
  // span, and settle members whose token tripped (or whose watchdog fired)
  // while they sat in the queue or the coalescing window.
  std::vector<job_ptr> live;
  live.reserve(batch.size());
  for (auto& j : batch) {
    j->queued_micros = micros_since(j->submit_t0);
    obs::trace_id_scope id_scope(j->tid);
    if (j->trace != nullptr && j->queued_span != SIZE_MAX)
      j->trace->end_span(j->queued_span);
    if (j->token.should_stop()) {
      const bool deadline = j->token.deadline_exceeded();
      const std::string msg = deadline
                                  ? "query deadline exceeded while queued"
                                  : "query cancelled while queued";
      settle_error(j, deadline ? std::make_exception_ptr(
                                     deadline_exceeded_error(msg))
                               : std::make_exception_ptr(cancelled_error(msg)));
      observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
                   j->queued_micros, deadline ? "deadline" : "cancelled", 0.0,
                   nullptr, msg, 0, batch_id, width);
      continue;
    }
    if (j->settled.load(std::memory_order_acquire)) {
      observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
                   j->queued_micros, "deadline", 0.0, nullptr,
                   "query deadline exceeded while queued (watchdog)", 0,
                   batch_id, width);
      continue;
    }
    live.push_back(j);
  }
  if (live.empty()) return;

  // Batched cache probe (one lock for the whole batch): a sibling batch or
  // singular query may have filled a member's key since its submit-time
  // miss.
  {
    std::vector<cache_key> keys;
    std::vector<size_t> key_member;
    for (size_t i = 0; i < live.size(); i++) {
      if (live[i]->cacheable) {
        keys.push_back(live[i]->key);
        key_member.push_back(i);
      }
    }
    if (!keys.empty()) {
      auto found = cache_.get_many(keys);
      std::vector<char> hit(live.size(), 0);
      for (size_t k = 0; k < keys.size(); k++) {
        if (!found[k]) continue;
        const job_ptr& j = live[key_member[k]];
        hit[key_member[k]] = 1;
        if (j->settled.exchange(true)) continue;
        query_result r = *found[k];
        r.cache_hit = true;
        r.micros = 0.0;
        r.tid = j->tid;
        stats_.record_completed();
        observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
                     j->queued_micros, "ok", 0.0, &r, "", 0, batch_id, width);
        j->promise.set_value(std::move(r));
      }
      size_t w = 0;
      for (size_t i = 0; i < live.size(); i++)
        if (!hit[i]) live[w++] = std::move(live[i]);
      live.resize(w);
    }
  }
  if (live.empty()) return;

  // Invalid vertices fail their member only — the rest of the batch still
  // traverses.
  const graph_entry& entry = *live.front()->handle;
  const vertex_id n = entry.num_vertices();
  {
    size_t w = 0;
    for (size_t i = 0; i < live.size(); i++) {
      const job_ptr& j = live[i];
      try {
        check_vertex("bfs_hop_distance source", j->req.source, n);
        check_vertex("bfs_hop_distance target", j->req.target, n);
        live[w++] = std::move(live[i]);
      } catch (const std::invalid_argument& e) {
        settle_error(j, std::current_exception());
        observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
                     j->queued_micros, "error", 0.0, nullptr, e.what(), 0,
                     batch_id, width);
      }
    }
    live.resize(w);
  }
  if (live.empty()) return;

  // Single-flight grouping: identical (source, target) members share one
  // watch, distinct sources share one bit — two callers asking the same
  // question pay for one answer.
  std::vector<vertex_id> sources;
  std::vector<multi_bfs_pair> pairs;
  std::vector<std::vector<size_t>> watch_members;  // watch -> live indices
  {
    std::unordered_map<uint64_t, size_t> watch_of;  // (source, target) key
    std::unordered_map<vertex_id, uint32_t> slot_of;
    uint64_t dedup = 0;
    for (size_t i = 0; i < live.size(); i++) {
      const uint64_t key =
          (static_cast<uint64_t>(live[i]->req.source) << 32) |
          static_cast<uint64_t>(live[i]->req.target);
      auto it = watch_of.find(key);
      if (it != watch_of.end()) {
        watch_members[it->second].push_back(i);
        dedup++;
        continue;
      }
      auto [sit, fresh] = slot_of.try_emplace(
          live[i]->req.source, static_cast<uint32_t>(sources.size()));
      if (fresh) sources.push_back(live[i]->req.source);
      watch_of.emplace(key, pairs.size());
      pairs.push_back({sit->second, live[i]->req.target});
      watch_members.push_back({i});
    }
    if (dedup > 0) c_batch_dedup_->inc(dedup);
  }
  c_batches_->inc();
  c_batch_members_->inc(live.size());
  h_batch_width_->record(static_cast<uint64_t>(live.size()));
  h_batch_wait_->record(static_cast<uint64_t>(wait_micros));

  // Fan out: one bit-parallel traversal answers every member. The leader's
  // effective trace is installed (its rounds carry the batch width via the
  // multi_bfs span); the other members keep summary-only records stamped
  // with the batch id. `finished` marks members settled mid-flight so the
  // epilogue skips them; it is only ever touched by this call chain (the
  // body runs to completion before the epilogue), never concurrently.
  const job_ptr& leader = live.front();
  std::vector<char> finished(live.size(), 0);
  const monotonic_time t0 = mono_now();
  std::vector<int64_t> dist;
  std::exception_ptr err;
  auto body = [&]() noexcept {
    obs::trace_scope tracing(leader->trace);
    obs::trace_id_scope body_id_scope(leader->tid);
    edge_map_scratch_scope scratch_scope(scratch);
    obs::span_scope span("execute");
    try {
      if (LIGRA_FAILPOINT("batch.fanout"))
        throw engine_error(
            "injected batch fan-out failure (failpoint batch.fanout)");
      multi_bfs_options mopts;
      mopts.scratch = mb_scratch;
      // Per-member cancel/deadline isolation: a tripped member is settled
      // at the round boundary and the traversal carries on for its
      // siblings; only a fully-abandoned batch stops early.
      mopts.on_round = [&](int64_t, size_t) {
        size_t alive = 0;
        for (size_t i = 0; i < live.size(); i++) {
          if (finished[i]) continue;
          const job_ptr& j = live[i];
          if (j->settled.load(std::memory_order_acquire)) continue;
          if (j->token.should_stop()) {
            const bool deadline = j->token.deadline_exceeded();
            const std::string msg =
                deadline ? "query deadline exceeded during batched execution"
                         : "query cancelled during batched execution";
            settle_error(
                j, deadline ? std::make_exception_ptr(
                                  deadline_exceeded_error(msg))
                            : std::make_exception_ptr(cancelled_error(msg)));
            observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
                         j->queued_micros, deadline ? "deadline" : "cancelled",
                         micros_since(t0), nullptr, msg, 0, batch_id, width);
            finished[i] = 1;
            continue;
          }
          alive++;
        }
        return alive > 0;
      };
      dist = multi_bfs_distances(entry.structure(), sources, pairs, mopts);
    } catch (...) {
      err = std::current_exception();
    }
  };
  if (opts_.use_pool) {
    parallel::run_on_pool(body);
  } else {
    body();
  }
  const double exec_micros = micros_since(t0);

  if (err) {
    // A failed fan-out (failpoint, allocation) fails each remaining member
    // with the typed error; the coalescer itself is fine — the next batch
    // starts clean.
    std::string msg = "unknown error";
    try {
      std::rethrow_exception(err);
    } catch (const std::exception& e) {
      msg = e.what();
    } catch (...) {
    }
    for (size_t i = 0; i < live.size(); i++) {
      if (finished[i]) continue;
      settle_error(live[i], err);
      observe_done(live[i]->tid, live[i]->req, live[i]->sampled,
                   live[i]->trace, live[i]->epoch, live[i]->queued_micros,
                   "error", exec_micros, nullptr, msg, 0, batch_id, width);
    }
    return;
  }

  // Split the answers back per member, each settled and cached
  // individually (one put_many lock for the whole batch) so popular
  // sources hit the cache next time. The cache insert happens BEFORE any
  // promise is fulfilled: a caller that observes its result and
  // immediately resubmits the same key must hit.
  std::vector<std::pair<cache_key, std::shared_ptr<const query_result>>>
      inserts;
  std::vector<std::pair<job_ptr, query_result>> settle;
  settle.reserve(live.size());
  for (size_t w = 0; w < pairs.size(); w++) {
    bool cached_this_watch = false;
    for (size_t i : watch_members[w]) {
      if (finished[i]) continue;
      const job_ptr& j = live[i];
      query_result r;
      r.kind = query_kind::bfs_distance;
      r.value = dist[w];
      r.micros = exec_micros;
      r.tid = j->tid;
      if (j->settled.exchange(true)) {
        observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
                     j->queued_micros, "deadline", exec_micros, nullptr,
                     "query deadline exceeded (watchdog): late result "
                     "discarded",
                     0, batch_id, width);
        continue;
      }
      if (j->cacheable && !cached_this_watch) {
        inserts.emplace_back(j->key, std::make_shared<query_result>(r));
        cached_this_watch = true;
      }
      settle.emplace_back(j, std::move(r));
    }
  }
  if (!inserts.empty()) {
    try {
      cache_.put_many(std::move(inserts));
    } catch (...) {
      // Cache insertion failure never fails a completed query.
    }
  }
  for (auto& [j, r] : settle) {
    stats_.record_latency(j->req.kind, exec_micros);
    stats_.record_completed();
    observe_done(j->tid, j->req, j->sampled, j->trace, j->epoch,
                 j->queued_micros, "ok", exec_micros, &r, "", 0, batch_id,
                 width);
    j->promise.set_value(std::move(r));
  }
}

void query_executor::watchdog_loop() {
  std::unique_lock<std::mutex> lock(wd_mutex_);
  while (true) {
    if (wd_stop_) return;
    if (wd_heap_.empty()) {
      wd_cv_.wait(lock, [this] { return wd_stop_ || !wd_heap_.empty(); });
      continue;
    }
    auto at = wd_heap_.top().at;
    if (std::chrono::steady_clock::now() < at) {
      // Sleeps until the earliest deadline or a new (earlier) registration.
      wd_cv_.wait_until(lock, at);
      continue;
    }
    auto entry = wd_heap_.top();
    wd_heap_.pop();
    job_ptr j = entry.j.lock();
    if (!j) continue;  // settled and destroyed long ago
    lock.unlock();
    // Trip the token (so a polling body exits at its next round) and settle
    // the future now: the caller gets deadline_exceeded at ~the deadline
    // even if the body never polls. The body's eventual result is discarded
    // by the settled flag.
    j->source.expire();
    if (!j->settled.exchange(true)) {
      stats_.record_deadline_exceeded();
      j->promise.set_exception(std::make_exception_ptr(deadline_exceeded_error(
          "query deadline exceeded (watchdog): body still running")));
    }
    lock.lock();
  }
}

engine_stats_snapshot query_executor::stats() const {
  engine_stats_snapshot snap;
  stats_.fill(snap);
  snap.cache = cache_.counters();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.queue_depth = queue_.size();
    snap.running = running_;
  }
  return snap;
}

size_t query_executor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void query_executor::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

bool query_executor::drain(std::chrono::milliseconds deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  return idle_cv_.wait_until(
      lock, std::chrono::steady_clock::now() + deadline,
      [this] { return queue_.empty() && running_ == 0; });
}

bool query_executor::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

}  // namespace ligra::engine
