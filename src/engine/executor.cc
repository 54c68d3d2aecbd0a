#include "engine/executor.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "apps/query_adapters.h"
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

const char* query_status_name(query_status s) {
  switch (s) {
    case query_status::ok: return "ok";
    case query_status::cancelled: return "cancelled";
    case query_status::deadline: return "deadline";
    case query_status::shed: return "shed";
    case query_status::rejected: return "rejected";
    case query_status::not_found: return "not_found";
    case query_status::bad_request:
    case query_status::load:
    case query_status::internal: break;
  }
  return "error";
}

query_outcome query_outcome::failure(query_status s, std::string message,
                                     std::chrono::milliseconds retry_after) {
  query_outcome o;
  o.status = s;
  o.message = std::move(message);
  o.retry_after = retry_after;
  return o;
}

query_outcome query_outcome::from_exception(std::exception_ptr e) {
  query_outcome o;
  o.error = e;
  auto set = [&o](query_status s, const std::exception& x) {
    o.status = s;
    o.message = x.what();
  };
  try {
    std::rethrow_exception(e);
  } catch (const cancelled_error& x) {
    set(query_status::cancelled, x);
  } catch (const deadline_exceeded_error& x) {
    set(query_status::deadline, x);
  } catch (const shed_error& x) {
    set(query_status::shed, x);
    o.retry_after = x.retry_after;
  } catch (const rejected_error& x) {
    set(query_status::rejected, x);
    o.retry_after = x.retry_after;
  } catch (const not_found_error& x) {
    set(query_status::not_found, x);
  } catch (const load_error& x) {
    set(query_status::load, x);
  } catch (const update_error& x) {
    set(query_status::load, x);
  } catch (const std::invalid_argument& x) {
    set(query_status::bad_request, x);
  } catch (const std::exception& x) {
    set(query_status::internal, x);
  } catch (...) {
    o.status = query_status::internal;
    o.message = "unknown error";
  }
  return o;
}

std::exception_ptr query_outcome::exception() const {
  if (error) return error;
  // Outcomes the executor builds without a thrown exception.
  switch (status) {
    case query_status::ok: return nullptr;
    case query_status::cancelled:
      return std::make_exception_ptr(cancelled_error(message));
    case query_status::deadline:
      return std::make_exception_ptr(deadline_exceeded_error(message));
    case query_status::shed:
      return std::make_exception_ptr(shed_error(message, retry_after));
    case query_status::rejected:
      return std::make_exception_ptr(rejected_error(message, retry_after));
    case query_status::not_found:
      return std::make_exception_ptr(not_found_error(message));
    case query_status::bad_request:
    case query_status::load:
    case query_status::internal: break;
  }
  return std::make_exception_ptr(engine_error(message));
}

namespace {

using apps::check_vertex;

// A settled answer read back from the result cache.
query_outcome from_cache(const query_result& cached, const obs::trace_id& tid) {
  query_outcome o;
  o.result = cached;
  o.result.cache_hit = true;
  o.result.micros = 0.0;
  o.result.tid = tid;
  return o;
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
  // once per epoch on first touch. BFS traverses the resident graph, which
  // for a mutable entry is its live base+delta view.
  switch (req.kind) {
    case query_kind::bfs_distance:
      r.value = e.with_graph([&](const auto& g) {
        return apps::bfs_hop_distance(g, req.source, req.target, token);
      });
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

void query_executor::observe_done(const job& j, const query_outcome& o,
                                  const run_info& run) {
  if (!observing()) return;
  const size_t rounds = run.trace != nullptr ? run.trace->rounds().size() : 0;
  const auto retry_after_ms = static_cast<uint32_t>(o.retry_after.count());
  if (opts_.flightrec != nullptr) {
    obs::flight_entry e;
    e.id = j.req.tid;
    e.set_kind(query_kind_name(j.req.kind));
    e.set_graph(j.req.graph);
    e.set_outcome(query_status_name(o.status));
    e.epoch = j.epoch;
    e.queued_micros = run.queued_micros;
    e.exec_micros = run.exec_micros;
    e.rounds = static_cast<uint32_t>(rounds);
    e.retry_after_ms = retry_after_ms;
    if (o.ok()) {
      // Approximate wire size of the answer (net/protocol.h response body).
      e.result_bytes = 8 + 12 * o.result.topk.size();
      e.cache_hit = o.result.cache_hit;
    }
    opts_.flightrec->record(e);
  }
  if (opts_.traces == nullptr) return;
  // Retention rules (docs/OBSERVABILITY.md): sampled queries always; every
  // non-ok outcome always; slow queries always.
  const bool slow =
      opts_.slow_trace_micros > 0 &&
      run.exec_micros >= static_cast<double>(opts_.slow_trace_micros);
  if (!j.sampled && o.ok() && !slow) return;
  obs::trace_record rec;
  rec.id = j.req.tid;
  rec.kind = query_kind_name(j.req.kind);
  rec.graph = j.req.graph;
  rec.outcome = query_status_name(o.status);
  rec.sampled = j.sampled;
  rec.cache_hit = o.ok() && o.result.cache_hit;
  rec.epoch = j.epoch;
  rec.queued_micros = run.queued_micros;
  rec.exec_micros = run.exec_micros;
  rec.retry_after_ms = retry_after_ms;
  rec.rounds = rounds;
  rec.batch_id = run.batch_id;
  rec.batch_width = run.batch_width;
  rec.error = o.message;
  if (run.trace != nullptr) rec.trace_json = run.trace->to_json();
  opts_.traces->insert(std::move(rec));
}

bool query_executor::settle(job& j, query_outcome&& o, const run_info& run) {
  if (j.settled.exchange(true)) return false;
  stats_.record_outcome(o.status);
  if (o.ok() && !o.result.cache_hit)
    stats_.record_latency(j.req.kind, run.exec_micros);
  observe_done(j, o, run);
  j.done(std::move(o));
  return true;
}

query_executor::job_ptr query_executor::make_job(query_request req,
                                                 query_callback done) {
  stats_.record_submitted();
  auto j = std::make_shared<job>();
  j->req = std::move(req);
  j->done = std::move(done);
  j->submit_t0 = mono_now();
  // Mint a correlation id for requests that arrive without one whenever a
  // sink is attached; echo a caller-supplied id either way. Sampling is
  // sticky from here: the wire bit (or the server-side draw) decides once.
  if (observing() && !j->req.tid.valid()) j->req.tid = obs::trace_id::mint();
  j->sampled = j->req.sampled || (observing() && draw_sample());

  j->handle = registry_.try_get(j->req.graph);
  if (!j->handle) {
    settle(*j, query_outcome::failure(query_status::not_found,
                                      "no graph named '" + j->req.graph +
                                          "' is registered"));
    return nullptr;
  }
  j->epoch = j->handle->epoch();

  j->cacheable = cacheable(j->req);
  if (j->cacheable) {
    j->key = make_key(j->req, j->epoch);
    if (auto cached = cache_.get(j->key)) {
      settle(*j, from_cache(*cached, j->req.tid));
      return nullptr;
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
  }
  return j;
}

std::exception_ptr query_executor::admit(query_request req,
                                         query_callback done) {
  job_ptr j = make_job(std::move(req), std::move(done));
  if (!j) return nullptr;
  // Log lines fired from the submission path carry the query's id.
  obs::trace_id_scope id_scope(j->req.tid);

  std::optional<query_outcome> refusal;
  const char* warning = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t depth = queue_.size();
    if (opts_.shed_watermark > 0 && depth >= opts_.shed_watermark &&
        j->req.priority == query_priority::low) {
      // Advice scales with how far past the watermark the queue is: the
      // deeper the backlog, the longer the caller should stay away.
      const auto over = depth - opts_.shed_watermark + 1;
      warning = "query shed";
      refusal = query_outcome::failure(
          query_status::shed,
          "load shedding active (" + std::to_string(depth) +
              " pending >= watermark " + std::to_string(opts_.shed_watermark) +
              "); low-priority query shed",
          std::chrono::milliseconds(
              std::min<uint64_t>(1000, 20 * static_cast<uint64_t>(over))));
    } else if (draining_) {
      refusal = query_outcome::failure(
          query_status::rejected, "executor draining; no new queries admitted",
          std::chrono::milliseconds(1000));
    } else if (depth >= opts_.max_queue) {
      // Same advice scaling as shedding: a full queue is maximal overload,
      // so the advice starts where the shed formula's range does.
      warning = "query rejected";
      refusal = query_outcome::failure(
          query_status::rejected,
          "admission queue full (" + std::to_string(depth) + " pending, limit " +
              std::to_string(opts_.max_queue) + "); retry later",
          std::chrono::milliseconds(std::min<uint64_t>(
              1000, 20 * static_cast<uint64_t>(depth - opts_.max_queue + 1 +
                                               opts_.max_queue / 2))));
    } else {
      // The span must start before the queue lock drops: once push_back
      // publishes the job, the dispatcher may read queued_span concurrently.
      if (j->trace != nullptr) j->queued_span = j->trace->begin_span("queued");
      queue_.push_back(j);
      g_queue_depth_->set(static_cast<int64_t>(queue_.size()));
    }
    if (warning != nullptr && observing())
      obs::log_warn("engine", warning,
                    {{"kind", query_kind_name(j->req.kind)},
                     {"graph", j->req.graph},
                     {"queue_depth", depth},
                     {"retry_after_ms", static_cast<uint64_t>(
                                            refusal->retry_after.count())}});
  }
  if (refusal) {
    refusal->error = refusal->exception();
    std::exception_ptr err = refusal->error;
    settle(*j, std::move(*refusal));
    return err;
  }
  notify_work();

  if (j->deadline_at != std::chrono::steady_clock::time_point::max()) {
    {
      std::lock_guard<std::mutex> lock(wd_mutex_);
      wd_heap_.push(wd_entry{j->deadline_at, j});
    }
    wd_cv_.notify_one();
  }
  return nullptr;
}

void query_executor::submit(query_request req, query_callback done) {
  admit(std::move(req), std::move(done));
}

std::future<query_result> query_executor::submit(query_request req) {
  auto promise = std::make_shared<std::promise<query_result>>();
  std::future<query_result> fut = promise->get_future();
  std::exception_ptr refused =
      admit(std::move(req), [promise](query_outcome&& o) {
        if (o.ok())
          promise->set_value(std::move(o.result));
        else
          promise->set_exception(o.exception());
      });
  if (refused) std::rethrow_exception(refused);
  return fut;
}

query_result query_executor::run(const query_request& req) {
  // The job settles before execute_job returns (nothing else holds it: no
  // queue, no watchdog), so the callback may write to this frame.
  query_outcome out;
  job_ptr j = make_job(req, [&out](query_outcome&& o) { out = std::move(o); });
  if (j) execute_job(j, nullptr, /*on_pool=*/false);
  if (!out.ok()) std::rethrow_exception(out.exception());
  return std::move(out.result);
}

bool query_executor::start_job(job& j, uint64_t batch_id,
                               uint32_t batch_width) {
  j.queued_micros = micros_since(j.submit_t0);
  if (j.trace != nullptr && j.queued_span != SIZE_MAX)
    j.trace->end_span(j.queued_span);
  if (j.token.should_stop()) {
    settle(j,
           j.token.deadline_exceeded()
               ? query_outcome::failure(query_status::deadline,
                                        "query deadline exceeded while queued")
               : query_outcome::failure(query_status::cancelled,
                                        "query cancelled while queued"),
           run_of(j, 0.0, batch_id, batch_width));
    return false;
  }
  // The watchdog may have settled the job while it sat in the queue.
  return !j.settled.load(std::memory_order_acquire);
}

void query_executor::execute_job(const job_ptr& j, edge_map_scratch* scratch,
                                 bool on_pool) {
  obs::trace_id_scope id_scope(j->req.tid);
  if (!start_job(*j)) return;

  const monotonic_time t0 = mono_now();
  query_outcome o;
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
    obs::trace_id_scope body_id_scope(j->req.tid);
    edge_map_scratch_scope scratch_scope(scratch);
    obs::span_scope span("execute");
    try {
      if (LIGRA_FAILPOINT("executor.dispatch"))
        throw engine_error(
            "injected dispatch failure (failpoint executor.dispatch)");
      o.result = execute(j->req, *j->handle, j->token);
    } catch (...) {
      err = std::current_exception();
    }
  };
  if (on_pool) {
    parallel::run_on_pool(body);
  } else {
    body();
  }
  const double exec_micros = micros_since(t0);
  if (err) {
    o = query_outcome::from_exception(err);
  } else {
    o.result.micros = exec_micros;
    o.result.tid = j->req.tid;
    // The cache insert happens BEFORE the callback runs: a caller that
    // observes its result and immediately resubmits the same key must hit.
    // Insertion failure (failpoint or allocation) never fails a completed
    // query — the answer still goes out, just uncached.
    if (j->cacheable) {
      try {
        cache_.put(j->key, std::make_shared<query_result>(o.result));
      } catch (...) {
      }
    }
  }
  // Loses to the watchdog when it already delivered deadline_exceeded;
  // the late outcome is then discarded.
  settle(*j, std::move(o), run_of(*j, exec_micros));
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
      execute_job(j, &scratch, opts_.use_pool);
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

  // Per-member prologue, exactly the singular path's.
  std::vector<job_ptr> live;
  live.reserve(batch.size());
  for (auto& j : batch) {
    obs::trace_id_scope id_scope(j->req.tid);
    if (start_job(*j, batch_id, width)) live.push_back(j);
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
        job& j = *live[key_member[k]];
        hit[key_member[k]] = 1;
        settle(j, from_cache(*found[k], j.req.tid),
               run_of(j, 0.0, batch_id, width));
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
      job& j = *live[i];
      try {
        check_vertex("bfs_hop_distance source", j.req.source, n);
        check_vertex("bfs_hop_distance target", j.req.target, n);
        live[w++] = std::move(live[i]);
      } catch (...) {
        settle(j, query_outcome::from_exception(std::current_exception()),
               run_of(j, 0.0, batch_id, width));
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
  // with the batch id. A member settled mid-flight (its own cancel or
  // deadline, or the watchdog) has its settled flag set, so the epilogue's
  // settle() skips it.
  const job_ptr& leader = live.front();
  const monotonic_time t0 = mono_now();
  std::vector<int64_t> dist;
  std::exception_ptr err;
  auto body = [&]() noexcept {
    obs::trace_scope tracing(leader->trace);
    obs::trace_id_scope body_id_scope(leader->req.tid);
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
        for (const job_ptr& j : live) {
          if (j->settled.load(std::memory_order_acquire)) continue;
          if (j->token.should_stop()) {
            settle(*j,
                   j->token.deadline_exceeded()
                       ? query_outcome::failure(
                             query_status::deadline,
                             "query deadline exceeded during batched "
                             "execution")
                       : query_outcome::failure(
                             query_status::cancelled,
                             "query cancelled during batched execution"),
                   run_of(*j, micros_since(t0), batch_id, width));
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
    const query_outcome failed = query_outcome::from_exception(err);
    for (const job_ptr& j : live)
      settle(*j, query_outcome(failed), run_of(*j, exec_micros, batch_id, width));
    return;
  }

  // Split the answers back per member, each settled and cached
  // individually (one put_many lock for the whole batch) so popular
  // sources hit the cache next time. The cache insert happens BEFORE any
  // member settles: a caller that observes its result and immediately
  // resubmits the same key must hit.
  std::vector<std::pair<cache_key, std::shared_ptr<const query_result>>>
      inserts;
  for (size_t w = 0; w < pairs.size(); w++) {
    for (size_t i : watch_members[w]) {
      if (!live[i]->cacheable) continue;
      query_result r;
      r.kind = query_kind::bfs_distance;
      r.value = dist[w];
      r.micros = exec_micros;
      inserts.emplace_back(live[i]->key, std::make_shared<query_result>(r));
      break;  // one insert per watch: its members share the key
    }
  }
  if (!inserts.empty()) {
    try {
      cache_.put_many(std::move(inserts));
    } catch (...) {
      // Cache insertion failure never fails a completed query.
    }
  }
  for (size_t w = 0; w < pairs.size(); w++) {
    for (size_t i : watch_members[w]) {
      job& j = *live[i];
      query_outcome o;
      o.result.kind = query_kind::bfs_distance;
      o.result.value = dist[w];
      o.result.micros = exec_micros;
      o.result.tid = j.req.tid;
      settle(j, std::move(o), run_of(j, exec_micros, batch_id, width));
    }
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
    // the job now: the caller gets deadline_exceeded at ~the deadline even
    // if the body never polls. The body's eventual outcome is discarded by
    // the settled flag. The record is summary-only (run_info{}): the body
    // may still be writing its trace.
    j->source.expire();
    settle(*j, query_outcome::failure(
                   query_status::deadline,
                   "query deadline exceeded (watchdog): body still running"));
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
