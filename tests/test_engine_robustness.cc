// Query lifecycle robustness tests (docs/ROBUSTNESS.md): deadlines settle
// futures on time (polling bodies and non-polling bodies alike), cancellation
// works on every query kind, failed (re)loads keep the previous epoch serving
// with zero collateral query failures, load shedding drops low-priority
// traffic past the watermark, per-kind caps bound concurrency, injected
// cache/dispatch faults never corrupt query answers, and every outcome
// settles exactly once, alike on submit(), run() and the wire.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "util/failpoint.h"

namespace e = ligra::engine;
namespace n = ligra::net;
namespace fp = ligra::util::failpoint;
using namespace ligra;
using namespace std::chrono_literals;

namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Milliseconds elapsed since t0.
double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Cheap-to-generate graph big enough that PageRank runs for hundreds of
// milliseconds — the "slow query" substrate for deadline tests.
const graph& big_graph() {
  static graph g = gen::rmat_graph(16, edge_id{1} << 20, /*seed=*/7);
  return g;
}

graph small_graph() { return gen::rmat_graph(8, 1 << 11, /*seed=*/3); }

// Custom query that blocks until released; pairs with use_pool=false.
struct blocker {
  std::promise<void> release;
  std::shared_future<void> gate{release.get_future().share()};
  std::atomic<int> started{0};

  e::query_request request(const std::string& g) {
    e::query_request q;
    q.graph = g;
    q.kind = e::query_kind::custom;
    q.custom = [this](const e::graph_entry&, const e::cancel_token&) -> int64_t {
      started.fetch_add(1);
      gate.wait();
      return 7;
    };
    return q;
  }
};

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::disarm_all(); }
  void TearDown() override { fp::disarm_all(); }
};

fp::spec fail_spec(int64_t count = -1) {
  fp::spec s;
  s.act = fp::action::fail;
  s.count = count;
  return s;
}

}  // namespace

// --- deadlines & cancellation ----------------------------------------------

TEST_F(RobustnessTest, DeadlineSettlesFastWhileOthersComplete) {
  e::registry reg;
  reg.add("big", big_graph());
  e::query_executor ex(reg, {.max_concurrency = 3, .cache_capacity = 0});

  // Sanity: without a deadline this query takes much longer than 10ms.
  // (PageRank runs ~100 power iterations over a scale-16 R-MAT graph.)
  e::query_request slow;
  slow.graph = "big";
  slow.kind = e::query_kind::pagerank_topk;
  slow.k = 5;
  slow.deadline = 10ms;

  std::vector<std::future<e::query_result>> ok;
  for (vertex_id s = 0; s < 4; s++) {
    e::query_request q;
    q.graph = "big";
    q.kind = e::query_kind::bfs_distance;
    q.source = s;
    q.target = s + 1;
    ok.push_back(ex.submit(q));
  }

  auto t0 = std::chrono::steady_clock::now();
  auto fut = ex.submit(slow);
  EXPECT_THROW(fut.get(), e::deadline_exceeded_error);
  // The watchdog settles the future at ~the deadline even though the body
  // may still be mid-iteration; generous bound for loaded CI machines.
  EXPECT_LT(ms_since(t0), 200.0);

  for (auto& f : ok) EXPECT_GE(f.get().value, -1);
  ex.wait_idle();
  auto snap = ex.stats();
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.cancelled, 0u);
}

TEST_F(RobustnessTest, PreCancelledTokenStopsEveryKind) {
  e::registry reg;
  reg.add("g", small_graph());
  reg.add("w", gen::add_random_weights(gen::grid3d_graph(5), 1, 4, /*seed=*/2));
  e::query_executor ex(reg, {.max_concurrency = 2, .cache_capacity = 0});

  e::cancel_source src;
  src.request_cancel();

  struct Case {
    std::string graph;
    e::query_kind kind;
  };
  std::vector<Case> cases = {
      {"g", e::query_kind::bfs_distance},
      {"w", e::query_kind::sssp_distance},
      {"g", e::query_kind::pagerank_topk},
      {"g", e::query_kind::component_id},
      {"g", e::query_kind::coreness},
      {"g", e::query_kind::triangle_count},
      {"g", e::query_kind::custom},
  };
  for (const auto& c : cases) {
    e::query_request q;
    q.graph = c.graph;
    q.kind = c.kind;
    q.source = 0;
    q.target = 1;
    q.token = src.token();
    if (c.kind == e::query_kind::custom)
      q.custom = [](const e::graph_entry&, const e::cancel_token& t) -> int64_t {
        t.poll();  // must throw: token already cancelled
        return -1;
      };
    auto fut = ex.submit(q);
    EXPECT_THROW(fut.get(), e::cancelled_error)
        << "kind=" << e::query_kind_name(c.kind);
  }
  ex.wait_idle();
  EXPECT_EQ(ex.stats().cancelled, cases.size());
  EXPECT_EQ(ex.stats().failed, 0u);
}

TEST_F(RobustnessTest, MidFlightCancelStopsPollingBody) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0,
                             .use_pool = false});

  e::cancel_source src;
  std::atomic<bool> started{false};
  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::custom;
  q.token = src.token();
  q.custom = [&](const e::graph_entry&, const e::cancel_token& t) -> int64_t {
    started.store(true);
    // A cooperative body: polls at its "round" boundary, like the apps do.
    while (true) {
      t.poll();
      std::this_thread::sleep_for(1ms);
    }
  };
  auto fut = ex.submit(q);
  while (!started.load()) std::this_thread::sleep_for(1ms);
  src.request_cancel();
  EXPECT_THROW(fut.get(), e::cancelled_error);
  ex.wait_idle();
  EXPECT_EQ(ex.stats().cancelled, 1u);
}

TEST_F(RobustnessTest, WatchdogSettlesNonPollingBody) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0,
                             .use_pool = false});

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::custom;
  q.deadline = 20ms;
  q.custom = [](const e::graph_entry&, const e::cancel_token&) -> int64_t {
    // Uncooperative body: never polls, runs way past its deadline.
    std::this_thread::sleep_for(300ms);
    return 42;
  };
  auto t0 = std::chrono::steady_clock::now();
  auto fut = ex.submit(q);
  EXPECT_THROW(fut.get(), e::deadline_exceeded_error);
  EXPECT_LT(ms_since(t0), 250.0);  // settled well before the body finishes
  ex.wait_idle();                  // the 300ms body still drains cleanly
  auto snap = ex.stats();
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.completed, 0u);  // late result was discarded, not double-set
}

TEST_F(RobustnessTest, DeadlineExpiresWhileQueued) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0,
                             .use_pool = false});

  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::sleep_for(1ms);

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::bfs_distance;
  q.source = 0;
  q.target = 1;
  q.deadline = 15ms;
  auto fut = ex.submit(q);  // sits behind the blocker, expires in queue
  EXPECT_THROW(fut.get(), e::deadline_exceeded_error);

  b.release.set_value();
  EXPECT_EQ(blocked.get().value, 7);
  ex.wait_idle();
  auto snap = ex.stats();
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.completed, 1u);
}

TEST_F(RobustnessTest, SyncRunEnforcesDeadlineByPolling) {
  e::registry reg;
  reg.add("big", big_graph());
  e::query_executor ex(reg, {.cache_capacity = 0});
  e::query_request q;
  q.graph = "big";
  q.kind = e::query_kind::pagerank_topk;
  q.k = 5;
  q.deadline = 10ms;
  EXPECT_THROW(ex.run(q), e::deadline_exceeded_error);
  EXPECT_EQ(ex.stats().deadline_exceeded, 1u);
}

// --- registry: retries and all-or-nothing reload ---------------------------

TEST_F(RobustnessTest, LoadRetriesTransientIoFailures) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  TempFile file("retry.adj");
  io::write_adjacency_graph(file.path(), small_graph());

  e::registry reg;
  e::load_options opts;
  opts.symmetric = true;
  opts.retry = {.max_attempts = 3, .base_backoff_ms = 1, .max_backoff_ms = 2};

  // First two read attempts fail, third succeeds.
  fp::arm("graph_io.read", fail_spec(/*count=*/2));
  uint64_t base = fp::hits("graph_io.read");
  auto h = reg.load("g", file.path(), opts);
  EXPECT_EQ(fp::hits("graph_io.read"), base + 2);
  EXPECT_EQ(h->structure().num_vertices(), small_graph().num_vertices());
}

TEST_F(RobustnessTest, LoadGivesUpAfterRetryBudget) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  TempFile file("budget.adj");
  io::write_adjacency_graph(file.path(), small_graph());

  e::registry reg;
  e::load_options opts;
  opts.symmetric = true;
  opts.retry = {.max_attempts = 3, .base_backoff_ms = 1, .max_backoff_ms = 2};
  fp::arm("graph_io.read", fail_spec());  // unlimited failures
  try {
    reg.load("g", file.path(), opts);
    FAIL() << "expected load_error";
  } catch (const e::load_error& err) {
    EXPECT_EQ(err.attempts, 3u);
  }
  EXPECT_EQ(reg.size(), 0u);
}

TEST_F(RobustnessTest, FailedReloadKeepsOldEpochServing) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  TempFile file("reload.adj");
  io::write_adjacency_graph(file.path(), small_graph());

  e::registry reg;
  e::load_options opts;
  opts.symmetric = true;
  opts.retry = {.max_attempts = 2, .base_backoff_ms = 1, .max_backoff_ms = 1};
  auto h1 = reg.load("g", file.path(), opts);
  const uint64_t epoch1 = h1->epoch();

  e::query_executor ex(reg, {.max_concurrency = 2});
  auto make_bfs = [&](vertex_id s) {
    e::query_request q;
    q.graph = "g";
    q.kind = e::query_kind::bfs_distance;
    q.source = s % h1->structure().num_vertices();
    q.target = (s + 1) % h1->structure().num_vertices();
    return q;
  };
  std::vector<std::future<e::query_result>> futs;
  for (vertex_id s = 0; s < 8; s++) futs.push_back(ex.submit(make_bfs(s)));

  // The reload fails every attempt; the registry must keep epoch1 serving.
  fp::arm("graph_io.read", fail_spec());
  EXPECT_THROW(reg.load("g", file.path(), opts), e::load_error);
  fp::disarm("graph_io.read");

  auto h2 = reg.get("g");
  EXPECT_EQ(h2.get(), h1.get());
  EXPECT_EQ(h2->epoch(), epoch1);

  for (vertex_id s = 8; s < 16; s++) futs.push_back(ex.submit(make_bfs(s)));
  for (auto& f : futs) EXPECT_GE(f.get().value, -1);
  ex.wait_idle();
  EXPECT_EQ(ex.stats().failed, 0u);  // zero collateral query failures

  // A successful reload afterwards does advance the epoch.
  auto h3 = reg.load("g", file.path(), opts);
  EXPECT_GT(h3->epoch(), epoch1);
}

TEST_F(RobustnessTest, CorruptBinaryReloadFailsFastAndKeepsServing) {
  TempFile file("corrupt.lgrb");
  io::write_binary_graph(file.path(), small_graph());

  e::registry reg;
  auto h1 = reg.load("g", file.path());
  const uint64_t epoch1 = h1->epoch();

  // Corrupt the first edge target (just past header + offsets) to an
  // out-of-range vertex id; file size stays valid so only the structural
  // validation can catch it.
  {
    const size_t header = 24;
    const size_t offsets =
        (static_cast<size_t>(small_graph().num_vertices()) + 1) * sizeof(edge_id);
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(header + offsets));
    uint32_t bad = 0xFFFFFFFEu;
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }

  try {
    reg.load("g", file.path());
    FAIL() << "expected load_error";
  } catch (const e::load_error& err) {
    EXPECT_EQ(err.attempts, 1u) << "format errors must not be retried";
  }
  EXPECT_EQ(reg.get("g")->epoch(), epoch1);
}

TEST_F(RobustnessTest, ValidateGraphCatchesAsymmetricSymmetricView) {
  // Built as "symmetric" but edge (0, 1) has no reverse — from_csr's shape
  // checks accept it; only the deep validation pass catches it.
  graph g = graph::from_csr(2, {0, 1, 1}, {1}, {}, /*symmetric=*/true);
  EXPECT_THROW(io::validate_graph(g, "test-ctx"), io::format_error);
  try {
    io::validate_graph(g, "test-ctx");
  } catch (const io::format_error& err) {
    EXPECT_NE(std::string(err.what()).find("reverse"), std::string::npos);
    EXPECT_EQ(err.path(), "test-ctx");
  }
  // A well-formed graph passes.
  EXPECT_NO_THROW(io::validate_graph(small_graph(), "ok"));
}

// --- edge-update batches (docs/DYNAMIC.md) ----------------------------------

TEST_F(RobustnessTest, FailedApplyNeverPublishesPartialEpoch) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  e::registry reg;
  auto h1 = reg.add_mutable("m", small_graph());
  const uint64_t epoch1 = h1->epoch();

  e::query_executor ex(reg, {.max_concurrency = 2});
  auto make_bfs = [&](vertex_id s) {
    e::query_request q;
    q.graph = "m";
    q.kind = e::query_kind::bfs_distance;
    q.source = s % h1->num_vertices();
    q.target = (s + 1) % h1->num_vertices();
    return q;
  };
  std::vector<std::future<e::query_result>> futs;
  for (vertex_id s = 0; s < 8; s++) futs.push_back(ex.submit(make_bfs(s)));

  // Every apply attempt fails at the allocation failpoint; the batch must
  // not publish (no partial epoch) and the old epoch must keep serving.
  dynamic::update_batch batch;
  batch.inserts = {{0, 7}, {1, 5}};
  fp::arm("dynamic.apply.alloc", fail_spec());
  try {
    reg.apply_updates("m", batch,
                      {.max_attempts = 3, .base_backoff_ms = 1,
                       .max_backoff_ms = 2});
    FAIL() << "expected update_error";
  } catch (const e::update_error& err) {
    EXPECT_EQ(err.attempts, 3u);
  }
  fp::disarm("dynamic.apply.alloc");

  auto h2 = reg.get("m");
  EXPECT_EQ(h2.get(), h1.get());  // the very same entry, not a partial one
  EXPECT_EQ(h2->epoch(), epoch1);
  EXPECT_EQ(h2->dyn()->version(), 0u);
  EXPECT_FALSE(h2->dyn()->has_edge(0, 7));

  for (vertex_id s = 8; s < 16; s++) futs.push_back(ex.submit(make_bfs(s)));
  for (auto& f : futs) EXPECT_GE(f.get().value, -1);
  ex.wait_idle();
  EXPECT_EQ(ex.stats().failed, 0u);  // zero collateral query failures

  // With the failpoint gone the same batch publishes.
  auto h3 = reg.apply_updates("m", batch);
  EXPECT_GT(h3->epoch(), epoch1);
  EXPECT_TRUE(h3->dyn()->has_edge(0, 7));
}

TEST_F(RobustnessTest, ApplyRetriesTransientFaultThenPublishes) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  obs::metrics_registry metrics;
  e::registry reg(&metrics);
  reg.add_mutable("m", small_graph());

  dynamic::update_batch batch;
  batch.inserts = {{2, 9}};
  fp::arm("dynamic.apply.alloc", fail_spec(/*count=*/2));
  uint64_t base = fp::hits("dynamic.apply.alloc");
  auto h = reg.apply_updates("m", batch,
                             {.max_attempts = 3, .base_backoff_ms = 1,
                              .max_backoff_ms = 2});
  EXPECT_EQ(fp::hits("dynamic.apply.alloc"), base + 2);
  EXPECT_TRUE(h->dyn()->has_edge(2, 9));
  EXPECT_EQ(metrics.get_counter("engine_graph_update_retries_total").value(),
            2u);
  EXPECT_EQ(metrics.get_counter("engine_graph_updates_total").value(), 1u);
  EXPECT_EQ(metrics.get_counter("engine_graph_update_failures_total").value(),
            0u);
}

TEST_F(RobustnessTest, CompactionFaultAbortsWholeBatch) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  e::registry reg;
  // Path graph (so the inserted edges are definitely absent) with
  // thresholds chosen so the first batch crosses into compaction.
  auto h1 = reg.add_mutable("m", gen::path_graph(200),
                            dynamic::mutable_graph_options{
                                .compact_fraction = 0.001,
                                .compact_min_edges = 4});
  const uint64_t epoch1 = h1->epoch();

  dynamic::update_batch batch;
  for (vertex_id i = 0; i < 8; i++) batch.inserts.push_back({i, i + 100});
  fp::arm("dynamic.compact", fail_spec());
  EXPECT_THROW(reg.apply_updates("m", batch,
                                 {.max_attempts = 2, .base_backoff_ms = 1,
                                  .max_backoff_ms = 1}),
               e::update_error);
  fp::disarm("dynamic.compact");

  // All-or-nothing: the *whole* batch is absent, not just the compaction.
  auto h2 = reg.get("m");
  EXPECT_EQ(h2->epoch(), epoch1);
  EXPECT_EQ(h2->dyn()->version(), 0u);
  EXPECT_FALSE(h2->dyn()->has_edge(0, 100));

  // Retry without the fault: batch applies AND compacts.
  auto h3 = reg.apply_updates("m", batch);
  EXPECT_GT(h3->epoch(), epoch1);
  EXPECT_TRUE(h3->dyn()->has_edge(0, 100));
  EXPECT_EQ(h3->dyn()->delta_edges(), 0u);  // compacted into a fresh base
  h3->dyn()->check_invariants();
}

// --- executor degradation ---------------------------------------------------

TEST_F(RobustnessTest, ShedsLowPriorityPastWatermark) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .max_queue = 8,
                             .shed_watermark = 2, .cache_capacity = 0,
                             .use_pool = false});

  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::sleep_for(1ms);

  auto make_bfs = [&](e::query_priority prio) {
    e::query_request q;
    q.graph = "g";
    q.kind = e::query_kind::bfs_distance;
    q.source = 0;
    q.target = 1;
    q.priority = prio;
    return q;
  };
  std::vector<std::future<e::query_result>> queued;
  queued.push_back(ex.submit(make_bfs(e::query_priority::normal)));
  queued.push_back(ex.submit(make_bfs(e::query_priority::normal)));
  ASSERT_GE(ex.queue_depth(), 2u);

  // Past the watermark: low is shed with advice, normal still admitted.
  try {
    ex.submit(make_bfs(e::query_priority::low));
    FAIL() << "expected shed_error";
  } catch (const e::shed_error& err) {
    EXPECT_GT(err.retry_after.count(), 0);
  }
  queued.push_back(ex.submit(make_bfs(e::query_priority::normal)));

  b.release.set_value();
  EXPECT_EQ(blocked.get().value, 7);
  for (auto& f : queued) EXPECT_GE(f.get().value, -1);
  ex.wait_idle();
  auto snap = ex.stats();
  EXPECT_EQ(snap.shed, 1u);
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.failed, 0u);
}

TEST_F(RobustnessTest, RejectedCarriesRetryAfterAdvice) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .max_queue = 1,
                             .cache_capacity = 0, .use_pool = false});

  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::sleep_for(1ms);

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::bfs_distance;
  q.source = 0;
  q.target = 1;
  auto queued = ex.submit(q);  // fills the queue
  // Full queue: rejection must carry populated backoff advice, the same
  // contract shedding honors — callers and the network tier rely on it.
  try {
    ex.submit(q);
    FAIL() << "expected rejected_error";
  } catch (const e::rejected_error& err) {
    EXPECT_GT(err.retry_after.count(), 0);
  }

  b.release.set_value();
  EXPECT_EQ(blocked.get().value, 7);
  queued.get();
  ex.wait_idle();
}

TEST_F(RobustnessTest, DrainStopsAdmissionsAndEmptiesTheQueue) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0,
                             .use_pool = false});

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::bfs_distance;
  q.source = 0;
  q.target = 1;
  auto inflight = ex.submit(q);
  EXPECT_FALSE(ex.draining());
  EXPECT_TRUE(ex.drain(5000ms));  // true = fully drained within the bound
  EXPECT_TRUE(ex.draining());
  EXPECT_GE(inflight.get().value, -1);  // admitted work still completed
  EXPECT_EQ(ex.queue_depth(), 0u);

  // Admissions are closed now; the rejection carries retry advice.
  try {
    ex.submit(q);
    FAIL() << "expected rejected_error after drain";
  } catch (const e::rejected_error& err) {
    EXPECT_GT(err.retry_after.count(), 0);
  }
  auto snap = ex.stats();
  EXPECT_EQ(snap.rejected, 1u);
}

TEST_F(RobustnessTest, DrainDeadlineBoundsTheWait) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0,
                             .use_pool = false});

  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::sleep_for(1ms);

  auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(ex.drain(50ms));  // blocker still running: drain times out
  EXPECT_LT(ms_since(t0), 5000.0);

  b.release.set_value();
  EXPECT_EQ(blocked.get().value, 7);
  ex.wait_idle();
}

TEST_F(RobustnessTest, PerKindCapLetsOtherKindsRunAhead) {
  e::registry reg;
  reg.add("g", small_graph());
  e::executor_options opts;
  opts.max_concurrency = 2;
  opts.cache_capacity = 0;
  opts.use_pool = false;
  opts.per_kind_limits[static_cast<size_t>(e::query_kind::custom)] = 1;
  e::query_executor ex(reg, opts);

  blocker b1, b2;
  auto f1 = ex.submit(b1.request("g"));  // occupies the custom slot
  while (b1.started.load() == 0) std::this_thread::sleep_for(1ms);
  auto f2 = ex.submit(b2.request("g"));  // over the custom cap: must wait

  e::query_request bfs;
  bfs.graph = "g";
  bfs.kind = e::query_kind::bfs_distance;
  bfs.source = 0;
  bfs.target = 1;
  auto f3 = ex.submit(bfs);
  // The BFS runs ahead of the capped custom query on the second dispatcher.
  EXPECT_GE(f3.get().value, -1);
  EXPECT_EQ(b2.started.load(), 0);

  b1.release.set_value();
  EXPECT_EQ(f1.get().value, 7);
  // Slot freed: the second custom query is dispatched now.
  while (b2.started.load() == 0) std::this_thread::sleep_for(1ms);
  b2.release.set_value();
  EXPECT_EQ(f2.get().value, 7);
  ex.wait_idle();
}

// --- failpoints wired through the engine ------------------------------------

TEST_F(RobustnessTest, CacheInsertFaultNeverFailsAQuery) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 64});

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::bfs_distance;
  q.source = 0;
  q.target = 1;

  // `fail` action: put() counts and drops the insertion.
  fp::arm("cache.insert", fail_spec(/*count=*/1));
  EXPECT_GE(ex.submit(q).get().value, -1);
  ex.wait_idle();
  auto snap1 = ex.cache().snapshot();
  EXPECT_EQ(snap1.counters.insert_failures, 1u);
  EXPECT_EQ(snap1.size, 0u);

  // `throw` action: the executor swallows it; the answer still goes out.
  fp::spec thr;
  thr.act = fp::action::throw_error;
  thr.count = 1;
  fp::arm("cache.insert", thr);
  q.source = 1;
  q.target = 2;
  EXPECT_GE(ex.submit(q).get().value, -1);
  ex.wait_idle();
  EXPECT_EQ(ex.stats().failed, 0u);
  EXPECT_EQ(ex.stats().completed, 2u);
}

TEST_F(RobustnessTest, DispatchFaultSurfacesThroughFutureOnly) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0});

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::bfs_distance;
  q.source = 0;
  q.target = 1;

  fp::arm("executor.dispatch", fail_spec(/*count=*/1));
  auto fut = ex.submit(q);
  EXPECT_THROW(fut.get(), e::engine_error);
  // The dispatcher survives the injected fault; the next query is fine.
  EXPECT_GE(ex.submit(q).get().value, -1);
  ex.wait_idle();
  auto snap = ex.stats();
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.completed, 1u);
}

// --- batched fan-out faults -------------------------------------------------

TEST_F(RobustnessTest, BatchFanoutFaultFailsMembersNotTheCoalescer) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(
      reg, {.max_concurrency = 1, .cache_capacity = 0, .use_pool = false});

  auto bfs = [](vertex_id s, vertex_id t) {
    e::query_request q;
    q.graph = "g";
    q.kind = e::query_kind::bfs_distance;
    q.source = s;
    q.target = t;
    return q;
  };

  // Hold the dispatcher so four members coalesce, then fail the fan-out.
  blocker b;
  auto bf = ex.submit(b.request("g"));
  while (b.started.load() < 1) std::this_thread::yield();
  std::vector<std::future<e::query_result>> futs;
  for (vertex_id i = 0; i < 4; i++)
    futs.push_back(ex.submit(bfs(i, 100 + i)));
  fp::arm("batch.fanout", fail_spec(/*count=*/1));
  b.release.set_value();
  bf.get();

  // Every member fails with the typed error — no hang, no partial settles.
  for (auto& f : futs) EXPECT_THROW(f.get(), e::engine_error);
  ex.wait_idle();
  EXPECT_EQ(ex.stats().failed, 4u);

  // The coalescer itself is unhurt: the next batch answers normally.
  blocker b2;
  auto bf2 = ex.submit(b2.request("g"));
  while (b2.started.load() < 1) std::this_thread::yield();
  std::vector<std::future<e::query_result>> futs2;
  for (vertex_id i = 0; i < 4; i++)
    futs2.push_back(ex.submit(bfs(i, 100 + i)));
  b2.release.set_value();
  bf2.get();
  for (auto& f : futs2) EXPECT_GE(f.get().value, -1);
  EXPECT_EQ(ex.metrics().get_counter("engine_batch_batches_total").value(),
            2u);
}

// --- one settlement path ----------------------------------------------------

namespace {

// How one query of the settlement mix ended, on one path: the wire status
// the outcome maps to, the value, and the flight recorder's outcome string.
struct settled_as {
  n::wire_status status = n::wire_status::internal;
  int64_t value = 0;
  bool cache_hit = false;
  std::string recorded;
  int times = 0;  // callback invocations (submit path)
};
using settlement = std::map<std::string, settled_as>;

// The mix: a name and a request per case, each with its own trace id so
// its flight-recorder entry can be found.
struct mix_case {
  std::string name;
  e::query_request req;
};

e::query_request bfs_query(vertex_id s, vertex_id t) {
  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::bfs_distance;
  q.source = s;
  q.target = t;
  return q;
}

obs::trace_id case_tid(size_t i) { return obs::trace_id{7, i + 1}; }

// Answered one at a time: ok, the same again (a cache hit), unknown graph,
// vertex out of range.
std::vector<mix_case> serial_mix() {
  std::vector<mix_case> m = {{"ok", bfs_query(0, 5)},
                             {"hit", bfs_query(0, 5)},
                             {"not_found", bfs_query(0, 5)},
                             {"range", bfs_query(1u << 20, 5)}};
  m[2].req.graph = "nope";
  return m;
}

// Queued behind a blocker on the executor's one dispatcher (max_queue 5,
// shed_watermark 3): a 5 ms deadline the watchdog settles in the queue, a
// batch of four bfs members (a duplicate pair and an invalid target), then
// a low-priority query that sheds and a normal one the full queue rejects.
std::vector<mix_case> queued_mix() {
  std::vector<mix_case> m = {{"deadline", bfs_query(1, 6)},
                             {"b1", bfs_query(2, 7)},
                             {"b2", bfs_query(2, 7)},
                             {"b3", bfs_query(3, 8)},
                             {"b4", bfs_query(2, 100000)},
                             {"shed", bfs_query(4, 9)},
                             {"rejected", bfs_query(4, 10)}};
  m[0].req.deadline = 5ms;
  m[5].req.priority = e::query_priority::low;
  return m;
}

e::executor_options mix_options(obs::flight_recorder* fr) {
  e::executor_options o;
  o.max_concurrency = 1;
  o.max_queue = 5;
  o.shed_watermark = 3;
  o.use_pool = false;
  o.flightrec = fr;
  return o;
}

std::string recorded_outcome(const obs::flight_recorder& fr,
                             const obs::trace_id& tid) {
  for (const auto& e : fr.snapshot())
    if (e.id == tid) return e.outcome;
  return "(none)";
}

void expect_conserved(const e::engine_stats_snapshot& s) {
  EXPECT_EQ(s.submitted, s.completed + s.failed + s.rejected + s.cancelled +
                             s.deadline_exceeded + s.shed);
}

// Reads `count` response frames from a raw socket.
std::vector<n::wire_response> read_frames(int fd, size_t count) {
  std::vector<n::wire_response> out;
  std::string buf;
  char chunk[4096];
  while (out.size() < count) {
    size_t consumed = 0;
    if (auto f = n::try_parse_frame(buf.data(), buf.size(), &consumed)) {
      out.push_back(n::decode_response(f->payload, f->payload_len, f->flags));
      buf.erase(0, consumed);
      continue;
    }
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    buf.append(chunk, static_cast<size_t>(got));
  }
  return out;
}

}  // namespace

TEST_F(RobustnessTest, EveryOutcomeSettlesOnceAlikeOnEveryPath) {
  const std::vector<mix_case> serial = serial_mix();
  const std::vector<mix_case> queued = queued_mix();
  auto tid_of = [&](const std::string& name) {
    for (size_t i = 0; i < serial.size(); i++)
      if (serial[i].name == name) return case_tid(i);
    for (size_t i = 0; i < queued.size(); i++)
      if (queued[i].name == name) return case_tid(serial.size() + i);
    return obs::trace_id{};
  };
  auto with_tid = [&](const mix_case& c) {
    e::query_request q = c.req;
    q.tid = tid_of(c.name);
    return q;
  };
  e::query_request cancelled = bfs_query(0, 9);
  e::cancel_source cancel;
  cancel.request_cancel();
  cancelled.token = cancel.token();
  cancelled.tid = obs::trace_id{8, 1};

  // --- submit(): the callback API ------------------------------------------
  settlement via_submit;
  {
    obs::flight_recorder fr(256);
    e::registry reg;
    reg.add("g", small_graph());
    e::query_executor ex(reg, mix_options(&fr));
    std::mutex mu;
    auto submit = [&](const std::string& name, e::query_request q) {
      ex.submit(std::move(q), [&, name](e::query_outcome&& o) {
        std::lock_guard<std::mutex> lock(mu);
        settled_as& s = via_submit[name];
        s.status = n::make_response(0, o).status;
        s.value = o.result.value;
        s.cache_hit = o.result.cache_hit;
        s.times++;
      });
    };
    auto times = [&](const std::string& name) {
      std::lock_guard<std::mutex> lock(mu);
      return via_submit[name].times;
    };
    for (const mix_case& c : serial) {
      submit(c.name, with_tid(c));
      ex.wait_idle();
    }
    submit("cancelled", cancelled);
    ex.wait_idle();

    blocker b;
    auto blocked = ex.submit(b.request("g"));
    while (b.started.load() == 0) std::this_thread::yield();
    for (const mix_case& c : queued) submit(c.name, with_tid(c));
    while (times("deadline") == 0) std::this_thread::sleep_for(1ms);
    b.release.set_value();
    EXPECT_EQ(blocked.get().value, 7);
    ex.wait_idle();

    for (auto& [name, s] : via_submit) {
      EXPECT_EQ(s.times, 1) << name << " must settle exactly once";
      s.recorded = recorded_outcome(
          fr, name == "cancelled" ? cancelled.tid : tid_of(name));
    }
    const auto snap = ex.stats();
    expect_conserved(snap);
    EXPECT_EQ(snap.submitted, 13u);
    EXPECT_EQ(snap.completed, 6u);  // blocker, ok, hit, b1-b3
    EXPECT_EQ(snap.failed, 3u);     // not_found, range, b4
    EXPECT_EQ(snap.cancelled, 1u);
    EXPECT_EQ(snap.deadline_exceeded, 1u);
    EXPECT_EQ(snap.shed, 1u);
    EXPECT_EQ(snap.rejected, 1u);
  }

  // --- run(): the same job, inline ----------------------------------------
  settlement via_run;
  {
    obs::flight_recorder fr(256);
    e::registry reg;
    reg.add("g", small_graph());
    e::query_executor ex(reg, mix_options(&fr));
    auto run = [&](const std::string& name, const e::query_request& q) {
      settled_as& s = via_run[name];
      try {
        e::query_result r = ex.run(q);
        s.status = n::wire_status::ok;
        s.value = r.value;
        s.cache_hit = r.cache_hit;
      } catch (...) {
        s.status = n::make_response(0, e::query_outcome::from_exception(
                                           std::current_exception()))
                       .status;
      }
      s.recorded = recorded_outcome(fr, q.tid);
    };
    for (const mix_case& c : serial) run(c.name, with_tid(c));
    run("cancelled", cancelled);
    // run() has no queue: its members answer directly, its deadline is
    // polled by the body.
    for (const char* name : {"b1", "b3", "b4"})
      for (const mix_case& c : queued)
        if (c.name == name) run(name, with_tid(c));
    e::query_request spin;
    spin.graph = "g";
    spin.kind = e::query_kind::custom;
    spin.deadline = 5ms;
    spin.tid = obs::trace_id{8, 2};
    spin.custom = [](const e::graph_entry&, const e::cancel_token& t) {
      for (;;) t.poll();
      return int64_t{0};
    };
    run("deadline", spin);
    expect_conserved(ex.stats());
    EXPECT_EQ(ex.stats().submitted, 9u);
  }

  // --- loopback wire ------------------------------------------------------
  settlement via_wire;
  {
    obs::flight_recorder fr(256);
    e::registry reg;
    reg.add("g", small_graph());
    e::query_executor ex(reg, mix_options(&fr));
    n::server srv(ex);
    srv.start();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(srv.port());
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    std::map<uint64_t, std::string> name_of;
    auto frame = [&](const mix_case& c) {
      const e::query_request q = with_tid(c);
      n::wire_request w;
      w.id = name_of.size() + 1;
      w.kind = q.kind;
      w.priority = q.priority;
      w.graph = q.graph;
      w.source = q.source;
      w.target = q.target;
      w.deadline_ms = static_cast<uint32_t>(q.deadline.count());
      w.tid = q.tid;
      name_of[w.id] = c.name;
      return n::encode_request_frame(w);
    };
    auto record = [&](const std::vector<n::wire_response>& got) {
      for (const n::wire_response& r : got) {
        settled_as& s = via_wire[name_of[r.id]];
        s.status = r.status;
        s.value = r.value;
        s.cache_hit = r.cache_hit;
        s.times++;
      }
    };
    auto send = [&](const std::vector<char>& bytes) {
      ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(bytes.size()));
    };
    for (const mix_case& c : serial) {
      send(frame(c));
      record(read_frames(fd, 1));
    }

    blocker b;
    auto blocked = ex.submit(b.request("g"));
    while (b.started.load() == 0) std::this_thread::yield();
    // One send: the event loop decodes and submits the frames in order.
    std::vector<char> all;
    for (const mix_case& c : queued) {
      auto f = frame(c);
      all.insert(all.end(), f.begin(), f.end());
    }
    send(all);
    record(read_frames(fd, 3));  // shed, rejected, then the watchdog's
    b.release.set_value();
    EXPECT_EQ(blocked.get().value, 7);
    record(read_frames(fd, 4));  // the batch
    ::close(fd);
    ex.wait_idle();
    srv.stop();

    for (auto& [name, s] : via_wire) {
      EXPECT_EQ(s.times, 1) << name << " must be answered exactly once";
      s.recorded = recorded_outcome(fr, tid_of(name));
    }
    const auto snap = ex.stats();
    expect_conserved(snap);
    EXPECT_EQ(snap.submitted, 12u);
  }

  // --- every path agrees ---------------------------------------------------
  const std::map<std::string, std::pair<n::wire_status, std::string>> want = {
      {"ok", {n::wire_status::ok, "ok"}},
      {"hit", {n::wire_status::ok, "ok"}},
      {"not_found", {n::wire_status::not_found, "not_found"}},
      {"range", {n::wire_status::bad_request, "error"}},
      {"cancelled", {n::wire_status::cancelled, "cancelled"}},
      {"deadline", {n::wire_status::deadline, "deadline"}},
      {"b1", {n::wire_status::ok, "ok"}},
      {"b2", {n::wire_status::ok, "ok"}},
      {"b3", {n::wire_status::ok, "ok"}},
      {"b4", {n::wire_status::bad_request, "error"}},
      {"shed", {n::wire_status::shed, "shed"}},
      {"rejected", {n::wire_status::rejected, "rejected"}},
  };
  for (const settlement* path : {&via_submit, &via_run, &via_wire}) {
    for (const auto& [name, s] : *path) {
      ASSERT_TRUE(want.count(name)) << name;
      EXPECT_EQ(s.status, want.at(name).first) << name;
      EXPECT_EQ(s.recorded, want.at(name).second) << name;
      if (s.status != n::wire_status::ok) continue;
      // Same answer as run() gives for the same request.
      EXPECT_EQ(s.value, via_run.count(name) ? via_run.at(name).value
                                             : via_run.at("b1").value)
          << name;
    }
  }
  EXPECT_EQ(via_submit.size(), 12u);
  EXPECT_EQ(via_wire.size(), 11u);  // a token cannot cross the wire
  for (const settlement* path : {&via_submit, &via_run, &via_wire})
    EXPECT_TRUE(path->at("hit").cache_hit);
}
