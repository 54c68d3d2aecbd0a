// Typed queries for the concurrent query engine (docs/ENGINE.md).
//
// A query_request names a registered graph and one of the built-in query
// kinds (plus `custom` for caller-supplied closures); a query_result carries
// the scalar answer — or the top-k rank list — together with execution
// metadata (latency, cache hit). The request shape is deliberately flat and
// POD-ish: it doubles as the result-cache key material and as the line
// format of the query_server request files.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/update_batch.h"
#include "engine/cancel.h"
#include "graph/graph.h"
#include "obs/trace.h"

namespace ligra::engine {

// engine_error (the base of the hierarchy), cancelled_error, and
// deadline_exceeded_error live in engine/cancel.h so the app layer can poll
// tokens without pulling in the rest of the engine.

// Thrown by query_executor::submit when the admission queue is full —
// backpressure surfaces to the caller instead of blocking or deadlocking.
// Like shed_error it carries retry advice, sized to the queue overload, so
// callers (and the network tier) can back off instead of hammering.
class rejected_error : public engine_error {
 public:
  explicit rejected_error(
      const std::string& message,
      std::chrono::milliseconds advice = std::chrono::milliseconds(0))
      : engine_error(message), retry_after(advice) {}
  std::chrono::milliseconds retry_after;
};

// Thrown by query_executor::submit when load shedding is active (queue depth
// past the watermark) and the request is low priority. Unlike rejected_error
// this carries advice: wait `retry_after` before resubmitting.
class shed_error : public engine_error {
 public:
  shed_error(const std::string& message, std::chrono::milliseconds advice)
      : engine_error(message), retry_after(advice) {}
  std::chrono::milliseconds retry_after;
};

// Named graph is not (or no longer) registered.
class not_found_error : public engine_error {
  using engine_error::engine_error;
};

enum class query_kind : uint8_t {
  bfs_distance,    // hop distance source -> target; -1 unreachable
  sssp_distance,   // shortest-path weight source -> target (weighted graphs)
  pagerank_topk,   // k highest-ranked vertices
  component_id,    // connected-component label of `source`
  coreness,        // k-core number of `source`
  triangle_count,  // whole-graph triangle count
  update,          // apply an edge-update batch to a mutable graph; the
                   // result value is the published epoch. Never cached.
  custom,          // caller-supplied closure; bypasses the result cache
};

inline constexpr size_t kNumQueryKinds = 8;

inline const char* query_kind_name(query_kind k) {
  switch (k) {
    case query_kind::bfs_distance: return "bfs";
    case query_kind::sssp_distance: return "sssp";
    case query_kind::pagerank_topk: return "pagerank";
    case query_kind::component_id: return "cc";
    case query_kind::coreness: return "kcore";
    case query_kind::triangle_count: return "triangles";
    case query_kind::update: return "update";
    case query_kind::custom: return "custom";
  }
  return "?";
}

class graph_entry;  // registry.h

// Admission priority under load shedding: past the executor's queue-depth
// watermark, `low` submissions are shed immediately with retry_after advice
// while `normal`/`high` keep being admitted until the queue is full.
enum class query_priority : uint8_t { low, normal, high };

struct query_request {
  std::string graph;  // registry name
  query_kind kind = query_kind::bfs_distance;
  vertex_id source = 0;           // bfs/sssp source; cc/kcore subject vertex
  vertex_id target = kNoVertex;   // bfs/sssp destination
  uint32_t k = 10;                // pagerank_topk list size
  query_priority priority = query_priority::normal;
  // Wall-clock budget from submission; 0 = none. Enforced cooperatively by
  // round-boundary polling in the query body and, for bodies that never
  // poll, by the executor watchdog resolving the future at the deadline.
  std::chrono::milliseconds deadline{0};
  // Optional caller-held cancellation; the executor layers the deadline on
  // top of it, so cancelling the source stops the query either way.
  cancel_token token;
  // Correlation id (docs/OBSERVABILITY.md): zero means unassigned — when
  // the executor has a trace store or flight recorder attached it mints one
  // at submit() so every retained record, flight entry, and log line agrees
  // on the query's identity. The network tier carries it on the wire
  // (net/protocol.h), so a remote caller's id survives into the server's
  // retention rings.
  obs::trace_id tid{};
  // Caller asked for full trace retention: the executor arms a trace and
  // retains it in the trace store regardless of latency or outcome.
  bool sampled = false;
  // Optional traversal trace (docs/OBSERVABILITY.md): the executor installs
  // it on the thread running the body, so edge_map records every round's
  // direction decision and the adapters annotate their phases. The caller
  // owns the object and must keep it alive until the future settles. Traced
  // queries bypass the result cache (a cached answer has no rounds to show).
  obs::query_trace* trace = nullptr;
  // kind == custom only: runs with the entry pinned; the returned value
  // lands in query_result::value. Not cached (closures have no identity).
  // The token combines the request's token with the executor deadline —
  // long-running closures should poll it.
  std::function<int64_t(const graph_entry&, const cancel_token&)> custom;
  // kind == update only: the edge batch to apply (shared so queued jobs and
  // replay files can alias one batch). Goes through the executor's
  // admission control like any query, then registry::apply_updates.
  std::shared_ptr<const dynamic::update_batch> updates;
};

struct query_result {
  query_kind kind = query_kind::bfs_distance;
  // Scalar answer: distance (bfs/sssp, -1 unreachable), component label,
  // coreness, triangle count, custom return value; for pagerank_topk the
  // number of entries in `topk`.
  int64_t value = 0;
  std::vector<std::pair<vertex_id, double>> topk;  // pagerank_topk only
  bool cache_hit = false;
  double micros = 0.0;  // execution time (0 for cache hits)
  // The request's correlation id, echoed (or minted) by the executor; zero
  // when observability is off. GET /traces/<tid> retrieves what was kept.
  obs::trace_id tid{};
};

// How a query ended. Each status maps 1:1 to a net::wire_status, so a
// remote caller sees exactly what a local one does.
enum class query_status : uint8_t {
  ok,
  cancelled,    // cancelled_error
  deadline,     // deadline_exceeded_error
  shed,         // shed_error (retry_after set)
  rejected,     // rejected_error (retry_after set)
  not_found,    // not_found_error
  bad_request,  // std::invalid_argument: vertex out of range, ...
  load,         // load_error / update_error
  internal,     // anything else
};

// The outcome string flight-recorder entries and retained traces carry:
// the status name, with bad_request/load/internal all reported as "error".
const char* query_status_name(query_status s);

// Every query the executor accepts settles exactly once, with one of these
// (query_executor::submit's callback receives it).
struct query_outcome {
  query_status status = query_status::ok;
  query_result result;  // ok only
  std::string message;  // non-ok only
  std::chrono::milliseconds retry_after{0};  // shed / rejected advice
  // The exception the query threw, when it threw one; exception() hands it
  // back so future and run() callers catch the exact type they always did.
  std::exception_ptr error;

  bool ok() const { return status == query_status::ok; }
  // `error`, or a typed exception built from status and message.
  std::exception_ptr exception() const;

  static query_outcome failure(query_status s, std::string message,
                               std::chrono::milliseconds retry_after = {});
  // Classifies a thrown exception: the one place in the engine that maps
  // exception types to a status.
  static query_outcome from_exception(std::exception_ptr e);
};

using query_callback = std::function<void(query_outcome&&)>;

}  // namespace ligra::engine
