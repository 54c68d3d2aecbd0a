// The benchmark's workloads (README.md explains why each exists).
#pragma once

#include "common.h"

namespace perfbench {

outcome run_serve_mixed(const options& opts);
outcome run_serve_updates(const options& opts);
outcome run_analytics(const options& opts);

// Writes the run's spans to <workdir>/spans-<workload>-<seed>.jsonl and
// prints where they went.
void write_spans(const span_log& spans, const options& opts);

}  // namespace perfbench
