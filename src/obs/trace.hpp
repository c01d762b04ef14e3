// JSON exporters: chrome://tracing trace files and metrics snapshots.
//
// The trace writer emits the Trace Event Format's "X" (complete) events —
// one per recorded PLF_PROF_SCOPE span — which chrome://tracing and Perfetto
// load directly. Timestamps are microseconds relative to the earliest
// recorded event, thread ids are registry shard indices (one lane per
// recording thread), so a profiled mrbayes_lite run shows the MCMC
// generations on the caller lane and the ThreadPool worker spans fanning out
// below it — the paper's fine-grain parallel structure, visible.
//
// The metrics writer serializes a Snapshot as a single JSON object
// ({"gauges": {...}, "timers": {...}, "meta": {...}}); timer entries
// carry count/total/mean/min/max/stddev in seconds. Empty timers write min
// and max as null, never Infinity (which JSON cannot represent).
#pragma once

#include <iosfwd>

#include "obs/metrics.hpp"

namespace plf::obs {

/// Write every recorded trace event of `registry` as a chrome://tracing
/// JSON document.
void write_chrome_trace(std::ostream& os, const MetricsRegistry& registry);

/// Write a merged snapshot as a JSON object.
void write_metrics_json(std::ostream& os, const Snapshot& snapshot);

}  // namespace plf::obs
