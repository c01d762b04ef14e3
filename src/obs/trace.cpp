#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/json_util.hpp"

namespace plf::obs {

using detail::json_escape;
using detail::write_json_double;

void write_chrome_trace(std::ostream& os, const MetricsRegistry& registry) {
  const std::vector<TraceEvent> events = registry.trace_events();

  // Name lookups are by interned id; cache them (the id space is tiny).
  std::unordered_map<MetricId, std::string> names;
  for (const TraceEvent& e : events) {
    if (names.find(e.name_id) == names.end()) {
      names.emplace(e.name_id, json_escape(registry.metric_name(e.name_id)));
    }
  }

  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const TraceEvent& e : events) t0 = std::min(t0, e.start_ns);
  if (events.empty()) t0 = 0;

  const auto old_precision = os.precision(6);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << names[e.name_id]
       << "\",\"cat\":\"plf\",\"ph\":\"X\",\"ts\":"
       << static_cast<double>(e.start_ns - t0) * 1e-3
       << ",\"dur\":" << static_cast<double>(e.dur_ns) * 1e-3
       << ",\"pid\":1,\"tid\":" << e.tid << "}";
  }
  if (registry.trace_events_dropped() > 0) {
    // Surface truncation inside the trace itself (an instant event at t0).
    if (!first) os << ",";
    os << "{\"name\":\"trace buffer full: "
       << registry.trace_events_dropped()
       << " spans dropped\",\"cat\":\"plf\",\"ph\":\"i\",\"ts\":0,"
          "\"pid\":1,\"tid\":0,\"s\":\"g\"}";
  }
  os << "]}";
  os.precision(old_precision);
}

void write_metrics_json(std::ostream& os, const Snapshot& snapshot) {
  const auto old_precision = os.precision(17);
  os << "{\"gauges\":{";
  bool first = true;
  for (const auto& g : snapshot.gauges) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(g.name) << "\":";
    write_json_double(os, g.value);
  }
  os << "},\"timers\":{";
  first = true;
  for (const auto& t : snapshot.timers) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(t.name) << "\":{\"count\":" << t.stats.count()
       << ",\"total_s\":";
    write_json_double(os, t.stats.total());
    os << ",\"mean_s\":";
    write_json_double(os, t.stats.count() == 0 ? 0.0 : t.stats.mean());
    os << ",\"min_s\":";
    write_json_double(os, t.stats.min());  // NaN when empty -> null
    os << ",\"max_s\":";
    write_json_double(os, t.stats.max());
    os << ",\"stddev_s\":";
    write_json_double(os, t.stats.stddev());
    os << ",\"p50_s\":";
    write_json_double(os, t.hist.percentile_s(0.50));  // NaN when empty -> null
    os << ",\"p95_s\":";
    write_json_double(os, t.hist.percentile_s(0.95));
    os << ",\"p99_s\":";
    write_json_double(os, t.hist.percentile_s(0.99));
    os << "}";
  }
  os << "},\"meta\":{\"trace_events_dropped\":" << snapshot.trace_events_dropped
     << ",\"hist_samples_dropped\":" << snapshot.hist_samples_dropped << "}}";
  os.precision(old_precision);
}

}  // namespace plf::obs
