// Rendering traces and metric snapshots for consumption outside the
// process.
//
//   * TraceToJsonLines: one JSON object per span (jaeger-style flat
//     list; `parent` indexes earlier lines), appendable across queries.
//   * TraceToJsonArray: the same spans as one JSON array (what /tracez
//     embeds per trace).
//   * TraceEventsJson: Chrome/Perfetto trace-event format — load the
//     file in ui.perfetto.dev or chrome://tracing. Spans map to complete
//     ("X") events; the per-span shard tag becomes the pid lane and the
//     worker tag the tid lane, so a stitched scatter-gather query renders
//     one track group per shard.
//   * MetricsToPrometheusText: the text exposition format (counters plus
//     cumulative-bucket histograms with _bucket/_sum/_count series).
//   * MetricsToJson: the same snapshot as one JSON document, for benches,
//     scripts, and the fleet poller's STATS replies.
//
// Every JSON document is built as a JsonValue (net/json.h) and rendered
// once; numbers take the shortest text that round-trips. Formats are
// documented in docs/OBSERVABILITY.md.

#ifndef WARPINDEX_OBS_EXPORTERS_H_
#define WARPINDEX_OBS_EXPORTERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/json.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stage_counters.h"
#include "obs/stage_timings.h"
#include "obs/trace.h"

namespace warpindex {

// Library version (also reported in /statusz build info and the
// warpindex_build_info metric).
inline constexpr const char* kWarpIndexVersion = "0.10.0";

// Static facts about this binary, exported as the warpindex_build_info
// metric (Prometheus info-metric convention: labels carry the facts, the
// value is always 1) and shown on /statusz.
struct BuildInfo {
  std::string version;
  std::string compiler;
  std::string build_type;  // "optimized" (NDEBUG) or "debug"
};
// The running library's build info.
BuildInfo GetBuildInfo();

// Standard process self-metrics per Prometheus conventions, read from
// /proc/self (Linux). `valid` is false when /proc is unavailable (the
// exporters then omit the series instead of reporting zeros).
struct ProcessSelfMetrics {
  bool valid = false;
  // Total user+system CPU seconds consumed by the process.
  double cpu_seconds_total = 0.0;
  // Resident set size in bytes.
  double resident_memory_bytes = 0.0;
  // Open file descriptors.
  int64_t open_fds = 0;
  // Process start time, seconds since the Unix epoch.
  double start_time_seconds = 0.0;
};
// A point-in-time reading (a handful of /proc reads; fine per scrape).
ProcessSelfMetrics CollectProcessSelfMetrics();

// Prometheus text-format escaping. HELP text escapes `\` and newline;
// label values additionally escape `"`. Without these a help string or
// label containing a newline corrupts every series after it.
std::string PrometheusEscapeHelp(const std::string& text);
std::string PrometheusEscapeLabelValue(const std::string& text);

// Appends one Prometheus sample line, "<series> <value>\n", with the value
// in the JSON number format (AppendJsonNumber). `series` is the metric
// name plus any label set.
void AppendPrometheusSample(const std::string& series, double value,
                            std::string* out);

// Per-stage timings as {"<stage>": ms, ...} and prune counters as
// {"<stage>": {"in": n, "pruned": n}, ...}, in stage order.
JsonValue StageTimingsToJson(const StageTimings& timings);
JsonValue StageCountersToJson(const StageCounters& counters);

// 16-char lowercase hex rendering of a trace id (the form /tracez,
// /slowlog, and /flightrecorder cross-link by), and its inverse.
// ParseTraceIdHex returns 0 (the invalid id) on malformed input.
std::string TraceIdHex(uint64_t trace_id);
uint64_t ParseTraceIdHex(const std::string& hex);

// One line per span, each a SpansToJson (net/serialize.h) object:
//   {"span":0,"parent":-1,"name":"query","start_ms":0.01,
//    "duration_ms":2.5,"counters":{"pages_read":12}}
// Spans carrying execution tags (stitched shard subtrees) add
// "shard"/"tid". `query_id` tags every line (as a leading "query" key)
// so multiple traces can share one file; pass a negative id to omit it.
std::string TraceToJsonLines(const Trace& trace, int64_t query_id = -1);

// The same span objects as one JSON array ("[...]"), for embedding in a
// larger document (/tracez).
std::string TraceToJsonArray(const Trace& trace);

// Appends TraceToJsonLines(trace) to `path` (created if missing).
Status AppendTraceJsonLines(const Trace& trace, const std::string& path,
                            int64_t query_id = -1);

// Chrome trace-event JSON for one or more traces:
//   {"displayTimeUnit":"ms","traceEvents":[...]}
// Each span becomes a complete event (ts/dur in microseconds); pid =
// span.shard + 1 (so unsharded spans share pid 0), tid = span.tid, and
// metadata events name the lanes ("shard 3", "worker 2"). Consecutive
// traces are laid out left to right on one timeline (each shifted past
// the previous trace's extent) so a store snapshot reads as a session.
std::string TraceEventsJson(const std::vector<const Trace*>& traces);

// Writes TraceEventsJson to `path` (overwritten: the format is one JSON
// document, not appendable lines).
Status WriteTraceEventsFile(const std::vector<const Trace*>& traces,
                            const std::string& path);

// `build_info` (optional) prepends the warpindex_build_info series;
// `process` (optional, and only when valid) appends the standard
// process_* self-metrics. Each histogram is exported natively
// (_bucket/_sum/_count) plus estimated-quantile gauges (<name>_p50 /
// _p99 / _p999) for dashboards that predate native-histogram support —
// the text format is pinned by metrics_test.
std::string MetricsToPrometheusText(
    const MetricsRegistry::Snapshot& snapshot,
    const BuildInfo* build_info = nullptr,
    const ProcessSelfMetrics* process = nullptr);
// Histogram objects include estimated "p50"/"p99"/"p999" quantiles (see
// Histogram::Snapshot::EstimatePercentile) alongside the raw buckets.
// `build_info` (optional) adds a "build_info" object; `process`
// (optional, when valid) a "process" object with the same self-metrics
// as the text form.
JsonValue MetricsToJson(const MetricsRegistry::Snapshot& snapshot,
                        const BuildInfo* build_info = nullptr,
                        const ProcessSelfMetrics* process = nullptr);

// One FlightRecord as a JSON object (stage timings and prune counters as
// nested objects keyed by stage name; trace_id as hex, null when the
// query carried no trace).
JsonValue FlightRecordToJson(const FlightRecord& record);

// A record list as one JSON document: {"count":N,"records":[...]}.
// Renders both `/flightrecorder` (oldest first) and `/slowlog` (slowest
// first) — the caller picks the ordering by what Snapshot() it passes.
std::string FlightRecordsToJson(const std::vector<FlightRecord>& records);

}  // namespace warpindex

#endif  // WARPINDEX_OBS_EXPORTERS_H_
