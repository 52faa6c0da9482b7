#include "obs/exporters.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <utility>

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#endif

#include "net/serialize.h"

namespace warpindex {
namespace {

// Prometheus text-format escaping: `\` and newline always, `"` in label
// values (see exporters.h).
std::string PrometheusEscape(const std::string& text, bool escape_quote) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\' || (escape_quote && c == '"')) {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out.append("\\n");
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Perfetto lane mapping: one pid per shard (pid 0 = unsharded / the
// merging layer), tid straight from the span tag.
int EventPid(const TraceSpan& span) { return span.shard + 1; }

// A lane-naming metadata event.
JsonValue LaneNameEvent(const char* kind, int pid, uint32_t tid,
                        std::string name) {
  JsonValue args = JsonValue::Object();
  args.Set("name", JsonValue::Str(std::move(name)));
  JsonValue event = JsonValue::Object();
  event.Set("ph", JsonValue::Str("M"));
  event.Set("name", JsonValue::Str(kind));
  event.Set("pid", JsonValue::Int(pid));
  event.Set("tid", JsonValue::Uint(tid));
  event.Set("args", std::move(args));
  return event;
}

}  // namespace

BuildInfo GetBuildInfo() {
  BuildInfo info;
  info.version = kWarpIndexVersion;
#if defined(__VERSION__)
  info.compiler = __VERSION__;
#else
  info.compiler = "unknown";
#endif
#if defined(NDEBUG)
  info.build_type = "optimized";
#else
  info.build_type = "debug";
#endif
  return info;
}

ProcessSelfMetrics CollectProcessSelfMetrics() {
  ProcessSelfMetrics metrics;
#if defined(__linux__)
  // /proc/self/stat: pid (comm) state ppid ... utime(14) stime(15) ...
  // starttime(22) ... rss(24). comm may contain spaces, so parse from the
  // last ')'.
  std::FILE* f = std::fopen("/proc/self/stat", "rb");
  if (f == nullptr) {
    return metrics;
  }
  char buf[1024];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const char* rest = std::strrchr(buf, ')');
  if (rest == nullptr) {
    return metrics;
  }
  ++rest;  // fields from index 3 (state) onward
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  unsigned long long starttime = 0;
  long long rss_pages = 0;
  {
    // Walk the space-separated fields; `rest` starts before field 3.
    int field = 2;
    const char* cursor = rest;
    while (*cursor != '\0' && field < 24) {
      while (*cursor == ' ') {
        ++cursor;
      }
      ++field;
      char* end = nullptr;
      if (field == 14) {
        utime = std::strtoull(cursor, &end, 10);
      } else if (field == 15) {
        stime = std::strtoull(cursor, &end, 10);
      } else if (field == 22) {
        starttime = std::strtoull(cursor, &end, 10);
      } else if (field == 24) {
        rss_pages = std::strtoll(cursor, &end, 10);
      }
      while (*cursor != '\0' && *cursor != ' ') {
        ++cursor;
      }
      (void)end;
    }
    if (field < 24) {
      return metrics;
    }
  }
  const double ticks =
      static_cast<double>(std::max(1L, sysconf(_SC_CLK_TCK)));
  const double page_bytes =
      static_cast<double>(std::max(1L, sysconf(_SC_PAGESIZE)));
  metrics.cpu_seconds_total =
      (static_cast<double>(utime) + static_cast<double>(stime)) / ticks;
  metrics.resident_memory_bytes =
      static_cast<double>(rss_pages) * page_bytes;
  // Boot time (unix epoch) + starttime (ticks since boot) = start time.
  double btime = 0.0;
  if (std::FILE* stat = std::fopen("/proc/stat", "rb")) {
    char line[256];
    while (std::fgets(line, sizeof(line), stat) != nullptr) {
      unsigned long long value = 0;
      if (std::sscanf(line, "btime %llu", &value) == 1) {
        btime = static_cast<double>(value);
        break;
      }
    }
    std::fclose(stat);
  }
  metrics.start_time_seconds =
      btime + static_cast<double>(starttime) / ticks;
  // Open fds: entries under /proc/self/fd minus "." and "..".
  if (DIR* dir = opendir("/proc/self/fd")) {
    int64_t count = 0;
    while (readdir(dir) != nullptr) {
      ++count;
    }
    closedir(dir);
    metrics.open_fds = std::max<int64_t>(0, count - 2);
  }
  metrics.valid = true;
#endif
  return metrics;
}

std::string PrometheusEscapeHelp(const std::string& text) {
  return PrometheusEscape(text, /*escape_quote=*/false);
}

std::string PrometheusEscapeLabelValue(const std::string& text) {
  return PrometheusEscape(text, /*escape_quote=*/true);
}

void AppendPrometheusSample(const std::string& series, double value,
                            std::string* out) {
  out->append(series);
  out->push_back(' ');
  AppendJsonNumber(value, out);
  out->push_back('\n');
}

JsonValue StageTimingsToJson(const StageTimings& timings) {
  JsonValue json = JsonValue::Object();
  for (const auto& [stage, ms] : timings.entries()) {
    json.Set(stage, JsonValue::Double(ms));
  }
  return json;
}

JsonValue StageCountersToJson(const StageCounters& counters) {
  JsonValue json = JsonValue::Object();
  for (const auto& [stage, counts] : counters.entries()) {
    JsonValue pair = JsonValue::Object();
    pair.Set("in", JsonValue::Uint(counts.in));
    pair.Set("pruned", JsonValue::Uint(counts.pruned));
    json.Set(stage, std::move(pair));
  }
  return json;
}

std::string TraceIdHex(uint64_t trace_id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, trace_id);
  return buf;
}

uint64_t ParseTraceIdHex(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) {
    return 0;
  }
  uint64_t value = 0;
  for (const char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return 0;
    }
  }
  return value;
}

std::string TraceToJsonLines(const Trace& trace, int64_t query_id) {
  std::string out;
  const JsonValue spans = SpansToJson(trace.spans());
  for (const JsonValue& span : spans.items()) {
    if (query_id < 0) {
      span.RenderTo(&out);
    } else {
      JsonValue line = JsonValue::Object();
      line.Set("query", JsonValue::Int(query_id));
      for (const auto& [key, value] : span.members()) {
        line.Set(key, value);
      }
      line.RenderTo(&out);
    }
    out.push_back('\n');
  }
  return out;
}

std::string TraceToJsonArray(const Trace& trace) {
  return SpansToJson(trace.spans()).Render();
}

Status AppendTraceJsonLines(const Trace& trace, const std::string& path,
                            int64_t query_id) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IoError("cannot open trace file " + path);
  }
  const std::string lines = TraceToJsonLines(trace, query_id);
  const bool ok =
      lines.empty() ||
      std::fwrite(lines.data(), 1, lines.size(), f) == lines.size();
  std::fclose(f);
  return ok ? Status::Ok()
            : Status::IoError("short write to trace file " + path);
}

std::string TraceEventsJson(const std::vector<const Trace*>& traces) {
  JsonValue events = JsonValue::Array();
  // Name the lanes once across all traces: every distinct pid gets a
  // process_name, every (pid, tid) a thread_name.
  std::set<int> pids;
  std::set<std::pair<int, uint32_t>> lanes;
  for (const Trace* trace : traces) {
    if (trace == nullptr) {
      continue;
    }
    for (const TraceSpan& span : trace->spans()) {
      pids.insert(EventPid(span));
      lanes.insert({EventPid(span), span.tid});
    }
  }
  for (const int pid : pids) {
    events.Add(LaneNameEvent(
        "process_name", pid, 0,
        pid == 0 ? std::string("query") : "shard " + std::to_string(pid - 1)));
  }
  for (const auto& [pid, tid] : lanes) {
    events.Add(LaneNameEvent(
        "thread_name", pid, tid,
        tid == 0 ? std::string("caller")
                 : "worker " + std::to_string(tid - 1)));
  }

  // Lay consecutive traces out left to right: each trace is shifted past
  // the previous one's extent so a store snapshot reads as one session.
  double offset_ms = 0.0;
  for (const Trace* trace : traces) {
    if (trace == nullptr) {
      continue;
    }
    double extent_ms = 0.0;
    for (const TraceSpan& span : trace->spans()) {
      extent_ms = std::max(extent_ms, span.start_ms + span.duration_ms);
      JsonValue args = JsonValue::Object();
      args.Set("trace_id", JsonValue::Str(TraceIdHex(trace->trace_id())));
      args.Set("cpu_ms", JsonValue::Double(span.cpu_ms));
      for (const auto& [name, value] : span.counters) {
        args.Set(name, JsonValue::Double(value));
      }
      JsonValue event = JsonValue::Object();
      event.Set("name", JsonValue::Str(span.name));
      event.Set("cat", JsonValue::Str("query"));
      event.Set("ph", JsonValue::Str("X"));
      event.Set("ts", JsonValue::Double((offset_ms + span.start_ms) * 1000.0));
      event.Set("dur", JsonValue::Double(span.duration_ms * 1000.0));
      event.Set("pid", JsonValue::Int(EventPid(span)));
      event.Set("tid", JsonValue::Uint(span.tid));
      event.Set("args", std::move(args));
      events.Add(std::move(event));
    }
    offset_ms += extent_ms + 1.0;  // 1 ms gutter between traces
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("displayTimeUnit", JsonValue::Str("ms"));
  doc.Set("traceEvents", std::move(events));
  return doc.Render();
}

Status WriteTraceEventsFile(const std::vector<const Trace*>& traces,
                            const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open trace-events file " + path);
  }
  const std::string doc = TraceEventsJson(traces) + "\n";
  const bool ok =
      std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok ? Status::Ok()
            : Status::IoError("short write to trace-events file " + path);
}

std::string MetricsToPrometheusText(
    const MetricsRegistry::Snapshot& snapshot,
    const BuildInfo* build_info,
    const ProcessSelfMetrics* process) {
  std::string out;
  if (build_info != nullptr) {
    out.append(
        "# HELP warpindex_build_info Build metadata; the value is always "
        "1\n");
    out.append("# TYPE warpindex_build_info gauge\n");
    out.append("warpindex_build_info{version=\"" +
               PrometheusEscapeLabelValue(build_info->version) +
               "\",compiler=\"" +
               PrometheusEscapeLabelValue(build_info->compiler) +
               "\",build_type=\"" +
               PrometheusEscapeLabelValue(build_info->build_type) +
               "\"} 1\n");
  }
  for (const auto& counter : snapshot.counters) {
    if (!counter.help.empty()) {
      out.append("# HELP " + counter.name + " " +
                 PrometheusEscapeHelp(counter.help) + "\n");
    }
    out.append("# TYPE " + counter.name + " counter\n");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, counter.value);
    out.append(counter.name + " " + buf + "\n");
  }
  for (const auto& gauge : snapshot.gauges) {
    if (!gauge.help.empty()) {
      out.append("# HELP " + gauge.name + " " +
                 PrometheusEscapeHelp(gauge.help) + "\n");
    }
    out.append("# TYPE " + gauge.name + " gauge\n");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, gauge.value);
    out.append(gauge.name + " " + buf + "\n");
  }
  for (const auto& hist : snapshot.histograms) {
    if (!hist.help.empty()) {
      out.append("# HELP " + hist.name + " " +
                 PrometheusEscapeHelp(hist.help) + "\n");
    }
    out.append("# TYPE " + hist.name + " histogram\n");
    const Histogram::Snapshot& s = hist.snapshot;
    uint64_t cumulative = 0;
    for (size_t i = 0; i < s.boundaries.size(); ++i) {
      cumulative += s.bucket_counts[i];
      out.append(hist.name + "_bucket{le=\"");
      AppendJsonNumber(s.boundaries[i], &out);
      out.append("\"} " + std::to_string(cumulative) + "\n");
    }
    cumulative += s.bucket_counts.back();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, cumulative);
    out.append(hist.name + "_bucket{le=\"+Inf\"} " + std::string(buf) +
               "\n");
    AppendPrometheusSample(hist.name + "_sum", s.stats.sum(), &out);
    std::snprintf(buf, sizeof(buf), "%" PRIu64,
                  static_cast<uint64_t>(s.stats.count()));
    out.append(hist.name + "_count " + buf + "\n");
    // Estimated-quantile gauges alongside the native histogram, for
    // dashboards without native-histogram/quantile support.
    const struct {
      const char* suffix;
      double p;
    } quantiles[] = {{"_p50", 0.5}, {"_p99", 0.99}, {"_p999", 0.999}};
    for (const auto& q : quantiles) {
      out.append("# TYPE " + hist.name + q.suffix + " gauge\n");
      AppendPrometheusSample(hist.name + q.suffix,
                             s.EstimatePercentile(q.p), &out);
    }
  }
  if (process != nullptr && process->valid) {
    out.append(
        "# HELP process_cpu_seconds_total Total user and system CPU time "
        "spent in seconds\n");
    out.append("# TYPE process_cpu_seconds_total counter\n");
    AppendPrometheusSample("process_cpu_seconds_total",
                           process->cpu_seconds_total, &out);
    out.append(
        "# HELP process_resident_memory_bytes Resident memory size in "
        "bytes\n");
    out.append("# TYPE process_resident_memory_bytes gauge\n");
    AppendPrometheusSample("process_resident_memory_bytes",
                           process->resident_memory_bytes, &out);
    out.append(
        "# HELP process_open_fds Number of open file descriptors\n");
    out.append("# TYPE process_open_fds gauge\n");
    out.append("process_open_fds " + std::to_string(process->open_fds) +
               "\n");
    out.append(
        "# HELP process_start_time_seconds Start time of the process "
        "since unix epoch in seconds\n");
    out.append("# TYPE process_start_time_seconds gauge\n");
    AppendPrometheusSample("process_start_time_seconds",
                           process->start_time_seconds, &out);
  }
  return out;
}

JsonValue MetricsToJson(const MetricsRegistry::Snapshot& snapshot,
                        const BuildInfo* build_info,
                        const ProcessSelfMetrics* process) {
  JsonValue doc = JsonValue::Object();
  if (build_info != nullptr) {
    JsonValue build = JsonValue::Object();
    build.Set("version", JsonValue::Str(build_info->version));
    build.Set("compiler", JsonValue::Str(build_info->compiler));
    build.Set("build_type", JsonValue::Str(build_info->build_type));
    doc.Set("build_info", std::move(build));
  }
  if (process != nullptr && process->valid) {
    JsonValue self = JsonValue::Object();
    self.Set("cpu_seconds_total",
             JsonValue::Double(process->cpu_seconds_total));
    self.Set("resident_memory_bytes",
             JsonValue::Double(process->resident_memory_bytes));
    self.Set("open_fds", JsonValue::Int(process->open_fds));
    self.Set("start_time_seconds",
             JsonValue::Double(process->start_time_seconds));
    doc.Set("process", std::move(self));
  }
  JsonValue counters = JsonValue::Object();
  for (const auto& counter : snapshot.counters) {
    counters.Set(counter.name, JsonValue::Uint(counter.value));
  }
  doc.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const auto& gauge : snapshot.gauges) {
    gauges.Set(gauge.name, JsonValue::Int(gauge.value));
  }
  doc.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const auto& hist : snapshot.histograms) {
    const Histogram::Snapshot& s = hist.snapshot;
    const bool empty = s.stats.count() == 0;
    JsonValue h = JsonValue::Object();
    h.Set("count", JsonValue::Uint(s.stats.count()));
    h.Set("sum", JsonValue::Double(s.stats.sum()));
    h.Set("mean", JsonValue::Double(s.stats.mean()));
    h.Set("min", JsonValue::Double(empty ? 0.0 : s.stats.min()));
    h.Set("max", JsonValue::Double(empty ? 0.0 : s.stats.max()));
    h.Set("stddev", JsonValue::Double(s.stats.stddev()));
    h.Set("p50", JsonValue::Double(s.EstimatePercentile(0.5)));
    h.Set("p99", JsonValue::Double(s.EstimatePercentile(0.99)));
    h.Set("p999", JsonValue::Double(s.EstimatePercentile(0.999)));
    JsonValue boundaries = JsonValue::Array();
    for (const double boundary : s.boundaries) {
      boundaries.Add(JsonValue::Double(boundary));
    }
    h.Set("boundaries", std::move(boundaries));
    JsonValue bucket_counts = JsonValue::Array();
    for (const uint64_t count : s.bucket_counts) {
      bucket_counts.Add(JsonValue::Uint(count));
    }
    h.Set("bucket_counts", std::move(bucket_counts));
    histograms.Set(hist.name, std::move(h));
  }
  doc.Set("histograms", std::move(histograms));
  return doc;
}

JsonValue FlightRecordToJson(const FlightRecord& record) {
  JsonValue json = JsonValue::Object();
  json.Set("seq", JsonValue::Uint(record.seq));
  json.Set("timestamp_ms", JsonValue::Double(record.timestamp_ms));
  json.Set("trace_id", record.trace_id == 0
                           ? JsonValue::Null()
                           : JsonValue::Str(TraceIdHex(record.trace_id)));
  json.Set("method", JsonValue::Str(record.method));
  json.Set("epsilon", JsonValue::Double(record.epsilon));
  json.Set("query_length", JsonValue::Uint(record.query_length));
  json.Set("matches", JsonValue::Uint(record.matches));
  json.Set("num_candidates", JsonValue::Uint(record.num_candidates));
  json.Set("wall_ms", JsonValue::Double(record.wall_ms));
  json.Set("cpu_ms", JsonValue::Double(record.cpu_ms));
  json.Set("dtw_evals", JsonValue::Uint(record.dtw_evals));
  json.Set("dtw_cells", JsonValue::Uint(record.dtw_cells));
  json.Set("index_nodes", JsonValue::Uint(record.index_nodes));
  json.Set("pool_hits", JsonValue::Uint(record.pool_hits));
  json.Set("pool_misses", JsonValue::Uint(record.pool_misses));
  json.Set("shard", JsonValue::Int(record.shard));
  json.Set("replica", JsonValue::Int(record.replica));
  json.Set("net_hedges", JsonValue::Uint(record.net_hedges));
  json.Set("net_retries", JsonValue::Uint(record.net_retries));
  json.Set("cache_hit", JsonValue::Str(CacheTierName(record.cache_hit)));
  json.Set("stages_ms", StageTimingsToJson(record.stage_ms));
  json.Set("stages_cpu_ms", StageTimingsToJson(record.stage_cpu_ms));
  json.Set("prunes", StageCountersToJson(record.prunes));
  return json;
}

std::string FlightRecordsToJson(
    const std::vector<FlightRecord>& records) {
  JsonValue list = JsonValue::Array();
  for (const FlightRecord& record : records) {
    list.Add(FlightRecordToJson(record));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("count", JsonValue::Uint(records.size()));
  doc.Set("records", std::move(list));
  return doc.Render();
}

}  // namespace warpindex
