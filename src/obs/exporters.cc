#include "obs/exporters.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <utility>

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#endif

namespace warpindex {
namespace {

// Shortest round-trippable representation; JSON has no Inf/NaN, so those
// degrade to null.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  // Shortest string over all precisions that still round-trips ("%.1g"
  // of 10 is "1e+01", but "%.2g" gives the shorter "10").
  char best[64];
  std::snprintf(best, sizeof(best), "%.17g", v);
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[64];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, v);
    if (std::strtod(candidate, nullptr) == v) {
      if (std::strlen(candidate) < std::strlen(best)) {
        std::memcpy(best, candidate, std::strlen(candidate) + 1);
      }
    }
  }
  return best;
}

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

void AppendCounterObject(
    const std::vector<std::pair<std::string, double>>& counters,
    std::string* out) {
  out->push_back('{');
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    out->append(JsonEscape(name));
    out->push_back(':');
    out->append(JsonNumber(value));
  }
  out->push_back('}');
}

// The shared span-object body of TraceToJsonLines and TraceToJsonArray.
void AppendSpanObject(const TraceSpan& span, size_t index,
                      std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"span\":%zu,\"parent\":%d,", index,
                span.parent);
  out->append(buf);
  out->append("\"name\":");
  out->append(JsonEscape(span.name));
  out->append(",\"start_ms\":");
  out->append(JsonNumber(span.start_ms));
  out->append(",\"duration_ms\":");
  out->append(JsonNumber(span.duration_ms));
  out->append(",\"cpu_ms\":");
  out->append(JsonNumber(span.cpu_ms));
  if (span.shard >= 0 || span.tid > 0) {
    std::snprintf(buf, sizeof(buf), ",\"shard\":%d,\"tid\":%u",
                  span.shard, span.tid);
    out->append(buf);
  }
  if (!span.counters.empty()) {
    out->append(",\"counters\":");
    AppendCounterObject(span.counters, out);
  }
}

// Perfetto lane mapping: one pid per shard (pid 0 = unsharded / the
// merging layer), tid straight from the span tag.
int EventPid(const TraceSpan& span) { return span.shard + 1; }

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
  const std::vector<TraceSpan>& spans = trace.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    out.push_back('{');
    if (query_id >= 0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "\"query\":%" PRId64 ",", query_id);
      out.append(buf);
    }
    AppendSpanObject(spans[i], i, &out);
    out.append("}\n");
  }
  return out;
}

std::string TraceToJsonArray(const Trace& trace) {
  std::string out = "[";
  const std::vector<TraceSpan>& spans = trace.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    out.push_back('{');
    AppendSpanObject(spans[i], i, &out);
    out.push_back('}');
  }
  out.push_back(']');
  return out;
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
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto append_event = [&out, &first](const std::string& event) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append(event);
  };

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
    const std::string name =
        pid == 0 ? std::string("query") : "shard " + std::to_string(pid - 1);
    append_event("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
                 std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":" +
                 JsonEscape(name) + "}}");
  }
  for (const auto& [pid, tid] : lanes) {
    const std::string name =
        tid == 0 ? std::string("caller")
                 : "worker " + std::to_string(tid - 1);
    append_event("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
                 std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
                 ",\"args\":{\"name\":" + JsonEscape(name) + "}}");
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
      std::string event = "{\"name\":";
      event += JsonEscape(span.name);
      event += ",\"cat\":\"query\",\"ph\":\"X\",\"ts\":";
      event += JsonNumber((offset_ms + span.start_ms) * 1000.0);
      event += ",\"dur\":";
      event += JsonNumber(span.duration_ms * 1000.0);
      event += ",\"pid\":" + std::to_string(EventPid(span));
      event += ",\"tid\":" + std::to_string(span.tid);
      event += ",\"args\":{\"trace_id\":";
      event += JsonEscape(TraceIdHex(trace->trace_id()));
      event += ",\"cpu_ms\":";
      event += JsonNumber(span.cpu_ms);
      for (const auto& [name, value] : span.counters) {
        event.push_back(',');
        event += JsonEscape(name);
        event.push_back(':');
        event += JsonNumber(value);
      }
      event += "}}";
      append_event(event);
    }
    offset_ms += extent_ms + 1.0;  // 1 ms gutter between traces
  }
  out.append("]}");
  return out;
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
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRIu64, cumulative);
      out.append(hist.name + "_bucket{le=\"" +
                 PrometheusEscapeLabelValue(JsonNumber(s.boundaries[i])) +
                 "\"} " + buf + "\n");
    }
    cumulative += s.bucket_counts.back();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, cumulative);
    out.append(hist.name + "_bucket{le=\"+Inf\"} " + std::string(buf) +
               "\n");
    out.append(hist.name + "_sum " + JsonNumber(s.stats.sum()) + "\n");
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
      out.append(hist.name + q.suffix + " " +
                 JsonNumber(s.EstimatePercentile(q.p)) + "\n");
    }
  }
  if (process != nullptr && process->valid) {
    out.append(
        "# HELP process_cpu_seconds_total Total user and system CPU time "
        "spent in seconds\n");
    out.append("# TYPE process_cpu_seconds_total counter\n");
    out.append("process_cpu_seconds_total " +
               JsonNumber(process->cpu_seconds_total) + "\n");
    out.append(
        "# HELP process_resident_memory_bytes Resident memory size in "
        "bytes\n");
    out.append("# TYPE process_resident_memory_bytes gauge\n");
    out.append("process_resident_memory_bytes " +
               JsonNumber(process->resident_memory_bytes) + "\n");
    out.append(
        "# HELP process_open_fds Number of open file descriptors\n");
    out.append("# TYPE process_open_fds gauge\n");
    out.append("process_open_fds " + std::to_string(process->open_fds) +
               "\n");
    out.append(
        "# HELP process_start_time_seconds Start time of the process "
        "since unix epoch in seconds\n");
    out.append("# TYPE process_start_time_seconds gauge\n");
    out.append("process_start_time_seconds " +
               JsonNumber(process->start_time_seconds) + "\n");
  }
  return out;
}

std::string MetricsToJson(const MetricsRegistry::Snapshot& snapshot,
                          const BuildInfo* build_info,
                          const ProcessSelfMetrics* process) {
  std::string out = "{";
  if (build_info != nullptr) {
    out.append("\"build_info\":{\"version\":" +
               JsonEscape(build_info->version));
    out.append(",\"compiler\":" + JsonEscape(build_info->compiler));
    out.append(",\"build_type\":" + JsonEscape(build_info->build_type) +
               "},");
  }
  if (process != nullptr && process->valid) {
    out.append("\"process\":{\"cpu_seconds_total\":" +
               JsonNumber(process->cpu_seconds_total));
    out.append(",\"resident_memory_bytes\":" +
               JsonNumber(process->resident_memory_bytes));
    out.append(",\"open_fds\":" + std::to_string(process->open_fds));
    out.append(",\"start_time_seconds\":" +
               JsonNumber(process->start_time_seconds) + "},");
  }
  out.append("\"counters\":{");
  bool first = true;
  for (const auto& counter : snapshot.counters) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, counter.value);
    out.append(JsonEscape(counter.name) + ":" + buf);
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& gauge : snapshot.gauges) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, gauge.value);
    out.append(JsonEscape(gauge.name) + ":" + buf);
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& hist : snapshot.histograms) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    const Histogram::Snapshot& s = hist.snapshot;
    out.append(JsonEscape(hist.name) + ":{");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64,
                  static_cast<uint64_t>(s.stats.count()));
    out.append("\"count\":" + std::string(buf));
    out.append(",\"sum\":" + JsonNumber(s.stats.sum()));
    out.append(",\"mean\":" + JsonNumber(s.stats.mean()));
    out.append(",\"min\":" +
               JsonNumber(s.stats.count() == 0 ? 0.0 : s.stats.min()));
    out.append(",\"max\":" +
               JsonNumber(s.stats.count() == 0 ? 0.0 : s.stats.max()));
    out.append(",\"stddev\":" + JsonNumber(s.stats.stddev()));
    out.append(",\"p50\":" + JsonNumber(s.EstimatePercentile(0.5)));
    out.append(",\"p99\":" + JsonNumber(s.EstimatePercentile(0.99)));
    out.append(",\"p999\":" + JsonNumber(s.EstimatePercentile(0.999)));
    out.append(",\"boundaries\":[");
    for (size_t i = 0; i < s.boundaries.size(); ++i) {
      if (i > 0) {
        out.push_back(',');
      }
      out.append(JsonNumber(s.boundaries[i]));
    }
    out.append("],\"bucket_counts\":[");
    for (size_t i = 0; i < s.bucket_counts.size(); ++i) {
      if (i > 0) {
        out.push_back(',');
      }
      std::snprintf(buf, sizeof(buf), "%" PRIu64, s.bucket_counts[i]);
      out.append(buf);
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

std::string FlightRecordToJson(const FlightRecord& record) {
  char buf[48];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf), "%" PRIu64, record.seq);
  out.append("\"seq\":" + std::string(buf));
  out.append(",\"timestamp_ms\":" + JsonNumber(record.timestamp_ms));
  out.append(",\"trace_id\":" +
             (record.trace_id == 0
                  ? std::string("null")
                  : JsonEscape(TraceIdHex(record.trace_id))));
  out.append(",\"method\":" + JsonEscape(record.method));
  out.append(",\"epsilon\":" + JsonNumber(record.epsilon));
  out.append(",\"query_length\":" + std::to_string(record.query_length));
  out.append(",\"matches\":" + std::to_string(record.matches));
  out.append(",\"num_candidates\":" +
             std::to_string(record.num_candidates));
  out.append(",\"wall_ms\":" + JsonNumber(record.wall_ms));
  out.append(",\"cpu_ms\":" + JsonNumber(record.cpu_ms));
  std::snprintf(buf, sizeof(buf), "%" PRIu64, record.dtw_evals);
  out.append(",\"dtw_evals\":" + std::string(buf));
  std::snprintf(buf, sizeof(buf), "%" PRIu64, record.dtw_cells);
  out.append(",\"dtw_cells\":" + std::string(buf));
  std::snprintf(buf, sizeof(buf), "%" PRIu64, record.index_nodes);
  out.append(",\"index_nodes\":" + std::string(buf));
  std::snprintf(buf, sizeof(buf), "%" PRIu64, record.pool_hits);
  out.append(",\"pool_hits\":" + std::string(buf));
  std::snprintf(buf, sizeof(buf), "%" PRIu64, record.pool_misses);
  out.append(",\"pool_misses\":" + std::string(buf));
  out.append(",\"shard\":" + std::to_string(record.shard));
  out.append(",\"replica\":" + std::to_string(record.replica));
  out.append(",\"net_hedges\":" + std::to_string(record.net_hedges));
  out.append(",\"net_retries\":" + std::to_string(record.net_retries));
  out.append(",\"cache_hit\":\"" +
             std::string(CacheTierName(record.cache_hit)) + "\"");
  out.append(",\"stages_ms\":{");
  bool first = true;
  for (const auto& [stage, ms] : record.stage_ms.entries()) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append(JsonEscape(stage) + ":" + JsonNumber(ms));
  }
  out.append("},\"stages_cpu_ms\":{");
  first = true;
  for (const auto& [stage, ms] : record.stage_cpu_ms.entries()) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append(JsonEscape(stage) + ":" + JsonNumber(ms));
  }
  out.append("},\"prunes\":{");
  first = true;
  for (const auto& [stage, counts] : record.prunes.entries()) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    std::snprintf(buf, sizeof(buf), "%" PRIu64, counts.in);
    out.append(JsonEscape(stage) + ":{\"in\":" + std::string(buf));
    std::snprintf(buf, sizeof(buf), "%" PRIu64, counts.pruned);
    out.append(",\"pruned\":" + std::string(buf) + "}");
  }
  out.append("}}");
  return out;
}

std::string FlightRecordsToJson(
    const std::vector<FlightRecord>& records) {
  std::string out =
      "{\"count\":" + std::to_string(records.size()) + ",\"records\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    out.append(FlightRecordToJson(records[i]));
  }
  out.append("]}");
  return out;
}

}  // namespace warpindex
