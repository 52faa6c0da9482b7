#include "net/fleet.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/exporters.h"

namespace warpindex {
namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Pulls one uint64 counter value out of a replica's metrics document.
uint64_t CounterOf(const JsonValue& metrics, const std::string& name) {
  const JsonValue* counters = metrics.Find("counters");
  if (counters == nullptr) {
    return 0;
  }
  return static_cast<uint64_t>(counters->GetInt(name, 0));
}

double HistP99Of(const JsonValue& metrics, const std::string& name) {
  const JsonValue* hists = metrics.Find("histograms");
  if (hists == nullptr) {
    return 0.0;
  }
  const JsonValue* hist = hists->Find(name);
  if (hist == nullptr) {
    return 0.0;
  }
  return hist->GetDouble("p99", 0.0);
}

}  // namespace

FleetPoller::FleetPoller(FleetPollerOptions options)
    : options_(std::move(options)) {
  for (size_t g = 0; g < options_.groups.size(); ++g) {
    for (size_t r = 0; r < options_.groups[g].size(); ++r) {
      const RouterEndpoint& endpoint = options_.groups[g][r];
      ReplicaState state;
      state.view.group = g;
      state.view.replica = r;
      state.view.instance =
          endpoint.host + ":" + std::to_string(endpoint.port);
      WireClientOptions client_options;
      client_options.host = endpoint.host;
      client_options.port = endpoint.port;
      client_options.timeout_ms = options_.call_timeout_ms;
      client_options.client_id = options_.client_id;
      state.client = std::make_unique<WireClient>(client_options);
      replicas_.push_back(std::move(state));
    }
  }
}

FleetPoller::~FleetPoller() { Stop(); }

Status FleetPoller::Start() {
  if (running_.load(std::memory_order_acquire) ||
      options_.poll_interval_ms <= 0) {
    return Status::Ok();
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { PollLoop(); });
  return Status::Ok();
}

void FleetPoller::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void FleetPoller::PollLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    PollOnce();
    // Sleep in short slices so Stop() is prompt.
    const int interval = std::max(options_.poll_interval_ms, 50);
    for (int waited = 0;
         waited < interval && !stop_.load(std::memory_order_acquire);
         waited += 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

void FleetPoller::PollOnce() {
  // One round at a time; the clients live outside mu_ so a slow or dead
  // replica's timeout never blocks a concurrent render.
  std::lock_guard<std::mutex> poll_lock(poll_mu_);
  const JsonValue request = JsonValue::Object();
  for (ReplicaState& state : replicas_) {
    JsonValue response;
    const Status status =
        state.client->Call(WireType::kStats, request, &response);
    const double now_s = SteadySeconds();
    std::lock_guard<std::mutex> lock(mu_);
    if (!status.ok()) {
      state.view.consecutive_failures += 1;
      state.view.reachable = false;
      continue;
    }
    const JsonValue* metrics = response.Find("metrics");
    state.view.consecutive_failures = 0;
    state.view.reachable = true;
    state.view.draining = response.GetBool("draining", false);
    state.view.metrics =
        metrics != nullptr ? *metrics : JsonValue::Object();
    state.view.requests_total =
        CounterOf(state.view.metrics, "warpindex_net_requests_total");
    state.view.errors_total =
        CounterOf(state.view.metrics, "warpindex_net_errors_total");
    state.view.shed_total =
        CounterOf(state.view.metrics, "warpindex_net_shed_total");
    state.view.p99_wall_ms =
        HistP99Of(state.view.metrics, "warpindex_net_query_wall_ms");
    state.view.p99_cpu_ms =
        HistP99Of(state.view.metrics, "warpindex_net_query_cpu_ms");
    const JsonValue* gauges = state.view.metrics.Find("gauges");
    state.view.ingest_backlog =
        gauges != nullptr &&
                gauges->Find("warpindex_ingest_delta_entries") != nullptr
            ? gauges->GetInt("warpindex_ingest_delta_entries", 0)
            : -1;
    if (state.last_poll_s > 0.0) {
      state.prev_poll_s = state.last_poll_s;
      state.prev_requests_total = state.last_requests_total;
      const double gap_s = now_s - state.prev_poll_s;
      const uint64_t delta =
          state.view.requests_total >= state.prev_requests_total
              ? state.view.requests_total - state.prev_requests_total
              : 0;
      state.view.qps =
          gap_s > 0.0 ? static_cast<double>(delta) / gap_s : 0.0;
    }
    state.last_poll_s = now_s;
    state.last_requests_total = state.view.requests_total;
  }
  std::lock_guard<std::mutex> lock(mu_);
  last_round_s_ = SteadySeconds();
}

void FleetPoller::EnsureFresh() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const double age_s = SteadySeconds() - last_round_s_;
    if (last_round_s_ > 0.0 &&
        age_s * 1000.0 < static_cast<double>(options_.min_poll_gap_ms)) {
      return;
    }
  }
  PollOnce();
}

std::vector<FleetPoller::Replica> FleetPoller::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Replica> out;
  out.reserve(replicas_.size());
  for (const ReplicaState& state : replicas_) {
    out.push_back(state.view);
  }
  return out;
}

std::string FleetPoller::FleetMetricsText() {
  EnsureFresh();
  std::vector<Replica> replicas = Snapshot();
  // Aggregate over replicas whose LAST poll succeeded (a drained or
  // dead replica's stale numbers must not linger in the sums).
  std::vector<const Replica*> live;
  for (const Replica& r : replicas) {
    if (r.reachable) {
      live.push_back(&r);
    }
  }

  // name -> [(instance, value)]; sums derived at render time.
  std::map<std::string, std::vector<std::pair<std::string, int64_t>>>
      counters;
  std::map<std::string, std::vector<std::pair<std::string, int64_t>>>
      gauges;
  struct MergedHist {
    std::vector<double> boundaries;
    std::vector<uint64_t> bucket_counts;
    double sum = 0.0;
    uint64_t count = 0;
    std::vector<std::pair<std::string, uint64_t>> per_instance_count;
    bool mismatch = false;
  };
  std::map<std::string, MergedHist> hists;

  for (const Replica* r : live) {
    if (const JsonValue* c = r->metrics.Find("counters"); c != nullptr) {
      for (const auto& [name, value] : c->members()) {
        counters[name].emplace_back(r->instance, value.AsInt());
      }
    }
    if (const JsonValue* g = r->metrics.Find("gauges"); g != nullptr) {
      for (const auto& [name, value] : g->members()) {
        gauges[name].emplace_back(r->instance, value.AsInt());
      }
    }
    if (const JsonValue* h = r->metrics.Find("histograms"); h != nullptr) {
      for (const auto& [name, hist] : h->members()) {
        MergedHist& merged = hists[name];
        std::vector<double> boundaries;
        std::vector<uint64_t> bucket_counts;
        if (const JsonValue* b = hist.Find("boundaries"); b != nullptr) {
          for (const JsonValue& v : b->items()) {
            boundaries.push_back(v.AsDouble());
          }
        }
        if (const JsonValue* b = hist.Find("bucket_counts");
            b != nullptr) {
          for (const JsonValue& v : b->items()) {
            bucket_counts.push_back(static_cast<uint64_t>(v.AsInt()));
          }
        }
        if (merged.bucket_counts.empty()) {
          merged.boundaries = boundaries;
          merged.bucket_counts = bucket_counts;
        } else if (merged.boundaries == boundaries &&
                   merged.bucket_counts.size() == bucket_counts.size()) {
          for (size_t i = 0; i < bucket_counts.size(); ++i) {
            merged.bucket_counts[i] += bucket_counts[i];
          }
        } else {
          // Mixed-build fleets cannot merge buckets exactly; flag the
          // family rather than publish a wrong merge.
          merged.mismatch = true;
        }
        merged.sum += hist.GetDouble("sum", 0.0);
        const uint64_t count =
            static_cast<uint64_t>(hist.GetInt("count", 0));
        merged.count += count;
        merged.per_instance_count.emplace_back(r->instance, count);
      }
    }
  }

  std::string out;
  out += "# warpindex fleet federation: " + std::to_string(live.size()) +
         "/" + std::to_string(replicas.size()) +
         " replicas reporting\n";
  char buf[32];
  for (const auto& [name, values] : counters) {
    out += "# TYPE " + name + " counter\n";
    int64_t sum = 0;
    for (const auto& [instance, value] : values) {
      std::snprintf(buf, sizeof(buf), "%" PRId64, value);
      out += name + "{instance=\"" + PrometheusEscapeLabelValue(instance) +
             "\"} " + buf + "\n";
      sum += value;
    }
    std::snprintf(buf, sizeof(buf), "%" PRId64, sum);
    out += name + " " + buf + "\n";
  }
  for (const auto& [name, values] : gauges) {
    out += "# TYPE " + name + " gauge\n";
    int64_t sum = 0;
    for (const auto& [instance, value] : values) {
      std::snprintf(buf, sizeof(buf), "%" PRId64, value);
      out += name + "{instance=\"" + PrometheusEscapeLabelValue(instance) +
             "\"} " + buf + "\n";
      sum += value;
    }
    std::snprintf(buf, sizeof(buf), "%" PRId64, sum);
    out += name + " " + buf + "\n";
  }
  for (const auto& [name, merged] : hists) {
    if (merged.mismatch) {
      out += "# " + name +
             ": bucket boundaries differ across replicas; merge "
             "skipped\n";
      continue;
    }
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < merged.bucket_counts.size(); ++i) {
      cumulative += merged.bucket_counts[i];
      out += name + "_bucket{le=\"";
      if (i < merged.boundaries.size()) {
        AppendJsonNumber(merged.boundaries[i], &out);
      } else {
        out += "+Inf";
      }
      std::snprintf(buf, sizeof(buf), "%" PRIu64, cumulative);
      out += "\"} " + std::string(buf) + "\n";
    }
    AppendPrometheusSample(name + "_sum", merged.sum, &out);
    std::snprintf(buf, sizeof(buf), "%" PRIu64, merged.count);
    out += name + "_count " + buf + "\n";
    for (const auto& [instance, count] : merged.per_instance_count) {
      std::snprintf(buf, sizeof(buf), "%" PRIu64, count);
      out += name + "_count{instance=\"" +
             PrometheusEscapeLabelValue(instance) + "\"} " + buf + "\n";
    }
  }
  // Process self-metrics federate too (the "process" object of each
  // replica's document).
  double cpu_sum = 0.0;
  double rss_sum = 0.0;
  int64_t fds_sum = 0;
  std::string cpu_lines;
  std::string rss_lines;
  std::string fds_lines;
  std::string start_lines;
  for (const Replica* r : live) {
    const JsonValue* process = r->metrics.Find("process");
    if (process == nullptr) {
      continue;
    }
    const std::string label =
        "{instance=\"" + PrometheusEscapeLabelValue(r->instance) + "\"}";
    const double cpu = process->GetDouble("cpu_seconds_total", 0.0);
    const double rss = process->GetDouble("resident_memory_bytes", 0.0);
    const int64_t fds = process->GetInt("open_fds", 0);
    cpu_sum += cpu;
    rss_sum += rss;
    fds_sum += fds;
    AppendPrometheusSample("process_cpu_seconds_total" + label, cpu,
                           &cpu_lines);
    AppendPrometheusSample("process_resident_memory_bytes" + label, rss,
                           &rss_lines);
    fds_lines +=
        "process_open_fds" + label + " " + std::to_string(fds) + "\n";
    AppendPrometheusSample("process_start_time_seconds" + label,
                           process->GetDouble("start_time_seconds", 0.0),
                           &start_lines);
  }
  if (!cpu_lines.empty()) {
    out += "# TYPE process_cpu_seconds_total counter\n" + cpu_lines;
    AppendPrometheusSample("process_cpu_seconds_total", cpu_sum, &out);
    out += "# TYPE process_resident_memory_bytes gauge\n" + rss_lines;
    AppendPrometheusSample("process_resident_memory_bytes", rss_sum, &out);
    out += "# TYPE process_open_fds gauge\n" + fds_lines +
           "process_open_fds " + std::to_string(fds_sum) + "\n";
    out += "# TYPE process_start_time_seconds gauge\n" + start_lines;
  }
  return out;
}

std::string FleetPoller::FleetzJson() {
  EnsureFresh();
  const std::vector<Replica> replicas = Snapshot();
  JsonValue rows = JsonValue::Array();
  size_t live = 0;
  for (const Replica& r : replicas) {
    // The fleet page lists who is actually serving: draining and dead
    // replicas disappear (the multi-process smoke asserts this after
    // SIGTERM).
    if (!r.reachable || r.draining ||
        r.consecutive_failures >= options_.drop_after_failures) {
      continue;
    }
    ++live;
    JsonValue row = JsonValue::Object();
    row.Set("group", JsonValue::Uint(r.group));
    row.Set("replica", JsonValue::Uint(r.replica));
    row.Set("instance", JsonValue::Str(r.instance));
    row.Set("qps", JsonValue::Double(r.qps));
    row.Set("p99_wall_ms", JsonValue::Double(r.p99_wall_ms));
    row.Set("p99_cpu_ms", JsonValue::Double(r.p99_cpu_ms));
    row.Set("requests_total", JsonValue::Uint(r.requests_total));
    row.Set("errors_total", JsonValue::Uint(r.errors_total));
    row.Set("shed_total", JsonValue::Uint(r.shed_total));
    if (r.ingest_backlog >= 0) {
      row.Set("ingest_backlog", JsonValue::Int(r.ingest_backlog));
    } else {
      row.Set("ingest_backlog", JsonValue::Null());
    }
    rows.Add(std::move(row));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("tracked", JsonValue::Uint(replicas.size()));
  doc.Set("live", JsonValue::Uint(live));
  doc.Set("replicas", std::move(rows));
  return doc.Render();
}

}  // namespace warpindex
