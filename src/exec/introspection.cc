#include "exec/introspection.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "net/serialize.h"
#include "obs/exporters.h"
#include "obs/profiler.h"

namespace warpindex {
namespace {

JsonValue RTreeHealthJson(const RTreeHealth& h) {
  JsonValue json = JsonValue::Object();
  json.Set("height", JsonValue::Int(h.height));
  json.Set("records", JsonValue::Uint(h.records));
  json.Set("nodes", JsonValue::Uint(h.nodes));
  json.Set("leaves", JsonValue::Uint(h.leaves));
  json.Set("supernodes", JsonValue::Uint(h.supernodes));
  json.Set("pages", JsonValue::Uint(h.pages));
  json.Set("bytes", JsonValue::Uint(h.bytes));
  json.Set("resident_bytes", JsonValue::Uint(h.resident_bytes));
  json.Set("node_capacity", JsonValue::Uint(h.node_capacity));
  json.Set("leaf_occupancy", JsonValue::Double(h.leaf_occupancy));
  json.Set("overlap_ratio", JsonValue::Double(h.overlap_ratio));
  json.Set("dead_space_ratio", JsonValue::Double(h.dead_space_ratio));
  JsonValue levels = JsonValue::Array();
  for (const RTreeHealth::LevelStats& level : h.levels) {
    JsonValue row = JsonValue::Object();
    row.Set("level", JsonValue::Int(level.level));
    row.Set("nodes", JsonValue::Uint(level.nodes));
    row.Set("entries", JsonValue::Uint(level.entries));
    row.Set("avg_occupancy", JsonValue::Double(level.avg_occupancy));
    row.Set("min_occupancy", JsonValue::Double(level.min_occupancy));
    levels.Add(std::move(row));
  }
  json.Set("levels", std::move(levels));
  return json;
}

JsonValue BufferPoolJson(const BufferPool::StatsSnapshot& pool) {
  JsonValue json = JsonValue::Object();
  json.Set("capacity", JsonValue::Uint(pool.capacity));
  json.Set("cached", JsonValue::Uint(pool.cached));
  json.Set("shards", JsonValue::Uint(pool.shards));
  json.Set("hits", JsonValue::Uint(pool.hits));
  json.Set("misses", JsonValue::Uint(pool.misses));
  json.Set("hit_ratio", JsonValue::Double(pool.hit_ratio));
  return json;
}

JsonValue CacheStatsJson(const SemanticCacheStats& stats) {
  JsonValue json = JsonValue::Object();
  json.Set("tier", JsonValue::Str(stats.tier));
  json.Set("lookups", JsonValue::Uint(stats.lookups));
  json.Set("hits", JsonValue::Uint(stats.hits));
  json.Set("misses", JsonValue::Uint(stats.misses));
  json.Set("hit_ratio", JsonValue::Double(stats.hit_ratio));
  json.Set("insertions", JsonValue::Uint(stats.insertions));
  json.Set("invalidations", JsonValue::Uint(stats.invalidations));
  json.Set("evictions", JsonValue::Uint(stats.evictions));
  json.Set("entries", JsonValue::Uint(stats.entries));
  json.Set("bytes", JsonValue::Uint(stats.bytes));
  json.Set("max_bytes", JsonValue::Uint(stats.max_bytes));
  return json;
}

// The /cachez document and the /statusz "cache" section: one row per
// configured tier, executor first.
JsonValue CachezJson(const IntrospectionOptions& options) {
  JsonValue tiers = JsonValue::Array();
  for (const SemanticCache* cache : {options.cache, options.router_cache}) {
    if (cache != nullptr) {
      tiers.Add(CacheStatsJson(cache->TakeStats()));
    }
  }
  JsonValue json = JsonValue::Object();
  json.Set("tiers", std::move(tiers));
  return json;
}

JsonValue FeatureMbrJson(const ShardFeatureBounds& bounds) {
  return bounds.valid ? RectToJson(bounds.mbr) : JsonValue::Null();
}

// One /statusz row per shard: data/index health, serving counters, and
// the pruning MBR — the acceptance surface for "is shard i healthy and
// is pruning actually skipping it".
JsonValue ShardingJson(const ShardedEngine::Health& health) {
  JsonValue json = JsonValue::Object();
  json.Set("num_shards", JsonValue::Uint(health.num_shards));
  json.Set("partitioner",
           JsonValue::Str(PartitionerKindName(health.partitioner)));
  json.Set("queries_total", JsonValue::Uint(health.queries_total));
  json.Set("subqueries_total", JsonValue::Uint(health.subqueries_total));
  json.Set("shards_skipped_total",
           JsonValue::Uint(health.shards_skipped_total));
  JsonValue shards = JsonValue::Array();
  for (const ShardedEngine::ShardStatus& shard : health.shards) {
    JsonValue row = JsonValue::Object();
    row.Set("shard", JsonValue::Uint(shard.shard_index));
    row.Set("sequences", JsonValue::Uint(shard.health.dataset_sequences));
    row.Set("live", JsonValue::Uint(shard.health.live_sequences));
    row.Set("index_entries", JsonValue::Uint(shard.health.index_entries));
    row.Set("queries", JsonValue::Uint(shard.queries));
    row.Set("skipped", JsonValue::Uint(shard.skipped));
    row.Set("feature_mbr", FeatureMbrJson(shard.bounds));
    row.Set("rtree", RTreeHealthJson(shard.health.index));
    row.Set("buffer_pool", shard.health.has_pool
                               ? BufferPoolJson(shard.health.pool)
                               : JsonValue::Null());
    shards.Add(std::move(row));
  }
  json.Set("shards", std::move(shards));
  return json;
}

// One /tracez row: the tail summary plus the full stitched span tree.
JsonValue CompletedTraceJson(const CompletedTrace& trace) {
  size_t shards = 0;
  for (const TraceSpan& span : trace.trace.spans()) {
    if (span.name == "shard") {
      ++shards;
    }
  }
  JsonValue json = JsonValue::Object();
  json.Set("seq", JsonValue::Uint(trace.seq));
  json.Set("trace_id", JsonValue::Str(TraceIdHex(trace.trace.trace_id())));
  json.Set("timestamp_ms", JsonValue::Double(trace.timestamp_ms));
  json.Set("method", JsonValue::Str(trace.method));
  json.Set("epsilon", JsonValue::Double(trace.epsilon));
  json.Set("query_length", JsonValue::Uint(trace.query_length));
  json.Set("matches", JsonValue::Uint(trace.matches));
  json.Set("wall_ms", JsonValue::Double(trace.wall_ms));
  json.Set("cpu_ms", JsonValue::Double(trace.cpu_ms));
  json.Set("errored", JsonValue::Bool(trace.errored));
  json.Set("keep", JsonValue::Str(TraceKeepName(trace.keep)));
  json.Set("shards", JsonValue::Uint(shards));
  json.Set("shard_skew_ratio",
           JsonValue::Double(TraceStore::ShardSkewRatio(trace.trace)));
  json.Set("spans", SpansToJson(trace.trace.spans()));
  return json;
}

// The trace-store admission counters shared by /tracez and the /statusz
// "trace_store" section.
void SetTraceStoreCounters(const TraceStore& store, JsonValue* json) {
  json->Set("offered", JsonValue::Uint(store.offered()));
  json->Set("kept", JsonValue::Uint(store.kept()));
  json->Set("kept_slow", JsonValue::Uint(store.kept_slow()));
  json->Set("kept_error", JsonValue::Uint(store.kept_error()));
  json->Set("kept_shard_skew", JsonValue::Uint(store.kept_skew()));
  json->Set("kept_sampled", JsonValue::Uint(store.kept_sampled()));
}

JsonValue TracezListJson(const TraceStore* store) {
  JsonValue json = JsonValue::Object();
  JsonValue rows = JsonValue::Array();
  if (store == nullptr) {
    json.Set("count", JsonValue::Int(0));
    json.Set("traces", std::move(rows));
    return json;
  }
  const std::vector<CompletedTrace> traces = store->Snapshot();
  for (const CompletedTrace& trace : traces) {
    rows.Add(CompletedTraceJson(trace));
  }
  json.Set("count", JsonValue::Uint(traces.size()));
  SetTraceStoreCounters(*store, &json);
  json.Set("traces", std::move(rows));
  return json;
}

// One /statusz row per ingest shard: base vs delta split, write rate,
// and compaction history — the acceptance surface for "is the write
// path keeping up and is the compactor draining it".
JsonValue IngestJson(const IngestEngine::Health& health) {
  JsonValue json = JsonValue::Object();
  json.Set("num_shards", JsonValue::Uint(health.num_shards));
  json.Set("partitioner",
           JsonValue::Str(PartitionerKindName(health.partitioner)));
  json.Set("epoch", JsonValue::Uint(health.epoch));
  json.Set("live", JsonValue::Uint(health.live_sequences));
  json.Set("id_space", JsonValue::Uint(health.id_space));
  json.Set("inserts_total", JsonValue::Uint(health.inserts_total));
  json.Set("deletes_total", JsonValue::Uint(health.deletes_total));
  json.Set("compactions_total", JsonValue::Uint(health.compactions_total));
  json.Set("cut_rebalances_total",
           JsonValue::Uint(health.cut_rebalances_total));
  json.Set("compaction_backlog", JsonValue::Uint(health.compaction_backlog));
  JsonValue shards = JsonValue::Array();
  for (const IngestEngine::ShardStatus& shard : health.shards) {
    JsonValue row = JsonValue::Object();
    row.Set("shard", JsonValue::Uint(shard.shard_index));
    row.Set("base_sequences", JsonValue::Uint(shard.base_sequences));
    row.Set("delta_entries", JsonValue::Uint(shard.delta_entries));
    row.Set("tombstones", JsonValue::Uint(shard.tombstones));
    row.Set("writes_total", JsonValue::Uint(shard.writes_total));
    row.Set("write_rate_per_s", JsonValue::Double(shard.write_rate_per_s));
    row.Set("compactions", JsonValue::Uint(shard.compactions));
    row.Set("last_compaction_ms",
            JsonValue::Double(shard.last_compaction_ms));
    row.Set("feature_mbr", FeatureMbrJson(shard.bounds));
    row.Set("rtree", RTreeHealthJson(shard.base_health.index));
    shards.Add(std::move(row));
  }
  json.Set("shards", std::move(shards));
  return json;
}

// The router process's /statusz section: topology as learned at
// handshake plus the hedging/retry counters — the acceptance surface
// for "did the hedge fire and which replica answered".
JsonValue RouterJson(const Router& router) {
  const Router::Stats stats = router.stats();
  JsonValue json = JsonValue::Object();
  json.Set("num_groups", JsonValue::Uint(stats.num_groups));
  json.Set("num_shards", JsonValue::Uint(stats.num_shards));
  json.Set("partitioner",
           JsonValue::Str(PartitionerKindName(router.partitioner())));
  json.Set("queries_total", JsonValue::Uint(stats.queries));
  json.Set("subrequests_total", JsonValue::Uint(stats.subrequests));
  json.Set("hedges_total", JsonValue::Uint(stats.hedges));
  json.Set("retries_total", JsonValue::Uint(stats.retries));
  json.Set("failed_subrequests_total",
           JsonValue::Uint(stats.failed_subrequests));
  json.Set("hedge_delay_ms", JsonValue::Double(stats.hedge_delay_ms));
  JsonValue groups = JsonValue::Array();
  const std::vector<RouterGroup>& router_groups = router.groups();
  for (size_t g = 0; g < router_groups.size(); ++g) {
    JsonValue replicas = JsonValue::Array();
    for (const RouterEndpoint& replica : router_groups[g].replicas) {
      replicas.Add(JsonValue::Str(replica.host + ":" +
                                  std::to_string(replica.port)));
    }
    JsonValue shards = JsonValue::Array();
    for (const uint32_t shard : router_groups[g].shards) {
      shards.Add(JsonValue::Uint(shard));
    }
    JsonValue row = JsonValue::Object();
    row.Set("group", JsonValue::Uint(g));
    row.Set("replicas", std::move(replicas));
    row.Set("shards", std::move(shards));
    groups.Add(std::move(row));
  }
  json.Set("groups", std::move(groups));
  return json;
}

// A shard-server process's /statusz section: identity, served shards,
// transport counters, and admission-shed totals.
JsonValue ShardServerJson(const ShardServer& server) {
  const WireServerStats stats = server.server().stats();
  const AdmissionController& admission = server.server().admission();
  JsonValue json = JsonValue::Object();
  json.Set("group", JsonValue::Int(server.group()));
  json.Set("replica", JsonValue::Int(server.replica()));
  json.Set("port", JsonValue::Uint(server.port()));
  json.Set("manifest_num_shards",
           JsonValue::Uint(server.manifest_num_shards()));
  json.Set("partitioner",
           JsonValue::Str(PartitionerKindName(server.partitioner())));
  json.Set("draining", JsonValue::Bool(stats.draining));
  json.Set("connections_total", JsonValue::Uint(stats.connections_total));
  json.Set("active_connections", JsonValue::Int(stats.active_connections));
  json.Set("requests_total", JsonValue::Uint(stats.requests_total));
  json.Set("errors_total", JsonValue::Uint(stats.errors_total));
  json.Set("shed_total", JsonValue::Uint(stats.shed_total));
  json.Set("inflight", JsonValue::Int(stats.inflight));
  JsonValue admission_json = JsonValue::Object();
  admission_json.Set("admitted_total",
                     JsonValue::Uint(admission.admitted_total()));
  admission_json.Set("shed_quota_total",
                     JsonValue::Uint(admission.shed_quota_total()));
  admission_json.Set("shed_overload_total",
                     JsonValue::Uint(admission.shed_overload_total()));
  json.Set("admission", std::move(admission_json));
  JsonValue shards = JsonValue::Array();
  for (const ShardServer::ServedShard& served : server.served()) {
    JsonValue row = JsonValue::Object();
    row.Set("shard", JsonValue::Uint(served.shard));
    row.Set("sequences", JsonValue::Uint(served.sequences));
    row.Set("live", JsonValue::Uint(served.live));
    shards.Add(std::move(row));
  }
  json.Set("shards", std::move(shards));
  return json;
}

// "<key>=<value>" from a query string, or empty when absent.
std::string QueryParam(const std::string& query, const std::string& key) {
  const std::string prefix = key + "=";
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) {
      end = query.size();
    }
    const std::string param = query.substr(pos, end - pos);
    if (param.rfind(prefix, 0) == 0) {
      return param.substr(prefix.size());
    }
    pos = end + 1;
  }
  return "";
}

// "id=<hex>" from a /tracez query string, or empty.
std::string TraceIdParam(const std::string& query) {
  return QueryParam(query, "id");
}

// Strict numeric parses for /profilez: the whole string must be the
// number (a trailing "abc" is a 400, not silently ignored).
bool ParseDoubleParam(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

// The range test runs before the cast: converting a NaN, an infinity or
// a double beyond int is undefined behaviour. NaN fails both compares.
bool ParseIntParam(const std::string& text, int* out) {
  double value = 0.0;
  if (!ParseDoubleParam(text, &value) ||
      !(value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max()) ||
      value != std::trunc(value)) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

// The registry behind whichever engine flavor is being served.
MetricsRegistry* RegistryOf(const IntrospectionOptions& options) {
  if (options.engine != nullptr) {
    return &options.engine->metrics();
  }
  if (options.sharded != nullptr) {
    return &options.sharded->metrics();
  }
  if (options.ingest != nullptr) {
    return &options.ingest->metrics();
  }
  if (options.router != nullptr) {
    return &options.router->metrics();
  }
  if (options.shard_server != nullptr) {
    // Wire-plane processes (the CLI's shard-serve) register their
    // warpindex_net_* series in the process-global registry.
    return &MetricsRegistry::Global();
  }
  return nullptr;
}

// The /statusz "dataset" and "engine" sections.
JsonValue DatasetJson(size_t sequences, size_t live, size_t index_entries) {
  JsonValue json = JsonValue::Object();
  json.Set("sequences", JsonValue::Uint(sequences));
  json.Set("live", JsonValue::Uint(live));
  json.Set("index_entries", JsonValue::Uint(index_entries));
  return json;
}

JsonValue EngineJson(const EngineOptions& options) {
  JsonValue json = JsonValue::Object();
  json.Set("page_size_bytes", JsonValue::Uint(options.page_size_bytes));
  json.Set("index_buffer_pages", JsonValue::Uint(options.index_buffer_pages));
  return json;
}

}  // namespace

std::string StatuszJson(const IntrospectionOptions& options,
                        double uptime_s) {
  const BuildInfo build = GetBuildInfo();
  JsonValue build_json = JsonValue::Object();
  build_json.Set("name", JsonValue::Str("warpindex"));
  build_json.Set("version", JsonValue::Str(build.version));
  build_json.Set("compiler", JsonValue::Str(build.compiler));
  build_json.Set("build_type", JsonValue::Str(build.build_type));
  build_json.Set("cxx_standard", JsonValue::Int(__cplusplus));
  JsonValue doc = JsonValue::Object();
  doc.Set("build", std::move(build_json));
  doc.Set("uptime_s", JsonValue::Double(uptime_s));

  // One ingest snapshot reused for the dataset line and the "ingest"
  // section (TakeHealthSnapshot traverses every base index).
  IngestEngine::Health ingest_health;
  if (options.ingest != nullptr) {
    ingest_health = options.ingest->TakeHealthSnapshot();
  }

  Engine::Health health;  // single-engine sections (empty when sharded)
  if (options.engine != nullptr) {
    health = options.engine->TakeHealthSnapshot();
    doc.Set("dataset", DatasetJson(health.dataset_sequences,
                                   health.live_sequences,
                                   health.index_entries));
    doc.Set("engine", EngineJson(options.engine->options()));
  } else if (options.sharded != nullptr) {
    const ShardedEngine& sharded = *options.sharded;
    size_t index_entries = 0;
    // Aggregate dataset view; the per-shard split is in "sharding".
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      index_entries += sharded.shard(s).feature_index().size();
    }
    doc.Set("dataset", DatasetJson(sharded.total_sequences(),
                                   sharded.live_size(), index_entries));
    doc.Set("engine", EngineJson(sharded.shard(0).options()));
  } else if (options.ingest != nullptr) {
    size_t index_entries = 0;
    size_t delta_entries = 0;
    for (const IngestEngine::ShardStatus& shard : ingest_health.shards) {
      index_entries += shard.base_health.index_entries;
      delta_entries += shard.delta_entries;
    }
    JsonValue dataset =
        DatasetJson(ingest_health.id_space, ingest_health.live_sequences,
                    index_entries);
    dataset.Set("delta_entries", JsonValue::Uint(delta_entries));
    doc.Set("dataset", std::move(dataset));
    doc.Set("engine", EngineJson(options.ingest->options().engine));
  }

  JsonValue executor;
  if (options.executor != nullptr) {
    const QueryExecutor::Snapshot exec = options.executor->TakeSnapshot();
    executor = JsonValue::Object();
    executor.Set("threads", JsonValue::Uint(exec.num_threads));
    executor.Set("in_flight", JsonValue::Int(exec.in_flight));
    executor.Set("queue_depth", JsonValue::Uint(exec.queue_depth));
    executor.Set("queries_total", JsonValue::Uint(exec.queries_total));
    executor.Set("batches_total", JsonValue::Uint(exec.batches_total));
  }
  doc.Set("executor", std::move(executor));

  doc.Set("buffer_pool", options.engine != nullptr && health.has_pool
                             ? BufferPoolJson(health.pool)
                             : JsonValue::Null());

  // Single-engine index detail and cascade plan; the sharded R-trees
  // live per shard inside "sharding".
  if (options.engine != nullptr) {
    doc.Set("rtree", RTreeHealthJson(health.index));
    doc.Set("cascade_plan",
            JsonValue::Str(options.engine->cascade_plan().ToString()));
  } else {
    doc.Set("rtree", JsonValue::Null());
    doc.Set("cascade_plan", JsonValue::Null());
  }

  doc.Set("sharding",
          options.sharded != nullptr
              ? ShardingJson(options.sharded->TakeHealthSnapshot())
              : JsonValue::Null());
  doc.Set("ingest", options.ingest != nullptr ? IngestJson(ingest_health)
                                              : JsonValue::Null());
  doc.Set("router", options.router != nullptr ? RouterJson(*options.router)
                                              : JsonValue::Null());
  doc.Set("shard_server", options.shard_server != nullptr
                              ? ShardServerJson(*options.shard_server)
                              : JsonValue::Null());

  JsonValue recorder_json;
  if (options.flight_recorder != nullptr) {
    const FlightRecorder& recorder = *options.flight_recorder;
    recorder_json = JsonValue::Object();
    recorder_json.Set("capacity", JsonValue::Uint(recorder.capacity()));
    recorder_json.Set("sample_every", JsonValue::Uint(recorder.sample_every()));
    recorder_json.Set("offered", JsonValue::Uint(recorder.offered()));
    recorder_json.Set("recorded", JsonValue::Uint(recorder.recorded()));
  }
  doc.Set("flight_recorder", std::move(recorder_json));

  JsonValue slow_log;
  if (options.slow_log != nullptr) {
    slow_log = JsonValue::Object();
    slow_log.Set("capacity", JsonValue::Uint(options.slow_log->capacity()));
    slow_log.Set("offered", JsonValue::Uint(options.slow_log->offered()));
    slow_log.Set("admission_threshold_ms",
                 JsonValue::Double(options.slow_log->admission_threshold_ms()));
  }
  doc.Set("slow_log", std::move(slow_log));

  doc.Set("cache", options.cache != nullptr || options.router_cache != nullptr
                       ? CachezJson(options)
                       : JsonValue::Null());

  JsonValue trace_store;
  if (options.trace_store != nullptr) {
    const TraceStore& store = *options.trace_store;
    trace_store = JsonValue::Object();
    trace_store.Set("capacity", JsonValue::Uint(store.capacity()));
    trace_store.Set("slow_ms", JsonValue::Double(store.options().slow_ms));
    trace_store.Set("sample_probability",
                    JsonValue::Double(store.options().sample_probability));
    trace_store.Set("skew_ratio",
                    JsonValue::Double(store.options().skew_ratio));
    trace_store.Set("head_sample_every",
                    JsonValue::Uint(store.options().head_sample_every));
    SetTraceStoreCounters(store, &trace_store);
  }
  doc.Set("trace_store", std::move(trace_store));
  return doc.Render();
}

// Index footprint gauges, refreshed from the R-tree health at scrape
// time (summed over shards): the paged size the disk cost model charges,
// and the bytes the node entry arrays hold in memory.
void SetIndexGauges(const IntrospectionOptions& options,
                    MetricsRegistry* registry) {
  std::vector<RTreeHealth> trees;
  if (options.engine != nullptr) {
    trees.push_back(options.engine->TakeHealthSnapshot().index);
  } else if (options.sharded != nullptr) {
    for (const ShardedEngine::ShardStatus& shard :
         options.sharded->TakeHealthSnapshot().shards) {
      trees.push_back(shard.health.index);
    }
  } else if (options.ingest != nullptr) {
    for (const IngestEngine::ShardStatus& shard :
         options.ingest->TakeHealthSnapshot().shards) {
      trees.push_back(shard.base_health.index);
    }
  }
  if (trees.empty()) {
    return;
  }
  int64_t page_bytes = 0;
  int64_t resident_bytes = 0;
  for (const RTreeHealth& tree : trees) {
    page_bytes += static_cast<int64_t>(tree.bytes);
    resident_bytes += static_cast<int64_t>(tree.resident_bytes);
  }
  registry
      ->GetGauge("warpindex_index_page_bytes",
                 "feature-index pages times the page size")
      ->Set(page_bytes);
  registry
      ->GetGauge("warpindex_index_resident_bytes",
                 "bytes the feature-index node entries hold in memory")
      ->Set(resident_bytes);
}

void RegisterIntrospectionRoutes(IntrospectionServer* server,
                                 const IntrospectionOptions& options) {
  const auto started = std::chrono::steady_clock::now();

  server->Handle("/healthz", [](const HttpRequest&) {
    return HttpResponse{.body = "ok\n"};
  });

  server->Handle("/metrics", [options](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    // ?fleet=1 on a router: the federated page (per-replica instance
    // labels + fleet sums) instead of this process's own registry.
    if (QueryParam(request.query, "fleet") == "1") {
      if (options.fleet == nullptr) {
        response.status = 400;
        response.content_type = "text/plain";
        response.body = "fleet=1 requires a router with a fleet poller\n";
        return response;
      }
      response.body = options.fleet->FleetMetricsText();
      return response;
    }
    MetricsRegistry* registry = RegistryOf(options);
    if (registry != nullptr) {
      SetIndexGauges(options, registry);
    }
    const BuildInfo build = GetBuildInfo();
    const ProcessSelfMetrics process = CollectProcessSelfMetrics();
    response.body =
        registry != nullptr
            ? MetricsToPrometheusText(registry->TakeSnapshot(), &build,
                                      &process)
            : MetricsToPrometheusText(MetricsRegistry::Snapshot{}, &build,
                                      &process);
    return response;
  });

  server->Handle("/statusz", [options, started](const HttpRequest&) {
    const double uptime_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    HttpResponse response;
    response.content_type = "application/json";
    response.body = StatuszJson(options, uptime_s);
    return response;
  });

  server->Handle("/slowlog", [options](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = FlightRecordsToJson(
        options.slow_log != nullptr ? options.slow_log->Snapshot()
                                    : std::vector<FlightRecord>{});
    return response;
  });

  server->Handle("/flightrecorder", [options](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = FlightRecordsToJson(
        options.flight_recorder != nullptr
            ? options.flight_recorder->Snapshot()
            : std::vector<FlightRecord>{});
    return response;
  });

  server->Handle("/profilez", [](const HttpRequest& request) {
    HttpResponse response;
    // ?seconds=N&hz=M&format=speedscope|folded. Sampling blocks this
    // handler thread for the window; serving continues meanwhile.
    double seconds = 5.0;
    int hz = 99;
    const std::string seconds_param = QueryParam(request.query, "seconds");
    const std::string hz_param = QueryParam(request.query, "hz");
    const std::string format = QueryParam(request.query, "format");
    if (!seconds_param.empty() &&
        !ParseDoubleParam(seconds_param, &seconds)) {
      response.status = 400;
      response.content_type = "text/plain";
      response.body = "invalid seconds parameter\n";
      return response;
    }
    if (!hz_param.empty() && !ParseIntParam(hz_param, &hz)) {
      response.status = 400;
      response.content_type = "text/plain";
      response.body = "invalid hz parameter\n";
      return response;
    }
    if (!format.empty() && format != "speedscope" && format != "folded") {
      response.status = 400;
      response.content_type = "text/plain";
      response.body = "format must be speedscope or folded\n";
      return response;
    }
    Profile profile;
    const Status status =
        CpuProfiler::Global().Collect(seconds, hz, &profile);
    if (!status.ok()) {
      // A profile already in flight is a conflict; bad parameters and
      // unsupported platforms are the client's problem.
      response.status =
          status.code() == StatusCode::kFailedPrecondition ? 409 : 400;
      response.content_type = "text/plain";
      response.body = std::string(status.message()) + "\n";
      return response;
    }
    if (format == "folded") {
      response.content_type = "text/plain; charset=utf-8";
      response.body = profile.FoldedText();
    } else {
      response.content_type = "application/json";
      response.body = profile.SpeedscopeJson();
    }
    return response;
  });

  if (options.fleet != nullptr) {
    FleetPoller* fleet = options.fleet;
    server->Handle("/fleetz", [fleet](const HttpRequest&) {
      HttpResponse response;
      response.content_type = "application/json";
      response.body = fleet->FleetzJson();
      return response;
    });
  }

  server->Handle("/cachez", [options](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = CachezJson(options).Render();
    return response;
  });

  server->Handle("/tracez", [options](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    const std::string id_hex = TraceIdParam(request.query);
    if (id_hex.empty()) {
      response.body = TracezListJson(options.trace_store).Render();
      return response;
    }
    const uint64_t trace_id = ParseTraceIdHex(id_hex);
    CompletedTrace trace;
    if (trace_id == 0 || options.trace_store == nullptr ||
        !options.trace_store->Find(trace_id, &trace)) {
      JsonValue error = JsonValue::Object();
      error.Set("error", JsonValue::Str("no retained trace"));
      error.Set("id", JsonValue::Str(id_hex));
      response.status = 404;
      response.body = error.Render();
      return response;
    }
    response.body = CompletedTraceJson(trace).Render();
    return response;
  });
}

}  // namespace warpindex
