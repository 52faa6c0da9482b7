#include "exec/introspection.h"

#include <cstdlib>

#include "obs/profiler.h"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/exporters.h"
#include "plan/cascade_planner.h"

namespace warpindex {
namespace {

// Local finite-number formatter (JSON has no Inf/NaN).
std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string RTreeHealthJson(const RTreeHealth& h) {
  std::string out = "{";
  out += "\"height\":" + std::to_string(h.height);
  out += ",\"records\":" + std::to_string(h.records);
  out += ",\"nodes\":" + std::to_string(h.nodes);
  out += ",\"leaves\":" + std::to_string(h.leaves);
  out += ",\"supernodes\":" + std::to_string(h.supernodes);
  out += ",\"pages\":" + std::to_string(h.pages);
  out += ",\"bytes\":" + std::to_string(h.bytes);
  out += ",\"resident_bytes\":" + std::to_string(h.resident_bytes);
  out += ",\"node_capacity\":" + std::to_string(h.node_capacity);
  out += ",\"leaf_occupancy\":" + Num(h.leaf_occupancy);
  out += ",\"overlap_ratio\":" + Num(h.overlap_ratio);
  out += ",\"dead_space_ratio\":" + Num(h.dead_space_ratio);
  out += ",\"levels\":[";
  for (size_t i = 0; i < h.levels.size(); ++i) {
    const RTreeHealth::LevelStats& level = h.levels[i];
    if (i > 0) {
      out.push_back(',');
    }
    out += "{\"level\":" + std::to_string(level.level);
    out += ",\"nodes\":" + std::to_string(level.nodes);
    out += ",\"entries\":" + std::to_string(level.entries);
    out += ",\"avg_occupancy\":" + Num(level.avg_occupancy);
    out += ",\"min_occupancy\":" + Num(level.min_occupancy) + "}";
  }
  out += "]}";
  return out;
}

std::string PlannerJson(const CascadePlanner::Snapshot& p) {
  std::string out = "{";
  out += "\"mode\":" + JsonEscape(PlanModeName(p.mode));
  out += ",\"plans_chosen\":" + std::to_string(p.plans_chosen);
  out += ",\"current_plan\":" + JsonEscape(p.current_plan.ToString());
  out += ",\"stages\":{";
  for (size_t i = 0; i < p.stages.size(); ++i) {
    const CascadePlanner::StageSnapshot& stage = p.stages[i];
    if (i > 0) {
      out.push_back(',');
    }
    out += JsonEscape(std::string(CascadeStageName(stage.stage)));
    out += ":{\"unit_cost_ms\":" + Num(stage.stats.unit_cost_ms);
    out += ",\"pass_rate\":" + Num(stage.stats.pass_rate);
    out += ",\"updates\":" + std::to_string(stage.stats.updates);
    out += std::string(",\"in_current_plan\":") +
           (stage.in_current_plan ? "true" : "false") + "}";
  }
  out += "},\"dtw\":{\"unit_cost_ms\":" + Num(p.dtw.unit_cost_ms);
  out += ",\"pass_rate\":" + Num(p.dtw.pass_rate);
  out += ",\"updates\":" + std::to_string(p.dtw.updates) + "}}";
  return out;
}

std::string BufferPoolJson(const BufferPool::StatsSnapshot& pool) {
  std::string out = "{\"capacity\":" + std::to_string(pool.capacity);
  out += ",\"cached\":" + std::to_string(pool.cached);
  out += ",\"shards\":" + std::to_string(pool.shards);
  out += ",\"hits\":" + std::to_string(pool.hits);
  out += ",\"misses\":" + std::to_string(pool.misses);
  out += ",\"hit_ratio\":" + Num(pool.hit_ratio) + "}";
  return out;
}

std::string CacheStatsJson(const SemanticCacheStats& stats) {
  std::string out = "{\"tier\":" + JsonEscape(stats.tier);
  out += ",\"lookups\":" + std::to_string(stats.lookups);
  out += ",\"hits\":" + std::to_string(stats.hits);
  out += ",\"misses\":" + std::to_string(stats.misses);
  out += ",\"hit_ratio\":" + Num(stats.hit_ratio);
  out += ",\"insertions\":" + std::to_string(stats.insertions);
  out += ",\"invalidations\":" + std::to_string(stats.invalidations);
  out += ",\"evictions\":" + std::to_string(stats.evictions);
  out += ",\"entries\":" + std::to_string(stats.entries);
  out += ",\"bytes\":" + std::to_string(stats.bytes);
  out += ",\"max_bytes\":" + std::to_string(stats.max_bytes) + "}";
  return out;
}

// The /cachez document and the /statusz "cache" section: one row per
// configured tier, executor first.
std::string CachezJson(const IntrospectionOptions& options) {
  std::string out = "{\"tiers\":[";
  bool first = true;
  for (const SemanticCache* cache : {options.cache, options.router_cache}) {
    if (cache == nullptr) {
      continue;
    }
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out += CacheStatsJson(cache->TakeStats());
  }
  out += "]}";
  return out;
}

std::string FeatureMbrJson(const ShardFeatureBounds& bounds) {
  if (!bounds.valid) {
    return "null";
  }
  std::string out = "{\"min\":[";
  for (int d = 0; d < bounds.mbr.dims; ++d) {
    if (d > 0) {
      out.push_back(',');
    }
    out += Num(bounds.mbr.min(d));
  }
  out += "],\"max\":[";
  for (int d = 0; d < bounds.mbr.dims; ++d) {
    if (d > 0) {
      out.push_back(',');
    }
    out += Num(bounds.mbr.max(d));
  }
  out += "]}";
  return out;
}

// One /statusz row per shard: data/index health, serving counters, and
// the pruning MBR — the acceptance surface for "is shard i healthy and
// is pruning actually skipping it".
std::string ShardingJson(const ShardedEngine::Health& health) {
  std::string out = "{\"num_shards\":" + std::to_string(health.num_shards);
  out += ",\"partitioner\":" +
         JsonEscape(PartitionerKindName(health.partitioner));
  out += ",\"queries_total\":" + std::to_string(health.queries_total);
  out += ",\"subqueries_total\":" +
         std::to_string(health.subqueries_total);
  out += ",\"shards_skipped_total\":" +
         std::to_string(health.shards_skipped_total);
  out += ",\"shards\":[";
  for (size_t i = 0; i < health.shards.size(); ++i) {
    const ShardedEngine::ShardStatus& shard = health.shards[i];
    if (i > 0) {
      out.push_back(',');
    }
    out += "{\"shard\":" + std::to_string(shard.shard_index);
    out += ",\"sequences\":" +
           std::to_string(shard.health.dataset_sequences);
    out += ",\"live\":" + std::to_string(shard.health.live_sequences);
    out += ",\"index_entries\":" +
           std::to_string(shard.health.index_entries);
    out += ",\"queries\":" + std::to_string(shard.queries);
    out += ",\"skipped\":" + std::to_string(shard.skipped);
    out += ",\"feature_mbr\":" + FeatureMbrJson(shard.bounds);
    out += ",\"rtree\":" + RTreeHealthJson(shard.health.index);
    out += ",\"buffer_pool\":" +
           (shard.health.has_pool ? BufferPoolJson(shard.health.pool)
                                  : std::string("null"));
    out += "}";
  }
  out += "]}";
  return out;
}

// One /tracez row: the tail summary plus the full stitched span tree.
std::string CompletedTraceJson(const CompletedTrace& trace) {
  std::string out = "{\"seq\":" + std::to_string(trace.seq);
  out += ",\"trace_id\":" + JsonEscape(TraceIdHex(trace.trace.trace_id()));
  out += ",\"timestamp_ms\":" + Num(trace.timestamp_ms);
  out += ",\"method\":" + JsonEscape(trace.method);
  out += ",\"epsilon\":" + Num(trace.epsilon);
  out += ",\"query_length\":" + std::to_string(trace.query_length);
  out += ",\"matches\":" + std::to_string(trace.matches);
  out += ",\"wall_ms\":" + Num(trace.wall_ms);
  out += ",\"cpu_ms\":" + Num(trace.cpu_ms);
  out += std::string(",\"errored\":") + (trace.errored ? "true" : "false");
  out += ",\"keep\":" + JsonEscape(TraceKeepName(trace.keep));
  size_t shards = 0;
  for (const TraceSpan& span : trace.trace.spans()) {
    if (span.name == "shard") {
      ++shards;
    }
  }
  out += ",\"shards\":" + std::to_string(shards);
  out += ",\"shard_skew_ratio\":" +
         Num(TraceStore::ShardSkewRatio(trace.trace));
  out += ",\"spans\":" + TraceToJsonArray(trace.trace) + "}";
  return out;
}

std::string TracezListJson(const TraceStore* store) {
  if (store == nullptr) {
    return "{\"count\":0,\"traces\":[]}";
  }
  const std::vector<CompletedTrace> traces = store->Snapshot();
  std::string out = "{\"count\":" + std::to_string(traces.size());
  out += ",\"offered\":" + std::to_string(store->offered());
  out += ",\"kept\":" + std::to_string(store->kept());
  out += ",\"kept_slow\":" + std::to_string(store->kept_slow());
  out += ",\"kept_error\":" + std::to_string(store->kept_error());
  out += ",\"kept_shard_skew\":" + std::to_string(store->kept_skew());
  out += ",\"kept_sampled\":" + std::to_string(store->kept_sampled());
  out += ",\"traces\":[";
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    out += CompletedTraceJson(traces[i]);
  }
  out += "]}";
  return out;
}

// One /statusz row per ingest shard: base vs delta split, write rate,
// and compaction history — the acceptance surface for "is the write
// path keeping up and is the compactor draining it".
std::string IngestJson(const IngestEngine::Health& health) {
  std::string out = "{\"num_shards\":" + std::to_string(health.num_shards);
  out += ",\"partitioner\":" +
         JsonEscape(PartitionerKindName(health.partitioner));
  out += ",\"epoch\":" + std::to_string(health.epoch);
  out += ",\"live\":" + std::to_string(health.live_sequences);
  out += ",\"id_space\":" + std::to_string(health.id_space);
  out += ",\"inserts_total\":" + std::to_string(health.inserts_total);
  out += ",\"deletes_total\":" + std::to_string(health.deletes_total);
  out += ",\"compactions_total\":" +
         std::to_string(health.compactions_total);
  out += ",\"cut_rebalances_total\":" +
         std::to_string(health.cut_rebalances_total);
  out += ",\"compaction_backlog\":" +
         std::to_string(health.compaction_backlog);
  out += ",\"shards\":[";
  for (size_t i = 0; i < health.shards.size(); ++i) {
    const IngestEngine::ShardStatus& shard = health.shards[i];
    if (i > 0) {
      out.push_back(',');
    }
    out += "{\"shard\":" + std::to_string(shard.shard_index);
    out += ",\"base_sequences\":" + std::to_string(shard.base_sequences);
    out += ",\"delta_entries\":" + std::to_string(shard.delta_entries);
    out += ",\"tombstones\":" + std::to_string(shard.tombstones);
    out += ",\"writes_total\":" + std::to_string(shard.writes_total);
    out += ",\"write_rate_per_s\":" + Num(shard.write_rate_per_s);
    out += ",\"compactions\":" + std::to_string(shard.compactions);
    out += ",\"last_compaction_ms\":" + Num(shard.last_compaction_ms);
    out += ",\"feature_mbr\":" + FeatureMbrJson(shard.bounds);
    out += ",\"rtree\":" + RTreeHealthJson(shard.base_health.index);
    out += "}";
  }
  out += "]}";
  return out;
}

// The router process's /statusz section: topology as learned at
// handshake plus the hedging/retry counters — the acceptance surface
// for "did the hedge fire and which replica answered".
std::string RouterJson(const Router& router) {
  const Router::Stats stats = router.stats();
  std::string out = "{\"num_groups\":" + std::to_string(stats.num_groups);
  out += ",\"num_shards\":" + std::to_string(stats.num_shards);
  out += ",\"partitioner\":" +
         JsonEscape(PartitionerKindName(router.partitioner()));
  out += ",\"queries_total\":" + std::to_string(stats.queries);
  out += ",\"subrequests_total\":" + std::to_string(stats.subrequests);
  out += ",\"hedges_total\":" + std::to_string(stats.hedges);
  out += ",\"retries_total\":" + std::to_string(stats.retries);
  out += ",\"failed_subrequests_total\":" +
         std::to_string(stats.failed_subrequests);
  out += ",\"hedge_delay_ms\":" + Num(stats.hedge_delay_ms);
  out += ",\"groups\":[";
  const std::vector<RouterGroup>& groups = router.groups();
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) {
      out.push_back(',');
    }
    out += "{\"group\":" + std::to_string(g);
    out += ",\"replicas\":[";
    for (size_t r = 0; r < groups[g].replicas.size(); ++r) {
      if (r > 0) {
        out.push_back(',');
      }
      out += JsonEscape(groups[g].replicas[r].host + ":" +
                        std::to_string(groups[g].replicas[r].port));
    }
    out += "],\"shards\":[";
    for (size_t i = 0; i < groups[g].shards.size(); ++i) {
      if (i > 0) {
        out.push_back(',');
      }
      out += std::to_string(groups[g].shards[i]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

// A shard-server process's /statusz section: identity, served shards,
// transport counters, and admission-shed totals.
std::string ShardServerJson(const ShardServer& server) {
  const WireServerStats stats = server.server().stats();
  const AdmissionController& admission = server.server().admission();
  std::string out = "{\"group\":" + std::to_string(server.group());
  out += ",\"replica\":" + std::to_string(server.replica());
  out += ",\"port\":" + std::to_string(server.port());
  out += ",\"manifest_num_shards\":" +
         std::to_string(server.manifest_num_shards());
  out += ",\"partitioner\":" +
         JsonEscape(PartitionerKindName(server.partitioner()));
  out += std::string(",\"draining\":") +
         (stats.draining ? "true" : "false");
  out += ",\"connections_total\":" +
         std::to_string(stats.connections_total);
  out += ",\"active_connections\":" +
         std::to_string(stats.active_connections);
  out += ",\"requests_total\":" + std::to_string(stats.requests_total);
  out += ",\"errors_total\":" + std::to_string(stats.errors_total);
  out += ",\"shed_total\":" + std::to_string(stats.shed_total);
  out += ",\"inflight\":" + std::to_string(stats.inflight);
  out += ",\"admission\":{\"admitted_total\":" +
         std::to_string(admission.admitted_total());
  out += ",\"shed_quota_total\":" +
         std::to_string(admission.shed_quota_total());
  out += ",\"shed_overload_total\":" +
         std::to_string(admission.shed_overload_total()) + "}";
  out += ",\"shards\":[";
  const std::vector<ShardServer::ServedShard> served = server.served();
  for (size_t i = 0; i < served.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    out += "{\"shard\":" + std::to_string(served[i].shard);
    out += ",\"sequences\":" + std::to_string(served[i].sequences);
    out += ",\"live\":" + std::to_string(served[i].live) + "}";
  }
  out += "]}";
  return out;
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

bool ParseIntParam(const std::string& text, int* out) {
  double value = 0.0;
  if (!ParseDoubleParam(text, &value) ||
      value != static_cast<double>(static_cast<int>(value))) {
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

}  // namespace

std::string StatuszJson(const IntrospectionOptions& options,
                        double uptime_s) {
  const BuildInfo build = GetBuildInfo();
  std::string out = "{\"build\":{";
  out += "\"name\":\"warpindex\"";
  out += ",\"version\":" + JsonEscape(build.version);
  out += ",\"compiler\":" + JsonEscape(build.compiler);
  out += ",\"build_type\":" + JsonEscape(build.build_type);
  out += ",\"cxx_standard\":" + std::to_string(__cplusplus);
  out += "},\"uptime_s\":" + Num(uptime_s);

  // One ingest snapshot reused for the dataset line and the "ingest"
  // section (TakeHealthSnapshot traverses every base index).
  IngestEngine::Health ingest_health;
  if (options.ingest != nullptr) {
    ingest_health = options.ingest->TakeHealthSnapshot();
  }

  Engine::Health health;  // single-engine sections (empty when sharded)
  if (options.engine != nullptr) {
    health = options.engine->TakeHealthSnapshot();
    out += ",\"dataset\":{\"sequences\":" +
           std::to_string(health.dataset_sequences);
    out += ",\"live\":" + std::to_string(health.live_sequences);
    out += ",\"index_entries\":" + std::to_string(health.index_entries) +
           "}";
    out += ",\"engine\":{\"page_size_bytes\":" +
           std::to_string(options.engine->options().page_size_bytes);
    out += ",\"index_buffer_pages\":" +
           std::to_string(options.engine->options().index_buffer_pages) +
           "}";
  } else if (options.sharded != nullptr) {
    const ShardedEngine& sharded = *options.sharded;
    size_t index_entries = 0;
    // Aggregate dataset view; the per-shard split is in "sharding".
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      index_entries += sharded.shard(s).feature_index().size();
    }
    out += ",\"dataset\":{\"sequences\":" +
           std::to_string(sharded.total_sequences());
    out += ",\"live\":" + std::to_string(sharded.live_size());
    out += ",\"index_entries\":" + std::to_string(index_entries) + "}";
    const EngineOptions& engine_options = sharded.shard(0).options();
    out += ",\"engine\":{\"page_size_bytes\":" +
           std::to_string(engine_options.page_size_bytes);
    out += ",\"index_buffer_pages\":" +
           std::to_string(engine_options.index_buffer_pages) + "}";
  } else if (options.ingest != nullptr) {
    size_t index_entries = 0;
    size_t delta_entries = 0;
    for (const IngestEngine::ShardStatus& shard : ingest_health.shards) {
      index_entries += shard.base_health.index_entries;
      delta_entries += shard.delta_entries;
    }
    out += ",\"dataset\":{\"sequences\":" +
           std::to_string(ingest_health.id_space);
    out += ",\"live\":" + std::to_string(ingest_health.live_sequences);
    out += ",\"index_entries\":" + std::to_string(index_entries);
    out += ",\"delta_entries\":" + std::to_string(delta_entries) + "}";
    const EngineOptions& engine_options = options.ingest->options().engine;
    out += ",\"engine\":{\"page_size_bytes\":" +
           std::to_string(engine_options.page_size_bytes);
    out += ",\"index_buffer_pages\":" +
           std::to_string(engine_options.index_buffer_pages) + "}";
  }

  if (options.executor != nullptr) {
    const QueryExecutor::Snapshot exec = options.executor->TakeSnapshot();
    out += ",\"executor\":{\"threads\":" +
           std::to_string(exec.num_threads);
    out += ",\"in_flight\":" + std::to_string(exec.in_flight);
    out += ",\"queue_depth\":" + std::to_string(exec.queue_depth);
    out += ",\"queries_total\":" + std::to_string(exec.queries_total);
    out += ",\"batches_total\":" + std::to_string(exec.batches_total) +
           "}";
  } else {
    out += ",\"executor\":null";
  }

  if (options.engine != nullptr && health.has_pool) {
    out += ",\"buffer_pool\":" + BufferPoolJson(health.pool);
  } else {
    out += ",\"buffer_pool\":null";
  }

  // Single-engine index/planner detail; the sharded equivalents live
  // per shard inside "sharding" (each shard has its own R-tree and
  // CascadePlanner).
  if (options.engine != nullptr) {
    out += ",\"rtree\":" + RTreeHealthJson(health.index);
    out += ",\"planner\":" +
           PlannerJson(options.engine->cascade_planner().TakeSnapshot());
  } else {
    out += ",\"rtree\":null,\"planner\":null";
  }

  if (options.sharded != nullptr) {
    out += ",\"sharding\":" +
           ShardingJson(options.sharded->TakeHealthSnapshot());
  } else {
    out += ",\"sharding\":null";
  }

  if (options.ingest != nullptr) {
    out += ",\"ingest\":" + IngestJson(ingest_health);
  } else {
    out += ",\"ingest\":null";
  }

  if (options.router != nullptr) {
    out += ",\"router\":" + RouterJson(*options.router);
  } else {
    out += ",\"router\":null";
  }

  if (options.shard_server != nullptr) {
    out += ",\"shard_server\":" + ShardServerJson(*options.shard_server);
  } else {
    out += ",\"shard_server\":null";
  }

  if (options.flight_recorder != nullptr) {
    const FlightRecorder& recorder = *options.flight_recorder;
    out += ",\"flight_recorder\":{\"capacity\":" +
           std::to_string(recorder.capacity());
    out += ",\"sample_every\":" + std::to_string(recorder.sample_every());
    out += ",\"offered\":" + std::to_string(recorder.offered());
    out += ",\"recorded\":" + std::to_string(recorder.recorded()) + "}";
  } else {
    out += ",\"flight_recorder\":null";
  }

  if (options.slow_log != nullptr) {
    out += ",\"slow_log\":{\"capacity\":" +
           std::to_string(options.slow_log->capacity());
    out += ",\"offered\":" + std::to_string(options.slow_log->offered());
    out += ",\"admission_threshold_ms\":" +
           Num(options.slow_log->admission_threshold_ms()) + "}";
  } else {
    out += ",\"slow_log\":null";
  }

  if (options.cache != nullptr || options.router_cache != nullptr) {
    out += ",\"cache\":" + CachezJson(options);
  } else {
    out += ",\"cache\":null";
  }

  if (options.trace_store != nullptr) {
    const TraceStore& store = *options.trace_store;
    out += ",\"trace_store\":{\"capacity\":" +
           std::to_string(store.capacity());
    out += ",\"slow_ms\":" + Num(store.options().slow_ms);
    out += ",\"sample_probability\":" +
           Num(store.options().sample_probability);
    out += ",\"skew_ratio\":" + Num(store.options().skew_ratio);
    out += ",\"head_sample_every\":" +
           std::to_string(store.options().head_sample_every);
    out += ",\"offered\":" + std::to_string(store.offered());
    out += ",\"kept\":" + std::to_string(store.kept());
    out += ",\"kept_slow\":" + std::to_string(store.kept_slow());
    out += ",\"kept_error\":" + std::to_string(store.kept_error());
    out += ",\"kept_shard_skew\":" + std::to_string(store.kept_skew());
    out += ",\"kept_sampled\":" + std::to_string(store.kept_sampled()) +
           "}";
  } else {
    out += ",\"trace_store\":null";
  }

  out += "}";
  return out;
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
    response.body = CachezJson(options);
    return response;
  });

  server->Handle("/tracez", [options](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    const std::string id_hex = TraceIdParam(request.query);
    if (id_hex.empty()) {
      response.body = TracezListJson(options.trace_store);
      return response;
    }
    const uint64_t trace_id = ParseTraceIdHex(id_hex);
    CompletedTrace trace;
    if (trace_id == 0 || options.trace_store == nullptr ||
        !options.trace_store->Find(trace_id, &trace)) {
      response.status = 404;
      response.body =
          "{\"error\":\"no retained trace\",\"id\":" + JsonEscape(id_hex) +
          "}";
      return response;
    }
    response.body = CompletedTraceJson(trace);
    return response;
  });
}

}  // namespace warpindex
