// Wires the serving stack into the introspection HTTP server
// (obs/httpd.h): one call registers every operator-facing endpoint over
// an Engine and (optionally) its QueryExecutor, FlightRecorder, and
// SlowQueryLog.
//
// Endpoints (reference with sample payloads in docs/OBSERVABILITY.md):
//
//   /healthz          liveness: "ok\n" while the process serves
//   /metrics          Prometheus text exposition of the engine registry
//                     (plus the warpindex_build_info info metric)
//   /statusz          JSON: build info, uptime, executor gauges,
//                     buffer-pool hit ratio, R-tree health, the cascade
//                     plan, recorder/slow-log/trace-store state
//   /slowlog          JSON: the worst-K queries by latency, slowest
//                     first, with per-stage timings and prune counters
//   /flightrecorder   JSON: the last N completed queries, oldest first
//   /tracez           JSON: the tail-sampled trace store — recent
//                     stitched traces with full span trees; ?id=<hex>
//                     fetches one trace by the trace_id that /slowlog
//                     and /flightrecorder rows carry
//   /cachez           JSON: one row per semantic-cache tier (executor
//                     and/or router) — lookups, hits, misses, hit
//                     ratio, entries, bytes vs. budget, invalidations,
//                     evictions (cache/semantic_cache.h)
//
// Every handler renders from the snapshot APIs (Engine::
// TakeHealthSnapshot, Engine::cascade_plan, BufferPool::
// TakeStatsSnapshot, QueryExecutor::TakeSnapshot, FlightRecorder/
// SlowQueryLog::Snapshot), all of which are safe against in-flight
// queries — scraping never pauses serving. Do not mutate the engine
// (Insert/Remove/Rebuild*) while the server is running; the same
// exclusion rule as for queries (docs/CONCURRENCY.md).

#ifndef WARPINDEX_EXEC_INTROSPECTION_H_
#define WARPINDEX_EXEC_INTROSPECTION_H_

#include <string>

#include "cache/semantic_cache.h"
#include "core/engine.h"
#include "exec/query_executor.h"
#include "ingest/ingest_engine.h"
#include "net/fleet.h"
#include "net/router.h"
#include "net/shard_server.h"
#include "obs/exporters.h"  // kWarpIndexVersion, GetBuildInfo
#include "obs/flight_recorder.h"
#include "obs/httpd.h"
#include "obs/slow_log.h"
#include "obs/trace_store.h"
#include "shard/sharded_engine.h"

namespace warpindex {

struct IntrospectionOptions {
  // At most one of `engine` / `sharded` / `ingest` is set: the local
  // serving engine the endpoints describe. Wire-plane processes set
  // `router` or `shard_server` below instead (no local engine). With `sharded`, /statusz
  // renders a "sharding" section with one entry per shard (sequence
  // counts, sub-query/skip counters, feature MBR, and full R-tree
  // health) and /metrics exports the shared registry, including the
  // warpindex_shard_* series. With `ingest`, /statusz renders an
  // "ingest" section instead — epoch, write totals, and per-shard
  // base/delta/compaction state — and /metrics carries the
  // warpindex_ingest_* series (see docs/INGEST.md).
  const Engine* engine = nullptr;
  const ShardedEngine* sharded = nullptr;
  const IngestEngine* ingest = nullptr;
  // Wire-plane roles (net/): a router process sets `router` (and no
  // local engine); a shard-server process sets `shard_server`. Each adds
  // its own /statusz section ("router" with group/hedge/retry state,
  // "shard_server" with served shards, connection counters, and
  // admission-shed totals) and serves /metrics from its registry, so the
  // multi-process smoke test can scrape any process the same way.
  const Router* router = nullptr;
  const ShardServer* shard_server = nullptr;
  // Fleet federation (router processes; net/fleet.h). When set,
  // /metrics?fleet=1 renders the aggregated fleet page and /fleetz the
  // per-replica liveness rows. Mutable: rendering may trigger a poll.
  FleetPoller* fleet = nullptr;
  const QueryExecutor* executor = nullptr;  // optional
  // Semantic-cache tiers (cache/semantic_cache.h), each one /cachez row
  // and part of the /statusz "cache" section: `cache` is the serving
  // process's engine-side (executor) tier, `router_cache` the router's
  // wire-side tier. Either, both, or neither may be set.
  const SemanticCache* cache = nullptr;
  const SemanticCache* router_cache = nullptr;
  const FlightRecorder* flight_recorder = nullptr;
  const SlowQueryLog* slow_log = nullptr;
  // Tail-sampled trace store behind /tracez (obs/trace_store.h).
  const TraceStore* trace_store = nullptr;
};

// Registers /healthz, /metrics, /statusz, /slowlog, /flightrecorder,
// /tracez, and /profilez on `server` (call before Start()), plus
// /fleetz when `options.fleet` is set. All pointers in `options`
// are borrowed and must outlive the server. Null optionals render as
// JSON null in /statusz; /slowlog, /flightrecorder, and /tracez answer
// 404-free with an empty record list (except /tracez?id=<hex>, which is
// 404 when no retained trace has that id).
void RegisterIntrospectionRoutes(IntrospectionServer* server,
                                 const IntrospectionOptions& options);

// The /statusz document (exposed separately so tests and the CLI can
// render it without a socket). `uptime_s` is the caller's serving-start
// clock.
std::string StatuszJson(const IntrospectionOptions& options,
                        double uptime_s);

}  // namespace warpindex

#endif  // WARPINDEX_EXEC_INTROSPECTION_H_
