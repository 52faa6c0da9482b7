// Concurrent query execution over an engine: the server core's serving
// path. The executor serves any EngineLike — a single Engine or the
// partitioned IngestEngine (or its write-free ShardedEngine form), which
// borrows this executor's pool for its own partition fan-out (see
// shard/fanout.h).
//
// The executor owns a fixed ThreadPool and runs range queries of any
// MethodKind over it: Submit() enqueues one query and returns a future;
// SubmitBatch() runs a whole workload and blocks until every result is
// in, reporting batch wall time and throughput. Queries are
// embarrassingly parallel (the Engine's read path is const and
// thread-safe; see core/engine.h), so N workers give ~N× throughput
// until memory bandwidth saturates. Intra-query parallelism is the
// partition fan-out of a partitioned engine attached to this pool
// (shard/fanout.h); a single Engine runs each query on one worker.
//
// Each worker keeps a DtwScratch reused across every query it executes,
// so steady-state serving performs no per-query DP-row allocations.
//
// Observability: the executor registers into the engine's metrics
// registry — a queue-wait histogram (submit → execution start), an
// in-flight gauge, query/batch counters, and a batch-latency histogram.
// With BatchOptions::collect_traces each query's span tree is recorded by
// its worker into a per-query Trace (traces are single-writer objects;
// sharded queries stitch per-shard child traces via TraceContext — see
// obs/trace.h). The batch result carries one per query, in request
// order — export them with Engine::ExportTrace tagged by query index.
// With QueryExecutorOptions::trace_store set, the executor additionally
// head-gates its own traces on untraced queries and offers every
// finished (or thrown) trace for tail-based retention behind /tracez.
//
// Thread-safety: Submit/SubmitBatch may be called from
// multiple threads concurrently. Do not mutate the engine (Insert/
// Remove/Rebuild*) while queries are in flight.

#ifndef WARPINDEX_EXEC_QUERY_EXECUTOR_H_
#define WARPINDEX_EXEC_QUERY_EXECUTOR_H_

#include <future>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "exec/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/slow_log.h"
#include "obs/trace_store.h"

namespace warpindex {

class IngestEngine;
class SemanticCache;

struct QueryExecutorOptions {
  // Worker count; 0 picks std::thread::hardware_concurrency().
  size_t num_threads = 0;
  // Optional always-on query history sinks (borrowed; must outlive the
  // executor). Every completed query is offered to both — the recorder
  // samples, the slow log keeps the worst-K — feeding /flightrecorder
  // and /slowlog (see exec/introspection.h).
  FlightRecorder* flight_recorder = nullptr;
  SlowQueryLog* slow_log = nullptr;
  // Optional tail-sampled trace retention (borrowed; must outlive the
  // executor). When set, queries that arrive WITHOUT a caller trace are
  // traced by the executor itself (gated by TraceStore::ShouldTrace) and
  // every finished trace — executor-created or caller-supplied — is
  // offered for the tail keep/drop decision, feeding /tracez. Flight and
  // slow-log records carry the trace_id for cross-linking. Without a
  // store (and no caller trace) the hot path stays null-pointer-test
  // only.
  TraceStore* trace_store = nullptr;
  // Optional semantic result cache (borrowed; must outlive the
  // executor). When set, every range query consults it before touching
  // the engine (ε-subsumption reuse; see cache/semantic_cache.h) and
  // populates it on a miss, and SearchKnn() reuses / bound-seeds from
  // it. Answers are bit-identical with or without the cache; hits are
  // attributed in SearchCost::cache_hits, the flight recorder's
  // cache_hit tier, and the warpindex_cache_executor_* metrics.
  SemanticCache* cache = nullptr;
};

// One range query of a batch.
struct QueryRequest {
  MethodKind method = MethodKind::kTwSimSearch;
  Sequence query;
  double epsilon = 0.0;
};

struct BatchOptions {
  // Record a Trace per query (filled by the executing worker).
  bool collect_traces = false;
};

struct BatchResult {
  // One entry per request, in request order.
  std::vector<SearchResult> results;
  // One trace per request (request order); empty unless collect_traces.
  std::vector<Trace> traces;
  // Wall time of the whole batch and the resulting throughput.
  double wall_ms = 0.0;
  double queries_per_sec = 0.0;
};

class QueryExecutor {
 public:
  // `engine` is borrowed and must outlive the executor.
  explicit QueryExecutor(const EngineLike* engine,
                         QueryExecutorOptions options = {});

  // Drains in-flight work (ThreadPool shutdown).
  ~QueryExecutor() = default;

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  // Enqueues one query; the future carries the result (or the exception
  // the query threw). `trace` (optional, caller-owned, must outlive the
  // future's completion) is filled by the executing worker.
  std::future<SearchResult> Submit(MethodKind kind, Sequence query,
                                   double epsilon, Trace* trace = nullptr);

  // Runs `requests` over the pool and blocks until all results are in.
  BatchResult SubmitBatch(const std::vector<QueryRequest>& requests,
                          const BatchOptions& batch_options = {});

  // Exact kNN through the semantic cache (when configured): a stored
  // kNN answer with k' >= k is returned directly; otherwise a stored
  // range answer for the same query seeds the engine's pruning bound
  // with the exact k-th distance (SearchKnnSeeded). Without a cache this
  // is engine().SearchKnn() verbatim. Answers are identical in every
  // case. Runs on the calling thread.
  KnnResult SearchKnn(const Sequence& query, size_t k,
                      Trace* trace = nullptr);

  const EngineLike& engine() const { return *engine_; }
  size_t num_threads() const { return pool_.num_threads(); }
  ThreadPool& pool() { return pool_; }

  // ---- Write submission (streaming ingest; see docs/INGEST.md).
  //
  // Wires the executor's pool as the engine's write path: SubmitInsert /
  // SubmitDelete enqueue the mutation like a query and return a future
  // for its outcome, so a serving loop drives reads AND writes through
  // one pool with one backpressure signal (queue_depth). Requires the
  // ingest engine to be the engine this executor serves (its write path
  // is internally synchronized against its own queries — the
  // no-mutation-while-querying rule of Engine does NOT apply to it).
  // Wire before serving; not thread-safe against in-flight submissions.
  void AttachIngest(IngestEngine* ingest) { ingest_ = ingest; }
  IngestEngine* ingest() const { return ingest_; }

  // Enqueues one insert; the future carries the assigned global id (or
  // the exception the write threw). Requires AttachIngest.
  std::future<SequenceId> SubmitInsert(Sequence s);

  // Enqueues one delete; the future carries Delete()'s result. Requires
  // AttachIngest.
  std::future<bool> SubmitDelete(SequenceId id);

  // Point-in-time serving-path gauges for live introspection (/statusz).
  // Safe to call concurrently with queries; values are relaxed atomic
  // reads, coherent enough for a dashboard.
  struct Snapshot {
    size_t num_threads = 0;
    size_t queue_depth = 0;
    int64_t in_flight = 0;
    uint64_t queries_total = 0;
    uint64_t batches_total = 0;
  };
  Snapshot TakeSnapshot() const;

 private:
  // Runs one query on the calling thread with its worker scratch:
  // cache consult and populate, executor-initiated tracing, trace offer
  // and flight record.
  SearchResult RunQuery(MethodKind kind, const Sequence& query,
                        double epsilon, Trace* trace);

  // Offers a finished query to the configured flight recorder / slow
  // log (no-op when neither is set). `trace_id` (0 = untraced) links the
  // record to its /tracez entry; `cache_tier` marks which cache answered
  // (kNone when the engine ran).
  void RecordFlight(MethodKind kind, const Sequence& query, double epsilon,
                    const SearchResult& result, uint64_t trace_id,
                    CacheTier cache_tier = CacheTier::kNone) const;

  // Offers a finished trace to the trace store's tail sampler (no-op
  // without a store).
  void OfferTrace(MethodKind kind, const Sequence& query, double epsilon,
                  const Trace& trace, size_t matches, double wall_ms,
                  double cpu_ms, bool errored) const;

  DtwScratch* CurrentWorkerScratch();

  const EngineLike* engine_;
  IngestEngine* ingest_ = nullptr;
  QueryExecutorOptions options_;
  ThreadPool pool_;
  // One scratch per worker, indexed by ThreadPool::current_worker_index().
  std::vector<std::unique_ptr<DtwScratch>> worker_scratch_;

  // Metric handles (engine's registry).
  Counter* queries_total_ = nullptr;
  Counter* batches_total_ = nullptr;
  Gauge* inflight_ = nullptr;
  Histogram* queue_wait_ms_ = nullptr;
  Histogram* batch_ms_ = nullptr;
};

}  // namespace warpindex

#endif  // WARPINDEX_EXEC_QUERY_EXECUTOR_H_
