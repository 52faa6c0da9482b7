#include "exec/query_executor.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include <stdexcept>

#include "cache/semantic_cache.h"
#include "common/timer.h"
#include "ingest/ingest_engine.h"
#include "shard/scatter_gather.h"

namespace warpindex {
namespace {

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Decrements the in-flight gauge on every exit path, including a query
// that throws through the future.
class InflightGuard {
 public:
  explicit InflightGuard(Gauge* gauge) : gauge_(gauge) {}
  ~InflightGuard() { gauge_->Decrement(); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  Gauge* gauge_;
};

size_t DefaultThreads(size_t requested) {
  if (requested > 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

QueryExecutor::QueryExecutor(const EngineLike* engine,
                             QueryExecutorOptions options)
    : engine_(engine),
      options_(options),
      pool_(DefaultThreads(options.num_threads)) {
  worker_scratch_.reserve(pool_.num_threads());
  for (size_t i = 0; i < pool_.num_threads(); ++i) {
    worker_scratch_.push_back(std::make_unique<DtwScratch>());
  }
  MetricsRegistry& metrics = engine_->metrics();
  queries_total_ = metrics.GetCounter(
      "warpindex_exec_queries_total",
      "queries executed by the concurrent executor");
  batches_total_ = metrics.GetCounter(
      "warpindex_exec_batches_total", "SubmitBatch calls");
  inflight_ = metrics.GetGauge(
      "warpindex_exec_inflight_queries",
      "queries submitted to the executor but not yet finished");
  queue_wait_ms_ = metrics.GetHistogram(
      "warpindex_exec_queue_wait_ms",
      ExponentialBoundaries(0.001, 2.0, 24),
      "submit-to-start wait in the executor's work queue (ms)");
  batch_ms_ = metrics.GetHistogram(
      "warpindex_exec_batch_ms", ExponentialBoundaries(0.1, 2.0, 24),
      "wall time per SubmitBatch call (ms)");
}

DtwScratch* QueryExecutor::CurrentWorkerScratch() {
  // Only ever called from this pool's own tasks, so the thread-local
  // worker index addresses worker_scratch_ of this executor.
  const int worker = ThreadPool::current_worker_index();
  if (worker >= 0 &&
      static_cast<size_t>(worker) < worker_scratch_.size()) {
    return worker_scratch_[static_cast<size_t>(worker)].get();
  }
  return nullptr;
}

SearchResult QueryExecutor::RunQuery(MethodKind kind, const Sequence& query,
                                     double epsilon, Trace* trace) {
  queries_total_->Increment();
  // Executor-initiated tracing: with a trace store configured and no
  // caller trace, trace the query ourselves (head-gated) so the tail
  // sampler has material. Untraced queries pay only the null tests.
  std::optional<Trace> local;
  if (trace == nullptr && options_.trace_store != nullptr &&
      options_.trace_store->ShouldTrace()) {
    local.emplace();
    trace = &*local;
  }
  std::optional<WallTimer> timer;
  std::optional<ThreadCpuTimer> cpu_timer;
  if (trace != nullptr) {
    timer.emplace();
    cpu_timer.emplace();
  }
  // Semantic cache consult. The data version is read BEFORE the lookup
  // and re-checked before the populate, so a write racing the query can
  // never publish an answer under a version it does not belong to.
  uint64_t cache_key = 0;
  uint64_t cache_version = 0;
  if (options_.cache != nullptr) {
    cache_key =
        SemanticCache::RangeKey(query, engine_->dtw_options(), kind);
    cache_version = engine_->DataVersion();
    WallTimer hit_timer;
    SearchResult cached;
    if (options_.cache->LookupRange(cache_key, epsilon, cache_version,
                                    &cached)) {
      cached.cost.wall_ms = hit_timer.ElapsedMillis();
      if (trace != nullptr) {
        {
          ScopedSpan span(trace, "cache_hit");
          TraceCounter(trace, "cached_matches",
                       static_cast<double>(cached.matches.size()));
        }
        OfferTrace(kind, query, epsilon, *trace, cached.matches.size(),
                   timer->ElapsedMillis(), cpu_timer->ElapsedMillis(),
                   /*errored=*/false);
      }
      RecordFlight(kind, query, epsilon, cached,
                   trace != nullptr ? trace->trace_id() : 0,
                   CacheTier::kExecutor);
      return cached;
    }
  }
  SearchResult result;
  try {
    result = engine_->SearchWith(kind, query, epsilon, trace,
                                 CurrentWorkerScratch());
  } catch (...) {
    // The ScopedSpans unwound with the stack, so the trace is closed and
    // offerable — errored traces are exactly what tail sampling keeps.
    if (trace != nullptr) {
      OfferTrace(kind, query, epsilon, *trace, 0, timer->ElapsedMillis(),
                 cpu_timer->ElapsedMillis(), /*errored=*/true);
    }
    throw;
  }
  if (trace != nullptr) {
    OfferTrace(kind, query, epsilon, *trace, result.matches.size(),
               result.cost.wall_ms, result.cost.cpu_ms, /*errored=*/false);
  }
  if (options_.cache != nullptr) {
    result.cost.cache_misses = 1;
    // Populate only if the data did not change under the query;
    // otherwise the result may mix pre- and post-write state and must
    // not be replayed under either version.
    if (engine_->DataVersion() == cache_version) {
      options_.cache->InsertRange(cache_key, epsilon, cache_version,
                                  result);
    }
  }
  RecordFlight(kind, query, epsilon, result,
               trace != nullptr ? trace->trace_id() : 0);
  return result;
}

void QueryExecutor::OfferTrace(MethodKind kind, const Sequence& query,
                               double epsilon, const Trace& trace,
                               size_t matches, double wall_ms,
                               double cpu_ms, bool errored) const {
  if (options_.trace_store == nullptr) {
    return;
  }
  CompletedTrace completed;
  completed.method = MethodKindName(kind);
  completed.epsilon = epsilon;
  completed.query_length = query.size();
  completed.matches = matches;
  completed.wall_ms = wall_ms;
  completed.cpu_ms = cpu_ms;
  completed.errored = errored;
  completed.trace = trace;  // copy: the caller may still own the original
  options_.trace_store->Offer(std::move(completed));
}

void QueryExecutor::RecordFlight(MethodKind kind, const Sequence& query,
                                 double epsilon, const SearchResult& result,
                                 uint64_t trace_id,
                                 CacheTier cache_tier) const {
  if (options_.flight_recorder == nullptr && options_.slow_log == nullptr) {
    return;
  }
  FlightRecord record = MakeFlightRecord(
      MethodKindName(kind), epsilon, query.size(), result.matches.size(),
      result.num_candidates, result.cost, trace_id);
  record.cache_hit = cache_tier;
  if (options_.slow_log != nullptr) {
    options_.slow_log->Record(record);
  }
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->Record(std::move(record));
  }
}

QueryExecutor::Snapshot QueryExecutor::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.num_threads = pool_.num_threads();
  snapshot.queue_depth = pool_.queue_depth();
  snapshot.in_flight = inflight_->value();
  snapshot.queries_total = queries_total_->value();
  snapshot.batches_total = batches_total_->value();
  return snapshot;
}

std::future<SearchResult> QueryExecutor::Submit(MethodKind kind,
                                                Sequence query,
                                                double epsilon,
                                                Trace* trace) {
  inflight_->Increment();
  const auto submitted = std::chrono::steady_clock::now();
  try {
    return pool_.Submit(
        [this, kind, q = std::move(query), epsilon, trace, submitted]() {
          InflightGuard guard(inflight_);
          queue_wait_ms_->Observe(MillisSince(submitted));
          return RunQuery(kind, q, epsilon, trace);
        });
  } catch (...) {
    inflight_->Decrement();  // pool rejected the task (shut down)
    throw;
  }
}

std::future<SequenceId> QueryExecutor::SubmitInsert(Sequence s) {
  if (ingest_ == nullptr) {
    throw std::logic_error("SubmitInsert requires AttachIngest()");
  }
  return pool_.Submit(
      [ingest = ingest_, seq = std::move(s)]() mutable {
        return ingest->Insert(std::move(seq));
      });
}

std::future<bool> QueryExecutor::SubmitDelete(SequenceId id) {
  if (ingest_ == nullptr) {
    throw std::logic_error("SubmitDelete requires AttachIngest()");
  }
  return pool_.Submit([ingest = ingest_, id]() { return ingest->Delete(id); });
}

BatchResult QueryExecutor::SubmitBatch(
    const std::vector<QueryRequest>& requests,
    const BatchOptions& batch_options) {
  BatchResult batch;
  batch.results.resize(requests.size());
  if (batch_options.collect_traces) {
    batch.traces.resize(requests.size());
  }
  batches_total_->Increment();

  WallTimer timer;
  std::vector<std::future<void>> futures;
  futures.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    inflight_->Increment();
    const auto submitted = std::chrono::steady_clock::now();
    futures.push_back(pool_.Submit([this, &requests, &batch, i,
                                    collect = batch_options.collect_traces,
                                    submitted]() {
      InflightGuard guard(inflight_);
      queue_wait_ms_->Observe(MillisSince(submitted));
      const QueryRequest& request = requests[i];
      // Slot i is this task's alone — disjoint writes need no lock.
      Trace* trace = collect ? &batch.traces[i] : nullptr;
      batch.results[i] =
          RunQuery(request.method, request.query, request.epsilon, trace);
    }));
  }
  // Wait for every task before surfacing any exception: the tasks write
  // into `batch`, which must stay alive until the last one finishes.
  for (std::future<void>& f : futures) {
    f.wait();
  }
  for (std::future<void>& f : futures) {
    f.get();  // rethrows the first failed query, if any
  }

  batch.wall_ms = timer.ElapsedMillis();
  batch_ms_->Observe(batch.wall_ms);
  batch.queries_per_sec =
      batch.wall_ms > 0.0
          ? static_cast<double>(requests.size()) / (batch.wall_ms / 1000.0)
          : 0.0;
  return batch;
}

SearchResult QueryExecutor::SearchParallel(const Sequence& query,
                                           double epsilon, Trace* trace,
                                           bool use_cascade) {
  WallTimer timer;
  ThreadCpuTimer cpu_timer;
  SearchResult result;
  queries_total_->Increment();
  inflight_->Increment();
  InflightGuard guard(inflight_);

  // Same executor-initiated tracing as RunQuery.
  std::optional<Trace> local;
  if (trace == nullptr && options_.trace_store != nullptr &&
      options_.trace_store->ShouldTrace()) {
    local.emplace();
    trace = &*local;
  }

  const MethodKind kind = use_cascade ? MethodKind::kTwSimSearchCascade
                                      : MethodKind::kTwSimSearch;
  // Semantic cache consult — same protocol as RunQuery. The parallel
  // post-filter emits matches in candidate order, identical to the
  // sequential path, so both populate and replay the same entry.
  uint64_t cache_key = 0;
  uint64_t cache_version = 0;
  if (options_.cache != nullptr) {
    cache_key =
        SemanticCache::RangeKey(query, engine_->dtw_options(), kind);
    cache_version = engine_->DataVersion();
    SearchResult cached;
    if (options_.cache->LookupRange(cache_key, epsilon, cache_version,
                                    &cached)) {
      cached.cost.wall_ms = timer.ElapsedMillis();
      if (trace != nullptr) {
        {
          ScopedSpan span(trace, "cache_hit");
          TraceCounter(trace, "cached_matches",
                       static_cast<double>(cached.matches.size()));
        }
        OfferTrace(kind, query, epsilon, *trace, cached.matches.size(),
                   cached.cost.wall_ms, cpu_timer.ElapsedMillis(),
                   /*errored=*/false);
      }
      RecordFlight(kind, query, epsilon, cached,
                   trace != nullptr ? trace->trace_id() : 0,
                   CacheTier::kExecutor);
      return cached;
    }
  }

  const Engine* single = engine_->AsSingleEngine();
  if (single == nullptr) {
    // Composite engine (ShardedEngine): its SearchWith already fans the
    // query out across shards on this executor's pool — that fan-out is
    // the intra-query parallelism here, and the chunked post-filter
    // below does not apply. Answers are identical either way.
    result = engine_->SearchWith(kind, query, epsilon, trace,
                                 CurrentWorkerScratch());
    if (trace != nullptr) {
      OfferTrace(kind, query, epsilon, *trace, result.matches.size(),
                 result.cost.wall_ms, result.cost.cpu_ms, /*errored=*/false);
    }
    if (options_.cache != nullptr) {
      result.cost.cache_misses = 1;
      if (engine_->DataVersion() == cache_version) {
        options_.cache->InsertRange(cache_key, epsilon, cache_version,
                                    result);
      }
    }
    RecordFlight(kind, query, epsilon, result,
                 trace != nullptr ? trace->trace_id() : 0);
    return result;
  }

  CascadeObservation obs;
  {
    ScopedSpan span(trace, "query");
    TraceCounter(trace, "epsilon", epsilon);
    // The lower-bound cascade (when requested) runs on the calling
    // thread — its stages are O(n) per candidate and prune the list the
    // chunked DTW fan-out then works through.
    std::vector<const Sequence*> fetched =
        use_cascade
            ? single->tw_sim_search_cascade().FilterFetchAndPrune(
                  query, epsilon, &result, trace, &obs)
            : single->tw_sim_search().FilterAndFetch(query, epsilon,
                                                     &result, trace);

    const size_t chunk_size = std::max<size_t>(1, options_.postfilter_chunk);
    const size_t num_chunks =
        (fetched.size() + chunk_size - 1) / chunk_size;

    ScopedSpan dtw_span(trace, kStageDtwPostfilter);
    WallTimer dtw_timer;
    const size_t dtw_in = fetched.size();
    result.cost.dtw_evals += dtw_in;
    // The chunks fan out over ScatterGather: idle workers help and the
    // calling thread always participates, so completion never depends on
    // the pool having free capacity (no deadlock when called from inside
    // a pool task), and a single chunk runs inline. Outputs are indexed
    // by chunk, so they stay in candidate order.
    std::vector<std::vector<SequenceId>> chunk_matches(num_chunks);
    std::vector<std::vector<double>> chunk_distances(num_chunks);
    std::vector<uint64_t> chunk_cells(num_chunks, 0);
    // Thread-CPU ms per chunk (each chunk runs on one thread): their sum
    // is the post-filter's CPU across every participating thread.
    std::vector<double> chunk_cpu_ms(num_chunks, 0.0);
    const Dtw dtw(single->options().dtw);
    ThreadCpuTimer caller_chunk_cpu;
    ScatterGather(&pool_).Run(num_chunks, [&](size_t c) {
      ThreadCpuTimer chunk_cpu;
      DtwScratch scratch;
      const size_t end = std::min(dtw_in, (c + 1) * chunk_size);
      for (size_t i = c * chunk_size; i < end; ++i) {
        const DtwResult d =
            dtw.DistanceWithThreshold(*fetched[i], query, epsilon, &scratch);
        chunk_cells[c] += d.cells;
        if (d.distance <= epsilon) {
          chunk_matches[c].push_back(fetched[i]->id());
          chunk_distances[c].push_back(d.distance);
        }
      }
      chunk_cpu_ms[c] = chunk_cpu.ElapsedMillis();
    });
    const double caller_chunk_cpu_ms = caller_chunk_cpu.ElapsedMillis();
    double dtw_cpu_ms = 0.0;
    for (size_t c = 0; c < num_chunks; ++c) {
      result.cost.dtw_cells += chunk_cells[c];
      dtw_cpu_ms += chunk_cpu_ms[c];
      result.matches.insert(result.matches.end(), chunk_matches[c].begin(),
                            chunk_matches[c].end());
      result.distances.insert(result.distances.end(),
                              chunk_distances[c].begin(),
                              chunk_distances[c].end());
    }
    // Helper-thread CPU to fold into the query total (the caller's share
    // is already inside cpu_timer).
    const double helper_cpu_ms =
        std::max(0.0, dtw_cpu_ms - caller_chunk_cpu_ms);
    const double dtw_ms = dtw_timer.ElapsedMillis();
    const size_t dtw_pruned = dtw_in - result.matches.size();
    result.cost.stages.Add(kStageDtwPostfilter, dtw_ms);
    result.cost.stages_cpu.Add(kStageDtwPostfilter, dtw_cpu_ms);
    result.cost.cpu_ms += helper_cpu_ms;
    result.cost.prunes.Record(kStageDtwPostfilter, dtw_in, dtw_pruned);
    if (use_cascade) {
      obs.dtw.in += dtw_in;
      obs.dtw.pruned += dtw_pruned;
      obs.dtw.ms += dtw_ms;
      single->tw_sim_search_cascade().ObserveOutcome(obs);
    }
    TraceCounter(trace, "dtw_cells",
                 static_cast<double>(result.cost.dtw_cells));
  }
  result.cost.wall_ms = timer.ElapsedMillis();
  // Caller CPU (cascade + its own chunk share + merge) plus the helper
  // CPU folded in above.
  result.cost.cpu_ms += cpu_timer.ElapsedMillis();
  if (trace != nullptr) {
    OfferTrace(kind, query, epsilon, *trace, result.matches.size(),
               result.cost.wall_ms, result.cost.cpu_ms, /*errored=*/false);
  }
  if (options_.cache != nullptr) {
    result.cost.cache_misses = 1;
    if (engine_->DataVersion() == cache_version) {
      options_.cache->InsertRange(cache_key, epsilon, cache_version,
                                  result);
    }
  }
  RecordFlight(kind, query, epsilon, result,
               trace != nullptr ? trace->trace_id() : 0);
  return result;
}

KnnResult QueryExecutor::SearchKnn(const Sequence& query, size_t k,
                                   Trace* trace) {
  queries_total_->Increment();
  SemanticCache* cache = options_.cache;
  if (cache == nullptr) {
    return engine_->SearchKnn(query, k, trace);
  }
  const DtwOptions dtw = engine_->dtw_options();
  const uint64_t key = SemanticCache::KnnKey(query, dtw);
  const uint64_t version = engine_->DataVersion();
  KnnResult cached;
  if (cache->LookupKnn(key, k, version, &cached)) {
    return cached;
  }
  // A cached range answer for this query with >= k matches holds the
  // exact global k-th distance — seed the engine's pruning bound with it
  // (ties at the bound survive; answers stay identical, only cheaper).
  double seed = kInfiniteDistance;
  const bool seeded = cache->LookupKnnSeed(query, dtw, k, version, &seed);
  KnnResult result = seeded
                         ? engine_->SearchKnnSeeded(query, k, seed, trace)
                         : engine_->SearchKnn(query, k, trace);
  result.cost.cache_misses = 1;
  if (engine_->DataVersion() == version) {
    cache->InsertKnn(key, k, version, result);
  }
  return result;
}

}  // namespace warpindex
