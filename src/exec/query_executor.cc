#include "exec/query_executor.h"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

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
      single_engine_(dynamic_cast<const Engine*>(engine)),
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
                                     double epsilon, Trace* trace,
                                     const PostfilterFanOut* fan_out) {
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
    // A composite engine fans the query out across its partitions on
    // this pool; that fan-out is its intra-query parallelism, so only a
    // single Engine takes the chunked exact stage.
    result = single_engine_ != nullptr && fan_out != nullptr
                 ? single_engine_->SearchWith(kind, query, epsilon, trace,
                                              CurrentWorkerScratch(), fan_out)
                 : engine_->SearchWith(kind, query, epsilon, trace,
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
  inflight_->Increment();
  InflightGuard guard(inflight_);
  const ScatterGather scatter(&pool_);
  const PostfilterFanOut fan_out{&scatter, options_.postfilter_chunk};
  return RunQuery(use_cascade ? MethodKind::kTwSimSearchCascade
                              : MethodKind::kTwSimSearch,
                  query, epsilon, trace, &fan_out);
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
  // Without one the seed stays +inf: no seed.
  double seed = kInfiniteDistance;
  cache->LookupKnnSeed(query, dtw, k, version, &seed);
  KnnResult result = engine_->SearchKnnSeeded(query, k, seed, trace);
  result.cost.cache_misses = 1;
  if (engine_->DataVersion() == version) {
    cache->InsertKnn(key, k, version, result);
  }
  return result;
}

}  // namespace warpindex
