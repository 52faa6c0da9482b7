#include "exec/query_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

#include <stdexcept>

#include "cache/semantic_cache.h"
#include "common/timer.h"
#include "ingest/ingest_engine.h"

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
  FlightRecord record;
  record.trace_id = trace_id;
  record.method = MethodKindName(kind);
  record.epsilon = epsilon;
  record.query_length = query.size();
  record.matches = result.matches.size();
  record.num_candidates = result.num_candidates;
  record.wall_ms = result.cost.wall_ms;
  record.cpu_ms = result.cost.cpu_ms;
  record.dtw_evals = result.cost.dtw_evals;
  record.dtw_cells = result.cost.dtw_cells;
  record.index_nodes = result.cost.index_nodes;
  record.pool_hits = result.cost.pool_hits;
  record.pool_misses = result.cost.pool_misses;
  record.stage_ms = result.cost.stages;
  record.stage_cpu_ms = result.cost.stages_cpu;
  record.prunes = result.cost.prunes;
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
    ThreadCpuTimer dtw_cpu_timer;
    // CPU burnt in the DTW post-filter across all participating threads.
    // On the sequential path this is just the caller's delta; the chunked
    // path sums the per-chunk readings (helper CPU the caller's own
    // thread clock cannot see).
    double dtw_cpu_ms = 0.0;
    // Helper-thread CPU to fold into the query total (the caller's share
    // is already inside cpu_timer).
    double helper_cpu_ms = 0.0;
    const size_t dtw_in = fetched.size();
    result.cost.dtw_evals += dtw_in;
    if (num_chunks <= 1) {
      // Not worth fanning out; identical to the sequential Step-4..7.
      DtwScratch scratch;
      const Dtw dtw(single->options().dtw);
      for (const Sequence* s : fetched) {
        const DtwResult d =
            dtw.DistanceWithThreshold(*s, query, epsilon, &scratch);
        result.cost.dtw_cells += d.cells;
        if (d.distance <= epsilon) {
          result.matches.push_back(s->id());
          result.distances.push_back(d.distance);
        }
      }
      dtw_cpu_ms = dtw_cpu_timer.ElapsedMillis();
    } else {
      // Shared chunk cursor. The context is a shared_ptr so a straggler
      // helper task that runs after this call returned (every chunk
      // already claimed) touches only heap state, never our stack.
      struct Context {
        const Sequence* query = nullptr;
        double epsilon = 0.0;
        Dtw dtw;
        // Borrowed from the engine's store, which outlives the query; a
        // straggler helper stops at the chunk cursor and never reads them.
        std::vector<const Sequence*> fetched;
        size_t chunk_size = 0;
        size_t num_chunks = 0;
        // Indexed by chunk: outputs stay in candidate order.
        std::vector<std::vector<SequenceId>> chunk_matches;
        std::vector<std::vector<double>> chunk_distances;
        std::vector<uint64_t> chunk_cells;
        // Thread-CPU ms burnt per chunk (each chunk runs on one thread).
        std::vector<double> chunk_cpu_ms;
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        std::mutex mu;
        std::condition_variable all_done;
      };
      auto ctx = std::make_shared<Context>();
      ctx->query = &query;
      ctx->epsilon = epsilon;
      ctx->dtw = Dtw(single->options().dtw);
      ctx->fetched = std::move(fetched);
      ctx->chunk_size = chunk_size;
      ctx->num_chunks = num_chunks;
      ctx->chunk_matches.resize(num_chunks);
      ctx->chunk_distances.resize(num_chunks);
      ctx->chunk_cells.resize(num_chunks, 0);
      ctx->chunk_cpu_ms.resize(num_chunks, 0.0);

      auto work = [ctx]() {
        DtwScratch scratch;  // one per participating thread
        for (;;) {
          const size_t c = ctx->next.fetch_add(1, std::memory_order_relaxed);
          if (c >= ctx->num_chunks) {
            return;
          }
          const size_t begin = c * ctx->chunk_size;
          const size_t end =
              std::min(ctx->fetched.size(), begin + ctx->chunk_size);
          std::vector<SequenceId>& matches = ctx->chunk_matches[c];
          std::vector<double>& distances = ctx->chunk_distances[c];
          ThreadCpuTimer chunk_cpu;
          uint64_t cells = 0;
          for (size_t i = begin; i < end; ++i) {
            const DtwResult d = ctx->dtw.DistanceWithThreshold(
                *ctx->fetched[i], *ctx->query, ctx->epsilon, &scratch);
            cells += d.cells;
            if (d.distance <= ctx->epsilon) {
              matches.push_back(ctx->fetched[i]->id());
              distances.push_back(d.distance);
            }
          }
          ctx->chunk_cells[c] = cells;
          ctx->chunk_cpu_ms[c] = chunk_cpu.ElapsedMillis();
          if (ctx->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
              ctx->num_chunks) {
            std::lock_guard<std::mutex> lock(ctx->mu);
            ctx->all_done.notify_all();
          }
        }
      };

      // Idle workers help; the calling thread always participates, so
      // completion never depends on the pool having free capacity (no
      // deadlock when called from inside a pool task).
      const size_t helpers = std::min(pool_.num_threads(), num_chunks - 1);
      for (size_t i = 0; i < helpers; ++i) {
        pool_.TrySubmitDetached(work);
      }
      ThreadCpuTimer caller_chunk_cpu;
      work();
      const double caller_chunk_cpu_ms = caller_chunk_cpu.ElapsedMillis();
      {
        std::unique_lock<std::mutex> lock(ctx->mu);
        ctx->all_done.wait(lock, [&ctx]() {
          return ctx->done.load(std::memory_order_acquire) ==
                 ctx->num_chunks;
        });
      }

      for (size_t c = 0; c < num_chunks; ++c) {
        result.cost.dtw_cells += ctx->chunk_cells[c];
        dtw_cpu_ms += ctx->chunk_cpu_ms[c];
        result.matches.insert(result.matches.end(),
                              ctx->chunk_matches[c].begin(),
                              ctx->chunk_matches[c].end());
        result.distances.insert(result.distances.end(),
                                ctx->chunk_distances[c].begin(),
                                ctx->chunk_distances[c].end());
      }
      helper_cpu_ms = std::max(0.0, dtw_cpu_ms - caller_chunk_cpu_ms);
    }
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
