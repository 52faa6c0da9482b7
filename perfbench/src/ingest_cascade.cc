// ingest-cascade: writes beside reads on the streaming-ingest engine.
//
// An IngestEngine (K = 4 shards, range partitioner, 10% Sakoe-Chiba
// band) served through a QueryExecutor with 3 workers whose pool also
// runs the engine's scatter-gather, with the executor's semantic cache on.
// Queries are planned-cascade range queries (kTwSimSearchCascade) and
// k-NN queries drawn with Zipfian repeats from a pool of distinct
// perturbed queries; writes insert new walks and delete live ids. There
// is no background compactor: after every write the client compacts each
// shard whose delta crossed the count trigger, inside that timed write.
// The LB kernels, banded DTW, the fan-out, the delta scan and compaction
// do the work; every write bumps the data version, so the cache pays
// lookups and invalidations without much benefit.

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "cache/semantic_cache.h"
#include "common/timer.h"
#include "core/engine.h"
#include "exec/query_executor.h"
#include "ingest/ingest_engine.h"
#include "sequence/feature.h"
#include "sequence/query_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using warpindex::Dataset;
using warpindex::Engine;
using warpindex::IngestEngine;
using warpindex::IngestOptions;
using warpindex::MethodKind;
using warpindex::QueryExecutor;
using warpindex::QueryExecutorOptions;
using warpindex::SemanticCache;
using warpindex::SemanticCacheOptions;
using warpindex::SequenceId;

constexpr size_t kRows = 10000;
constexpr size_t kLength = 256;
constexpr int kBand = static_cast<int>(kLength / 10);
constexpr size_t kShards = 4;
constexpr size_t kWorkers = 3;
constexpr double kEpsilon = 0.3;
constexpr size_t kK = 10;
constexpr size_t kQueryPool = 2000;
constexpr double kSkew = 0.5;
// Op mix: inserts, deletes, k-NN; the rest are range queries.
constexpr double kInsertShare = 0.25;
constexpr double kDeleteShare = 0.10;
constexpr double kKnnShare = 0.05;
// Compaction triggers (per shard): buffered delta entries, tombstones.
constexpr size_t kCompactEntries = 30;
constexpr size_t kCompactTombstones = 30;
constexpr size_t kWarmupOps = 30;
constexpr int kSetups = 5;
constexpr size_t kTraceOps = 4000;
constexpr size_t kQuickOps = 300;
// Correctness: after the timed window, the stream continues untimed to
// kCheckPoints more compactions; at each, kCheckQueries pool queries are
// compared against a from-scratch Engine over the live set.
constexpr size_t kCheckPoints = 2;
constexpr size_t kCheckQueries = 4;
constexpr size_t kMaxPairs = 4000;

enum class Kind { kRange, kKnn, kInsert, kDelete };

constexpr size_t kBaseRow = ~size_t{0};

// The new walk op `i` inserts.
Sequence InsertedWalk(uint64_t seed, size_t i) {
  return RandomWalks(1, kLength, Mix(seed, 5, i))[0];
}

Kind KindOf(uint64_t seed, size_t i) {
  const double u = Unit(Mix(seed, 1, i));
  if (u < kInsertShare) {
    return Kind::kInsert;
  }
  if (u < kInsertShare + kDeleteShare) {
    return Kind::kDelete;
  }
  if (u < kInsertShare + kDeleteShare + kKnnShare) {
    return Kind::kKnn;
  }
  return Kind::kRange;
}

warpindex::EngineOptions ShardEngineOptions() {
  warpindex::EngineOptions options;
  options.dtw.band = kBand;
  return options;
}

// One built serving stack. Members are destroyed in reverse order: the
// executor (and its pool) before the engine that borrows the pool.
struct World {
  explicit World(uint64_t seed);

  uint64_t seed;
  std::vector<Sequence> pool;          // distinct queries
  Zipf zipf{kQueryPool, kSkew};
  // The oracle's live set: id -> the op index that inserted it, or
  // kBaseRow for a corpus row (id == row). Sequences are regenerated from
  // the seed at check time, so the oracle adds no copy of the data to the
  // process's peak RSS.
  std::unordered_map<SequenceId, size_t> live;
  std::vector<SequenceId> live_ids;  // delete candidates
  std::unique_ptr<SemanticCache> cache;
  std::unique_ptr<IngestEngine> ingest;
  std::unique_ptr<QueryExecutor> executor;
  uint64_t compactions = 0;
  // Seconds per setup phase: build, warmup.
  JsonValue phases = JsonValue::Object();
};

World::World(uint64_t s) : seed(s) {
  Dataset data = RandomWalks(kRows, kLength, seed);
  pool.reserve(kQueryPool);
  for (size_t q = 0; q < kQueryPool; ++q) {
    const size_t pick = static_cast<size_t>(Mix(seed, 7, q) % data.size());
    pool.push_back(warpindex::PerturbSequence(data[pick], Mix(seed, 8, q)));
  }
  for (size_t id = 0; id < data.size(); ++id) {
    live.emplace(static_cast<SequenceId>(id), kBaseRow);
    live_ids.push_back(static_cast<SequenceId>(id));
  }
  cache = std::make_unique<SemanticCache>(SemanticCacheOptions{});
  IngestOptions options;
  options.num_shards = kShards;
  options.partitioner = warpindex::PartitionerKind::kRange;
  options.engine = ShardEngineOptions();
  options.compact_max_delta_entries = kCompactEntries;
  options.compact_max_tombstones = kCompactTombstones;
  options.compact_max_delta_age_ms = 0.0;
  options.start_compactor = false;
  ingest = std::make_unique<IngestEngine>(std::move(data), options);
  QueryExecutorOptions exec_options;
  exec_options.num_threads = kWorkers;
  exec_options.cache = cache.get();
  executor = std::make_unique<QueryExecutor>(ingest.get(), exec_options);
  ingest->AttachPool(&executor->pool());
}

// Per-write detail the traced pass folds.
struct WriteStats {
  double insert_ms = 0.0;  // Insert() alone (0 for deletes)
  std::vector<double> compact_ms;
  size_t rows_rebuilt = 0;
};

struct OpResult {
  Kind kind = Kind::kRange;
  SearchResult range;
  KnnResult knn;
  WriteStats write;
  bool ok = true;
  double exec_wait_ms = 0.0;
};

OpResult RunOp(World& world, size_t i, Trace* trace) {
  OpResult result;
  result.kind = KindOf(world.seed, i);
  switch (result.kind) {
    case Kind::kRange:
    case Kind::kKnn: {
      const Sequence& query =
          world.pool[world.zipf.At(Mix(world.seed, 9, i))];
      if (result.kind == Kind::kKnn) {
        result.knn = world.executor->SearchKnn(query, kK, trace);
        break;
      }
      warpindex::WallTimer timer;
      result.range = world.executor
                         ->Submit(MethodKind::kTwSimSearchCascade, query,
                                  kEpsilon, trace)
                         .get();
      result.exec_wait_ms = timer.ElapsedMillis() - result.range.cost.wall_ms;
      break;
    }
    case Kind::kInsert: {
      Sequence walk = InsertedWalk(world.seed, i);
      warpindex::WallTimer timer;
      const SequenceId id = world.ingest->Insert(std::move(walk));
      result.write.insert_ms = timer.ElapsedMillis();
      result.ok = world.live.emplace(id, i).second;
      world.live_ids.push_back(id);
      break;
    }
    case Kind::kDelete: {
      const size_t pick = static_cast<size_t>(Mix(world.seed, 6, i) %
                                              world.live_ids.size());
      const SequenceId id = world.live_ids[pick];
      world.live_ids[pick] = world.live_ids.back();
      world.live_ids.pop_back();
      world.live.erase(id);
      result.ok = world.ingest->Delete(id);
      break;
    }
  }
  if (result.kind == Kind::kInsert || result.kind == Kind::kDelete) {
    for (size_t s = 0; s < world.ingest->num_shards(); ++s) {
      if (!world.ingest->ShouldCompact(s)) {
        continue;
      }
      warpindex::WallTimer timer;
      if (world.ingest->CompactShard(s)) {
        result.write.compact_ms.push_back(timer.ElapsedMillis());
        result.write.rows_rebuilt +=
            world.ingest->CurrentView()->shards[s].engine->dataset().size();
        ++world.compactions;
      }
    }
  }
  return result;
}

std::unique_ptr<World> Setup(uint64_t seed) {
  const double t0 = NowSeconds();
  auto world = std::make_unique<World>(seed);
  const double t1 = NowSeconds();
  for (size_t i = 0; i < kWarmupOps; ++i) {
    RunOp(*world, i, nullptr);
  }
  world->phases.Set("build", JsonValue::Double(t1 - t0));
  world->phases.Set("warmup", JsonValue::Double(NowSeconds() - t1));
  return world;
}

// Compares pool queries served through the executor with a from-scratch
// Engine over the live set. Returns the number of mismatches.
size_t CheckAgainstRebuild(World& world, size_t point) {
  std::vector<SequenceId> ids;
  ids.reserve(world.live.size());
  for (const auto& [id, s] : world.live) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  const Dataset corpus = RandomWalks(kRows, kLength, world.seed);
  Dataset rows;
  for (const SequenceId id : ids) {
    const size_t source = world.live.at(id);
    rows.Add(source == kBaseRow ? corpus[static_cast<size_t>(id)]
                                : InsertedWalk(world.seed, source));
  }
  const Engine fresh(std::move(rows), ShardEngineOptions());
  size_t mismatches = 0;
  if (fresh.live_size() != world.ingest->live_size()) {
    ++mismatches;
  }
  for (size_t c = 0; c < kCheckQueries; ++c) {
    const Sequence& query = world.pool[static_cast<size_t>(
        Mix(world.seed, 10, point * kCheckQueries + c) % kQueryPool)];
    const SearchResult served =
        world.executor->Submit(MethodKind::kTwSimSearchCascade, query,
                               kEpsilon)
            .get();
    SearchResult expected =
        fresh.SearchWith(MethodKind::kTwSimSearch, query, kEpsilon);
    for (SequenceId& id : expected.matches) {
      id = ids[static_cast<size_t>(id)];
    }
    if (!SameRange(served, expected)) {
      ++mismatches;
    }
    const KnnResult served_knn = world.executor->SearchKnn(query, kK);
    KnnResult expected_knn = fresh.SearchKnn(query, kK);
    for (warpindex::KnnMatch& m : expected_knn.neighbors) {
      m.id = ids[static_cast<size_t>(m.id)];
    }
    std::sort(expected_knn.neighbors.begin(), expected_knn.neighbors.end(),
              warpindex::KnnMatchOrder);
    if (!SameKnn(served_knn, expected_knn)) {
      ++mismatches;
    }
  }
  return mismatches;
}

void AddSizes(Output* out) {
  JsonValue& info = out->info();
  info.Set("corpus_rows", JsonValue::Int(kRows));
  info.Set("corpus_length", JsonValue::Int(kLength));
  info.Set("band", JsonValue::Int(kBand));
  info.Set("shards", JsonValue::Int(kShards));
  info.Set("epsilon", JsonValue::Double(kEpsilon));
  info.Set("knn_k", JsonValue::Int(kK));
  info.Set("distinct_queries", JsonValue::Int(kQueryPool));
  info.Set("zipf_skew", JsonValue::Double(kSkew));
  info.Set("mix_insert", JsonValue::Double(kInsertShare));
  info.Set("mix_delete", JsonValue::Double(kDeleteShare));
  info.Set("mix_knn", JsonValue::Double(kKnnShare));
  info.Set("compact_max_delta_entries", JsonValue::Int(kCompactEntries));
  info.Set("compact_max_tombstones", JsonValue::Int(kCompactTombstones));
  info.Set("cache", JsonValue::Str("executor tier, 64 MiB budget"));
  info.Set("client_threads", JsonValue::Int(1));
  info.Set("worker_threads", JsonValue::Int(kWorkers));
  info.Set("connections", JsonValue::Int(0));
  info.Set("warmup_ops", JsonValue::Int(kWarmupOps));
}

void RunUntraced(const RunConfig& config, Output* out) {
  std::vector<double> setups;
  std::unique_ptr<World> world;
  const int setups_wanted = config.quick ? 1 : kSetups;
  for (int r = 0; r < setups_wanted; ++r) {
    world.reset();
    const double t0 = NowSeconds();
    world = Setup(config.seed);
    setups.push_back(NowSeconds() - t0);
  }

  Samples range_ms;
  Samples knn_ms;
  Samples write_ms;
  uint64_t errors = 0;
  const Window window = RunWindow(
      kWarmupOps, config.seconds, [&](size_t i) {
        const double t0 = NowSeconds();
        const OpResult r = RunOp(*world, i, nullptr);
        const double ms = (NowSeconds() - t0) * 1e3;
        errors += r.ok ? 0 : 1;
        switch (r.kind) {
          case Kind::kRange:
            range_ms.Add(ms);
            break;
          case Kind::kKnn:
            knn_ms.Add(ms);
            break;
          default:
            write_ms.Add(ms);
        }
      });
  out->attempted = window.ops;
  out->failed = errors;

  // Untimed continuation to the next compaction points, then the checks;
  // the continuation's ops and each compared answer count as attempted.
  size_t next = kWarmupOps + window.ops;
  for (size_t point = 0; point < kCheckPoints; ++point) {
    const uint64_t target = world->compactions + 1;
    while (world->compactions < target) {
      out->failed += RunOp(*world, next++, nullptr).ok ? 0 : 1;
      ++out->attempted;
    }
    out->failed += CheckAgainstRebuild(*world, point);
    out->attempted += 2 * kCheckQueries + 1;
  }

  out->AddPercentile("write_p50_ms", write_ms, 0.50);
  out->AddPercentile("write_p99_ms", write_ms, 0.99);
  AddEndToEnd(range_ms, knn_ms, window, setups, out);
  out->info().Set("check_points", JsonValue::Int(kCheckPoints));
  out->info().Set("setup_phases_s", world->phases);
}

void RunTraced(const RunConfig& config, Output* out) {
  const size_t n = config.quick ? kQuickOps : kTraceOps;

  // Pass 1, untraced, on its own stack: the overhead baseline and the
  // write latencies.
  Samples untraced_range;
  Samples write_ms;
  {
    const std::unique_ptr<World> world = Setup(config.seed);
    for (size_t i = kWarmupOps; i < kWarmupOps + n; ++i) {
      const double t0 = NowSeconds();
      const OpResult r = RunOp(*world, i, nullptr);
      const double ms = (NowSeconds() - t0) * 1e3;
      if (r.kind == Kind::kRange) {
        untraced_range.Add(ms);
      } else if (r.kind != Kind::kKnn) {
        write_ms.Add(ms);
      }
    }
  }

  // Pass 2, traced, on a fresh stack replaying the same op indices.
  const std::unique_ptr<World> world = Setup(config.seed);
  const warpindex::SemanticCacheStats cache0 = world->cache->TakeStats();
  Samples traced_range;
  Samples hit_ms;
  Samples insert_ms;
  Samples compact_ms;
  CostTotals costs;
  TraceTotals spans;
  CodecTotals codec;
  std::deque<Sequence> pair_rows;
  std::vector<KernelPair> pairs;
  double exec_wait_ms = 0.0;
  double delta_rows = 0.0;
  size_t rows_rebuilt = 0;
  size_t queries = 0;
  size_t range_ops = 0;
  size_t writes = 0;
  uint64_t failed = 0;
  for (size_t i = kWarmupOps; i < kWarmupOps + n; ++i) {
    const Kind kind = KindOf(world->seed, i);
    if (kind == Kind::kInsert || kind == Kind::kDelete) {
      const OpResult r = RunOp(*world, i, nullptr);
      failed += r.ok ? 0 : 1;
      ++writes;
      if (kind == Kind::kInsert) {
        insert_ms.Add(r.write.insert_ms);
      }
      for (const double ms : r.write.compact_ms) {
        compact_ms.Add(ms);
      }
      rows_rebuilt += r.write.rows_rebuilt;
      continue;
    }
    ++queries;
    for (size_t s = 0; s < world->ingest->num_shards(); ++s) {
      delta_rows += static_cast<double>(world->ingest->DeltaStats(s).entries);
    }
    Trace trace;
    const double t0 = NowSeconds();
    const OpResult r = RunOp(*world, i, &trace);
    const double ms = (NowSeconds() - t0) * 1e3;
    const SearchResult* range = kind == Kind::kRange ? &r.range : nullptr;
    const warpindex::SearchCost& cost = range ? r.range.cost : r.knn.cost;
    if (cost.cache_hits > 0) {
      hit_ms.Add(ms);
    }
    spans.Fold(trace, ms, cost.wall_ms);
    const Sequence& query = world->pool[world->zipf.At(Mix(world->seed, 9, i))];
    if (range == nullptr) {
      continue;
    }
    // k-NN cell and refinement counts depend on which shard tightens the
    // shared bound first, so the per-op counts and the codec bodies cover
    // range queries only.
    costs.Fold(cost);
    ++range_ops;
    traced_range.Add(ms);
    exec_wait_ms += r.exec_wait_ms;
    costs.FoldRange(r.range, world->ingest->live_size());
    CodecRange({0}, warpindex::MethodKindName(MethodKind::kTwSimSearchCascade),
               kEpsilon, query, r.range, &codec);
    // Kernel pairs: this query against its base-shard filter candidates.
    const auto view = world->ingest->CurrentView();
    for (const warpindex::BaseShard& shard : view->shards) {
      for (const SequenceId id : shard.engine->feature_index().RangeQuery(
               warpindex::ExtractFeature(query), kEpsilon)) {
        if (pairs.size() >= kMaxPairs) {
          break;
        }
        pair_rows.push_back(shard.engine->dataset()[static_cast<size_t>(id)]);
        pairs.push_back({&query, &pair_rows.back(), kEpsilon});
      }
    }
  }
  const warpindex::SemanticCacheStats cache1 = world->cache->TakeStats();
  out->attempted = n;
  out->failed = failed;

  ReplayKernels(pairs, kBand, config.quick ? 5.0 : 200.0, out);
  AddCostMetrics(costs, range_ops, out);
  const double nq = static_cast<double>(queries);
  const double nr = static_cast<double>(range_ops);
  out->AddRatio("core.unattributed_ms_per_op", spans.unattributed_ms, nq,
                "ms", "query ops");
  out->AddRatio("exec.wait_ms_per_op", exec_wait_ms, nr, "ms",
                "range ops (Submit to ready minus engine wall)");
  out->AddRatio("shard.shards_searched_per_op",
                static_cast<double>(spans.shard_spans), nq, "count",
                "query ops");
  out->AddRatio("shard.fanout_tax_ms_per_op", spans.fanout_tax_ms,
                static_cast<double>(spans.fanout_traces), "ms",
                "query ops that fanned out");
  out->AddPercentile("ingest.write_p50_ms", write_ms, 0.50);
  out->AddPercentile("ingest.write_p99_ms", write_ms, 0.99);
  out->AddRatio("ingest.insert_ms_mean", insert_ms.Sum(),
                static_cast<double>(insert_ms.count()), "ms", "inserts");
  out->Add("ingest.compactions", static_cast<double>(compact_ms.count()),
           "count");
  out->AddRatio("ingest.compact_ms_mean", compact_ms.Sum(),
                static_cast<double>(compact_ms.count()), "ms", "compactions");
  out->AddRatio("ingest.rows_rebuilt_per_row_written",
                static_cast<double>(rows_rebuilt),
                static_cast<double>(writes), "1", "rows written (writes)");
  out->AddRatio("ingest.delta_rows_mean", delta_rows, nq, "count",
                "query ops (sampled before each)");
  out->AddRatio("net.request_bytes_per_op",
                static_cast<double>(codec.request_bytes), nr, "bytes",
                "range ops (one body per op)");
  out->AddRatio("net.response_bytes_per_op",
                static_cast<double>(codec.response_bytes), nr, "bytes",
                "range ops (one body per op)");
  out->AddRatio("net.codec_ms_per_op", codec.codec_ms, nr, "ms", "range ops");
  out->AddRatio("cache.hit_ratio",
                static_cast<double>(cache1.hits - cache0.hits),
                static_cast<double>(cache1.lookups - cache0.lookups), "1",
                "executor-tier lookups");
  out->AddRatio("cache.hit_ms_mean", hit_ms.Sum(),
                static_cast<double>(hit_ms.count()), "ms", "cache-hit ops");
  out->AddRatio("cache.evictions_per_op",
                static_cast<double>(cache1.evictions - cache0.evictions),
                static_cast<double>(n), "count", "ops");
  out->AddRatio("cache.invalidations_per_write",
                static_cast<double>(cache1.invalidations -
                                    cache0.invalidations),
                static_cast<double>(writes), "count", "writes");
  out->Add("obs.trace_overhead_pct",
           (traced_range.Percentile(0.5) / untraced_range.Percentile(0.5) -
            1.0) * 100.0,
           "%");
  out->AddRatio("failed_op_ratio", static_cast<double>(out->failed),
                static_cast<double>(n), "1", "ops");
  out->info().Set("traced_ops", JsonValue::Int(n));
  out->info().Set("span_self_ms_per_op", spans.SelfJson(queries));
}

}  // namespace

void RunIngestCascade(const RunConfig& config, Output* out) {
  AddSizes(out);
  if (config.trace) {
    RunTraced(config, out);
  } else {
    RunUntraced(config, out);
  }
}

}  // namespace perfbench
