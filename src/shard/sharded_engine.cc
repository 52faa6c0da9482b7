#include "shard/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <string>
#include <system_error>

#include "shard/fanout.h"
#include "shard/shard_io.h"

namespace warpindex {

ShardedEngine::ShardedEngine(Dataset dataset, ShardedEngineOptions options)
    : options_(std::move(options)) {
  assert(options_.num_shards >= 1);
  ShardAssignment assignment =
      AssignShards(dataset, options_.partitioner, options_.num_shards);
  shards_ = BuildShardSet(dataset, assignment, options_.engine);
  shard_of_ = std::move(assignment.shard_of);
  InitWiring();
}

ShardedEngine::ShardedEngine(std::vector<BaseShard> shards,
                             ShardedEngineOptions options,
                             std::vector<uint32_t> shard_of)
    : options_(std::move(options)),
      shards_(std::move(shards)),
      shard_of_(std::move(shard_of)) {
  InitWiring();
}

void ShardedEngine::InitWiring() {
  shard_queries_ = std::vector<std::atomic<uint64_t>>(shards_.size());
  shard_skipped_ = std::vector<std::atomic<uint64_t>>(shards_.size());
  MetricsRegistry& registry = metrics();
  queries_total_ =
      registry.GetCounter("warpindex_shard_queries_total",
                          "Logical queries served by the sharded engine");
  subqueries_total_ =
      registry.GetCounter("warpindex_shard_subqueries_total",
                          "Per-shard sub-queries executed");
  skipped_total_ =
      registry.GetCounter("warpindex_shard_skipped_total",
                          "Shard visits avoided by feature-MBR pruning");
  fanout_hist_ = registry.GetHistogram(
      "warpindex_shard_fanout", LinearBoundaries(1.0, 1.0, 16),
      "Shards queried per logical query");
}

size_t ShardedEngine::live_size() const {
  size_t live = 0;
  for (const BaseShard& shard : shards_) {
    live += shard.engine->live_size();
  }
  return live;
}

std::pair<size_t, SequenceId> ShardedEngine::ToShardLocal(
    SequenceId global) const {
  const uint32_t s = shard_of_[static_cast<size_t>(global)];
  if (s == kDroppedShard) {
    return {s, kInvalidSequenceId};
  }
  const std::vector<SequenceId>& ids = *shards_[s].global_of;
  return {s, static_cast<SequenceId>(
                 std::lower_bound(ids.begin(), ids.end(), global) -
                 ids.begin())};
}

std::vector<size_t> ShardedEngine::SelectShards(const Point& query_point,
                                                double epsilon) const {
  logical_queries_.fetch_add(1, std::memory_order_relaxed);
  queries_total_->Increment();
  std::vector<size_t> active = ActivePartitions(shards_, query_point, epsilon);
  size_t cursor = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (cursor < active.size() && active[cursor] == s) {
      shard_queries_[s].fetch_add(1, std::memory_order_relaxed);
      ++cursor;
    } else {
      shard_skipped_[s].fetch_add(1, std::memory_order_relaxed);
    }
  }
  skipped_total_->Increment(shards_.size() - active.size());
  subqueries_total_->Increment(active.size());
  fanout_hist_->Observe(static_cast<double>(active.size()));
  return active;
}

SearchResult ShardedEngine::SearchWith(MethodKind kind, const Sequence& query,
                                       double epsilon, Trace* trace,
                                       DtwScratch* /*scratch*/) const {
  FanOutClock clock;
  const std::vector<size_t> active = SelectShards(
      FeatureIndex::FeatureToPoint(ExtractFeature(query)), epsilon);
  const uint64_t trace_id = trace != nullptr ? trace->trace_id() : 0;
  std::vector<SearchResult> partials(active.size());
  RunFanOut(pool_, shards_.size(), active, trace,
            {{"partitioner", static_cast<double>(options_.partitioner)}},
            &clock, [&](size_t i, size_t s, Trace* sub) {
              DtwScratch scratch;
              SearchResult& partial = partials[i];
              partial = shards_[s].engine->SearchWith(kind, query, epsilon,
                                                      sub, &scratch);
              TraceCounter(sub, "candidates",
                           static_cast<double>(partial.num_candidates));
              TraceCounter(sub, "matches",
                           static_cast<double>(partial.matches.size()));
              TraceCounter(sub, "index_nodes",
                           static_cast<double>(partial.cost.index_nodes));
              TraceCounter(sub, "dtw_evals",
                           static_cast<double>(partial.cost.dtw_evals));
              RecordShardFlight(s, MethodKindName(kind), epsilon,
                                query.size(), partial, trace_id);
              RemapToGlobal(*shards_[s].global_of, nullptr, &partial);
            });
  SearchResult result = MergeRange(&partials);
  clock.Stamp(&result.cost);
  return result;
}

KnnResult ShardedEngine::SearchKnnSeeded(const Sequence& query, size_t k,
                                         double seed_bound,
                                         Trace* trace) const {
  // No epsilon to prune against up front: every shard with a live MBR
  // feeds the one merged candidate stream, which reads only as far into
  // each shard's index as the global k-th distance allows.
  const std::vector<size_t> active =
      SelectShards(FeatureIndex::FeatureToPoint(ExtractFeature(query)),
                   kInfiniteDistance);
  return SearchPartitionsKnn(shards_, active, {}, {}, query, k, seed_bound,
                             trace);
}

void ShardedEngine::RecordShardFlight(size_t shard_index, const char* method,
                                      double epsilon, size_t query_length,
                                      const SearchResult& result,
                                      uint64_t trace_id) const {
  if (options_.flight_recorder == nullptr) {
    return;
  }
  FlightRecord record =
      MakeFlightRecord(method, epsilon, query_length, result.matches.size(),
                       result.num_candidates, result.cost, trace_id);
  record.shard = static_cast<int32_t>(shard_index);
  options_.flight_recorder->Record(std::move(record));
}

Status ShardedEngine::Save(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  ShardManifest manifest;
  manifest.partitioner = options_.partitioner;
  manifest.page_size_bytes = options_.engine.page_size_bytes;
  manifest.assignment.num_shards = shards_.size();
  manifest.assignment.shard_of = shard_of_;
  WARPINDEX_RETURN_IF_ERROR(
      SaveShardManifest(dir + "/manifest.wism", manifest));
  for (size_t s = 0; s < shards_.size(); ++s) {
    WARPINDEX_RETURN_IF_ERROR(
        shards_[s].engine->Save(dir + "/" + ShardSubdir(s)));
  }
  return Status::Ok();
}

Status ShardedEngine::Open(const std::string& dir,
                           ShardedEngineOptions options,
                           std::unique_ptr<ShardedEngine>* out) {
  const ShardSetShape shape{options.num_shards, options.partitioner,
                            options.engine.page_size_bytes};
  ShardSet set;
  WARPINDEX_RETURN_IF_ERROR(
      OpenShardSet(dir, {}, options.engine, &shape, &set));
  out->reset(new ShardedEngine(std::move(set.shards), std::move(options),
                               std::move(set.manifest.assignment.shard_of)));
  return Status::Ok();
}

ShardedEngine::Health ShardedEngine::TakeHealthSnapshot() const {
  Health health;
  health.num_shards = shards_.size();
  health.partitioner = options_.partitioner;
  // Per-instance state, not the registry counters: the registry can be
  // shared across engines, but Health describes this engine alone.
  health.queries_total = logical_queries_.load(std::memory_order_relaxed);
  health.shards.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardStatus& status = health.shards[s];
    status.shard_index = s;
    status.health = shards_[s].engine->TakeHealthSnapshot();
    status.bounds = shards_[s].bounds;
    status.queries = shard_queries_[s].load(std::memory_order_relaxed);
    status.skipped = shard_skipped_[s].load(std::memory_order_relaxed);
    health.subqueries_total += status.queries;
    health.shards_skipped_total += status.skipped;
  }
  return health;
}

}  // namespace warpindex
