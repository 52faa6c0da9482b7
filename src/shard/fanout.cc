#include "shard/fanout.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <utility>

#include "shard/scatter_gather.h"

namespace warpindex {
namespace {

// Zero-duration "shard_skipped" markers (tagged with the partition) for
// every partition not in the ascending `active`, under the open span.
void MarkSkipped(Trace* trace, size_t num_partitions,
                 const std::vector<size_t>& active) {
  if (active.size() == num_partitions) {
    return;
  }
  size_t cursor = 0;
  for (size_t s = 0; s < num_partitions; ++s) {
    if (cursor < active.size() && active[cursor] == s) {
      ++cursor;
      continue;
    }
    trace->SetThreadTag(static_cast<int32_t>(s), 0);
    const size_t marker = trace->BeginSpan("shard_skipped");
    trace->AddCounter("shard_index", static_cast<double>(s));
    trace->EndSpan(marker);
  }
  trace->SetThreadTag(-1, 0);
}

// Live-only feature MBR of one engine.
ShardFeatureBounds LiveBounds(const Engine& engine) {
  ShardFeatureBounds bounds;
  const Dataset& data = engine.dataset();
  for (size_t local = 0; local < data.size(); ++local) {
    if (engine.Contains(static_cast<SequenceId>(local))) {
      bounds.Cover(ExtractFeature(data[local]));
    }
  }
  return bounds;
}

Status CheckShardManifest(const ShardManifest& manifest,
                          const ShardSetShape& shape) {
  if (manifest.assignment.num_shards != shape.num_shards) {
    return Status::InvalidArgument(
        "shard count mismatch: saved " +
        std::to_string(manifest.assignment.num_shards) + ", requested " +
        std::to_string(shape.num_shards));
  }
  if (manifest.partitioner != shape.partitioner) {
    return Status::InvalidArgument(
        std::string("partitioner mismatch: saved ") +
        PartitionerKindName(manifest.partitioner) + ", requested " +
        PartitionerKindName(shape.partitioner));
  }
  if (manifest.page_size_bytes != shape.page_size_bytes) {
    return Status::InvalidArgument(
        "page size mismatch between saved shards and EngineOptions");
  }
  return Status::Ok();
}

// SearchPartitionsKnn's candidate stream: a heap on (lower bound, global
// id) over every buffered row and one head per active partition, the
// next record of its nearest iterator, pulled again whenever the loop
// takes it. The heap is filled on the first Next, inside the loop's
// descent time.
class PartitionCandidates final : public KnnCandidateStream {
 public:
  PartitionCandidates(const std::vector<BaseShard>& shards,
                      const std::vector<size_t>& active,
                      const std::vector<const std::vector<SequenceId>*>& dead,
                      std::vector<BufferedKnnRow> buffered,
                      const Point& query_point)
      : buffered_(std::move(buffered)) {
    for (const size_t s : active) {
      partitions_.push_back(
          {&shards[s], dead.empty() ? nullptr : dead[s],
           shards[s].engine->feature_index().rtree().NearestLinf(
               query_point, &stats_)});
    }
  }

  bool Next(KnnCandidate* out) override {
    if (!started_) {
      started_ = true;
      for (size_t source = 0; source < partitions_.size(); ++source) {
        Advance(source);
      }
      for (size_t i = 0; i < buffered_.size(); ++i) {
        heads_.push({buffered_[i].lower_bound, buffered_[i].id,
                     kBufferedSource, static_cast<int64_t>(i)});
      }
    }
    if (heads_.empty()) {
      return false;
    }
    *out = heads_.top();
    heads_.pop();
    if (out->source != kBufferedSource) {
      Advance(out->source);
    }
    return true;
  }

  const Sequence& Fetch(const KnnCandidate& candidate, IoStats* io,
                        Trace* trace) override {
    if (candidate.source == kBufferedSource) {
      return *buffered_[static_cast<size_t>(candidate.record)].sequence;
    }
    return partitions_[candidate.source].shard->engine->store().Fetch(
        candidate.record, io, trace);
  }

  uint64_t nodes_accessed() const override { return stats_.nodes_accessed; }

 private:
  static constexpr size_t kBufferedSource = static_cast<size_t>(-1);

  struct Partition {
    const BaseShard* shard;
    const std::vector<SequenceId>* dead;
    RTree::LinfNearestIterator it;
  };
  // Min-heap order on (lower bound, id).
  struct Later {
    bool operator()(const KnnCandidate& a, const KnnCandidate& b) const {
      return std::make_pair(a.lower_bound, a.id) >
             std::make_pair(b.lower_bound, b.id);
    }
  };

  // Pushes partition `source`'s next record whose global id is not dead,
  // if any.
  void Advance(size_t source) {
    Partition& partition = partitions_[source];
    RTree::Neighbor neighbor;
    while (partition.it.Next(&neighbor)) {
      const SequenceId global = (*partition.shard->global_of)[
          static_cast<size_t>(neighbor.record_id)];
      if (!IsDead(partition.dead, global)) {
        heads_.push({neighbor.distance, global, source, neighbor.record_id});
        return;
      }
    }
  }

  RTreeQueryStats stats_;  // shared by every partition's iterator
  std::vector<Partition> partitions_;
  std::vector<BufferedKnnRow> buffered_;
  std::priority_queue<KnnCandidate, std::vector<KnnCandidate>, Later> heads_;
  bool started_ = false;
};

}  // namespace

void FanOutClock::Stamp(SearchCost* cost) const {
  cost->wall_ms = wall_.ElapsedMillis();
  cost->cpu_ms += std::max(0.0, cpu_.ElapsedMillis() - excluded_cpu_ms_);
}

void RunFanOut(
    ThreadPool* pool, size_t num_partitions, const std::vector<size_t>& active,
    Trace* trace,
    std::initializer_list<std::pair<std::string_view, double>> counters,
    FanOutClock* clock, const PartitionTask& task) {
  ScopedSpan span(trace, "scatter_gather");
  std::vector<Trace> subs;
  if (trace != nullptr) {
    trace->AddCounter("shard_fanout", static_cast<double>(active.size()));
    trace->AddCounter("shards_skipped",
                      static_cast<double>(num_partitions - active.size()));
    for (const auto& [name, value] : counters) {
      trace->AddCounter(name, value);
    }
    MarkSkipped(trace, num_partitions, active);
    // A Trace is single-writer, so each task records into its own child
    // (same trace_id and clock zero), stitched back below.
    subs.assign(active.size(), Trace(trace->ContextForSpan(span.index())));
  }
  ThreadCpuTimer fanout_cpu;
  ScatterGather(pool).Run(active.size(), [&](size_t i) {
    const size_t s = active[i];
    if (trace == nullptr) {
      task(i, s, nullptr);
      return;
    }
    Trace* sub = &subs[i];
    sub->SetThreadTag(
        static_cast<int32_t>(s),
        static_cast<uint32_t>(ThreadPool::current_worker_index() + 1));
    const size_t shard_span = sub->BeginSpan("shard");
    sub->AddCounter("shard_index", static_cast<double>(s));
    task(i, s, sub);
    sub->EndSpan(shard_span);
  });
  clock->ExcludeCpu(fanout_cpu.ElapsedMillis());
  for (const Trace& sub : subs) {
    trace->Adopt(span.index(), sub);
  }
}

void RemapToGlobal(const std::vector<SequenceId>& global_of,
                   const std::vector<SequenceId>* dead,
                   SearchResult* partial) {
  // Distances travel with their ids when present (see
  // CanonicalizeMatchOrder for answers that carry none).
  const bool paired = partial->distances.size() == partial->matches.size();
  size_t kept = 0;
  for (size_t m = 0; m < partial->matches.size(); ++m) {
    const SequenceId g =
        global_of[static_cast<size_t>(partial->matches[m])];
    if (IsDead(dead, g)) {
      continue;
    }
    partial->matches[kept] = g;
    if (paired) {
      partial->distances[kept] = partial->distances[m];
    }
    ++kept;
  }
  partial->matches.resize(kept);
  if (paired) {
    partial->distances.resize(kept);
  }
}

SearchResult MergeRange(std::vector<SearchResult>* partials) {
  SearchResult result;
  for (const SearchResult& partial : *partials) {
    result.num_candidates += partial.num_candidates;
    result.matches.insert(result.matches.end(), partial.matches.begin(),
                          partial.matches.end());
    result.distances.insert(result.distances.end(),
                            partial.distances.begin(),
                            partial.distances.end());
    result.cost.MergeParallel(partial.cost);
  }
  CanonicalizeMatchOrder(&result);
  return result;
}

void KeepTopK(size_t k, std::vector<KnnMatch>* matches) {
  std::sort(matches->begin(), matches->end(), KnnMatchOrder);
  if (matches->size() > k) {
    matches->resize(k);
  }
}

KnnResult SearchPartitionsKnn(
    const std::vector<BaseShard>& shards, const std::vector<size_t>& active,
    const std::vector<const std::vector<SequenceId>*>& dead,
    std::vector<BufferedKnnRow> buffered, const Sequence& query, size_t k,
    double seed_bound, Trace* trace) {
  PartitionCandidates candidates(
      shards, active, dead, std::move(buffered),
      FeatureIndex::FeatureToPoint(ExtractFeature(query)));
  return shards.front().engine->SearchKnnOver(query, k, seed_bound,
                                              &candidates, trace);
}

std::vector<BaseShard> BuildShardSet(const Dataset& dataset,
                                     const ShardAssignment& assignment,
                                     const EngineOptions& options) {
  // Dataset::Add re-ids each copy to its position, and global ids are
  // visited ascending, so local ids preserve global order.
  std::vector<Dataset> parts(assignment.num_shards);
  std::vector<std::vector<SequenceId>> global_of(assignment.num_shards);
  for (size_t g = 0; g < dataset.size(); ++g) {
    const uint32_t s = assignment.shard_of[g];
    parts[s].Add(dataset[g]);
    global_of[s].push_back(static_cast<SequenceId>(g));
  }
  std::vector<BaseShard> shards(assignment.num_shards);
  for (size_t s = 0; s < shards.size(); ++s) {
    shards[s].engine = std::make_shared<Engine>(std::move(parts[s]), options);
    shards[s].global_of = std::make_shared<const std::vector<SequenceId>>(
        std::move(global_of[s]));
    shards[s].bounds = LiveBounds(*shards[s].engine);
  }
  return shards;
}

Status OpenShardSet(const std::string& dir,
                    const std::vector<uint32_t>& shard_ids,
                    EngineOptions engine, const ShardSetShape* expect,
                    ShardSet* out) {
  ShardManifest& manifest = out->manifest;
  WARPINDEX_RETURN_IF_ERROR(
      LoadShardManifest(dir + "/manifest.wism", &manifest));
  if (expect != nullptr) {
    WARPINDEX_RETURN_IF_ERROR(CheckShardManifest(manifest, *expect));
  }
  std::vector<uint32_t> ids = shard_ids;
  if (ids.empty()) {
    for (uint32_t s = 0; s < manifest.assignment.num_shards; ++s) {
      ids.push_back(s);
    }
  }
  std::set<uint32_t> seen;
  for (const uint32_t shard : ids) {
    if (shard >= manifest.assignment.num_shards) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard) + " out of range: manifest has " +
          std::to_string(manifest.assignment.num_shards) + " shards");
    }
    if (!seen.insert(shard).second) {
      return Status::InvalidArgument("shard " + std::to_string(shard) +
                                     " listed twice");
    }
  }
  engine.page_size_bytes = manifest.page_size_bytes;

  // Local ids were assigned in ascending global order, so one forward
  // scan of the assignment rebuilds every local -> global map (ids the
  // manifest marks dropped map to no shard).
  std::vector<std::vector<SequenceId>> global_of(
      manifest.assignment.num_shards);
  const std::vector<uint32_t>& shard_of = manifest.assignment.shard_of;
  for (size_t g = 0; g < shard_of.size(); ++g) {
    if (shard_of[g] != kDroppedShard) {
      global_of[shard_of[g]].push_back(static_cast<SequenceId>(g));
    }
  }
  out->shards.clear();
  out->shards.reserve(ids.size());
  for (const uint32_t shard : ids) {
    std::unique_ptr<Engine> opened;
    WARPINDEX_RETURN_IF_ERROR(
        Engine::Open(dir + "/" + ShardSubdir(shard), engine, &opened));
    // The manifest and the shard directories travel separately; make
    // sure they still describe the same database.
    if (opened->dataset().size() != global_of[shard].size()) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard) +
          " holds a different sequence count than the manifest assigns");
    }
    BaseShard base;
    base.bounds = LiveBounds(*opened);
    base.engine = std::move(opened);
    base.global_of = std::make_shared<const std::vector<SequenceId>>(
        std::move(global_of[shard]));
    out->shards.push_back(std::move(base));
  }
  return Status::Ok();
}

std::vector<FeatureKey> InitialRangeCuts(const std::vector<BaseShard>& shards) {
  FeatureKey lowest;
  lowest.fill(-std::numeric_limits<double>::infinity());
  std::vector<FeatureKey> cuts(shards.size(), lowest);
  for (size_t s = 0; s < shards.size(); ++s) {
    const Dataset& data = shards[s].engine->dataset();
    for (size_t local = 0; local < data.size(); ++local) {
      cuts[s] = std::max(cuts[s], FeatureKeyOf(ExtractFeature(data[local])));
    }
    if (s > 0) {
      cuts[s] = std::max(cuts[s], cuts[s - 1]);
    }
  }
  return cuts;
}

}  // namespace warpindex
