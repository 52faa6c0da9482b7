// ShardedEngine: scatter-gather answers must be bit-identical to a single
// Engine over the same dataset, shard pruning must actually skip shards
// on clustered data (without changing answers), persistence must round-
// trip through the manifest and reject mismatched topologies, and the
// health snapshot / flight records must attribute work to shards.

#include "shard/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "exec/query_executor.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

Dataset WalkDataset(size_t n = 120, uint64_t seed = 42) {
  RandomWalkOptions options;
  options.num_sequences = n;
  options.min_length = 24;
  options.max_length = 56;
  options.seed = seed;
  return GenerateRandomWalkDataset(options);
}

// Two feature-space clusters far apart: the range partitioner separates
// them into shards with disjoint MBRs, so a cluster-local query can
// prune the far shard.
Dataset ClusteredDataset(size_t per_cluster = 40) {
  RandomWalkOptions low;
  low.num_sequences = per_cluster;
  low.min_length = 24;
  low.max_length = 40;
  low.start_min = 0.0;
  low.start_max = 1.0;
  low.seed = 5;
  Dataset dataset = GenerateRandomWalkDataset(low);
  RandomWalkOptions high = low;
  high.start_min = 200.0;
  high.start_max = 201.0;
  high.seed = 6;
  const Dataset far_cluster = GenerateRandomWalkDataset(high);
  for (size_t i = 0; i < far_cluster.size(); ++i) {
    dataset.Add(far_cluster[i]);
  }
  return dataset;
}

std::string TempDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<SequenceId> Sorted(std::vector<SequenceId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

ShardedEngineOptions ShardOptions(size_t k, PartitionerKind partitioner) {
  ShardedEngineOptions options;
  options.num_shards = k;
  options.partitioner = partitioner;
  options.engine.metrics = nullptr;  // tests tolerate the global registry
  return options;
}

TEST(ShardedEngineTest, RangeSearchMatchesSingleEngine) {
  const Engine single(WalkDataset(), EngineOptions{});
  const auto queries = GenerateQueryWorkload(
      single.dataset(), QueryWorkloadOptions{.num_queries = 8});
  for (const PartitionerKind partitioner :
       {PartitionerKind::kHash, PartitionerKind::kRange}) {
    const ShardedEngine sharded(WalkDataset(),
                                ShardOptions(3, partitioner));
    ASSERT_EQ(sharded.num_shards(), 3u);
    for (const Sequence& q : queries) {
      for (const double epsilon : {0.05, 0.2, 0.5}) {
        const SearchResult expected = single.Search(q, epsilon);
        const SearchResult got = sharded.Search(q, epsilon);
        EXPECT_EQ(got.matches, Sorted(expected.matches))
            << PartitionerKindName(partitioner) << " eps=" << epsilon;
        EXPECT_EQ(got.num_candidates, expected.num_candidates);
      }
    }
  }
}

TEST(ShardedEngineTest, MatchesComeBackSortedByGlobalId) {
  const ShardedEngine sharded(
      WalkDataset(), ShardOptions(4, PartitionerKind::kHash));
  const auto queries = GenerateQueryWorkload(
      Dataset(WalkDataset().sequences()),
      QueryWorkloadOptions{.num_queries = 5});
  for (const Sequence& q : queries) {
    const SearchResult got = sharded.Search(q, 0.4);
    EXPECT_TRUE(std::is_sorted(got.matches.begin(), got.matches.end()));
  }
}

TEST(ShardedEngineTest, KnnMatchesSingleEngineExactly) {
  const Engine single(WalkDataset(), EngineOptions{});
  const auto queries = GenerateQueryWorkload(
      single.dataset(), QueryWorkloadOptions{.num_queries = 6});
  for (const PartitionerKind partitioner :
       {PartitionerKind::kHash, PartitionerKind::kRange}) {
    const ShardedEngine sharded(WalkDataset(),
                                ShardOptions(4, partitioner));
    for (const Sequence& q : queries) {
      for (const size_t k : {1u, 5u, 12u}) {
        const KnnResult expected = single.SearchKnn(q, k);
        const KnnResult got = sharded.SearchKnn(q, k);
        ASSERT_EQ(got.neighbors.size(), expected.neighbors.size());
        for (size_t i = 0; i < expected.neighbors.size(); ++i) {
          EXPECT_EQ(got.neighbors[i].id, expected.neighbors[i].id)
              << "k=" << k << " i=" << i;
          EXPECT_EQ(got.neighbors[i].distance,
                    expected.neighbors[i].distance);
        }
      }
    }
  }
}

TEST(ShardedEngineTest, IdMappingRoundTrips) {
  const ShardedEngine sharded(
      WalkDataset(90), ShardOptions(4, PartitionerKind::kRange));
  EXPECT_EQ(sharded.total_sequences(), 90u);
  EXPECT_EQ(sharded.live_size(), 90u);
  size_t across = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    across += sharded.shard(s).live_size();
  }
  EXPECT_EQ(across, 90u);
  for (SequenceId global = 0; global < 90; ++global) {
    const auto [shard, local] = sharded.ToShardLocal(global);
    EXPECT_EQ(sharded.ToGlobalId(shard, local), global);
  }
}

TEST(ShardedEngineTest, LocalIdsPreserveGlobalOrderWithinAShard) {
  // The deterministic kNN merge relies on per-shard orderings agreeing
  // with the global one: local ids must be assigned in increasing
  // global-id order.
  const ShardedEngine sharded(
      WalkDataset(100), ShardOptions(3, PartitionerKind::kHash));
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const size_t n = sharded.shard(s).dataset().size();
    for (size_t local = 1; local < n; ++local) {
      EXPECT_LT(sharded.ToGlobalId(s, static_cast<SequenceId>(local - 1)),
                sharded.ToGlobalId(s, static_cast<SequenceId>(local)));
    }
  }
}

TEST(ShardedEngineTest, RangePartitionerPrunesFarShardsOnClusteredData) {
  const Dataset dataset = ClusteredDataset();
  const Engine single(ClusteredDataset(), EngineOptions{});
  const ShardedEngine sharded(ClusteredDataset(),
                              ShardOptions(2, PartitionerKind::kRange));

  // A query perturbed from a low-cluster sequence with a small epsilon
  // cannot reach the far cluster: its shard must be skipped untouched.
  const Sequence q = PerturbSequence(dataset[3], 17);
  const SearchResult expected = single.Search(q, 0.3);
  const SearchResult got = sharded.Search(q, 0.3);
  EXPECT_EQ(got.matches, Sorted(expected.matches));

  const ShardedEngine::Health health = sharded.TakeHealthSnapshot();
  EXPECT_EQ(health.queries_total, 1u);
  EXPECT_EQ(health.subqueries_total, 1u);  // one shard pruned away
  EXPECT_EQ(health.shards_skipped_total, 1u);
  uint64_t skipped = 0;
  for (const ShardedEngine::ShardStatus& s : health.shards) {
    skipped += s.skipped;
  }
  EXPECT_EQ(skipped, 1u);
}

TEST(ShardedEngineTest, EmptyShardsAreSkippedNotSearched) {
  // More shards than sequences forces empty shards; queries must still
  // answer correctly and never touch the empty ones.
  const Engine single(WalkDataset(5), EngineOptions{});
  const ShardedEngine sharded(WalkDataset(5),
                              ShardOptions(8, PartitionerKind::kHash));
  const Sequence q = PerturbSequence(single.dataset()[2], 3);
  const SearchResult expected = single.Search(q, 0.4);
  EXPECT_EQ(sharded.Search(q, 0.4).matches, Sorted(expected.matches));
  const KnnResult expected_knn = single.SearchKnn(q, 3);
  const KnnResult got_knn = sharded.SearchKnn(q, 3);
  ASSERT_EQ(got_knn.neighbors.size(), expected_knn.neighbors.size());
  for (size_t i = 0; i < got_knn.neighbors.size(); ++i) {
    EXPECT_EQ(got_knn.neighbors[i].id, expected_knn.neighbors[i].id);
  }
}

TEST(ShardedEngineTest, CostsAggregateAcrossShards) {
  const Engine single(WalkDataset(), EngineOptions{});
  const ShardedEngine sharded(WalkDataset(),
                              ShardOptions(4, PartitionerKind::kHash));
  const Sequence q = PerturbSequence(single.dataset()[10], 9);
  const SearchResult expected = single.Search(q, 0.4);
  const SearchResult got = sharded.Search(q, 0.4);
  // Work counters sum across shards; the same candidates get fetched and
  // DTW'd, just in K index traversals instead of one.
  EXPECT_EQ(got.cost.dtw_cells, expected.cost.dtw_cells);
  EXPECT_EQ(got.cost.dtw_evals, expected.cost.dtw_evals);
  EXPECT_GT(got.cost.index_nodes, 0u);
  EXPECT_GE(got.cost.wall_ms, 0.0);
}

TEST(ShardedEngineTest, SaveOpenRoundTripPreservesAnswers) {
  const std::string dir = TempDir("sharded_roundtrip");
  const ShardedEngineOptions options =
      ShardOptions(3, PartitionerKind::kRange);
  const ShardedEngine original(WalkDataset(), options);
  ASSERT_TRUE(original.Save(dir).ok());

  std::unique_ptr<ShardedEngine> reopened;
  ASSERT_TRUE(ShardedEngine::Open(dir, options, &reopened).ok());
  EXPECT_EQ(reopened->num_shards(), 3u);
  EXPECT_EQ(reopened->partitioner(), PartitionerKind::kRange);
  EXPECT_EQ(reopened->total_sequences(), original.total_sequences());

  const auto queries =
      GenerateQueryWorkload(Dataset(WalkDataset().sequences()),
                            QueryWorkloadOptions{.num_queries = 6});
  for (const Sequence& q : queries) {
    EXPECT_EQ(reopened->Search(q, 0.3).matches,
              original.Search(q, 0.3).matches);
    const KnnResult a = original.SearchKnn(q, 4);
    const KnnResult b = reopened->SearchKnn(q, 4);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedEngineTest, OpenRejectsMismatchedTopology) {
  const std::string dir = TempDir("sharded_mismatch");
  const ShardedEngine original(
      WalkDataset(40), ShardOptions(4, PartitionerKind::kHash));
  ASSERT_TRUE(original.Save(dir).ok());

  std::unique_ptr<ShardedEngine> reopened;
  // Wrong shard count.
  Status status =
      ShardedEngine::Open(dir, ShardOptions(2, PartitionerKind::kHash),
                          &reopened);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shard"), std::string::npos);
  // Wrong partitioner.
  status = ShardedEngine::Open(
      dir, ShardOptions(4, PartitionerKind::kRange), &reopened);
  EXPECT_FALSE(status.ok());
  // Wrong page size.
  ShardedEngineOptions bad_page = ShardOptions(4, PartitionerKind::kHash);
  bad_page.engine.page_size_bytes = 4096;
  status = ShardedEngine::Open(dir, bad_page, &reopened);
  EXPECT_FALSE(status.ok());
  // The matching topology still opens.
  status = ShardedEngine::Open(
      dir, ShardOptions(4, PartitionerKind::kHash), &reopened);
  EXPECT_TRUE(status.ok()) << status.message();
  std::filesystem::remove_all(dir);
}

TEST(ShardedEngineTest, HealthSnapshotExposesPerShardState) {
  const ShardedEngine sharded(
      WalkDataset(80), ShardOptions(4, PartitionerKind::kRange));
  const Sequence q = PerturbSequence(sharded.shard(0).dataset()[0], 1);
  (void)sharded.Search(q, 0.2);
  (void)sharded.Search(q, 0.2);

  const ShardedEngine::Health health = sharded.TakeHealthSnapshot();
  EXPECT_EQ(health.num_shards, 4u);
  EXPECT_EQ(health.partitioner, PartitionerKind::kRange);
  EXPECT_EQ(health.queries_total, 2u);
  EXPECT_EQ(health.subqueries_total + health.shards_skipped_total, 8u);
  ASSERT_EQ(health.shards.size(), 4u);
  size_t live = 0;
  for (size_t s = 0; s < 4; ++s) {
    const ShardedEngine::ShardStatus& status = health.shards[s];
    EXPECT_EQ(status.shard_index, s);
    EXPECT_GT(status.health.dataset_sequences, 0u);
    EXPECT_EQ(status.health.index_entries, status.health.live_sequences);
    EXPECT_TRUE(status.bounds.valid);
    live += status.health.live_sequences;
  }
  EXPECT_EQ(live, 80u);
}

TEST(ShardedEngineTest, ExecutorBatchOverShardedEngineMatchesSequential) {
  const Engine single(WalkDataset(), EngineOptions{});
  ShardedEngine sharded(WalkDataset(),
                        ShardOptions(4, PartitionerKind::kHash));
  const auto queries = GenerateQueryWorkload(
      single.dataset(), QueryWorkloadOptions{.num_queries = 10});

  std::vector<QueryRequest> requests;
  for (const Sequence& q : queries) {
    requests.push_back(QueryRequest{MethodKind::kTwSimSearch, q, 0.35});
    requests.push_back(
        QueryRequest{MethodKind::kTwSimSearchCascade, q, 0.35});
  }

  QueryExecutorOptions options;
  options.num_threads = 4;
  QueryExecutor executor(&sharded, options);
  sharded.AttachPool(&executor.pool());  // shard fan-out shares the pool
  const BatchResult batch = executor.SubmitBatch(requests);
  ASSERT_EQ(batch.results.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const SearchResult expected = single.SearchWith(
        requests[i].method, requests[i].query, requests[i].epsilon);
    EXPECT_EQ(batch.results[i].matches, Sorted(expected.matches))
        << "request " << i;
  }
}

TEST(ShardedEngineTest, FlightRecordsCarryShardIds) {
  FlightRecorder recorder;
  ShardedEngineOptions options = ShardOptions(3, PartitionerKind::kHash);
  options.flight_recorder = &recorder;
  const ShardedEngine sharded(WalkDataset(60), options);
  const Sequence q = PerturbSequence(sharded.shard(0).dataset()[0], 2);
  (void)sharded.Search(q, 0.4);

  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_FALSE(records.empty());
  std::vector<int32_t> shards;
  for (const FlightRecord& r : records) {
    EXPECT_GE(r.shard, 0);
    EXPECT_LT(r.shard, 3);
    EXPECT_EQ(r.method, "TW-Sim-Search");
    shards.push_back(r.shard);
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  EXPECT_EQ(shards.size(), records.size());  // one record per shard
}

// Per-query CPU attribution through the sharded merge: MergeParallel
// keeps CPU additive (machine work sums even when shards overlap in
// time), so the merged cpu_ms must carry at least the sum of the
// per-shard cpu_ms the flight records report, and with a multi-worker
// pool the fan-out can burn CPU faster than wall time elapses.
TEST(ShardedEngineTest, MergedCpuIsAtLeastSumOfPerShardCpu) {
  FlightRecorder recorder;
  ShardedEngineOptions options = ShardOptions(3, PartitionerKind::kHash);
  options.flight_recorder = &recorder;
  ShardedEngine sharded(WalkDataset(200), options);
  ThreadPool pool(3);
  sharded.AttachPool(&pool);
  const Sequence q = PerturbSequence(sharded.shard(0).dataset()[0], 2);
  const SearchResult result = sharded.Search(q, 0.6);

  double per_shard_cpu = 0.0;
  for (const FlightRecord& r : recorder.Snapshot()) {
    EXPECT_GE(r.cpu_ms, 0.0);
    per_shard_cpu += r.cpu_ms;
  }
  EXPECT_GT(result.cost.cpu_ms, 0.0);
  // Merged CPU = sum of shard CPU + the merge layer's own (non-negative)
  // CPU; a small epsilon absorbs clock granularity.
  EXPECT_GE(result.cost.cpu_ms, per_shard_cpu - 0.05)
      << "merged " << result.cost.cpu_ms << " vs per-shard sum "
      << per_shard_cpu;
  sharded.AttachPool(nullptr);
}

TEST(ShardedEngineTest, ShardMetricsLandInTheSharedRegistry) {
  MetricsRegistry registry;
  ShardedEngineOptions options = ShardOptions(4, PartitionerKind::kHash);
  options.engine.metrics = &registry;
  const ShardedEngine sharded(WalkDataset(60), options);
  const Sequence q = PerturbSequence(sharded.shard(1).dataset()[0], 2);
  // A huge epsilon keeps every shard unprunable, pinning the fan-out.
  (void)sharded.Search(q, 50.0);
  (void)sharded.Search(q, 50.0);

  const MetricsRegistry::Snapshot snapshot = registry.TakeSnapshot();
  uint64_t logical = 0;
  uint64_t sub = 0;
  bool saw_fanout = false;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "warpindex_shard_queries_total") {
      logical = counter.value;
    }
    if (counter.name == "warpindex_shard_subqueries_total") {
      sub = counter.value;
    }
  }
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "warpindex_shard_fanout") {
      saw_fanout = true;
      EXPECT_EQ(histogram.snapshot.stats.count(), 2u);
    }
  }
  EXPECT_EQ(logical, 2u);
  // Hash spreads the data, so every shard is live and unprunable at this
  // epsilon; each logical query fans out to all four shards.
  EXPECT_EQ(sub, 8u);
  EXPECT_TRUE(saw_fanout);
}

// The tree shape a stitched trace must reproduce regardless of which
// thread ran which shard: (name, parent, shard) per span, in span order.
// tid is deliberately excluded — it varies with pool scheduling.
struct SpanShape {
  std::string name;
  int parent;
  int32_t shard;
  bool operator==(const SpanShape& other) const {
    return name == other.name && parent == other.parent &&
           shard == other.shard;
  }
};

std::vector<SpanShape> ShapeOf(const Trace& trace) {
  std::vector<SpanShape> shape;
  shape.reserve(trace.spans().size());
  for (const TraceSpan& span : trace.spans()) {
    shape.push_back(SpanShape{span.name, span.parent, span.shard});
  }
  return shape;
}

TEST(ShardedTracingTest, OneStitchedTraceContainsEveryShardSubtree) {
  const ShardedEngine sharded(WalkDataset(),
                              ShardOptions(4, PartitionerKind::kHash));
  const Sequence q = PerturbSequence(sharded.shard(0).dataset()[0], 3);
  Trace trace;
  // Epsilon large enough that no shard is pruned: all four must appear.
  (void)sharded.Search(q, 50.0, &trace);

  int scatter_gather = -1;
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    if (trace.spans()[i].name == "scatter_gather") {
      scatter_gather = static_cast<int>(i);
    }
  }
  ASSERT_GE(scatter_gather, 0);

  std::vector<int32_t> shard_tags;
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    const TraceSpan& span = trace.spans()[i];
    if (span.name != "shard") {
      continue;
    }
    // Each per-shard subtree hangs off the scatter-gather span and is
    // tagged with its shard id, both on the span and as a counter.
    EXPECT_EQ(span.parent, scatter_gather);
    shard_tags.push_back(span.shard);
    bool saw_index = false;
    for (const auto& [key, value] : span.counters) {
      if (key == "shard_index") {
        saw_index = true;
        EXPECT_DOUBLE_EQ(value, static_cast<double>(span.shard));
      }
    }
    EXPECT_TRUE(saw_index);
    // The shard's own engine recorded inside the subtree: at least one
    // descendant span carrying the same shard tag.
    bool saw_child = false;
    for (size_t j = 0; j < trace.spans().size(); ++j) {
      if (trace.spans()[j].parent == static_cast<int>(i)) {
        saw_child = true;
        EXPECT_EQ(trace.spans()[j].shard, span.shard);
      }
    }
    EXPECT_TRUE(saw_child);
  }
  std::sort(shard_tags.begin(), shard_tags.end());
  EXPECT_EQ(shard_tags, (std::vector<int32_t>{0, 1, 2, 3}));
}

TEST(ShardedTracingTest, StitchedShapeIsIdenticalWithAndWithoutPool) {
  ShardedEngine sharded(WalkDataset(),
                        ShardOptions(3, PartitionerKind::kRange));
  const Sequence q = PerturbSequence(sharded.shard(1).dataset()[0], 9);

  Trace detached;
  (void)sharded.Search(q, 50.0, &detached);

  ThreadPool pool(4);
  sharded.AttachPool(&pool);
  Trace attached;
  (void)sharded.Search(q, 50.0, &attached);
  sharded.AttachPool(nullptr);

  // Stitching in shard order makes the tree shape deterministic: the
  // same query yields the same (name, parent, shard) sequence whether
  // shards ran inline on the caller or raced on pool workers.
  EXPECT_EQ(ShapeOf(detached), ShapeOf(attached));
  EXPECT_NE(detached.trace_id(), attached.trace_id());
}

TEST(ShardedTracingTest, PrunedShardsLeaveSkipMarkers) {
  ShardedEngineOptions options = ShardOptions(2, PartitionerKind::kRange);
  const ShardedEngine sharded(ClusteredDataset(), options);
  // A query inside the low cluster at tight epsilon prunes the far
  // shard; the trace must still account for it with a skip marker.
  const Sequence q = PerturbSequence(sharded.shard(0).dataset()[0], 13);
  Trace trace;
  (void)sharded.Search(q, 0.25, &trace);

  size_t searched = 0;
  size_t skipped = 0;
  std::vector<int32_t> seen;
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == "shard") {
      ++searched;
      seen.push_back(span.shard);
    } else if (span.name == "shard_skipped") {
      ++skipped;
      seen.push_back(span.shard);
      EXPECT_LT(span.duration_ms, 1.0);  // a marker, not real work
    }
  }
  EXPECT_GE(searched, 1u);
  EXPECT_GE(skipped, 1u);
  // Together the searched and skipped markers cover both shards.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int32_t>{0, 1}));
}

TEST(ShardedTracingTest, UntracedShardedSearchRecordsNoSpans) {
  ShardedEngine sharded(WalkDataset(),
                        ShardOptions(3, PartitionerKind::kHash));
  const Sequence q = PerturbSequence(sharded.shard(0).dataset()[0], 5);
  // The null-trace fan-out is the production default; it must work with
  // and without a pool and allocate no spans anywhere.
  const SearchResult without_pool = sharded.Search(q, 0.4, nullptr);
  ThreadPool pool(2);
  sharded.AttachPool(&pool);
  const SearchResult with_pool = sharded.Search(q, 0.4, nullptr);
  EXPECT_EQ(without_pool.matches, with_pool.matches);
}

}  // namespace
}  // namespace warpindex
