// The sharding acceptance property: for every shard count, both
// partitioners, every search method, and kNN, a ShardedEngine answers
// bit-identically to a single Engine over the same dataset — with a real
// thread pool attached, so running this under TSan also certifies the
// scatter-gather fan-out is race-free. kNN runs one refine loop over the
// partitions' merged candidate stream, so its work must not depend on
// the shard count either.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "exec/thread_pool.h"
#include "ingest/ingest_engine.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "shard/sharded_engine.h"

namespace warpindex {
namespace {

Dataset WalkDataset(uint64_t seed) {
  RandomWalkOptions options;
  options.num_sequences = 90;
  options.min_length = 20;
  options.max_length = 48;
  options.seed = seed;
  return GenerateRandomWalkDataset(options);
}

std::vector<SequenceId> Sorted(std::vector<SequenceId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// The (name, shard) multiset of a trace's "shard" and "shard_skipped"
// spans: which partitions were searched and which were pruned.
std::vector<std::pair<std::string, int32_t>> ShardSpans(const Trace& trace) {
  std::vector<std::pair<std::string, int32_t>> spans;
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == "shard" || span.name == "shard_skipped") {
      spans.emplace_back(span.name, span.shard);
    }
  }
  std::sort(spans.begin(), spans.end());
  return spans;
}

// The (name, parent) sequence of a trace's spans: its tree shape.
std::vector<std::pair<std::string, int>> SpanTree(const Trace& trace) {
  std::vector<std::pair<std::string, int>> tree;
  for (const TraceSpan& span : trace.spans()) {
    tree.emplace_back(span.name, span.parent);
  }
  return tree;
}

class ShardPropertyTest : public ::testing::TestWithParam<PartitionerKind> {
};

TEST_P(ShardPropertyTest, EveryMethodMatchesSingleEngineForEveryK) {
  const uint64_t seeds[] = {3, 71};
  for (const uint64_t seed : seeds) {
    const Engine single(WalkDataset(seed), EngineOptions{});
    const auto queries = GenerateQueryWorkload(
        single.dataset(),
        QueryWorkloadOptions{.num_queries = 6, .seed = seed + 1});

    for (const size_t k : {1u, 2u, 4u, 7u}) {
      ShardedEngineOptions options;
      options.num_shards = k;
      options.partitioner = GetParam();
      ShardedEngine sharded(WalkDataset(seed), options);
      ThreadPool pool(4);
      sharded.AttachPool(&pool);

      const MethodKind kinds[] = {
          MethodKind::kTwSimSearch, MethodKind::kTwSimSearchCascade,
          MethodKind::kNaiveScan, MethodKind::kLbScan};
      for (const Sequence& q : queries) {
        for (const double epsilon : {0.1, 0.35}) {
          const std::vector<SequenceId> expected =
              Sorted(single.Search(q, epsilon).matches);
          for (const MethodKind kind : kinds) {
            EXPECT_EQ(sharded.SearchWith(kind, q, epsilon).matches,
                      expected)
                << "seed=" << seed << " K=" << k << " method="
                << MethodKindName(kind) << " eps=" << epsilon;
          }
        }
      }
    }
  }
}

TEST_P(ShardPropertyTest, KnnMatchesSingleEngineForEveryK) {
  const Engine single(WalkDataset(13), EngineOptions{});
  const auto queries = GenerateQueryWorkload(
      single.dataset(), QueryWorkloadOptions{.num_queries = 6, .seed = 14});

  for (const size_t k : {1u, 2u, 4u, 7u}) {
    ShardedEngineOptions options;
    options.num_shards = k;
    options.partitioner = GetParam();
    ShardedEngine sharded(WalkDataset(13), options);
    ThreadPool pool(4);
    sharded.AttachPool(&pool);

    for (const Sequence& q : queries) {
      for (const size_t nn : {1u, 4u, 10u}) {
        const KnnResult expected = single.SearchKnn(q, nn);
        const KnnResult got = sharded.SearchKnn(q, nn);
        ASSERT_EQ(got.neighbors.size(), expected.neighbors.size())
            << "K=" << k << " nn=" << nn;
        for (size_t i = 0; i < expected.neighbors.size(); ++i) {
          EXPECT_EQ(got.neighbors[i].id, expected.neighbors[i].id)
              << "K=" << k << " nn=" << nn << " i=" << i;
          EXPECT_EQ(got.neighbors[i].distance,
                    expected.neighbors[i].distance)
              << "K=" << k << " nn=" << nn << " i=" << i;
        }
      }
    }
  }
}

// The k-NN work of a query does not depend on how many partitions hold
// its rows: one refine loop over the partitions' merged candidate stream
// refines what a single engine over the same rows refines, in the same
// order (random walks have no lower-bound ties), so the DTW evaluations,
// DP cells and refined counts are equal, not just the answers. Banded and
// unbanded L_inf; the unbanded case runs the decision-first heap fill.
TEST_P(ShardPropertyTest, KnnWorkDoesNotDependOnThePartitionCount) {
  for (const int band : {-1, 5}) {
    EngineOptions engine;
    engine.dtw.band = band;
    const Engine single(WalkDataset(57), engine);
    const auto queries = GenerateQueryWorkload(
        single.dataset(), QueryWorkloadOptions{.num_queries = 6, .seed = 58});
    for (const size_t k : {1u, 2u, 4u, 7u}) {
      ShardedEngineOptions options;
      options.num_shards = k;
      options.partitioner = GetParam();
      options.engine = engine;
      ShardedEngine sharded(WalkDataset(57), options);
      ThreadPool pool(3);
      sharded.AttachPool(&pool);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        for (const size_t nn : {1u, 4u, 10u}) {
          const std::string where = "band=" + std::to_string(band) +
                                    " K=" + std::to_string(k) +
                                    " q=" + std::to_string(qi) +
                                    " nn=" + std::to_string(nn);
          const KnnResult want = single.SearchKnn(queries[qi], nn);
          const KnnResult got = sharded.SearchKnn(queries[qi], nn);
          EXPECT_EQ(got.neighbors, want.neighbors) << where;
          EXPECT_EQ(got.cost.dtw_evals, want.cost.dtw_evals) << where;
          EXPECT_EQ(got.cost.dtw_cells, want.cost.dtw_cells) << where;
          EXPECT_EQ(got.num_refined, want.num_refined) << where;
        }
      }
    }
  }
}

TEST_P(ShardPropertyTest, SequentialFallbackWithoutPoolIsIdentical) {
  // No AttachPool: shards run inline on the caller. Same answers — the
  // pool is a latency optimization, never a correctness ingredient.
  const Engine single(WalkDataset(29), EngineOptions{});
  ShardedEngineOptions options;
  options.num_shards = 4;
  options.partitioner = GetParam();
  const ShardedEngine sharded(WalkDataset(29), options);
  const auto queries = GenerateQueryWorkload(
      single.dataset(), QueryWorkloadOptions{.num_queries = 5, .seed = 30});
  for (const Sequence& q : queries) {
    EXPECT_EQ(sharded.Search(q, 0.3).matches,
              Sorted(single.Search(q, 0.3).matches));
    const KnnResult expected = single.SearchKnn(q, 5);
    const KnnResult got = sharded.SearchKnn(q, 5);
    ASSERT_EQ(got.neighbors.size(), expected.neighbors.size());
    for (size_t i = 0; i < expected.neighbors.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].id, expected.neighbors[i].id);
    }
  }
}

TEST_P(ShardPropertyTest, WriteFreeIngestEngineMatchesShardedEngine) {
  // ShardedEngine answers through a write-free IngestEngine, so beside a
  // directly built one it must forward faithfully: bit-identical answers
  // (ids, distances, candidate counts) and traces naming the same
  // searched and skipped partitions — inline and on a pool.
  EngineOptions engine;
  engine.build_st_filter = true;
  const auto queries = GenerateQueryWorkload(
      WalkDataset(41), QueryWorkloadOptions{.num_queries = 4, .seed = 42});
  const MethodKind kinds[] = {
      MethodKind::kTwSimSearch, MethodKind::kNaiveScan,
      MethodKind::kLbScan, MethodKind::kStFilter,
      MethodKind::kTwSimSearchCascade};
  size_t skip_markers = 0;
  for (const size_t k : {1u, 3u, 4u}) {
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = k;
    sharded_options.partitioner = GetParam();
    sharded_options.engine = engine;
    ShardedEngine sharded(WalkDataset(41), sharded_options);
    IngestOptions ingest_options;
    ingest_options.num_shards = k;
    ingest_options.partitioner = GetParam();
    ingest_options.engine = engine;
    ingest_options.start_compactor = false;
    IngestEngine ingest(WalkDataset(41), ingest_options);
    ThreadPool pool(3);
    for (ThreadPool* attached : {static_cast<ThreadPool*>(nullptr), &pool}) {
      sharded.AttachPool(attached);
      ingest.AttachPool(attached);
      for (const Sequence& q : queries) {
        for (const double epsilon : {0.1, 0.35}) {
          for (const MethodKind kind : kinds) {
            Trace sharded_trace;
            Trace ingest_trace;
            const SearchResult want =
                sharded.SearchWith(kind, q, epsilon, &sharded_trace);
            const SearchResult got =
                ingest.SearchWith(kind, q, epsilon, &ingest_trace);
            const std::string where =
                "K=" + std::to_string(k) + " pool=" +
                std::to_string(attached != nullptr) + " method=" +
                MethodKindName(kind) + " eps=" + std::to_string(epsilon);
            EXPECT_EQ(got.matches, want.matches) << where;
            EXPECT_EQ(got.distances, want.distances) << where;
            EXPECT_EQ(got.num_candidates, want.num_candidates) << where;
            const auto spans = ShardSpans(ingest_trace);
            EXPECT_EQ(spans, ShardSpans(sharded_trace)) << where;
            skip_markers += static_cast<size_t>(
                std::count_if(spans.begin(), spans.end(), [](const auto& span) {
                  return span.first == "shard_skipped";
                }));
          }
        }
        for (const size_t nn : {1u, 5u, 20u}) {
          Trace sharded_trace;
          Trace ingest_trace;
          const KnnResult want = sharded.SearchKnn(q, nn, &sharded_trace);
          const KnnResult got = ingest.SearchKnn(q, nn, &ingest_trace);
          EXPECT_EQ(got.neighbors, want.neighbors) << "K=" << k << " nn=" << nn;
          EXPECT_EQ(ShardSpans(ingest_trace), ShardSpans(sharded_trace))
              << "K=" << k << " nn=" << nn;
          // One refine loop on both: knn_query > knn_refine, no fan-out.
          EXPECT_EQ(SpanTree(ingest_trace), SpanTree(sharded_trace))
              << "K=" << k << " nn=" << nn;
        }
      }
    }
  }
  // The range partitioner's clustered shards make pruning routine, so the
  // skip-marker half of the shape comparison is exercised.
  if (GetParam() == PartitionerKind::kRange) {
    EXPECT_GT(skip_markers, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Partitioners, ShardPropertyTest,
                         ::testing::Values(PartitionerKind::kHash,
                                           PartitionerKind::kRange),
                         [](const auto& info) {
                           return std::string(
                               PartitionerKindName(info.param));
                         });

}  // namespace
}  // namespace warpindex
