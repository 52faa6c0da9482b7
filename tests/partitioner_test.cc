// Shard partitioners: deterministic assignments, hash spread, range
// contiguity in feature order, near-equal range shard sizes, and the
// feature MBRs that drive shard pruning.

#include "shard/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

Dataset WalkDataset(size_t n = 200, uint64_t seed = 42) {
  RandomWalkOptions options;
  options.num_sequences = n;
  options.min_length = 20;
  options.max_length = 40;
  options.seed = seed;
  return GenerateRandomWalkDataset(options);
}

TEST(PartitionerTest, ParseAndNameRoundTrip) {
  PartitionerKind kind = PartitionerKind::kRange;
  EXPECT_TRUE(ParsePartitionerKind("hash", &kind));
  EXPECT_EQ(kind, PartitionerKind::kHash);
  EXPECT_TRUE(ParsePartitionerKind("range", &kind));
  EXPECT_EQ(kind, PartitionerKind::kRange);
  EXPECT_STREQ(PartitionerKindName(PartitionerKind::kHash), "hash");
  EXPECT_STREQ(PartitionerKindName(PartitionerKind::kRange), "range");

  kind = PartitionerKind::kHash;
  EXPECT_FALSE(ParsePartitionerKind("roundrobin", &kind));
  EXPECT_FALSE(ParsePartitionerKind("", &kind));
  EXPECT_EQ(kind, PartitionerKind::kHash);  // untouched on failure
}

TEST(PartitionerTest, MixSequenceIdIsStableAndSpreads) {
  // The mix is pinned (SplitMix64 finalizer), not std::hash: a saved
  // manifest must mean the same partition on every standard library.
  EXPECT_EQ(MixSequenceId(0), MixSequenceId(0));
  EXPECT_NE(MixSequenceId(0), MixSequenceId(1));
  EXPECT_NE(MixSequenceId(1), MixSequenceId(2));
  // Consecutive ids should land in different mod-K classes often enough;
  // check a window of 16 ids hits more than one class for K = 4.
  std::vector<uint64_t> classes;
  for (uint64_t id = 0; id < 16; ++id) {
    classes.push_back(MixSequenceId(id) % 4);
  }
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  EXPECT_GT(classes.size(), 1u);
}

TEST(PartitionerTest, AssignmentsAreDeterministicAndInRange) {
  const Dataset dataset = WalkDataset();
  for (const PartitionerKind kind :
       {PartitionerKind::kHash, PartitionerKind::kRange}) {
    for (const size_t k : {1u, 2u, 4u, 7u}) {
      const ShardAssignment a = AssignShards(dataset, kind, k);
      const ShardAssignment b = AssignShards(dataset, kind, k);
      EXPECT_EQ(a.num_shards, k);
      ASSERT_EQ(a.shard_of.size(), dataset.size());
      EXPECT_EQ(a.shard_of, b.shard_of);
      for (const uint32_t shard : a.shard_of) {
        EXPECT_LT(shard, k);
      }
    }
  }
}

TEST(PartitionerTest, SingleShardAssignsEverythingToShardZero) {
  const Dataset dataset = WalkDataset(30);
  for (const PartitionerKind kind :
       {PartitionerKind::kHash, PartitionerKind::kRange}) {
    const ShardAssignment a = AssignShards(dataset, kind, 1);
    for (const uint32_t shard : a.shard_of) {
      EXPECT_EQ(shard, 0u);
    }
  }
}

TEST(PartitionerTest, HashSpreadsAcrossAllShards) {
  const Dataset dataset = WalkDataset(400);
  const ShardAssignment a =
      AssignShards(dataset, PartitionerKind::kHash, 4);
  std::vector<size_t> sizes(4, 0);
  for (const uint32_t shard : a.shard_of) {
    ++sizes[shard];
  }
  // A uniform mix of 400 ids over 4 shards: every shard populated, and no
  // shard grossly over-full (loose 2x bound, not a statistical test).
  for (const size_t size : sizes) {
    EXPECT_GT(size, 0u);
    EXPECT_LT(size, 200u);
  }
}

TEST(PartitionerTest, RangeShardSizesAreNearEqual) {
  const Dataset dataset = WalkDataset(201);
  for (const size_t k : {2u, 4u, 7u}) {
    const ShardAssignment a =
        AssignShards(dataset, PartitionerKind::kRange, k);
    std::vector<size_t> sizes(k, 0);
    for (const uint32_t shard : a.shard_of) {
      ++sizes[shard];
    }
    const auto [min_it, max_it] =
        std::minmax_element(sizes.begin(), sizes.end());
    EXPECT_LE(*max_it - *min_it, 1u) << "k=" << k;
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), size_t{0}),
              dataset.size());
  }
}

TEST(PartitionerTest, RangeShardsAreContiguousInFeatureOrder) {
  const Dataset dataset = WalkDataset(150);
  const ShardAssignment a =
      AssignShards(dataset, PartitionerKind::kRange, 5);

  // Re-derive the partitioner's sort order (lexicographic feature tuple,
  // ties by id) and require the shard labels to be non-decreasing along
  // it: each shard is one contiguous run of the sorted sequences.
  std::vector<size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<std::array<double, kFeatureDims>> points(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    points[i] = ExtractFeature(dataset[i]).AsPoint();
  }
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    if (points[x] != points[y]) return points[x] < points[y];
    return x < y;
  });
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(a.shard_of[order[i]], a.shard_of[order[i - 1]])
        << "shard labels regress at sorted position " << i;
  }
}

TEST(PartitionerTest, BoundsCoverEveryAssignedFeaturePoint) {
  const Dataset dataset = WalkDataset(120);
  for (const PartitionerKind kind :
       {PartitionerKind::kHash, PartitionerKind::kRange}) {
    const ShardAssignment a = AssignShards(dataset, kind, 4);
    const std::vector<ShardFeatureBounds> bounds =
        ComputeShardBounds(dataset, a);
    ASSERT_EQ(bounds.size(), 4u);
    for (size_t i = 0; i < dataset.size(); ++i) {
      const ShardFeatureBounds& b = bounds[a.shard_of[i]];
      ASSERT_TRUE(b.valid);
      const auto p = ExtractFeature(dataset[i]).AsPoint();
      EXPECT_TRUE(
          b.mbr.ContainsPoint(Point::FromArray(p.data(), kFeatureDims)))
          << "sequence " << i << " outside its shard MBR";
      // The containment is exactly what makes MBR shard pruning exact:
      // MinDistLinf to the covering box can never exceed the true
      // feature distance of a covered sequence.
      EXPECT_EQ(b.mbr.MinDistLinf(Point::FromArray(p.data(), kFeatureDims)),
                0.0);
    }
  }
}

TEST(PartitionerTest, EmptyShardsHaveInvalidBounds) {
  // More shards than sequences: somebody must come up empty.
  const Dataset dataset = WalkDataset(3);
  const ShardAssignment a =
      AssignShards(dataset, PartitionerKind::kRange, 7);
  const std::vector<ShardFeatureBounds> bounds =
      ComputeShardBounds(dataset, a);
  size_t valid = 0;
  for (const ShardFeatureBounds& b : bounds) {
    valid += b.valid ? 1 : 0;
  }
  EXPECT_LE(valid, 3u);
  EXPECT_LT(valid, bounds.size());
}

TEST(PartitionerTest, CoverGrowsTheBox) {
  ShardFeatureBounds b;
  EXPECT_FALSE(b.valid);
  b.Cover(FeatureVector{1.0, 2.0, 3.0, 0.5});
  ASSERT_TRUE(b.valid);
  EXPECT_EQ(b.mbr.dims, kFeatureDims);
  b.Cover(FeatureVector{-1.0, 5.0, 2.0, 0.75});
  EXPECT_DOUBLE_EQ(b.mbr.min(0), -1.0);
  EXPECT_DOUBLE_EQ(b.mbr.max(0), 1.0);
  EXPECT_DOUBLE_EQ(b.mbr.min(1), 2.0);
  EXPECT_DOUBLE_EQ(b.mbr.max(1), 5.0);
  EXPECT_DOUBLE_EQ(b.mbr.min(2), 2.0);
  EXPECT_DOUBLE_EQ(b.mbr.max(2), 3.0);
  EXPECT_DOUBLE_EQ(b.mbr.min(3), 0.5);
  EXPECT_DOUBLE_EQ(b.mbr.max(3), 0.75);
}

TEST(PartitionerTest, RangePartitionerSeparatesClusters) {
  // Two far-apart clusters of walks; the range partitioner should put
  // them in shards whose MBRs a cluster-local query can prune against.
  RandomWalkOptions low;
  low.num_sequences = 40;
  low.min_length = 20;
  low.max_length = 30;
  low.start_min = 0.0;
  low.start_max = 1.0;
  low.seed = 7;
  Dataset dataset = GenerateRandomWalkDataset(low);
  RandomWalkOptions high = low;
  high.start_min = 100.0;
  high.start_max = 101.0;
  high.seed = 8;
  const Dataset far_cluster = GenerateRandomWalkDataset(high);
  for (size_t i = 0; i < far_cluster.size(); ++i) {
    dataset.Add(far_cluster[i]);
  }

  const ShardAssignment a =
      AssignShards(dataset, PartitionerKind::kRange, 2);
  const std::vector<ShardFeatureBounds> bounds =
      ComputeShardBounds(dataset, a);
  ASSERT_TRUE(bounds[0].valid);
  ASSERT_TRUE(bounds[1].valid);
  // A query sitting inside the low cluster must be far (L_inf) from one
  // of the two shard MBRs — that's the skip the fan-out prunes.
  const auto q = ExtractFeature(dataset[0]).AsPoint();
  const Point qp = Point::FromArray(q.data(), kFeatureDims);
  const double d0 = bounds[0].mbr.MinDistLinf(qp);
  const double d1 = bounds[1].mbr.MinDistLinf(qp);
  EXPECT_GT(std::max(d0, d1), 50.0);
  EXPECT_EQ(std::min(d0, d1), 0.0);
}

}  // namespace
}  // namespace warpindex
