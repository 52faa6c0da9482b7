#include "rtree/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/prng.h"
#include "rtree/bulk_load.h"

namespace warpindex {
namespace {

Point RandomPoint(int dims, Prng* prng, double lo = 0.0, double hi = 100.0) {
  Point p;
  p.dims = dims;
  for (int d = 0; d < dims; ++d) {
    p[d] = prng->UniformDouble(lo, hi);
  }
  return p;
}

TEST(RTreeTest, EmptyTree) {
  const RTree tree(2);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_TRUE(
      tree.RangeSearch(Rect::Make({0.0, 0.0}, {100.0, 100.0})).empty());
}

TEST(RTreeTest, CapacityDerivedFromPageSize) {
  RTreeOptions options;
  options.page_size_bytes = 1024;  // paper §5.1
  const RTree tree(4, options);
  // entry = 4 dims * 2 * 8 bytes + 8-byte id = 72 bytes; (1024-24)/72 = 13.
  EXPECT_EQ(tree.capacity(), 13u);
  EXPECT_EQ(EntryBytes(4), 72u);
}

TEST(RTreeTest, TinyPagesStillGiveFanOutTwo) {
  RTreeOptions options;
  options.page_size_bytes = 16;
  const RTree tree(4, options);
  EXPECT_EQ(tree.capacity(), 2u);
}

TEST(RTreeTest, InsertAndFindSinglePoint) {
  RTree tree(2);
  tree.Insert(Rect::FromPoint(Point::Make({5.0, 5.0})), 42);
  EXPECT_EQ(tree.size(), 1u);
  const auto hits = tree.RangeSearch(Rect::Make({4.0, 4.0}, {6.0, 6.0}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42);
  EXPECT_TRUE(tree.RangeSearch(Rect::Make({6.5, 6.5}, {7.0, 7.0})).empty());
}

TEST(RTreeTest, GrowsAndKeepsInvariantsUnderInsertions) {
  RTreeOptions options;
  options.page_size_bytes = 256;  // small pages force splits early
  RTree tree(2, options);
  Prng prng(5);
  for (int i = 0; i < 500; ++i) {
    tree.Insert(Rect::FromPoint(RandomPoint(2, &prng)), i);
    if (i % 100 == 99) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "after insert " << i;
    }
  }
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_GT(tree.height(), 1);
}

TEST(RTreeTest, RangeSearchAgreesWithLinearScan) {
  RTree tree(3);
  Prng prng(6);
  std::vector<Point> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back(RandomPoint(3, &prng));
    tree.Insert(Rect::FromPoint(points.back()), i);
  }
  for (int trial = 0; trial < 30; ++trial) {
    const Rect query =
        Rect::SquareAround(RandomPoint(3, &prng), prng.UniformDouble(1, 25));
    auto hits = tree.RangeSearch(query);
    std::sort(hits.begin(), hits.end());
    std::vector<int64_t> expected;
    for (int i = 0; i < 400; ++i) {
      if (query.ContainsPoint(points[static_cast<size_t>(i)])) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(hits, expected);
  }
}

TEST(RTreeTest, QueryStatsCountNodeAccesses) {
  RTree tree(2);
  Prng prng(7);
  for (int i = 0; i < 300; ++i) {
    tree.Insert(Rect::FromPoint(RandomPoint(2, &prng)), i);
  }
  RTreeQueryStats stats;
  tree.RangeSearch(Rect::Make({0.0, 0.0}, {100.0, 100.0}), &stats);
  // Full-coverage query touches every node.
  EXPECT_EQ(stats.nodes_accessed, tree.node_count());
  stats.Reset();
  tree.RangeSearch(Rect::Make({0.0, 0.0}, {1.0, 1.0}), &stats);
  EXPECT_GE(stats.nodes_accessed, 1u);
  EXPECT_LT(stats.nodes_accessed, tree.node_count());
}

TEST(RTreeTest, DeleteRemovesOnlyTargetEntry) {
  RTree tree(2);
  const Rect r1 = Rect::FromPoint(Point::Make({1.0, 1.0}));
  const Rect r2 = Rect::FromPoint(Point::Make({2.0, 2.0}));
  tree.Insert(r1, 1);
  tree.Insert(r2, 2);
  EXPECT_TRUE(tree.Delete(r1, 1));
  EXPECT_EQ(tree.size(), 1u);
  const auto hits = tree.RangeSearch(Rect::Make({0.0, 0.0}, {3.0, 3.0}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 2);
}

TEST(RTreeTest, DeleteMissingReturnsFalse) {
  RTree tree(2);
  tree.Insert(Rect::FromPoint(Point::Make({1.0, 1.0})), 1);
  EXPECT_FALSE(tree.Delete(Rect::FromPoint(Point::Make({9.0, 9.0})), 1));
  EXPECT_FALSE(tree.Delete(Rect::FromPoint(Point::Make({1.0, 1.0})), 99));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(RTreeTest, MassDeleteCondensesTree) {
  RTreeOptions options;
  options.page_size_bytes = 256;
  RTree tree(2, options);
  Prng prng(8);
  std::vector<Point> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back(RandomPoint(2, &prng));
    tree.Insert(Rect::FromPoint(points.back()), i);
  }
  const int tall = tree.height();
  for (int i = 0; i < 360; ++i) {
    ASSERT_TRUE(
        tree.Delete(Rect::FromPoint(points[static_cast<size_t>(i)]), i));
    if (i % 60 == 59) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "after delete " << i;
    }
  }
  EXPECT_EQ(tree.size(), 40u);
  EXPECT_LE(tree.height(), tall);
  auto hits = tree.RangeSearch(Rect::Make({0.0, 0.0}, {100.0, 100.0}));
  std::sort(hits.begin(), hits.end());
  ASSERT_EQ(hits.size(), 40u);
  EXPECT_EQ(hits.front(), 360);
  EXPECT_EQ(hits.back(), 399);
}

TEST(RTreeTest, NearestNeighborsAgreeWithLinearScan) {
  RTree tree(2);
  Prng prng(9);
  std::vector<Point> points;
  for (int i = 0; i < 300; ++i) {
    points.push_back(RandomPoint(2, &prng));
    tree.Insert(Rect::FromPoint(points.back()), i);
  }
  for (int trial = 0; trial < 20; ++trial) {
    const Point q = RandomPoint(2, &prng);
    const size_t k = static_cast<size_t>(prng.UniformInt(1, 10));
    const auto knn = tree.NearestNeighbors(q, k);
    ASSERT_EQ(knn.size(), k);
    // Distances non-decreasing.
    for (size_t i = 1; i < knn.size(); ++i) {
      EXPECT_GE(knn[i].distance, knn[i - 1].distance - 1e-12);
    }
    // k-th distance matches brute force.
    std::vector<double> all;
    for (const Point& p : points) {
      all.push_back(
          std::sqrt(Rect::FromPoint(p).MinDistSquared(q)));
    }
    std::sort(all.begin(), all.end());
    EXPECT_NEAR(knn.back().distance, all[k - 1], 1e-9);
  }
}

TEST(RTreeTest, NearestNeighborsWithKLargerThanSize) {
  RTree tree(2);
  tree.Insert(Rect::FromPoint(Point::Make({1.0, 1.0})), 1);
  tree.Insert(Rect::FromPoint(Point::Make({2.0, 2.0})), 2);
  const auto knn = tree.NearestNeighbors(Point::Make({0.0, 0.0}), 10);
  EXPECT_EQ(knn.size(), 2u);
  EXPECT_EQ(knn[0].record_id, 1);
}

TEST(RTreeTest, NearestNeighborsZeroK) {
  RTree tree(2);
  tree.Insert(Rect::FromPoint(Point::Make({1.0, 1.0})), 1);
  EXPECT_TRUE(tree.NearestNeighbors(Point::Make({0.0, 0.0}), 0).empty());
}

TEST(RTreeTest, TotalBytesTracksNodeCount) {
  RTreeOptions options;
  options.page_size_bytes = 512;
  RTree tree(2, options);
  Prng prng(10);
  for (int i = 0; i < 200; ++i) {
    tree.Insert(Rect::FromPoint(RandomPoint(2, &prng)), i);
  }
  EXPECT_EQ(tree.TotalBytes(), tree.node_count() * 512);
}

TEST(RTreeTest, DuplicatePointsSupported) {
  RTreeOptions options;
  options.page_size_bytes = 256;
  RTree tree(2, options);
  const Rect r = Rect::FromPoint(Point::Make({5.0, 5.0}));
  for (int i = 0; i < 100; ++i) {
    tree.Insert(r, i);
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const auto hits = tree.RangeSearch(Rect::SquareAround(
      Point::Make({5.0, 5.0}), 0.1));
  EXPECT_EQ(hits.size(), 100u);
}

TEST(RTreeTest, HealthStatsOnEmptyTree) {
  const RTree tree(2);
  const RTreeHealth health = tree.HealthStats();
  EXPECT_EQ(health.height, 1);
  EXPECT_EQ(health.records, 0u);
  EXPECT_EQ(health.nodes, 1u);
  EXPECT_EQ(health.leaves, 1u);
  ASSERT_EQ(health.levels.size(), 1u);
  EXPECT_EQ(health.levels[0].entries, 0u);
  EXPECT_DOUBLE_EQ(health.overlap_ratio, 0.0);
  EXPECT_DOUBLE_EQ(health.dead_space_ratio, 0.0);
}

TEST(RTreeTest, HealthStatsMatchesTreeAccessors) {
  RTreeOptions options;
  options.page_size_bytes = 256;
  RTree tree(2, options);
  Prng prng(77);
  for (int i = 0; i < 500; ++i) {
    tree.Insert(Rect::FromPoint(RandomPoint(2, &prng)), i);
  }
  const RTreeHealth health = tree.HealthStats();
  EXPECT_EQ(health.height, tree.height());
  EXPECT_EQ(health.records, tree.size());
  EXPECT_EQ(health.nodes, tree.node_count());
  EXPECT_EQ(health.bytes, tree.TotalBytes());
  EXPECT_EQ(health.node_capacity, tree.capacity());

  // Per-level bookkeeping must add up: level 0 (leaves) holds every
  // record, each deeper level holds one entry per node below it.
  ASSERT_EQ(health.levels.size(), static_cast<size_t>(health.height));
  EXPECT_EQ(health.levels[0].entries, health.records);
  size_t nodes_total = 0;
  for (size_t i = 0; i < health.levels.size(); ++i) {
    nodes_total += health.levels[i].nodes;
    if (i > 0) {
      EXPECT_EQ(health.levels[i].entries, health.levels[i - 1].nodes);
    }
    EXPECT_GT(health.levels[i].avg_occupancy, 0.0);
    EXPECT_LE(health.levels[i].avg_occupancy, 1.0);
    EXPECT_LE(health.levels[i].min_occupancy,
              health.levels[i].avg_occupancy);
  }
  EXPECT_EQ(nodes_total, health.nodes);
  EXPECT_DOUBLE_EQ(health.leaf_occupancy, health.levels[0].avg_occupancy);

  // Ratio estimates are normalized.
  EXPECT_GE(health.overlap_ratio, 0.0);
  EXPECT_GE(health.dead_space_ratio, 0.0);
  EXPECT_LE(health.dead_space_ratio, 1.0);
}

TEST(RTreeTest, HealthStatsBulkLoadPacksTighterThanInsertion) {
  RTreeOptions options;
  options.page_size_bytes = 256;
  Prng prng(5);
  EntryArray entries(2);
  for (int i = 0; i < 800; ++i) {
    entries.Push(Rect::FromPoint(RandomPoint(2, &prng)), i);
  }

  RTree incremental(2, options);
  for (size_t i = 0; i < entries.size(); ++i) {
    incremental.Insert(entries.rect(i), entries.ref(i));
  }
  RTree packed = BulkLoadStr(2, options, entries);

  const RTreeHealth inc_health = incremental.HealthStats();
  const RTreeHealth packed_health = packed.HealthStats();
  EXPECT_EQ(inc_health.records, packed_health.records);
  // The bulk loader fills leaves near capacity; one-at-a-time insertion
  // leaves split residue around ~70%.
  EXPECT_GT(packed_health.leaf_occupancy, inc_health.leaf_occupancy);
  EXPECT_LE(packed_health.nodes, inc_health.nodes);
}

}  // namespace
}  // namespace warpindex
