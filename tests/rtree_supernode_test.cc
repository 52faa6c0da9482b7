// X-tree-style supernodes: overlap-heavy directory splits are replaced by
// multi-page supernodes; queries stay correct and invariants hold.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.h"
#include "rtree/rtree.h"

namespace warpindex {
namespace {

// Wide, heavily overlapping rectangles — the workload where every
// directory split is bad and the X-tree keeps supernodes instead.
EntryArray OverlappingRects(size_t n, uint64_t seed) {
  Prng prng(seed);
  EntryArray entries(2);
  for (size_t i = 0; i < n; ++i) {
    const double x = prng.UniformDouble(0.0, 0.5);
    const double y = prng.UniformDouble(0.0, 0.5);
    entries.Push(Rect::Make({x, y}, {x + 0.5, y + 0.5}),
                 static_cast<int64_t>(i));
  }
  return entries;
}

void InsertAll(const EntryArray& entries, RTree* tree) {
  for (size_t i = 0; i < entries.size(); ++i) {
    tree->Insert(entries.rect(i), entries.ref(i));
  }
}

TEST(RTreeSupernodeTest, OverlapHeavyWorkloadCreatesSupernodes) {
  RTreeOptions options;
  options.page_size_bytes = 256;
  options.allow_supernodes = true;
  options.supernode_overlap_threshold = 0.1;
  RTree tree(2, options);
  InsertAll(OverlappingRects(2000, 1), &tree);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_GT(tree.supernode_count(), 0u);
  // Supernodes span multiple pages.
  EXPECT_GT(tree.TotalPages(), tree.node_count());
}

TEST(RTreeSupernodeTest, DisabledByDefault) {
  RTreeOptions options;
  options.page_size_bytes = 256;
  RTree tree(2, options);
  InsertAll(OverlappingRects(1000, 2), &tree);
  EXPECT_EQ(tree.supernode_count(), 0u);
  EXPECT_EQ(tree.TotalPages(), tree.node_count());
}

TEST(RTreeSupernodeTest, QueriesMatchPlainTree) {
  RTreeOptions plain;
  plain.page_size_bytes = 256;
  RTreeOptions super = plain;
  super.allow_supernodes = true;
  super.supernode_overlap_threshold = 0.1;

  RTree a(2, plain);
  RTree b(2, super);
  const auto entries = OverlappingRects(1500, 3);
  InsertAll(entries, &a);
  InsertAll(entries, &b);
  ASSERT_TRUE(b.CheckInvariants().ok());

  Prng prng(4);
  for (int trial = 0; trial < 25; ++trial) {
    Point c;
    c.dims = 2;
    c[0] = prng.UniformDouble(0.0, 1.0);
    c[1] = prng.UniformDouble(0.0, 1.0);
    const Rect query = Rect::SquareAround(c, prng.UniformDouble(0.01, 0.2));
    auto ra = a.RangeSearch(query);
    auto rb = b.RangeSearch(query);
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    ASSERT_EQ(ra, rb);
  }
}

TEST(RTreeSupernodeTest, DeletionsShrinkSupernodesBack) {
  RTreeOptions options;
  options.page_size_bytes = 256;
  options.allow_supernodes = true;
  options.supernode_overlap_threshold = 0.1;
  RTree tree(2, options);
  const auto entries = OverlappingRects(2000, 5);
  InsertAll(entries, &tree);
  ASSERT_GT(tree.supernode_count(), 0u);
  for (size_t i = 0; i < 1900; ++i) {
    ASSERT_TRUE(tree.Delete(entries.rect(i), entries.ref(i)));
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.size(), 100u);
  auto hits = tree.RangeSearch(Rect::Make({0.0, 0.0}, {1.0, 1.0}));
  EXPECT_EQ(hits.size(), 100u);
}

TEST(RTreeSupernodeTest, StatsChargeSupernodePages) {
  RTreeOptions options;
  options.page_size_bytes = 256;
  options.allow_supernodes = true;
  options.supernode_overlap_threshold = 0.05;
  RTree tree(2, options);
  InsertAll(OverlappingRects(2000, 6), &tree);
  ASSERT_GT(tree.supernode_count(), 0u);
  RTreeQueryStats stats;
  tree.RangeSearch(Rect::Make({0.0, 0.0}, {1.0, 1.0}), &stats);
  // A full sweep touches every page, and supernodes make pages > nodes.
  EXPECT_EQ(stats.nodes_accessed, tree.TotalPages());
}

}  // namespace
}  // namespace warpindex
