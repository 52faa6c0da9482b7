#include "rtree/bulk_load.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.h"

namespace warpindex {
namespace {

EntryArray RandomPointEntries(size_t n, int dims, uint64_t seed) {
  Prng prng(seed);
  EntryArray entries(dims);
  for (size_t i = 0; i < n; ++i) {
    Point p;
    p.dims = dims;
    for (int d = 0; d < dims; ++d) {
      p[d] = prng.UniformDouble(0.0, 100.0);
    }
    entries.Push(Rect::FromPoint(p), static_cast<int64_t>(i));
  }
  return entries;
}

TEST(BulkLoadTest, EmptyInputYieldsEmptyTree) {
  const RTree tree = BulkLoadStr(2, RTreeOptions{}, EntryArray(2));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BulkLoadTest, SingleEntry) {
  auto entries = RandomPointEntries(1, 2, 1);
  const Rect r = entries.rect(0).ToRect();
  const RTree tree = BulkLoadStr(2, RTreeOptions{}, std::move(entries));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.RangeSearch(r).size(), 1u);
}

TEST(BulkLoadTest, InvariantsAndSizeAtVariousScales) {
  for (const size_t n : {2u, 13u, 14u, 100u, 1000u, 5000u}) {
    RTreeOptions options;
    options.page_size_bytes = 1024;
    const RTree tree =
        BulkLoadStr(4, options, RandomPointEntries(n, 4, 7 + n));
    EXPECT_EQ(tree.size(), n) << "n=" << n;
    EXPECT_TRUE(tree.CheckInvariants().ok()) << "n=" << n;
  }
}

TEST(BulkLoadTest, QueriesMatchIncrementallyBuiltTree) {
  const size_t n = 2000;
  auto entries = RandomPointEntries(n, 3, 11);
  RTreeOptions options;
  options.page_size_bytes = 512;
  RTree incremental(3, options);
  for (size_t i = 0; i < entries.size(); ++i) {
    incremental.Insert(entries.rect(i), entries.ref(i));
  }
  const RTree bulk = BulkLoadStr(3, options, std::move(entries));

  Prng prng(12);
  for (int trial = 0; trial < 25; ++trial) {
    Point c;
    c.dims = 3;
    for (int d = 0; d < 3; ++d) {
      c[d] = prng.UniformDouble(0.0, 100.0);
    }
    const Rect query = Rect::SquareAround(c, prng.UniformDouble(1.0, 20.0));
    auto a = bulk.RangeSearch(query);
    auto b = incremental.RangeSearch(query);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(BulkLoadTest, ProducesFewerNodesThanInsertion) {
  const size_t n = 3000;
  auto entries = RandomPointEntries(n, 4, 13);
  RTreeOptions options;
  options.page_size_bytes = 1024;
  RTree incremental(4, options);
  for (size_t i = 0; i < entries.size(); ++i) {
    incremental.Insert(entries.rect(i), entries.ref(i));
  }
  const RTree bulk = BulkLoadStr(4, options, std::move(entries));
  // STR packs ~100% full; Guttman insertion averages ~70%.
  EXPECT_LT(bulk.node_count(), incremental.node_count());
}

TEST(BulkLoadTest, TreeSupportsSubsequentInsertsAndDeletes) {
  auto entries = RandomPointEntries(500, 2, 17);
  const Rect first_rect = entries.rect(0).ToRect();
  RTreeOptions options;
  options.page_size_bytes = 256;
  RTree tree = BulkLoadStr(2, options, std::move(entries));
  ASSERT_TRUE(tree.CheckInvariants().ok());

  Prng prng(18);
  for (int i = 0; i < 200; ++i) {
    Point p;
    p.dims = 2;
    p[0] = prng.UniformDouble(0.0, 100.0);
    p[1] = prng.UniformDouble(0.0, 100.0);
    tree.Insert(Rect::FromPoint(p), 1000 + i);
  }
  EXPECT_EQ(tree.size(), 700u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_TRUE(tree.Delete(first_rect, 0));
  EXPECT_EQ(tree.size(), 699u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

}  // namespace
}  // namespace warpindex
