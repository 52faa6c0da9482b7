#include "rtree/node.h"

#include <gtest/gtest.h>

namespace warpindex {
namespace {

TEST(NodeTest, EntryBytesByDimension) {
  // 2 * dims doubles + 8-byte id.
  EXPECT_EQ(EntryBytes(1), 24u);
  EXPECT_EQ(EntryBytes(2), 40u);
  EXPECT_EQ(EntryBytes(4), 72u);   // the paper's feature index
  EXPECT_EQ(EntryBytes(8), 136u);
}

TEST(NodeTest, CapacityForPaperConfiguration) {
  // 1 KB page, 24-byte header, 72-byte entries -> 13 per node.
  EXPECT_EQ(NodeCapacityForPage(1024, 4), 13u);
}

TEST(NodeTest, CapacityScalesWithPageSize) {
  EXPECT_GT(NodeCapacityForPage(4096, 4), NodeCapacityForPage(1024, 4));
  EXPECT_EQ(NodeCapacityForPage(8192, 4), (8192u - 24u) / 72u);
}

TEST(NodeTest, CapacityNeverBelowTwo) {
  EXPECT_EQ(NodeCapacityForPage(8, 4), 2u);
  EXPECT_EQ(NodeCapacityForPage(0, 4), 2u);
  EXPECT_EQ(NodeCapacityForPage(100, 16), 2u);
}

TEST(NodeTest, EntryArrayStoresBoundsAndOneRef) {
  EntryArray entries(2);
  entries.Push(Rect::Make({0.0, 1.0}, {2.0, 3.0}), 42);
  entries.Push(Rect::Make({-1.0, -2.0}, {-0.5, 4.0}), 7);
  ASSERT_EQ(entries.size(), 2u);
  // Interleaved page order: min_0, max_0, min_1, max_1.
  const double* b = entries.rect(0).bounds();
  EXPECT_EQ(b[0], 0.0);
  EXPECT_EQ(b[1], 2.0);
  EXPECT_EQ(b[2], 1.0);
  EXPECT_EQ(b[3], 3.0);
  // One ref per entry: a record id in a leaf, a child id in a directory.
  EXPECT_EQ(entries.ref(0), 42);
  EXPECT_EQ(entries.child(1), 7);
  EXPECT_EQ(entries.rect(1), Rect::Make({-1.0, -2.0}, {-0.5, 4.0}).view());
}

TEST(NodeTest, EntryArrayEraseKeepsOrderAndSetRectOverwrites) {
  EntryArray entries(1);
  for (int i = 0; i < 4; ++i) {
    entries.Push(Rect::Make({1.0 * i}, {1.0 * i + 0.5}), i);
  }
  entries.Erase(1);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.ref(0), 0);
  EXPECT_EQ(entries.ref(1), 2);
  EXPECT_EQ(entries.ref(2), 3);
  EXPECT_EQ(entries.rect(1).min(0), 2.0);
  entries.SetRect(1, Rect::Make({9.0}, {10.0}));
  EXPECT_EQ(entries.rect(1), Rect::Make({9.0}, {10.0}).view());
  EXPECT_EQ(entries.ref(1), 2);
}

TEST(NodeTest, ResidentBytesEqualPageFootprint) {
  // Reserved exactly, an array holds EntryBytes(dims) per entry: the
  // same bytes the page accounting charges.
  for (const int dims : {1, 4, 8, kMaxRTreeDims}) {
    EntryArray entries(dims);
    entries.Reserve(13);
    Point p;
    p.dims = dims;
    for (int i = 0; i < 13; ++i) {
      entries.Push(Rect::FromPoint(p), i);
    }
    EXPECT_EQ(entries.ResidentBytes(), 13 * EntryBytes(dims)) << dims;
  }
}

TEST(NodeTest, ComputeMbrUnionsAllEntries) {
  RTreeNode node;
  node.entries = EntryArray(2);
  node.entries.Push(Rect::Make({0.0, 0.0}, {1.0, 1.0}), 0);
  node.entries.Push(Rect::Make({3.0, -2.0}, {4.0, 0.5}), 1);
  const Rect mbr = node.ComputeMbr();
  EXPECT_EQ(mbr, Rect::Make({0.0, -2.0}, {4.0, 1.0}));
}

TEST(NodeTest, LevelZeroIsLeaf) {
  RTreeNode node;
  EXPECT_TRUE(node.IsLeaf());
  node.level = 1;
  EXPECT_FALSE(node.IsLeaf());
  EXPECT_FALSE(node.supernode);
}

}  // namespace
}  // namespace warpindex
