#include "rtree/rtree_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>

#include "common/prng.h"
#include "core/feature_index.h"
#include "rtree/bulk_load.h"
#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

EntryArray RandomEntries(size_t n, int dims, uint64_t seed) {
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

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

template <typename T>
void Patch(std::string* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    hash = (hash ^ c) * 1099511628211ULL;
  }
  return hash;
}

Dataset Walks(size_t n, size_t len, uint64_t seed) {
  RandomWalkOptions options;
  options.num_sequences = n;
  options.min_length = len;
  options.max_length = len;
  options.seed = seed;
  return GenerateRandomWalkDataset(options);
}

// WIRT v1 layout offsets: a 59-byte header ending in u32 node_count, then
// node 0 (the root) as i32 level, u8 supernode, u32 entry_count, entries.
constexpr size_t kNodeCountOffset = 55;
constexpr size_t kRootOffset = 59;
constexpr size_t kRootEntryCountOffset = kRootOffset + 5;
constexpr size_t kRootEntriesOffset = kRootOffset + 9;

// A saved 4-d tree with a directory root; returns its bytes.
std::string SavedDirectoryTree(const std::string& path) {
  const RTree tree =
      BulkLoadStr(4, RTreeOptions{}, RandomEntries(300, 4, 41));
  EXPECT_GT(tree.height(), 1);
  EXPECT_TRUE(SaveRTreeToFile(tree, path).ok());
  return ReadFile(path);
}

StatusCode LoadCode(const std::string& path, const std::string& bytes) {
  WriteFile(path, bytes);
  RTree t(1);
  const Status status = LoadRTreeFromFile(path, &t);
  std::remove(path.c_str());
  return status.code();
}

TEST(RTreeIoTest, RoundTripPreservesQueries) {
  RTreeOptions options;
  options.page_size_bytes = 512;
  RTree original(4, options);
  const EntryArray entries = RandomEntries(800, 4, 1);
  for (size_t i = 0; i < entries.size(); ++i) {
    original.Insert(entries.rect(i), entries.ref(i));
  }
  const std::string path = TempPath("rtree_roundtrip.wirt");
  ASSERT_TRUE(SaveRTreeToFile(original, path).ok());

  RTree loaded(1);
  ASSERT_TRUE(LoadRTreeFromFile(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.node_count(), original.node_count());
  EXPECT_EQ(loaded.dims(), 4);
  EXPECT_EQ(loaded.capacity(), original.capacity());
  EXPECT_TRUE(loaded.CheckInvariants().ok());

  Prng prng(2);
  for (int trial = 0; trial < 25; ++trial) {
    Point c;
    c.dims = 4;
    for (int d = 0; d < 4; ++d) {
      c[d] = prng.UniformDouble(0.0, 100.0);
    }
    const Rect query = Rect::SquareAround(c, prng.UniformDouble(1.0, 20.0));
    auto a = original.RangeSearch(query);
    auto b = loaded.RangeSearch(query);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b);
  }
  std::remove(path.c_str());
}

TEST(RTreeIoTest, RoundTripAfterDeletesSkipsFreeListHoles) {
  RTreeOptions options;
  options.page_size_bytes = 256;
  RTree original(2, options);
  const auto entries = RandomEntries(400, 2, 3);
  for (size_t i = 0; i < entries.size(); ++i) {
    original.Insert(entries.rect(i), entries.ref(i));
  }
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(original.Delete(entries.rect(i), entries.ref(i)));
  }
  const std::string path = TempPath("rtree_holes.wirt");
  ASSERT_TRUE(SaveRTreeToFile(original, path).ok());
  RTree loaded(1);
  ASSERT_TRUE(LoadRTreeFromFile(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), 100u);
  EXPECT_TRUE(loaded.CheckInvariants().ok());
  auto hits = loaded.RangeSearch(Rect::Make({0.0, 0.0}, {100.0, 100.0}));
  EXPECT_EQ(hits.size(), 100u);
  std::remove(path.c_str());
}

TEST(RTreeIoTest, LoadedTreeSupportsMutation) {
  RTree original(3);
  const EntryArray entries = RandomEntries(200, 3, 5);
  for (size_t i = 0; i < entries.size(); ++i) {
    original.Insert(entries.rect(i), entries.ref(i));
  }
  const std::string path = TempPath("rtree_mutate.wirt");
  ASSERT_TRUE(SaveRTreeToFile(original, path).ok());
  RTree loaded(1);
  ASSERT_TRUE(LoadRTreeFromFile(path, &loaded).ok());
  const EntryArray more = RandomEntries(200, 3, 6);
  for (size_t i = 0; i < more.size(); ++i) {
    loaded.Insert(more.rect(i), more.ref(i) + 1000);
  }
  EXPECT_EQ(loaded.size(), 400u);
  EXPECT_TRUE(loaded.CheckInvariants().ok());
  std::remove(path.c_str());
}

TEST(RTreeIoTest, BulkLoadedTreeRoundTrips) {
  const RTree original =
      BulkLoadStr(4, RTreeOptions{}, RandomEntries(3000, 4, 7));
  const std::string path = TempPath("rtree_bulk.wirt");
  ASSERT_TRUE(SaveRTreeToFile(original, path).ok());
  RTree loaded(1);
  ASSERT_TRUE(LoadRTreeFromFile(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), 3000u);
  EXPECT_EQ(loaded.node_count(), original.node_count());
  EXPECT_TRUE(loaded.CheckInvariants().ok());
  std::remove(path.c_str());
}

TEST(RTreeIoTest, SupernodeTreeRoundTrips) {
  RTreeOptions options;
  options.page_size_bytes = 256;
  options.allow_supernodes = true;
  options.supernode_overlap_threshold = 0.1;
  RTree original(2, options);
  Prng prng(21);
  for (int i = 0; i < 1500; ++i) {
    const double x = prng.UniformDouble(0.0, 0.5);
    const double y = prng.UniformDouble(0.0, 0.5);
    original.Insert(Rect::Make({x, y}, {x + 0.5, y + 0.5}), i);
  }
  ASSERT_GT(original.supernode_count(), 0u);
  const std::string path = TempPath("rtree_supernodes.wirt");
  ASSERT_TRUE(SaveRTreeToFile(original, path).ok());
  RTree loaded(1);
  ASSERT_TRUE(LoadRTreeFromFile(path, &loaded).ok());
  EXPECT_EQ(loaded.supernode_count(), original.supernode_count());
  EXPECT_EQ(loaded.TotalPages(), original.TotalPages());
  EXPECT_TRUE(loaded.CheckInvariants().ok());
  auto a = original.RangeSearch(Rect::Make({0.2, 0.2}, {0.4, 0.4}));
  auto b = loaded.RangeSearch(Rect::Make({0.2, 0.2}, {0.4, 0.4}));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  std::remove(path.c_str());
}

TEST(RTreeIoTest, MissingFileFails) {
  RTree t(1);
  EXPECT_EQ(LoadRTreeFromFile("/nonexistent/x.wirt", &t).code(),
            StatusCode::kIoError);
}

TEST(RTreeIoTest, BadMagicRejected) {
  const std::string path = TempPath("bad_magic.wirt");
  std::ofstream(path) << "JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK";
  RTree t(1);
  EXPECT_EQ(LoadRTreeFromFile(path, &t).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(RTreeIoTest, TruncatedFileRejected) {
  RTree original(2);
  const EntryArray entries = RandomEntries(100, 2, 9);
  for (size_t i = 0; i < entries.size(); ++i) {
    original.Insert(entries.rect(i), entries.ref(i));
  }
  const std::string path = TempPath("truncated.wirt");
  ASSERT_TRUE(SaveRTreeToFile(original, path).ok());
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary)
      << data.substr(0, data.size() / 2);
  RTree t(1);
  const Status status = LoadRTreeFromFile(path, &t);
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

// The writer's bytes are pinned to hashes recorded from the writer that
// stored a full Rect per entry: flat in-memory entries changed nothing
// on disk, so files written before load unchanged.
TEST(RTreeIoTest, SavedBytesMatchVersionOneFiles) {
  const FeatureIndex bulk(Walks(500, 64, 41), FeatureIndexOptions{});
  const std::string bulk_path = TempPath("pinned_bulk.wirt");
  ASSERT_TRUE(SaveRTreeToFile(bulk.rtree(), bulk_path).ok());
  const std::string bulk_bytes = ReadFile(bulk_path);
  EXPECT_EQ(bulk_bytes.size(), 40928u);
  EXPECT_EQ(Fnv1a(bulk_bytes), 4362039568585149600ULL);

  FeatureIndexOptions options;
  options.bulk_load = false;
  options.rtree.page_size_bytes = 512;
  options.rtree.split_policy = SplitPolicy::kLinear;
  options.rtree.allow_supernodes = true;
  options.rtree.supernode_overlap_threshold = 0.05;
  const FeatureIndex inserted(Walks(1000, 48, 42), options);
  ASSERT_EQ(inserted.rtree().supernode_count(), 11u);
  const std::string inserted_path = TempPath("pinned_inserted.wirt");
  ASSERT_TRUE(SaveRTreeToFile(inserted.rtree(), inserted_path).ok());
  const std::string inserted_bytes = ReadFile(inserted_path);
  EXPECT_EQ(inserted_bytes.size(), 94667u);
  EXPECT_EQ(Fnv1a(inserted_bytes), 9643801471703134761ULL);

  // Loading and saving again reproduces the same bytes.
  RTree loaded(1);
  ASSERT_TRUE(LoadRTreeFromFile(inserted_path, &loaded).ok());
  EXPECT_EQ(loaded.HealthStats().resident_bytes,
            inserted_bytes.size() - kRootOffset -
                9 * loaded.node_count());  // node headers are not entries
  ASSERT_TRUE(SaveRTreeToFile(loaded, inserted_path).ok());
  EXPECT_EQ(ReadFile(inserted_path), inserted_bytes);
  std::remove(bulk_path.c_str());
  std::remove(inserted_path.c_str());
}

// Hostile files: every lie is caught by a typed error before anything is
// allocated in proportion to the lied count.
TEST(RTreeIoTest, NodeCountLieRejected) {
  const std::string path = TempPath("node_count_lie.wirt");
  std::string bytes = SavedDirectoryTree(path);
  // A header alone claiming four billion nodes.
  std::string header = bytes.substr(0, kRootOffset);
  Patch<uint32_t>(&header, kNodeCountOffset, 4000000000u);
  EXPECT_EQ(LoadCode(path, header), StatusCode::kInvalidArgument);
  // More nodes than NodeId can name, and more than the file can hold.
  Patch<uint32_t>(&bytes, kNodeCountOffset, 0x80000000u);
  EXPECT_EQ(LoadCode(path, bytes), StatusCode::kInvalidArgument);
  Patch<uint32_t>(&bytes, kNodeCountOffset,
                  static_cast<uint32_t>(bytes.size()));
  EXPECT_EQ(LoadCode(path, bytes), StatusCode::kInvalidArgument);
}

TEST(RTreeIoTest, EntryCountLieRejected) {
  const std::string path = TempPath("entry_count_lie.wirt");
  std::string bytes = SavedDirectoryTree(path);
  // A supernode may exceed the page capacity, but not the file.
  Patch<uint8_t>(&bytes, kRootOffset + 4, 1);
  Patch<uint32_t>(&bytes, kRootEntryCountOffset, 0xFFFFFFFFu);
  EXPECT_EQ(LoadCode(path, bytes), StatusCode::kInvalidArgument);
}

TEST(RTreeIoTest, TruncationMidEntryRejected) {
  const std::string path = TempPath("truncated_mid_entry.wirt");
  const std::string bytes = SavedDirectoryTree(path);
  // Cut inside the root's second entry (72 bytes each at 4-d).
  EXPECT_EQ(LoadCode(path, bytes.substr(0, kRootEntriesOffset + 72 + 30)),
            StatusCode::kInvalidArgument);
  // And inside the last entry of the last node.
  EXPECT_EQ(LoadCode(path, bytes.substr(0, bytes.size() - 3)),
            StatusCode::kInvalidArgument);
}

TEST(RTreeIoTest, ChildRefToItselfRejected) {
  const std::string path = TempPath("self_child.wirt");
  std::string bytes = SavedDirectoryTree(path);
  // The root's first entry: 8 bound doubles, then its child ref.
  Patch<int64_t>(&bytes, kRootEntriesOffset + 64, 0);
  EXPECT_EQ(LoadCode(path, bytes), StatusCode::kInvalidArgument);
}

TEST(RTreeIoTest, InvariantFailureIsInvalidArgument) {
  const std::string path = TempPath("bad_mbr.wirt");
  std::string bytes = SavedDirectoryTree(path);
  // Shrink the root's first directory MBR so it no longer matches its
  // child: structurally well-formed, semantically corrupt.
  Patch<double>(&bytes, kRootEntriesOffset + 8, -1e9);
  EXPECT_EQ(LoadCode(path, bytes), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace warpindex
