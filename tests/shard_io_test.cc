// Shard manifest persistence (shard/shard_io.h): a saved manifest reads
// back as written, and a hostile one (counts the file cannot hold,
// non-finite range cuts) is a typed "corrupt shard manifest" error that
// allocates nothing for the lying count.

#include "shard/shard_io.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace warpindex {
namespace {

using Cut = std::array<double, kFeatureDims>;

// Writes a v2 manifest by hand: header with `num_shards` and `count`,
// the given assignment entries, then the cut block when `cuts` is
// non-empty.
std::string WriteRawManifest(const std::string& name, uint32_t num_shards,
                             uint64_t count,
                             const std::vector<uint32_t>& shard_of,
                             const std::vector<Cut>& cuts) {
  const std::string path = testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  const uint32_t version = 2;
  const uint32_t partitioner = static_cast<uint32_t>(PartitionerKind::kRange);
  const uint64_t page_size = 1024;
  const uint32_t has_cuts = cuts.empty() ? 0 : 1;
  std::fwrite("WISM", 1, 4, f);
  std::fwrite(&version, sizeof(version), 1, f);
  std::fwrite(&num_shards, sizeof(num_shards), 1, f);
  std::fwrite(&partitioner, sizeof(partitioner), 1, f);
  std::fwrite(&page_size, sizeof(page_size), 1, f);
  std::fwrite(&count, sizeof(count), 1, f);
  std::fwrite(shard_of.data(), sizeof(uint32_t), shard_of.size(), f);
  std::fwrite(&has_cuts, sizeof(has_cuts), 1, f);
  for (const Cut& cut : cuts) {
    std::fwrite(cut.data(), sizeof(double), cut.size(), f);
  }
  std::fclose(f);
  return path;
}

Status LoadRaw(const std::string& path) {
  ShardManifest manifest;
  const Status status = LoadShardManifest(path, &manifest);
  std::remove(path.c_str());
  return status;
}

void ExpectCorrupt(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_NE(status.message().find("corrupt shard manifest"),
            std::string::npos)
      << status.ToString();
}

TEST(ShardIoTest, HandWrittenManifestLoads) {
  const std::string path = WriteRawManifest(
      "manifest_ok.wism", 2, 3, {0, 1, kDroppedShard},
      {Cut{1.0, 2.0, 3.0, 0.5}, Cut{4.0, 5.0, 6.0, 3.5}});
  ShardManifest manifest;
  ASSERT_TRUE(LoadShardManifest(path, &manifest).ok());
  EXPECT_EQ(manifest.partitioner, PartitionerKind::kRange);
  EXPECT_EQ(manifest.page_size_bytes, 1024u);
  EXPECT_EQ(manifest.assignment.num_shards, 2u);
  EXPECT_EQ(manifest.assignment.shard_of,
            (std::vector<uint32_t>{0, 1, kDroppedShard}));
  ASSERT_EQ(manifest.range_cuts.size(), 2u);
  EXPECT_EQ(manifest.range_cuts[1], (Cut{4.0, 5.0, 6.0, 3.5}));
  std::remove(path.c_str());
}

// 2^61 assignment entries would throw from resize(); the file holds two.
TEST(ShardIoTest, RejectsAssignmentCountBeyondTheFile) {
  ExpectCorrupt(LoadRaw(WriteRawManifest(
      "manifest_count_lie.wism", 2, uint64_t{1} << 61, {0, 1}, {})));
  ExpectCorrupt(LoadRaw(
      WriteRawManifest("manifest_count_plus_one.wism", 2, 3, {0, 1}, {})));
}

// A shard count whose cut block the file cannot hold: 2^31 cuts would be
// 64 GiB, the file holds one.
TEST(ShardIoTest, RejectsCutCountBeyondTheFile) {
  ExpectCorrupt(LoadRaw(WriteRawManifest("manifest_cuts_lie.wism",
                                         uint32_t{1} << 31, 1, {0},
                                         {Cut{1.0, 2.0, 3.0, 0.5}})));
}

TEST(ShardIoTest, RejectsNonFiniteRangeCuts) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    ExpectCorrupt(LoadRaw(WriteRawManifest(
        "manifest_bad_cut.wism", 2, 2, {0, 1},
        {Cut{1.0, 2.0, 3.0, 0.5}, Cut{4.0, bad, 6.0, 3.5}})));
  }
}

}  // namespace
}  // namespace warpindex
