#include "sequence/dataset.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

namespace warpindex {
namespace {

Dataset MakeSmallDataset() {
  Dataset d;
  d.Add(Sequence({1.0, 2.0, 3.0}));
  d.Add(Sequence({-5.0, 10.0}));
  d.Add(Sequence({0.0, 0.0, 0.0, 0.0, 0.0}));
  return d;
}

TEST(DatasetTest, AddAssignsSequentialIds) {
  const Dataset d = MakeSmallDataset();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].id(), 0);
  EXPECT_EQ(d[1].id(), 1);
  EXPECT_EQ(d[2].id(), 2);
}

TEST(DatasetTest, VectorConstructorAssignsIds) {
  Dataset d(std::vector<Sequence>{Sequence({1.0}), Sequence({2.0})});
  EXPECT_EQ(d[0].id(), 0);
  EXPECT_EQ(d[1].id(), 1);
}

TEST(DatasetTest, StatsComputedCorrectly) {
  const DatasetStats stats = MakeSmallDataset().ComputeStats();
  EXPECT_EQ(stats.num_sequences, 3u);
  EXPECT_EQ(stats.total_elements, 10u);
  EXPECT_EQ(stats.min_length, 2u);
  EXPECT_EQ(stats.max_length, 5u);
  EXPECT_NEAR(stats.avg_length, 10.0 / 3.0, 1e-12);
  EXPECT_EQ(stats.global_min, -5.0);
  EXPECT_EQ(stats.global_max, 10.0);
}

TEST(DatasetTest, EmptyStats) {
  const DatasetStats stats = Dataset().ComputeStats();
  EXPECT_EQ(stats.num_sequences, 0u);
  EXPECT_EQ(stats.total_elements, 0u);
}

TEST(DatasetTest, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/dataset_roundtrip.wids";
  const Dataset original = MakeSmallDataset();
  ASSERT_TRUE(original.SaveToFile(path).ok());
  Dataset loaded;
  ASSERT_TRUE(Dataset::LoadFromFile(path, &loaded).ok());
  ASSERT_EQ(loaded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i], original[i]);
    EXPECT_EQ(loaded[i].id(), original[i].id());
  }
  std::remove(path.c_str());
}

TEST(DatasetTest, RoundTripWithEmptyDataset) {
  const std::string path = testing::TempDir() + "/dataset_empty.wids";
  ASSERT_TRUE(Dataset().SaveToFile(path).ok());
  Dataset loaded = MakeSmallDataset();
  ASSERT_TRUE(Dataset::LoadFromFile(path, &loaded).ok());
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST(DatasetTest, LoadRejectsMissingFile) {
  Dataset d;
  const Status s = Dataset::LoadFromFile("/nonexistent/nope.wids", &d);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(DatasetTest, LoadRejectsBadMagic) {
  const std::string path = testing::TempDir() + "/dataset_bad_magic.wids";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("JUNKJUNKJUNKJUNKJUNK", 1, 20, f);
  std::fclose(f);
  Dataset d;
  const Status s = Dataset::LoadFromFile(path, &d);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// Writes a dataset file by hand: the header with `count`, then each row
// as its length word and its elements. `row_len` overrides a row's length
// word (the elements written stay the row's own).
std::string WriteRawDataset(const std::string& name, uint64_t count,
                            const std::vector<std::vector<double>>& rows,
                            const std::vector<uint64_t>& row_len = {}) {
  const std::string path = testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  const uint32_t version = 1;
  std::fwrite("WIDS", 1, 4, f);
  std::fwrite(&version, sizeof(version), 1, f);
  std::fwrite(&count, sizeof(count), 1, f);
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint64_t len = i < row_len.size() ? row_len[i] : rows[i].size();
    std::fwrite(&len, sizeof(len), 1, f);
    if (!rows[i].empty()) {
      std::fwrite(rows[i].data(), sizeof(double), rows[i].size(), f);
    }
  }
  std::fclose(f);
  return path;
}

Status LoadRaw(const std::string& path) {
  Dataset d;
  const Status status = Dataset::LoadFromFile(path, &d);
  std::remove(path.c_str());
  return status;
}

TEST(DatasetTest, HandWrittenFileLoads) {
  const std::string path =
      WriteRawDataset("dataset_raw_ok.wids", 2, {{1.0, 2.0}, {3.0}});
  Dataset d;
  ASSERT_TRUE(Dataset::LoadFromFile(path, &d).ok());
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], Sequence({1.0, 2.0}));
  EXPECT_EQ(d[1], Sequence({3.0}));
  std::remove(path.c_str());
}

// A count the file cannot hold is refused before anything is reserved
// for it (2^61 rows would throw from reserve()).
TEST(DatasetTest, LoadRejectsCountBeyondTheFile) {
  EXPECT_EQ(LoadRaw(WriteRawDataset("dataset_count_lie.wids",
                                    uint64_t{1} << 61, {{1.0, 2.0}}))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadRaw(WriteRawDataset("dataset_count_plus_one.wids", 2,
                                    {{1.0, 2.0}}))
                .code(),
            StatusCode::kInvalidArgument);
}

// A row length the file cannot hold is refused before the row is
// allocated (2^40 elements would throw bad_alloc).
TEST(DatasetTest, LoadRejectsRowLengthBeyondTheFile) {
  EXPECT_EQ(LoadRaw(WriteRawDataset("dataset_len_lie.wids", 1, {{1.0, 2.0}},
                                    {uint64_t{1} << 40}))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(DatasetTest, LoadRejectsFileTruncatedMidRow) {
  const std::string path = testing::TempDir() + "/dataset_truncated.wids";
  ASSERT_TRUE(MakeSmallDataset().SaveToFile(path).ok());
  // Cut the last row's final element in half.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 4);
  EXPECT_EQ(LoadRaw(path).code(), StatusCode::kInvalidArgument);
}

// ExtractFeature requires a non-empty sequence.
TEST(DatasetTest, LoadRejectsZeroLengthRow) {
  EXPECT_EQ(LoadRaw(WriteRawDataset("dataset_empty_row.wids", 2,
                                    {{1.0}, {}}))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(DatasetTest, LoadRejectsNonFiniteElements) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const Status status = LoadRaw(WriteRawDataset(
        "dataset_nonfinite.wids", 2, {{1.0, 2.0}, {3.0, bad, 4.0}}));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("row 1"), std::string::npos)
        << status.ToString();
  }
}

// Add accepts an empty sequence, but a file holding it would not reopen:
// SaveToFile refuses it, names the row, and leaves no file behind.
TEST(DatasetTest, SaveRejectsEmptyRowAndCreatesNoFile) {
  const std::string path = testing::TempDir() + "/dataset_save_empty_row.wids";
  std::filesystem::remove(path);
  Dataset d;
  d.Add(Sequence({1.0, 2.0}));
  d.Add(Sequence());
  const Status status = d.SaveToFile(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("row 1"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(DatasetTest, SaveRejectsUnwritablePath) {
  const Status s = MakeSmallDataset().SaveToFile("/nonexistent/dir/x.wids");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace warpindex
