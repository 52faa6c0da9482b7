#include "sequence/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sequence/stock_generator.h"

namespace warpindex {
namespace {

std::string WriteTempFile(const std::string& name,
                          const std::string& contents) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(ParseSequenceLineTest, CommaSeparated) {
  Sequence s;
  ASSERT_TRUE(ParseSequenceLine("1.5,2,-3.25", &s).ok());
  EXPECT_EQ(s, Sequence({1.5, 2.0, -3.25}));
}

TEST(ParseSequenceLineTest, WhitespaceAndMixedSeparators) {
  Sequence s;
  ASSERT_TRUE(ParseSequenceLine("  1 2,\t3 ,4  ", &s).ok());
  EXPECT_EQ(s, Sequence({1.0, 2.0, 3.0, 4.0}));
}

TEST(ParseSequenceLineTest, ScientificNotation) {
  Sequence s;
  ASSERT_TRUE(ParseSequenceLine("1e3,-2.5E-2", &s).ok());
  EXPECT_EQ(s, Sequence({1000.0, -0.025}));
}

TEST(ParseSequenceLineTest, RejectsGarbage) {
  Sequence s;
  EXPECT_EQ(ParseSequenceLine("1,banana,3", &s).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSequenceLine("", &s).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSequenceLine("  , ,", &s).code(),
            StatusCode::kInvalidArgument);
}

TEST(ParseSequenceLineTest, RejectsNonFiniteElements) {
  Sequence s;
  for (const char* line :
       {"1,nan,3", "NAN", "-nan(0x1)", "inf,2", "1 -Infinity", "1e999",
        "2,-1e400"}) {
    const Status status = ParseSequenceLine(line, &s);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(status.message().find("non-finite"), std::string::npos)
        << line;
  }
  // The largest finite magnitudes still parse.
  ASSERT_TRUE(ParseSequenceLine("1.7976931348623157e308,-4.9e-324", &s).ok());
  EXPECT_EQ(s.size(), 2u);
}

TEST(DatasetCsvTest, RejectsFileWithNonFiniteElement) {
  const std::string path =
      WriteTempFile("nonfinite.csv", "1,2,3\n4,nan,6\n");
  Dataset d;
  const Status status = LoadDatasetFromCsv(path, &d);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(":2: non-finite"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, LoadsSequencesSkippingCommentsAndBlanks) {
  const std::string path = WriteTempFile("load.csv",
                                         "# header comment\n"
                                         "1,2,3\n"
                                         "\n"
                                         "   \n"
                                         "4.5 6.5\n"
                                         "# trailing comment\n"
                                         "7\n");
  Dataset d;
  ASSERT_TRUE(LoadDatasetFromCsv(path, &d).ok());
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0], Sequence({1.0, 2.0, 3.0}));
  EXPECT_EQ(d[1], Sequence({4.5, 6.5}));
  EXPECT_EQ(d[2], Sequence({7.0}));
  EXPECT_EQ(d[2].id(), 2);
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, ErrorsIncludeLineNumber) {
  const std::string path =
      WriteTempFile("bad.csv", "1,2\nnot a number\n");
  Dataset d;
  const Status status = LoadDatasetFromCsv(path, &d);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(":2:"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, MissingFileIsIoError) {
  Dataset d;
  EXPECT_EQ(LoadDatasetFromCsv("/nonexistent/x.csv", &d).code(),
            StatusCode::kIoError);
}

TEST(DatasetCsvTest, RoundTripPreservesValuesExactly) {
  StockDataOptions options;
  options.num_sequences = 20;
  const Dataset original = GenerateStockDataset(options);
  const std::string path = testing::TempDir() + "/roundtrip.csv";
  ASSERT_TRUE(SaveDatasetToCsv(path, original).ok());
  Dataset loaded;
  ASSERT_TRUE(LoadDatasetFromCsv(path, &loaded).ok());
  ASSERT_EQ(loaded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(loaded[i], original[i]) << "sequence " << i;
  }
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, SaveToUnwritablePathFails) {
  EXPECT_EQ(SaveDatasetToCsv("/nonexistent/dir/x.csv", Dataset()).code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace warpindex
