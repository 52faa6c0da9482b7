#include "core/engine.h"

#include <gtest/gtest.h>

#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

Dataset SmallDataset() {
  RandomWalkOptions options;
  options.num_sequences = 40;
  options.min_length = 20;
  options.max_length = 50;
  return GenerateRandomWalkDataset(options);
}

TEST(EngineTest, MethodKindNamesRoundTrip) {
  for (const MethodKind kind :
       {MethodKind::kTwSimSearch, MethodKind::kNaiveScan,
        MethodKind::kLbScan, MethodKind::kStFilter,
        MethodKind::kTwSimSearchCascade}) {
    MethodKind parsed = MethodKind::kStFilter;
    ASSERT_TRUE(ParseMethodKind(MethodKindName(kind), &parsed))
        << MethodKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  // Unknown names (the CLI's short spellings included) leave it as is.
  MethodKind kind = MethodKind::kLbScan;
  EXPECT_FALSE(ParseMethodKind("TW-Sim-Search-Turbo", &kind));
  EXPECT_FALSE(ParseMethodKind("tw", &kind));
  EXPECT_EQ(kind, MethodKind::kLbScan);
}

TEST(EngineTest, WiresStoreAndIndexToDataset) {
  const Engine engine(SmallDataset(), EngineOptions{});
  EXPECT_EQ(engine.dataset().size(), 40u);
  EXPECT_EQ(engine.store().num_sequences(), 40u);
  EXPECT_EQ(engine.feature_index().size(), 40u);
  EXPECT_FALSE(engine.has_st_filter());
  EXPECT_EQ(engine.st_filter(), nullptr);
}

TEST(EngineTest, SearchIsTwSimSearch) {
  const Engine engine(SmallDataset(), EngineOptions{});
  const Sequence q = engine.dataset()[0];
  const auto direct = engine.Search(q, 0.1);
  const auto via_kind = engine.SearchWith(MethodKind::kTwSimSearch, q, 0.1);
  EXPECT_EQ(direct.matches, via_kind.matches);
  // Exact copy always matches itself.
  EXPECT_NE(std::find(direct.matches.begin(), direct.matches.end(), 0),
            direct.matches.end());
}

TEST(EngineTest, StFilterOptIn) {
  EngineOptions options;
  options.build_st_filter = true;
  options.st_filter_categories = 20;
  const Engine engine(SmallDataset(), options);
  EXPECT_TRUE(engine.has_st_filter());
  ASSERT_NE(engine.st_filter(), nullptr);
  EXPECT_EQ(engine.st_filter()->categorizer().num_categories(), 20u);
  const auto result =
      engine.SearchWith(MethodKind::kStFilter, engine.dataset()[1], 0.1);
  EXPECT_GE(result.num_candidates, result.matches.size());
}

TEST(EngineTest, ElapsedMillisCombinesCpuAndIo) {
  const Engine engine(SmallDataset(), EngineOptions{});
  SearchCost cost;
  cost.wall_ms = 2.0;
  cost.io.RecordRandomRead(10);  // 10 seeks + 10 transfers
  const double expected_io =
      10 * 9.5 + 10 * engine.disk_model().TransferMillisPerPage();
  EXPECT_NEAR(engine.ElapsedMillis(cost), 2.0 + expected_io, 1e-9);
}

TEST(EngineTest, CustomPageSizePropagates) {
  EngineOptions options;
  options.page_size_bytes = 4096;
  const Engine engine(SmallDataset(), options);
  EXPECT_EQ(engine.store().page_size_bytes(), 4096u);
  EXPECT_EQ(engine.feature_index().rtree().options().page_size_bytes,
            4096u);
  EXPECT_EQ(engine.disk_model().page_size_bytes(), 4096u);
}

TEST(EngineTest, L1SimilarityModelSupported) {
  EngineOptions options;
  options.dtw = DtwOptions::L1();
  const Engine engine(SmallDataset(), options);
  const Sequence q = engine.dataset()[2];
  const auto result = engine.Search(q, 1.0);
  EXPECT_NE(std::find(result.matches.begin(), result.matches.end(), 2),
            result.matches.end());
}

TEST(EngineTest, LbCascadeKeepsAnswersAndSavesDtwCells) {
  // The LB_Yi stage alone between the fetch and exact DTW.
  EngineOptions options;
  options.cascade_plan = CascadePlan{{CascadeStage::kLbYi}};
  const Engine engine(SmallDataset(), options);
  uint64_t plain_cells = 0;
  uint64_t cascade_cells = 0;
  uint64_t cascade_lb_evals = 0;
  for (int qi = 0; qi < 10; ++qi) {
    const Sequence q = engine.dataset()[static_cast<size_t>(qi * 4 % 40)];
    const SearchResult ra = engine.Search(q, 0.5);
    const SearchResult rb =
        engine.SearchWith(MethodKind::kTwSimSearchCascade, q, 0.5);
    EXPECT_EQ(ra.matches, rb.matches);
    EXPECT_EQ(ra.num_candidates, rb.num_candidates);
    EXPECT_EQ(rb.cost.prunes.Get(kStageLbYiCascade).in, rb.num_candidates);
    plain_cells += ra.cost.dtw_cells;
    cascade_cells += rb.cost.dtw_cells;
    cascade_lb_evals += rb.cost.lb_evals;
  }
  EXPECT_LE(cascade_cells, plain_cells);
  EXPECT_GT(cascade_lb_evals, 0u);
}

TEST(EngineTest, SubsequenceIndexOptIn) {
  EngineOptions options;
  options.build_subsequence_index = true;
  options.subsequence_min_window = 8;
  options.subsequence_max_window = 12;
  const Engine engine(SmallDataset(), options);
  ASSERT_TRUE(engine.has_subsequence_index());
  const Sequence q = engine.dataset()[2].Slice(3, 10);
  const auto matches = engine.SearchSubsequences(q, 0.0);
  const SubsequenceMatch expected{2, 3, 10, 0.0};
  EXPECT_NE(std::find(matches.begin(), matches.end(), expected),
            matches.end());
}

TEST(EngineTest, SubsequenceSearchSkipsTombstonedSequences) {
  EngineOptions options;
  options.build_subsequence_index = true;
  options.subsequence_min_window = 8;
  options.subsequence_max_window = 10;
  Engine engine(SmallDataset(), options);
  const Sequence q = engine.dataset()[5].Slice(0, 9);
  ASSERT_FALSE(engine.SearchSubsequences(q, 0.0).empty());
  ASSERT_TRUE(engine.Remove(5));
  for (const SubsequenceMatch& m : engine.SearchSubsequences(q, 0.0)) {
    EXPECT_NE(m.sequence_id, 5);
  }
}

TEST(EngineTest, L2SimilarityModelAgreesWithScan) {
  EngineOptions options;
  options.dtw = DtwOptions::L2();
  const Engine engine(SmallDataset(), options);
  for (int qi = 0; qi < 5; ++qi) {
    const Sequence q = engine.dataset()[static_cast<size_t>(qi * 7)];
    auto indexed = engine.Search(q, 2.0).matches;
    auto scanned = engine.SearchWith(MethodKind::kNaiveScan, q, 2.0).matches;
    std::sort(indexed.begin(), indexed.end());
    std::sort(scanned.begin(), scanned.end());
    EXPECT_EQ(indexed, scanned);
  }
}

TEST(EngineTest, BandedSimilarityModelAgreesWithScan) {
  EngineOptions options;
  options.dtw = DtwOptions::Linf();
  options.dtw.band = 5;  // Sakoe-Chiba radius
  const Engine engine(SmallDataset(), options);
  for (int qi = 0; qi < 5; ++qi) {
    const Sequence q = engine.dataset()[static_cast<size_t>(qi * 3)];
    auto indexed = engine.Search(q, 0.3).matches;
    auto scanned =
        engine.SearchWith(MethodKind::kNaiveScan, q, 0.3).matches;
    std::sort(indexed.begin(), indexed.end());
    std::sort(scanned.begin(), scanned.end());
    EXPECT_EQ(indexed, scanned);
  }
}

TEST(EngineTest, MethodKindNames) {
  EXPECT_STREQ(MethodKindName(MethodKind::kTwSimSearch), "TW-Sim-Search");
  EXPECT_STREQ(MethodKindName(MethodKind::kNaiveScan), "Naive-Scan");
  EXPECT_STREQ(MethodKindName(MethodKind::kLbScan), "LB-Scan");
  EXPECT_STREQ(MethodKindName(MethodKind::kStFilter), "ST-Filter");
}

TEST(EngineTest, IndexBufferPoolReducesRepeatedQueryIo) {
  EngineOptions options;
  options.index_buffer_pages = 256;
  const Engine engine(SmallDataset(), options);
  const Sequence q = engine.dataset()[4];
  const SearchResult cold = engine.Search(q, 0.1);
  const SearchResult warm = engine.Search(q, 0.1);
  EXPECT_EQ(cold.matches, warm.matches);
  // The second identical query hits the pool for every index page.
  EXPECT_LT(warm.cost.io.random_page_reads,
            cold.cost.io.random_page_reads);
  EXPECT_EQ(warm.cost.index_nodes, cold.cost.index_nodes);
}

TEST(EngineTest, BufferPoolDoesNotChangeAnswers) {
  EngineOptions with_pool;
  with_pool.index_buffer_pages = 64;
  const Engine a(SmallDataset(), with_pool);
  const Engine b(SmallDataset(), EngineOptions{});
  for (int qi = 0; qi < 10; ++qi) {
    const Sequence q = a.dataset()[static_cast<size_t>(qi * 3)];
    EXPECT_EQ(a.Search(q, 0.15).matches, b.Search(q, 0.15).matches);
  }
}

TEST(EngineTest, IncrementalIndexBuildOption) {
  EngineOptions options;
  options.bulk_load = false;
  const Engine engine(SmallDataset(), options);
  EXPECT_EQ(engine.feature_index().size(), 40u);
  const auto result = engine.Search(engine.dataset()[5], 0.0);
  EXPECT_NE(std::find(result.matches.begin(), result.matches.end(), 5),
            result.matches.end());
}

}  // namespace
}  // namespace warpindex
