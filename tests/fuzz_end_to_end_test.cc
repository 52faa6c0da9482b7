// Randomized end-to-end differential fuzzing: across random engine
// configurations, datasets, queries, and tolerances, the indexed search
// must return exactly the sequential scan's answer set.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.h"
#include "core/engine.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "sequence/stock_generator.h"

namespace warpindex {
namespace {

std::vector<SequenceId> Sorted(std::vector<SequenceId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(FuzzEndToEndTest, RandomConfigurationsAgreeWithScan) {
  Prng prng(20260705);
  for (int round = 0; round < 12; ++round) {
    // Random engine configuration.
    EngineOptions options;
    const int64_t page_pick = prng.UniformInt(0, 2);
    options.page_size_bytes =
        page_pick == 0 ? 512 : (page_pick == 1 ? 1024 : 4096);
    const int64_t split_pick = prng.UniformInt(0, 2);
    options.split_policy = split_pick == 0   ? SplitPolicy::kLinear
                           : split_pick == 1 ? SplitPolicy::kQuadratic
                                             : SplitPolicy::kRStar;
    options.bulk_load = prng.UniformInt(0, 1) == 1;
    // A random fixed lower-bound plan (any of the 16 stage subsets) for
    // kTwSimSearchCascade.
    const int64_t stage_mask = prng.UniformInt(0, 15);
    options.cascade_planner.mode = PlanMode::kFixed;
    for (const CascadeStage stage : CascadePlan::Full().stages) {
      if ((stage_mask >> static_cast<int>(stage)) & 1) {
        options.cascade_planner.fixed.stages.push_back(stage);
      }
    }
    options.index_buffer_pages =
        prng.UniformInt(0, 1) == 1 ? 32 : 0;
    options.dtw = prng.UniformInt(0, 1) == 1 ? DtwOptions::Linf()
                                             : DtwOptions::L1();

    // Random dataset.
    Dataset dataset;
    double eps_scale;
    if (prng.UniformInt(0, 1) == 0) {
      RandomWalkOptions rw;
      rw.num_sequences = static_cast<size_t>(prng.UniformInt(20, 120));
      rw.min_length = static_cast<size_t>(prng.UniformInt(5, 40));
      rw.max_length =
          rw.min_length + static_cast<size_t>(prng.UniformInt(0, 40));
      rw.seed = prng.NextUint64();
      dataset = GenerateRandomWalkDataset(rw);
      eps_scale = 0.5;
    } else {
      StockDataOptions stock;
      stock.num_sequences = static_cast<size_t>(prng.UniformInt(20, 80));
      stock.seed = prng.NextUint64();
      dataset = GenerateStockDataset(stock);
      eps_scale = 8.0;
    }
    if (options.dtw.combiner == DtwCombiner::kSum) {
      eps_scale *= 20.0;  // sum-accumulated distances live on a larger scale
    }

    const Engine engine(std::move(dataset), options);
    QueryWorkloadOptions qw;
    qw.num_queries = 4;
    qw.seed = prng.NextUint64();
    const auto queries = GenerateQueryWorkload(engine.dataset(), qw);
    for (const Sequence& q : queries) {
      const double eps = prng.UniformDouble(0.0, eps_scale);
      const auto indexed = Sorted(engine.Search(q, eps).matches);
      const auto cascaded = Sorted(
          engine.SearchWith(MethodKind::kTwSimSearchCascade, q, eps).matches);
      const auto scanned = Sorted(
          engine.SearchWith(MethodKind::kNaiveScan, q, eps).matches);
      ASSERT_EQ(indexed, scanned)
          << "round=" << round << " eps=" << eps
          << " page=" << options.page_size_bytes
          << " bulk=" << options.bulk_load;
      ASSERT_EQ(cascaded, scanned)
          << "round=" << round << " eps=" << eps
          << " page=" << options.page_size_bytes
          << " bulk=" << options.bulk_load
          << " plan=" << options.cascade_planner.fixed.ToString();
    }
  }
}

TEST(FuzzEndToEndTest, ChurnThenQueryAgainstScan) {
  Prng prng(99887766);
  RandomWalkOptions rw;
  rw.num_sequences = 60;
  rw.min_length = 20;
  rw.max_length = 50;
  Engine engine(GenerateRandomWalkDataset(rw), EngineOptions{});
  for (int step = 0; step < 200; ++step) {
    const int64_t op = prng.UniformInt(0, 9);
    if (op < 4) {
      Sequence s;
      const int64_t len = prng.UniformInt(5, 40);
      double v = prng.UniformDouble(1.0, 10.0);
      for (int64_t i = 0; i < len; ++i) {
        s.Append(v);
        v += prng.UniformDouble(-0.1, 0.1);
      }
      engine.Insert(std::move(s));
    } else if (op < 6) {
      const auto id = static_cast<SequenceId>(prng.UniformInt(
          0, static_cast<int64_t>(engine.dataset().size()) - 1));
      engine.Remove(id);  // may be already dead; both outcomes fine
    } else {
      const size_t pick = static_cast<size_t>(prng.UniformInt(
          0, static_cast<int64_t>(engine.dataset().size()) - 1));
      const Sequence q =
          PerturbSequence(engine.dataset()[pick], prng.NextUint64());
      const double eps = prng.UniformDouble(0.0, 0.6);
      const auto indexed = Sorted(engine.Search(q, eps).matches);
      const auto scanned = Sorted(
          engine.SearchWith(MethodKind::kNaiveScan, q, eps).matches);
      ASSERT_EQ(indexed, scanned) << "step=" << step;
    }
  }
  EXPECT_TRUE(engine.feature_index().rtree().CheckInvariants().ok());
}

}  // namespace
}  // namespace warpindex
