// Cross-method integration tests: all four strategies must return the
// exact same answer set (Naive-Scan is ground truth), and their cost
// accounting must reflect their access patterns.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "dtw/lb_yi.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "sequence/stock_generator.h"

namespace warpindex {
namespace {

class SearchMethodsTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    RandomWalkOptions rw;
    rw.num_sequences = 120;
    rw.min_length = 30;
    rw.max_length = 80;
    EngineOptions options;
    options.build_st_filter = true;
    options.st_filter_categories = 50;
    engine_ = new Engine(GenerateRandomWalkDataset(rw), options);
    queries_ = new std::vector<Sequence>(GenerateQueryWorkload(
        engine_->dataset(), QueryWorkloadOptions{.num_queries = 15}));
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete queries_;
    engine_ = nullptr;
    queries_ = nullptr;
  }

  static Engine* engine_;
  static std::vector<Sequence>* queries_;
};

Engine* SearchMethodsTest::engine_ = nullptr;
std::vector<Sequence>* SearchMethodsTest::queries_ = nullptr;

std::vector<SequenceId> Sorted(std::vector<SequenceId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST_F(SearchMethodsTest, AllMethodsAgreeOnMatches) {
  for (const double epsilon : {0.02, 0.1, 0.5}) {
    for (const Sequence& q : *queries_) {
      const auto truth = Sorted(
          engine_->SearchWith(MethodKind::kNaiveScan, q, epsilon).matches);
      EXPECT_EQ(Sorted(engine_->SearchWith(MethodKind::kTwSimSearch, q,
                                           epsilon)
                           .matches),
                truth)
          << "TW-Sim-Search diverged at eps=" << epsilon;
      EXPECT_EQ(
          Sorted(engine_->SearchWith(MethodKind::kLbScan, q, epsilon)
                     .matches),
          truth)
          << "LB-Scan diverged at eps=" << epsilon;
      EXPECT_EQ(
          Sorted(engine_->SearchWith(MethodKind::kStFilter, q, epsilon)
                     .matches),
          truth)
          << "ST-Filter diverged at eps=" << epsilon;
    }
  }
}

TEST_F(SearchMethodsTest, PerturbedCopyFindsItsSource) {
  // A query perturbed from sequence i by < std/2 per element should match
  // its source at a generous tolerance via every method.
  const Sequence& source = engine_->dataset()[3];
  const Sequence q = PerturbSequence(source, 1234);
  const double epsilon = source.StdDev();  // comfortably above std/2
  for (const MethodKind kind :
       {MethodKind::kTwSimSearch, MethodKind::kNaiveScan,
        MethodKind::kLbScan, MethodKind::kStFilter}) {
    const auto result = engine_->SearchWith(kind, q, epsilon);
    EXPECT_NE(std::find(result.matches.begin(), result.matches.end(), 3),
              result.matches.end())
        << MethodKindName(kind);
  }
}

TEST_F(SearchMethodsTest, CandidateCountsAtLeastMatches) {
  const Sequence& q = (*queries_)[0];
  for (const MethodKind kind :
       {MethodKind::kTwSimSearch, MethodKind::kNaiveScan,
        MethodKind::kLbScan, MethodKind::kStFilter}) {
    const auto result = engine_->SearchWith(kind, q, 0.1);
    EXPECT_GE(result.num_candidates, result.matches.size())
        << MethodKindName(kind);
  }
}

TEST_F(SearchMethodsTest, IndexFiltersBetterThanLbScan) {
  // Figure 2's headline: TW-Sim-Search's candidate ratio is far below
  // LB-Scan's. Aggregated over the workload to avoid per-query noise.
  size_t tw_candidates = 0;
  size_t lb_candidates = 0;
  for (const Sequence& q : *queries_) {
    tw_candidates +=
        engine_->SearchWith(MethodKind::kTwSimSearch, q, 0.1).num_candidates;
    lb_candidates +=
        engine_->SearchWith(MethodKind::kLbScan, q, 0.1).num_candidates;
  }
  EXPECT_LE(tw_candidates, lb_candidates);
}

TEST_F(SearchMethodsTest, ScansPaySequentialIoIndexPaysRandom) {
  const Sequence& q = (*queries_)[1];
  const auto naive = engine_->SearchWith(MethodKind::kNaiveScan, q, 0.1);
  EXPECT_EQ(naive.cost.io.sequential_page_reads,
            engine_->store().num_pages());
  EXPECT_EQ(naive.cost.io.random_page_reads, 0u);

  const auto tw = engine_->SearchWith(MethodKind::kTwSimSearch, q, 0.1);
  EXPECT_EQ(tw.cost.io.sequential_page_reads, 0u);
  EXPECT_GT(tw.cost.io.random_page_reads, 0u);
  // The index method must touch far fewer pages than a full scan.
  EXPECT_LT(tw.cost.io.TotalPageReads(),
            naive.cost.io.TotalPageReads());
}

TEST_F(SearchMethodsTest, LbScanComputesFewerDtwCellsThanNaive) {
  uint64_t naive_cells = 0;
  uint64_t lb_cells = 0;
  for (const Sequence& q : *queries_) {
    naive_cells +=
        engine_->SearchWith(MethodKind::kNaiveScan, q, 0.05).cost.dtw_cells;
    lb_cells +=
        engine_->SearchWith(MethodKind::kLbScan, q, 0.05).cost.dtw_cells;
  }
  EXPECT_LT(lb_cells, naive_cells);
}

TEST_F(SearchMethodsTest, CostsArePopulated) {
  const Sequence& q = (*queries_)[2];
  const auto tw = engine_->SearchWith(MethodKind::kTwSimSearch, q, 0.1);
  EXPECT_GT(tw.cost.index_nodes, 0u);
  EXPECT_GE(tw.cost.wall_ms, 0.0);
  const auto lb = engine_->SearchWith(MethodKind::kLbScan, q, 0.1);
  EXPECT_EQ(lb.cost.lb_evals, engine_->dataset().size());
  const auto st = engine_->SearchWith(MethodKind::kStFilter, q, 0.1);
  EXPECT_GT(st.cost.index_nodes, 0u);
}

TEST_F(SearchMethodsTest, MatchesMonotoneInEpsilon) {
  const Sequence& q = (*queries_)[3];
  size_t prev = 0;
  for (const double epsilon : {0.01, 0.05, 0.1, 0.3, 1.0}) {
    const auto result =
        engine_->SearchWith(MethodKind::kTwSimSearch, q, epsilon);
    EXPECT_GE(result.matches.size(), prev);
    prev = result.matches.size();
  }
}

TEST_F(SearchMethodsTest, MethodNames) {
  EXPECT_STREQ(engine_->method(MethodKind::kTwSimSearch).name(),
               "TW-Sim-Search");
  EXPECT_STREQ(engine_->method(MethodKind::kNaiveScan).name(),
               "Naive-Scan");
  EXPECT_STREQ(engine_->method(MethodKind::kLbScan).name(), "LB-Scan");
  EXPECT_STREQ(engine_->method(MethodKind::kStFilter).name(), "ST-Filter");
  EXPECT_STREQ(engine_->method(MethodKind::kTwSimSearchCascade).name(),
               "TW-Sim-Search-Cascade");
}

// One sequential pass over the live rows, written out here: what
// Naive-Scan (lb_yi = false) and LB-Scan (lb_yi = true) must compute.
struct ScanReference {
  std::vector<SequenceId> matches;  // id order
  std::vector<double> distances;
  uint64_t live = 0;
  uint64_t exact = 0;  // rows reaching the exact stage
  uint64_t cells = 0;
  IoStats io;
};

ScanReference ReferenceScan(const Engine& engine, const Sequence& query,
                            double epsilon, bool lb_yi) {
  ScanReference ref;
  const DtwOptions& options = engine.options().dtw;
  const Dtw dtw(options);
  const Envelope query_env = ComputeEnvelope(query);
  engine.store().ScanAll(
      [&](SequenceId id, const Sequence& s) {
        ++ref.live;
        if (lb_yi && LbYiWithEnvelopes(s, ComputeEnvelope(s), query,
                                       query_env, options) > epsilon) {
          return true;
        }
        ++ref.exact;
        const DtwResult d = dtw.DistanceWithThreshold(s, query, epsilon);
        ref.cells += d.cells;
        if (d.distance <= epsilon) {
          ref.matches.push_back(id);
          ref.distances.push_back(d.distance);
        }
        return true;
      },
      &ref.io);
  return ref;
}

bool HasPrunes(const SearchCost& cost, std::string_view stage) {
  for (const auto& entry : cost.prunes.entries()) {
    if (entry.first == stage) {
      return true;
    }
  }
  return false;
}

// The scans keep their answers (id order, exact distances), Figure 2's
// candidate convention (LB_Yi survivors for LB-Scan, the answers for
// Naive-Scan) and their work counts, and record the cascade's prune
// entries: dtw_postfilter on both, lb_yi_cascade on LB-Scan.
void ExpectScansMatchReference(const Engine& engine,
                               const std::vector<double>& epsilons) {
  QueryWorkloadOptions workload;
  workload.num_queries = 5;
  workload.seed = 31;
  for (const Sequence& q :
       GenerateQueryWorkload(engine.dataset(), workload)) {
    for (const double epsilon : epsilons) {
      for (const bool lb_yi : {false, true}) {
        const MethodKind kind =
            lb_yi ? MethodKind::kLbScan : MethodKind::kNaiveScan;
        const std::string label = std::string(MethodKindName(kind)) +
                                  " eps=" + std::to_string(epsilon);
        const ScanReference ref = ReferenceScan(engine, q, epsilon, lb_yi);
        const SearchResult r = engine.SearchWith(kind, q, epsilon);
        EXPECT_EQ(r.matches, ref.matches) << label;
        EXPECT_EQ(r.distances, ref.distances) << label;
        EXPECT_EQ(r.num_candidates,
                  lb_yi ? ref.exact : ref.matches.size())
            << label;
        EXPECT_EQ(r.cost.lb_evals, lb_yi ? ref.live : 0u) << label;
        EXPECT_EQ(r.cost.dtw_evals, ref.exact) << label;
        EXPECT_EQ(r.cost.dtw_cells, ref.cells) << label;
        EXPECT_EQ(r.cost.io.sequential_page_reads,
                  ref.io.sequential_page_reads)
            << label;
        EXPECT_EQ(r.cost.io.random_page_reads, ref.io.random_page_reads)
            << label;
        EXPECT_EQ(r.cost.io.page_writes, ref.io.page_writes) << label;
        EXPECT_EQ(r.cost.io.seeks, ref.io.seeks) << label;

        ASSERT_TRUE(HasPrunes(r.cost, kStageDtwPostfilter)) << label;
        const StageCounts exact = r.cost.prunes.Get(kStageDtwPostfilter);
        EXPECT_EQ(exact.in, ref.exact) << label;
        EXPECT_EQ(exact.in - exact.pruned, r.matches.size()) << label;
        EXPECT_EQ(HasPrunes(r.cost, kStageLbYiCascade), lb_yi) << label;
        if (lb_yi) {
          const StageCounts lb = r.cost.prunes.Get(kStageLbYiCascade);
          EXPECT_EQ(lb.in, ref.live) << label;
          EXPECT_EQ(lb.in - lb.pruned, ref.exact) << label;
        }
      }
    }
  }
}

TEST(ScanSearchTest, WalkCorpusScansMatchReference) {
  RandomWalkOptions rw;
  rw.num_sequences = 120;
  rw.min_length = 30;
  rw.max_length = 80;
  rw.seed = 7;
  Engine engine(GenerateRandomWalkDataset(rw), EngineOptions{});
  ASSERT_TRUE(engine.Remove(4));  // scans skip tombstoned rows
  ASSERT_TRUE(engine.Remove(9));
  ExpectScansMatchReference(engine, {0.05, 0.5, 2.0});
}

TEST(ScanSearchTest, StockCorpusScansMatchReference) {
  Engine engine(GenerateStockDataset(StockDataOptions{}), EngineOptions{});
  ASSERT_TRUE(engine.Remove(4));
  ExpectScansMatchReference(engine, {0.5, 2.0});
}

// ST-Filter ends with the same exact stage as TW-Sim-Search, so it
// records the dtw_postfilter prune counts. `in` counts the live fetched
// candidates: a tombstoned candidate is skipped before the stage.
TEST(StFilterSearchTest, RecordsPostfilterPrunesOverLiveCandidates) {
  RandomWalkOptions rw;
  rw.num_sequences = 60;
  rw.min_length = 20;
  rw.max_length = 50;
  EngineOptions options;
  options.build_st_filter = true;
  options.st_filter_categories = 50;
  Engine engine(GenerateRandomWalkDataset(rw), options);
  const Sequence query = engine.dataset()[7];
  const double epsilon = 0.3;

  const SearchResult before =
      engine.SearchWith(MethodKind::kStFilter, query, epsilon);
  const StageCounts all = before.cost.prunes.Get(kStageDtwPostfilter);
  ASSERT_GT(before.matches.size(), 0u);
  EXPECT_EQ(all.in, before.num_candidates);
  EXPECT_EQ(all.pruned, all.in - before.matches.size());

  // The suffix tree still returns 7 as a candidate after the remove.
  ASSERT_TRUE(engine.Remove(7));
  const SearchResult after =
      engine.SearchWith(MethodKind::kStFilter, query, epsilon);
  const StageCounts live = after.cost.prunes.Get(kStageDtwPostfilter);
  EXPECT_EQ(after.num_candidates, before.num_candidates);
  EXPECT_EQ(live.in, before.num_candidates - 1);
  EXPECT_EQ(live.pruned, live.in - after.matches.size());
  EXPECT_EQ(after.matches.size(), before.matches.size() - 1);
}

}  // namespace
}  // namespace warpindex
