// TW-Sim-Search-Cascade (core/tw_sim_search.h with a planner) end to
// end: on the stock and random-walk datasets,
// MethodKind::kTwSimSearchCascade returns exactly the same result set as
// MethodKind::kTwSimSearch — sequentially and through the concurrent
// executor with 4 threads — while performing no more (and on a banded
// config strictly fewer) exact-DTW evaluations, exporting the per-stage
// pruning counters through the engine's metrics registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/engine.h"
#include "core/tw_sim_search.h"
#include "exec/query_executor.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "sequence/stock_generator.h"

namespace warpindex {
namespace {

std::vector<SequenceId> Sorted(std::vector<SequenceId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

uint64_t CounterValue(const MetricsRegistry::Snapshot& snapshot,
                      const std::string& name) {
  for (const MetricsRegistry::CounterEntry& entry : snapshot.counters) {
    if (entry.name == name) {
      return entry.value;
    }
  }
  ADD_FAILURE() << "counter not exported: " << name;
  return 0;
}

// Two engines over the two paper datasets. The stock engine runs the
// paper's default similarity model (unconstrained L_inf); the walk engine
// runs a banded config, where the envelope bounds have real pruning
// power (a full-width envelope degenerates toward LB_Yi).
class CascadeSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StockDataOptions stock_data;
    stock_data.num_sequences = 140;
    stock_data.min_length = 40;
    stock_data.mean_length = 70;
    stock_data.max_length = 120;
    EngineOptions stock_options;
    stock_options.metrics = &stock_metrics_;
    stock_engine_ = new Engine(GenerateStockDataset(stock_data),
                               stock_options);
    QueryWorkloadOptions stock_queries;
    stock_queries.num_queries = 100;
    stock_queries.seed = 11;
    stock_workload_ = new std::vector<Sequence>(
        GenerateQueryWorkload(stock_engine_->dataset(), stock_queries));

    RandomWalkOptions walk_data;
    walk_data.num_sequences = 140;
    walk_data.min_length = 30;
    walk_data.max_length = 80;
    walk_data.seed = 13;
    EngineOptions walk_options;
    walk_options.dtw.band = 8;
    walk_options.metrics = &walk_metrics_;
    walk_engine_ = new Engine(GenerateRandomWalkDataset(walk_data),
                              walk_options);
    QueryWorkloadOptions walk_queries;
    walk_queries.num_queries = 100;
    walk_queries.seed = 17;
    walk_workload_ = new std::vector<Sequence>(
        GenerateQueryWorkload(walk_engine_->dataset(), walk_queries));
  }

  static void TearDownTestSuite() {
    delete stock_workload_;
    stock_workload_ = nullptr;
    delete stock_engine_;
    stock_engine_ = nullptr;
    delete walk_workload_;
    walk_workload_ = nullptr;
    delete walk_engine_;
    walk_engine_ = nullptr;
  }

  static MetricsRegistry stock_metrics_;
  static MetricsRegistry walk_metrics_;
  static Engine* stock_engine_;
  static Engine* walk_engine_;
  static std::vector<Sequence>* stock_workload_;
  static std::vector<Sequence>* walk_workload_;
};

MetricsRegistry CascadeSearchTest::stock_metrics_;
MetricsRegistry CascadeSearchTest::walk_metrics_;
Engine* CascadeSearchTest::stock_engine_ = nullptr;
Engine* CascadeSearchTest::walk_engine_ = nullptr;
std::vector<Sequence>* CascadeSearchTest::stock_workload_ = nullptr;
std::vector<Sequence>* CascadeSearchTest::walk_workload_ = nullptr;

TEST_F(CascadeSearchTest, StockSequentialAnswersIdenticalToTwSimSearch) {
  for (const double epsilon : {1.0, 4.0}) {
    for (const Sequence& query : *stock_workload_) {
      const SearchResult plain = stock_engine_->SearchWith(
          MethodKind::kTwSimSearch, query, epsilon);
      const SearchResult cascade = stock_engine_->SearchWith(
          MethodKind::kTwSimSearchCascade, query, epsilon);
      ASSERT_EQ(Sorted(cascade.matches), Sorted(plain.matches))
          << "eps=" << epsilon;
      ASSERT_LE(cascade.cost.dtw_evals, plain.cost.dtw_evals);
    }
  }
}

TEST_F(CascadeSearchTest, WalkSequentialAnswersIdenticalAndStrictlyFewerDtw) {
  uint64_t plain_evals = 0;
  uint64_t cascade_evals = 0;
  size_t total_matches = 0;
  for (const double epsilon : {0.5, 1.5}) {
    for (const Sequence& query : *walk_workload_) {
      const SearchResult plain = walk_engine_->SearchWith(
          MethodKind::kTwSimSearch, query, epsilon);
      const SearchResult cascade = walk_engine_->SearchWith(
          MethodKind::kTwSimSearchCascade, query, epsilon);
      ASSERT_EQ(Sorted(cascade.matches), Sorted(plain.matches))
          << "eps=" << epsilon;
      ASSERT_LE(cascade.cost.dtw_evals, plain.cost.dtw_evals);
      plain_evals += plain.cost.dtw_evals;
      cascade_evals += cascade.cost.dtw_evals;
      total_matches += plain.matches.size();
    }
  }
  // The workload must be non-trivial for the comparison to mean anything.
  ASSERT_GT(total_matches, 0u);
  ASSERT_GT(plain_evals, 0u);
  // On the banded config the envelope bounds genuinely fire: across the
  // workload the cascade starts strictly fewer exact-DTW evaluations.
  EXPECT_LT(cascade_evals, plain_evals);
}

TEST_F(CascadeSearchTest, ExecutorBatchWith4ThreadsAnswersIdentical) {
  QueryExecutorOptions exec_options;
  exec_options.num_threads = 4;

  for (Engine* engine : {stock_engine_, walk_engine_}) {
    const std::vector<Sequence>& workload =
        engine == stock_engine_ ? *stock_workload_ : *walk_workload_;
    const double epsilon = engine == stock_engine_ ? 2.0 : 1.0;
    QueryExecutor executor(engine, exec_options);
    std::vector<QueryRequest> requests;
    requests.reserve(workload.size());
    for (const Sequence& query : workload) {
      requests.push_back(
          {MethodKind::kTwSimSearchCascade, query, epsilon});
    }
    const BatchResult batch = executor.SubmitBatch(requests);
    ASSERT_EQ(batch.results.size(), workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      const SearchResult plain = engine->SearchWith(
          MethodKind::kTwSimSearch, workload[i], epsilon);
      ASSERT_EQ(Sorted(batch.results[i].matches), Sorted(plain.matches))
          << "query " << i;
    }
  }
}

TEST_F(CascadeSearchTest, AutoPlanAnswersIdenticalToTwSimSearch) {
  // kAuto re-plans per query from its online cost model (warm-up, greedy
  // drops, periodic exploration) — none of which may change answers.
  RandomWalkOptions data;
  data.num_sequences = 80;
  data.min_length = 30;
  data.max_length = 60;
  data.seed = 19;
  MetricsRegistry metrics;
  EngineOptions options;
  options.dtw.band = 6;
  options.cascade_planner.mode = PlanMode::kAuto;
  options.cascade_planner.warmup_queries = 5;
  options.cascade_planner.explore_every = 16;
  options.metrics = &metrics;
  Engine engine(GenerateRandomWalkDataset(data), options);
  QueryWorkloadOptions query_options;
  query_options.num_queries = 120;
  query_options.seed = 23;
  const std::vector<Sequence> workload =
      GenerateQueryWorkload(engine.dataset(), query_options);

  for (const Sequence& query : workload) {
    const SearchResult plain =
        engine.SearchWith(MethodKind::kTwSimSearch, query, 1.0);
    const SearchResult cascade =
        engine.SearchWith(MethodKind::kTwSimSearchCascade, query, 1.0);
    ASSERT_EQ(Sorted(cascade.matches), Sorted(plain.matches));
  }
  EXPECT_EQ(engine.cascade_planner().plans_chosen(),
            workload.size());
}

TEST_F(CascadeSearchTest, TieAtEpsilonIsReportedAsAMatch) {
  // Regression for Algorithm 1's `<= eps` acceptance: a data sequence at
  // exactly eps from the query must be returned by both the plain and
  // the cascade method, under L_inf and L1, banded and not. A constant
  // shift by an exactly-representable c makes every bound and the exact
  // distance (L_inf: c; L1 sum over n aligned steps: n*c) hit the
  // tolerance bit-exactly. The base is strictly increasing with gaps
  // larger than c, so the diagonal is the unique optimal path and the
  // exact distances are known in closed form.
  const std::vector<double> base = {1.0, 3.0, 5.0, 7.0, 9.0, 11.0};
  const double c = 0.5;
  Sequence query(base);
  std::vector<double> shifted = base;
  for (double& v : shifted) {
    v += c;
  }

  struct Case {
    DtwOptions options;
    double epsilon;
  };
  std::vector<Case> cases;
  for (const int band : {-1, 2}) {
    DtwOptions linf = DtwOptions::Linf();
    linf.band = band;
    cases.push_back({linf, c});
    DtwOptions l1 = DtwOptions::L1();
    l1.band = band;
    cases.push_back({l1, c * static_cast<double>(base.size())});
  }

  for (const Case& test_case : cases) {
    Dataset dataset;
    dataset.Add(Sequence(shifted));
    // Distractors far outside the tolerance.
    dataset.Add(Sequence(std::vector<double>{100.0, 101.0, 99.0}));
    dataset.Add(Sequence(std::vector<double>{-50.0, -49.0, -51.0}));
    MetricsRegistry metrics;
    EngineOptions options;
    options.dtw = test_case.options;
    options.metrics = &metrics;
    Engine engine(std::move(dataset), options);
    ASSERT_DOUBLE_EQ(
        Dtw(test_case.options).Distance(engine.dataset()[0], query).distance,
        test_case.epsilon);

    for (const MethodKind kind :
         {MethodKind::kTwSimSearch, MethodKind::kTwSimSearchCascade}) {
      const SearchResult at_eps =
          engine.SearchWith(kind, query, test_case.epsilon);
      ASSERT_EQ(at_eps.matches, std::vector<SequenceId>{0})
          << MethodKindName(kind) << " dropped the tie (band="
          << test_case.options.band << ")";
      const SearchResult below =
          engine.SearchWith(kind, query, test_case.epsilon * (1.0 - 1e-9));
      EXPECT_TRUE(below.matches.empty()) << MethodKindName(kind);
    }
  }
}

TEST_F(CascadeSearchTest, PruneCountersExportedThroughMetrics) {
  // Runs after the walk-engine tests in this suite have recorded queries
  // into walk_metrics_, but does its own queries so it stands alone too.
  for (const Sequence& query : *walk_workload_) {
    walk_engine_->SearchWith(MethodKind::kTwSimSearchCascade, query, 1.0);
  }
  const MetricsRegistry::Snapshot snapshot = walk_metrics_.TakeSnapshot();
  EXPECT_GT(CounterValue(snapshot, "warpindex_query_dtw_evals_total"), 0u);
  uint64_t total_pruned = 0;
  for (const char* stage :
       {"feature_lb", "lb_yi", "lb_keogh", "lb_improved", "dtw"}) {
    const std::string prefix = std::string("warpindex_cascade_") + stage;
    const uint64_t in = CounterValue(snapshot, prefix + "_in_total");
    const uint64_t pruned = CounterValue(snapshot, prefix + "_pruned_total");
    EXPECT_LE(pruned, in) << stage;
    total_pruned += pruned;
  }
  EXPECT_GT(CounterValue(snapshot, "warpindex_cascade_dtw_in_total"), 0u);
  EXPECT_GT(total_pruned, 0u);
}

}  // namespace
}  // namespace warpindex
