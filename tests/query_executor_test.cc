#include "exec/query_executor.h"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "cache/semantic_cache.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

Dataset TestDataset() {
  RandomWalkOptions options;
  options.num_sequences = 60;
  options.min_length = 20;
  options.max_length = 48;
  options.seed = 11;
  return GenerateRandomWalkDataset(options);
}

EngineOptions TestEngineOptions() {
  EngineOptions options;
  options.build_st_filter = true;  // so kStFilter is exercised too
  return options;
}

std::vector<Sequence> TestQueries(const Engine& engine, size_t n) {
  QueryWorkloadOptions options;
  options.num_queries = n;
  options.seed = 23;
  return GenerateQueryWorkload(engine.dataset(), options);
}

// Everything about an answer that must not depend on scheduling. Pool
// hit/miss counts are excluded on purpose: with a shared LRU pool the
// cache state a query observes depends on which queries ran before it.
struct AnswerKey {
  std::vector<SequenceId> matches;
  size_t num_candidates;
  uint64_t dtw_cells;

  explicit AnswerKey(const SearchResult& r)
      : matches(r.matches),
        num_candidates(r.num_candidates),
        dtw_cells(r.cost.dtw_cells) {}

  bool operator==(const AnswerKey& other) const {
    return matches == other.matches &&
           num_candidates == other.num_candidates &&
           dtw_cells == other.dtw_cells;
  }
};

// The acceptance-criterion test: a batch executed over >= 4 threads is
// answer-identical to running the same queries sequentially, for all four
// methods. Run it under TSan in CI to also certify the read path is
// race-free.
TEST(QueryExecutorTest, BatchOverFourThreadsMatchesSequential) {
  const Engine engine(TestDataset(), TestEngineOptions());
  const std::vector<Sequence> queries = TestQueries(engine, 12);
  const double epsilon = 0.25;

  const MethodKind kinds[] = {MethodKind::kTwSimSearch,
                              MethodKind::kNaiveScan, MethodKind::kLbScan,
                              MethodKind::kStFilter};
  std::vector<QueryRequest> requests;
  std::vector<AnswerKey> expected;
  for (MethodKind kind : kinds) {
    for (const Sequence& q : queries) {
      requests.push_back(QueryRequest{kind, q, epsilon});
      expected.emplace_back(engine.SearchWith(kind, q, epsilon));
    }
  }

  QueryExecutorOptions options;
  options.num_threads = 4;
  QueryExecutor executor(&engine, options);
  const BatchResult batch = executor.SubmitBatch(requests);

  ASSERT_EQ(batch.results.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(AnswerKey(batch.results[i]) == expected[i])
        << "request " << i << " ("
        << MethodKindName(requests[i].method) << ") diverged";
  }
  EXPECT_GT(batch.queries_per_sec, 0.0);
}

TEST(QueryExecutorTest, RepeatedBatchesAreIdenticalToEachOther) {
  const Engine engine(TestDataset(), TestEngineOptions());
  const std::vector<Sequence> queries = TestQueries(engine, 10);
  std::vector<QueryRequest> requests;
  for (const Sequence& q : queries) {
    requests.push_back(QueryRequest{MethodKind::kTwSimSearch, q, 0.3});
  }
  QueryExecutorOptions options;
  options.num_threads = 4;
  QueryExecutor executor(&engine, options);
  const BatchResult a = executor.SubmitBatch(requests);
  const BatchResult b = executor.SubmitBatch(requests);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_TRUE(AnswerKey(a.results[i]) == AnswerKey(b.results[i]));
  }
}

TEST(QueryExecutorTest, SubmitReturnsFutureWithResult) {
  const Engine engine(TestDataset(), TestEngineOptions());
  QueryExecutorOptions options;
  options.num_threads = 2;
  QueryExecutor executor(&engine, options);
  const Sequence q = engine.dataset()[3];
  std::future<SearchResult> f =
      executor.Submit(MethodKind::kTwSimSearch, q, 0.3);
  const SearchResult result = f.get();
  const SearchResult expected =
      engine.SearchWith(MethodKind::kTwSimSearch, q, 0.3);
  EXPECT_TRUE(AnswerKey(result) == AnswerKey(expected));
  // A perturbed copy of sequence 3 should still match sequence 3.
  EXPECT_NE(std::find(result.matches.begin(), result.matches.end(), 3),
            result.matches.end());
}

// Every deterministic SearchCost count: the parallel path must do the
// same work as the sequential one, not just return the same ids.
void ExpectSameCounts(const SearchResult& a, const SearchResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.matches, b.matches) << label;
  EXPECT_EQ(a.distances, b.distances) << label;
  EXPECT_EQ(a.num_candidates, b.num_candidates) << label;
  EXPECT_EQ(a.cost.dtw_evals, b.cost.dtw_evals) << label;
  EXPECT_EQ(a.cost.dtw_cells, b.cost.dtw_cells) << label;
  EXPECT_EQ(a.cost.lb_evals, b.cost.lb_evals) << label;
  EXPECT_EQ(a.cost.index_nodes, b.cost.index_nodes) << label;
  EXPECT_EQ(a.cost.io.random_page_reads, b.cost.io.random_page_reads)
      << label;
  EXPECT_EQ(a.cost.io.sequential_page_reads,
            b.cost.io.sequential_page_reads)
      << label;
  EXPECT_EQ(a.cost.io.page_writes, b.cost.io.page_writes) << label;
  EXPECT_EQ(a.cost.io.seeks, b.cost.io.seeks) << label;
  ASSERT_EQ(a.cost.prunes.size(), b.cost.prunes.size()) << label;
  for (size_t i = 0; i < a.cost.prunes.size(); ++i) {
    const auto& [stage, counts] = a.cost.prunes.entries()[i];
    EXPECT_EQ(stage, b.cost.prunes.entries()[i].first) << label;
    EXPECT_EQ(counts.in, b.cost.prunes.entries()[i].second.in)
        << label << " " << stage;
    EXPECT_EQ(counts.pruned, b.cost.prunes.entries()[i].second.pruned)
        << label << " " << stage;
  }
}

TEST(QueryExecutorTest, SearchParallelMatchesSequentialSearch) {
  const Engine engine(TestDataset(), EngineOptions{});
  // Small chunks force many chunks, so the fan-out path really runs.
  QueryExecutorOptions options;
  options.num_threads = 4;
  options.postfilter_chunk = 2;
  QueryExecutor executor(&engine, options);
  for (const bool use_cascade : {false, true}) {
    const MethodKind kind = use_cascade ? MethodKind::kTwSimSearchCascade
                                        : MethodKind::kTwSimSearch;
    for (const Sequence& q : TestQueries(engine, 8)) {
      const SearchResult expected = executor.Submit(kind, q, 0.4).get();
      const SearchResult parallel =
          executor.SearchParallel(q, 0.4, nullptr, use_cascade);
      EXPECT_TRUE(AnswerKey(parallel) == AnswerKey(expected));
      ExpectSameCounts(parallel, expected, MethodKindName(kind));
    }
  }
}

uint64_t CounterValue(const MetricsRegistry::Snapshot& snapshot,
                      const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  ADD_FAILURE() << "counter not exported: " << name;
  return 0;
}

// SearchParallel runs through Engine::SearchWith, so its queries reach
// the engine's metrics exactly like Submit's.
TEST(QueryExecutorTest, SearchParallelRecordsEngineMetricsLikeSubmit) {
  MetricsRegistry registry;
  EngineOptions engine_options;
  engine_options.metrics = &registry;
  // Every stage runs, dominated ones included, so each counter pair moves.
  engine_options.cascade_planner.mode = PlanMode::kFixed;
  engine_options.cascade_planner.fixed = CascadePlan::Full();
  const Engine engine(TestDataset(), engine_options);
  QueryExecutorOptions options;
  options.num_threads = 3;
  options.postfilter_chunk = 3;
  QueryExecutor executor(&engine, options);
  const std::vector<Sequence> queries = TestQueries(engine, 6);
  const std::vector<std::string> counters = {
      "warpindex_queries_total",
      "warpindex_query_matches_total",
      "warpindex_query_dtw_evals_total",
      "warpindex_cascade_feature_lb_in_total",
      "warpindex_cascade_feature_lb_pruned_total",
      "warpindex_cascade_lb_yi_in_total",
      "warpindex_cascade_lb_yi_pruned_total",
      "warpindex_cascade_lb_keogh_in_total",
      "warpindex_cascade_lb_keogh_pruned_total",
      "warpindex_cascade_lb_improved_in_total",
      "warpindex_cascade_lb_improved_pruned_total",
      "warpindex_cascade_dtw_in_total",
      "warpindex_cascade_dtw_pruned_total"};
  const auto values = [&]() {
    const MetricsRegistry::Snapshot snapshot = registry.TakeSnapshot();
    std::vector<uint64_t> out;
    for (const std::string& name : counters) {
      out.push_back(CounterValue(snapshot, name));
    }
    return out;
  };
  for (const bool use_cascade : {false, true}) {
    const MethodKind kind = use_cascade ? MethodKind::kTwSimSearchCascade
                                        : MethodKind::kTwSimSearch;
    const std::vector<uint64_t> before = values();
    for (const Sequence& q : queries) {
      executor.SearchParallel(q, 0.4, nullptr, use_cascade);
    }
    const std::vector<uint64_t> after_parallel = values();
    for (const Sequence& q : queries) {
      executor.Submit(kind, q, 0.4).get();
    }
    const std::vector<uint64_t> after_submit = values();
    EXPECT_EQ(after_parallel[0] - before[0], queries.size());
    for (size_t i = 0; i < counters.size(); ++i) {
      EXPECT_EQ(after_parallel[i] - before[i],
                after_submit[i] - after_parallel[i])
          << counters[i] << " (" << MethodKindName(kind) << ")";
    }
  }
  // The cascade stages really ran.
  EXPECT_GT(CounterValue(registry.TakeSnapshot(),
                         "warpindex_cascade_lb_yi_in_total"),
            0u);
}

// SearchParallel and Submit share one cache protocol: an answer that
// SearchParallel populated is replayed to Submit as a hit.
TEST(QueryExecutorTest, SearchParallelPopulatesTheCacheForSubmit) {
  const Engine engine(TestDataset(), EngineOptions{});
  SemanticCache cache;
  QueryExecutorOptions options;
  options.num_threads = 2;
  options.postfilter_chunk = 2;
  options.cache = &cache;
  QueryExecutor executor(&engine, options);
  for (const bool use_cascade : {false, true}) {
    const MethodKind kind = use_cascade ? MethodKind::kTwSimSearchCascade
                                        : MethodKind::kTwSimSearch;
    for (const Sequence& q : TestQueries(engine, 4)) {
      const SearchResult populated =
          executor.SearchParallel(q, 0.4, nullptr, use_cascade);
      EXPECT_EQ(populated.cost.cache_misses, 1u);
      const SearchResult replayed = executor.Submit(kind, q, 0.4).get();
      EXPECT_EQ(replayed.cost.cache_hits, 1u) << MethodKindName(kind);
      EXPECT_EQ(replayed.matches, populated.matches);
      EXPECT_EQ(replayed.distances, populated.distances);
    }
  }
}

TEST(QueryExecutorTest, SearchParallelFromInsidePoolTaskDoesNotDeadlock) {
  const Engine engine(TestDataset(), EngineOptions{});
  QueryExecutorOptions options;
  options.num_threads = 1;  // no idle workers to lean on
  options.postfilter_chunk = 1;
  QueryExecutor executor(&engine, options);
  const Sequence q = engine.dataset()[5];
  std::future<SearchResult> f = executor.pool().Submit(
      [&executor, &q]() { return executor.SearchParallel(q, 0.4); });
  const SearchResult parallel = f.get();
  EXPECT_TRUE(AnswerKey(parallel) == AnswerKey(engine.Search(q, 0.4)));
}

TEST(QueryExecutorTest, BatchCollectsPerQueryTraces) {
  const Engine engine(TestDataset(), EngineOptions{});
  std::vector<QueryRequest> requests;
  for (const Sequence& q : TestQueries(engine, 6)) {
    requests.push_back(QueryRequest{MethodKind::kTwSimSearch, q, 0.3});
  }
  QueryExecutorOptions options;
  options.num_threads = 3;
  QueryExecutor executor(&engine, options);
  BatchOptions batch_options;
  batch_options.collect_traces = true;
  const BatchResult batch = executor.SubmitBatch(requests, batch_options);
  ASSERT_EQ(batch.traces.size(), requests.size());
  for (const Trace& trace : batch.traces) {
    EXPECT_EQ(trace.open_depth(), 0u);
    ASSERT_FALSE(trace.spans().empty());
    EXPECT_EQ(trace.spans()[0].name, "query");
    EXPECT_GT(trace.TotalMillis("dtw_postfilter"), 0.0);
  }
}

TEST(QueryExecutorTest, ExecutorMetricsAreRegistered) {
  // Own registry: the default is process-global and other tests in this
  // binary would pollute the counts.
  MetricsRegistry registry;
  EngineOptions engine_options;
  engine_options.metrics = &registry;
  const Engine engine(TestDataset(), engine_options);
  std::vector<QueryRequest> requests;
  for (const Sequence& q : TestQueries(engine, 5)) {
    requests.push_back(QueryRequest{MethodKind::kLbScan, q, 0.3});
  }
  QueryExecutorOptions options;
  options.num_threads = 2;
  QueryExecutor executor(&engine, options);
  executor.SubmitBatch(requests);

  const MetricsRegistry::Snapshot snapshot = engine.MetricsSnapshot();
  uint64_t queries = 0;
  bool saw_batches = false;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "warpindex_exec_queries_total") {
      queries = counter.value;
    }
    if (counter.name == "warpindex_exec_batches_total") {
      saw_batches = true;
      EXPECT_EQ(counter.value, 1u);
    }
  }
  EXPECT_EQ(queries, 5u);
  EXPECT_TRUE(saw_batches);

  bool saw_inflight = false;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "warpindex_exec_inflight_queries") {
      saw_inflight = true;
      EXPECT_EQ(gauge.value, 0);  // batch drained
    }
  }
  EXPECT_TRUE(saw_inflight);

  bool saw_queue_wait = false;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "warpindex_exec_queue_wait_ms") {
      saw_queue_wait = true;
      EXPECT_EQ(histogram.snapshot.stats.count(), 5u);
    }
  }
  EXPECT_TRUE(saw_queue_wait);
}

// Satellite regression: per-worker scratch reuse must not change answers.
// Runs the same query repeatedly through one worker (whose scratch has
// been warmed by different-length sequences) and compares with a fresh
// engine search each time.
TEST(QueryExecutorTest, ScratchReuseAcrossQueriesKeepsAnswersStable) {
  const Engine engine(TestDataset(), EngineOptions{});
  QueryExecutorOptions options;
  options.num_threads = 1;  // everything funnels through one scratch
  QueryExecutor executor(&engine, options);
  const std::vector<Sequence> queries = TestQueries(engine, 10);
  for (int round = 0; round < 3; ++round) {
    for (const Sequence& q : queries) {
      const SearchResult pooled =
          executor.Submit(MethodKind::kNaiveScan, q, 0.35).get();
      const SearchResult fresh =
          engine.SearchWith(MethodKind::kNaiveScan, q, 0.35);
      EXPECT_TRUE(AnswerKey(pooled) == AnswerKey(fresh));
    }
  }
}

}  // namespace
}  // namespace warpindex
