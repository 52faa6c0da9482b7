// Metrics registry: counters, histogram bucketing, boundary recipes, the
// Prometheus/JSON exporters, and the engine's per-query recording.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/engine.h"
#include "obs/exporters.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

TEST(CounterTest, IncrementsByDelta) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(HistogramTest, BucketsByInclusiveUpperEdge) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);   // bucket 0 (<= 1)
  h.Observe(1.0);   // bucket 0 (edges are inclusive)
  h.Observe(1.5);   // bucket 1
  h.Observe(4.0);   // bucket 2
  h.Observe(100.0); // overflow
  const Histogram::Snapshot snap = h.TakeSnapshot();
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 2u);
  EXPECT_EQ(snap.bucket_counts[1], 1u);
  EXPECT_EQ(snap.bucket_counts[2], 1u);
  EXPECT_EQ(snap.bucket_counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
  EXPECT_DOUBLE_EQ(snap.stats.min(), 0.5);
  EXPECT_DOUBLE_EQ(snap.stats.max(), 100.0);
}

TEST(HistogramTest, BoundaryRecipes) {
  const std::vector<double> exp = ExponentialBoundaries(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[3], 8.0);
  const std::vector<double> lin = LinearBoundaries(0.5, 0.25, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[0], 0.5);
  EXPECT_DOUBLE_EQ(lin[2], 1.0);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x_total", "first help");
  Counter* b = registry.GetCounter("x_total", "ignored help");
  EXPECT_EQ(a, b);
  a->Increment(3);

  Histogram* h1 = registry.GetHistogram("y_ms", {1.0, 2.0}, "lat");
  Histogram* h2 = registry.GetHistogram("y_ms", {99.0});  // reused, ignored
  EXPECT_EQ(h1, h2);
  ASSERT_EQ(h1->boundaries().size(), 2u);
  h1->Observe(1.5);

  const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "x_total");
  EXPECT_EQ(snap.counters[0].help, "first help");
  EXPECT_EQ(snap.counters[0].value, 3u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "y_ms");
  EXPECT_EQ(snap.histograms[0].snapshot.stats.count(), 1u);
}

TEST(MetricsRegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(GaugeTest, MovesBothWays) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.Increment();
  g.Increment();
  g.Decrement();
  EXPECT_EQ(g.value(), 1);
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(MetricsRegistryTest, GaugeHandlesAreStable) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("warp_inflight", "in-flight queries");
  EXPECT_EQ(registry.GetGauge("warp_inflight"), g);
  g->Increment();
  const MetricsRegistry::Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].name, "warp_inflight");
  EXPECT_EQ(snapshot.gauges[0].help, "in-flight queries");
  EXPECT_EQ(snapshot.gauges[0].value, 1);
}

TEST(MetricsExportTest, GaugeInBothExporters) {
  MetricsRegistry registry;
  registry.GetGauge("warp_inflight", "in-flight queries")->Set(3);
  const MetricsRegistry::Snapshot snapshot = registry.TakeSnapshot();
  const std::string text = MetricsToPrometheusText(snapshot);
  EXPECT_NE(text.find("# TYPE warp_inflight gauge"), std::string::npos);
  EXPECT_NE(text.find("warp_inflight 3"), std::string::npos);
  const std::string json = MetricsToJson(snapshot).Render();
  EXPECT_NE(json.find("\"warp_inflight\":3"), std::string::npos);
}

TEST(MetricsExportTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("warp_queries_total", "queries served")
      ->Increment(7);
  Histogram* h = registry.GetHistogram("warp_latency_ms", {1.0, 10.0},
                                       "per-query latency");
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);

  const std::string text =
      MetricsToPrometheusText(registry.TakeSnapshot());
  EXPECT_NE(text.find("# HELP warp_queries_total queries served"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE warp_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("warp_queries_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE warp_latency_ms histogram"),
            std::string::npos);
  // Buckets are cumulative in the exposition format.
  EXPECT_NE(text.find("warp_latency_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("warp_latency_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("warp_latency_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("warp_latency_ms_count 3"), std::string::npos);
  EXPECT_NE(text.find("warp_latency_ms_sum 55.5"), std::string::npos);
  // Estimated-quantile gauges ride along with every native histogram
  // (p50 lands in the (1,10] bucket whose midpoint is 5.5; p99/p999
  // land in the overflow bucket, which clamps to the observed max).
  EXPECT_NE(text.find("# TYPE warp_latency_ms_p50 gauge"),
            std::string::npos);
  EXPECT_NE(text.find("warp_latency_ms_p50 5.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE warp_latency_ms_p99 gauge"),
            std::string::npos);
  EXPECT_NE(text.find("warp_latency_ms_p99 50"), std::string::npos);
  EXPECT_NE(text.find("# TYPE warp_latency_ms_p999 gauge"),
            std::string::npos);
  EXPECT_NE(text.find("warp_latency_ms_p999 50"), std::string::npos);
}

TEST(MetricsExportTest, ProcessSelfMetricsInBothExporters) {
  MetricsRegistry registry;
  registry.GetCounter("warp_queries_total")->Increment(1);
  ProcessSelfMetrics process;
  process.valid = true;
  process.cpu_seconds_total = 12.5;
  process.resident_memory_bytes = 4096.0;
  process.open_fds = 17;
  process.start_time_seconds = 1234.5;

  const std::string text = MetricsToPrometheusText(
      registry.TakeSnapshot(), nullptr, &process);
  EXPECT_NE(text.find("# TYPE process_cpu_seconds_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("process_cpu_seconds_total 12.5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE process_resident_memory_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("process_resident_memory_bytes 4096"),
            std::string::npos);
  EXPECT_NE(text.find("process_open_fds 17"), std::string::npos);
  EXPECT_NE(text.find("process_start_time_seconds 1234.5"),
            std::string::npos);

  const std::string json =
      MetricsToJson(registry.TakeSnapshot(), nullptr, &process).Render();
  EXPECT_NE(json.find("\"process\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu_seconds_total\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"open_fds\":17"), std::string::npos);

  // An invalid reading (no /proc) omits the block instead of zeros.
  process.valid = false;
  const std::string without = MetricsToPrometheusText(
      registry.TakeSnapshot(), nullptr, &process);
  EXPECT_EQ(without.find("process_cpu_seconds_total"), std::string::npos);
}

TEST(MetricsExportTest, JsonSnapshotFormat) {
  MetricsRegistry registry;
  registry.GetCounter("a_total")->Increment(2);
  registry.GetHistogram("b_ms", {1.0})->Observe(3.0);
  const std::string json = MetricsToJson(registry.TakeSnapshot()).Render();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"a_total\""), std::string::npos);
  EXPECT_NE(json.find("\"b_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":3"), std::string::npos);
}

TEST(EngineMetricsTest, QueriesLandInTheConfiguredRegistry) {
  RandomWalkOptions rw;
  rw.num_sequences = 60;
  rw.min_length = 40;
  rw.max_length = 80;
  auto registry = std::make_unique<MetricsRegistry>();
  EngineOptions options;
  options.metrics = registry.get();
  options.index_buffer_pages = 32;
  const Engine engine(GenerateRandomWalkDataset(rw), options);

  const Sequence query = PerturbSequence(engine.dataset()[4], 5);
  const SearchResult result = engine.Search(query, 3.0);
  engine.Search(query, 3.0);
  engine.SearchKnn(query, 3);

  // Two range queries plus one kNN query.
  EXPECT_EQ(
      engine.metrics().GetCounter("warpindex_queries_total")->value(),
      3u);
  const uint64_t matches =
      engine.metrics().GetCounter("warpindex_query_matches_total")->value();
  EXPECT_EQ(matches, 2 * result.matches.size());
  EXPECT_EQ(engine.metrics()
                .GetHistogram("warpindex_query_latency_ms", {})
                ->count(),
            2u);
  EXPECT_EQ(engine.metrics()
                .GetHistogram("warpindex_knn_latency_ms", {})
                ->count(),
            1u);
  // The warmed index pool records activity into the registry too.
  const uint64_t hits =
      engine.metrics()
          .GetCounter("warpindex_index_pool_hits_total")
          ->value();
  const uint64_t misses =
      engine.metrics()
          .GetCounter("warpindex_index_pool_misses_total")
          ->value();
  EXPECT_GT(hits + misses, 0u);

  // None of this leaked into the global registry.
  const MetricsRegistry::Snapshot global =
      MetricsRegistry::Global().TakeSnapshot();
  for (const auto& counter : global.counters) {
    if (counter.name == "warpindex_queries_total") {
      EXPECT_EQ(counter.value, 0u);
    }
  }
}

TEST(MetricNameTest, GrammarMatchesPrometheus) {
  EXPECT_TRUE(IsValidMetricName("warpindex_queries_total"));
  EXPECT_TRUE(IsValidMetricName("a"));
  EXPECT_TRUE(IsValidMetricName("_leading_underscore"));
  EXPECT_TRUE(IsValidMetricName("ns:subsystem:name"));
  EXPECT_TRUE(IsValidMetricName("Name9"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("9starts_with_digit"));
  EXPECT_FALSE(IsValidMetricName("has-dash"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("newline\nname"));
  EXPECT_FALSE(IsValidMetricName("quote\"name"));
}

TEST(MetricNameTest, InvalidNamesGetSinksAndNeverExport) {
  MetricsRegistry registry;
  Counter* bad_counter = registry.GetCounter("bad name");
  ASSERT_NE(bad_counter, nullptr);  // instrumented code keeps working
  bad_counter->Increment(7);
  Gauge* bad_gauge = registry.GetGauge("also-bad");
  ASSERT_NE(bad_gauge, nullptr);
  Histogram* bad_histogram = registry.GetHistogram("3rd\nbad", {1.0});
  ASSERT_NE(bad_histogram, nullptr);
  bad_histogram->Observe(0.5);
  EXPECT_EQ(registry.rejected_names(), 3u);

  // A good metric registered alongside still exports; the sinks don't.
  registry.GetCounter("good_total")->Increment();
  const MetricsRegistry::Snapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].name, "good_total");
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
  const std::string text = MetricsToPrometheusText(snapshot);
  EXPECT_EQ(text.find("bad"), std::string::npos);
}

TEST(PrometheusEscapingTest, HelpAndLabelValues) {
  EXPECT_EQ(PrometheusEscapeHelp("plain"), "plain");
  EXPECT_EQ(PrometheusEscapeHelp("a\\b\nc"), "a\\\\b\\nc");
  // HELP text keeps quotes verbatim; label values escape them.
  EXPECT_EQ(PrometheusEscapeHelp("say \"hi\""), "say \"hi\"");
  EXPECT_EQ(PrometheusEscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\\b\nc"), "a\\\\b\\nc");
}

TEST(PrometheusEscapingTest, HelpWithNewlineStaysOneLine) {
  MetricsRegistry registry;
  registry.GetCounter("evil_total", "line one\nline two")->Increment();
  const std::string text =
      MetricsToPrometheusText(registry.TakeSnapshot());
  // Every line is either a comment or a sample — an unescaped newline in
  // HELP would produce a "line two" line that parses as garbage.
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(pos, end - pos);
    if (!line.empty()) {
      EXPECT_TRUE(line[0] == '#' || line.rfind("evil_total", 0) == 0)
          << line;
    }
    pos = end + 1;
  }
  EXPECT_NE(text.find("line one\\nline two"), std::string::npos);
}

TEST(HistogramPercentileTest, EstimatesFromCumulativeBuckets) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) {
    h.Observe(0.5 + static_cast<double>(i % 4));  // 0.5, 1.5, 2.5, 3.5
  }
  const Histogram::Snapshot snapshot = h.TakeSnapshot();
  // Quarter of the mass in each of the first three buckets' ranges.
  EXPECT_GT(snapshot.EstimatePercentile(0.99), 3.0);
  EXPECT_LE(snapshot.EstimatePercentile(0.99), 4.0);
  EXPECT_LE(snapshot.EstimatePercentile(0.10), 1.0);
  // Estimates never leave the observed range.
  EXPECT_GE(snapshot.EstimatePercentile(0.0), 0.5);
  EXPECT_LE(snapshot.EstimatePercentile(1.0), 3.5);
  // Monotone in p.
  EXPECT_LE(snapshot.EstimatePercentile(0.5),
            snapshot.EstimatePercentile(0.9));
  EXPECT_LE(snapshot.EstimatePercentile(0.9),
            snapshot.EstimatePercentile(0.999));
}

TEST(HistogramPercentileTest, OverflowBucketClampsToMax) {
  Histogram h({1.0});
  h.Observe(100.0);
  h.Observe(200.0);
  const Histogram::Snapshot snapshot = h.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snapshot.EstimatePercentile(0.999), 200.0);
}

TEST(HistogramPercentileTest, EmptyHistogramIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.TakeSnapshot().EstimatePercentile(0.99), 0.0);
}

TEST(HistogramPercentileTest, DefaultSnapshotIsZeroForAnyP) {
  // A default-constructed snapshot has no buckets at all; the count guard
  // must fire before any bucket indexing.
  const Histogram::Snapshot snapshot;
  EXPECT_DOUBLE_EQ(snapshot.EstimatePercentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.EstimatePercentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.EstimatePercentile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.EstimatePercentile(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.EstimatePercentile(2.0), 0.0);
}

TEST(HistogramPercentileTest, SingleSampleReportsThatSample) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(1.5);
  const Histogram::Snapshot snapshot = h.TakeSnapshot();
  // Every percentile of a one-sample distribution is that sample; the
  // interpolation must not stray outside [min, max] = [1.5, 1.5].
  for (const double p : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snapshot.EstimatePercentile(p), 1.5) << "p=" << p;
  }
}

TEST(HistogramPercentileTest, JsonExportCarriesQuantiles) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("latency_ms", {1.0, 10.0});
  for (int i = 0; i < 50; ++i) {
    h->Observe(0.5);
  }
  const std::string json = MetricsToJson(registry.TakeSnapshot()).Render();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

}  // namespace
}  // namespace warpindex
