// Integration test for the live introspection stack: an Engine plus its
// QueryExecutor, flight recorder, and slow log behind the HTTP server,
// scraped while queries are in flight. Runs under TSan in CI to certify
// that endpoint rendering races nothing on the query path.

#include "exec/introspection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "exec/query_executor.h"
#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/slow_log.h"
#include "obs/trace_store.h"
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

// Crude whole-document JSON validation (same approach as trace_test):
// balanced braces/brackets and quotes outside string literals.
void ExpectValidJson(const std::string& text) {
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      ASSERT_GE(depth, 0) << text;
    }
  }
  EXPECT_EQ(depth, 0) << text;
  EXPECT_FALSE(in_string) << text;
}

class IntrospectionTest : public testing::Test {
 protected:
  IntrospectionTest()
      : trace_store_([] {
          TraceStoreOptions options;
          options.sample_probability = 1.0;  // retain every query's trace
          return options;
        }()),
        engine_(TestDataset(),
                [this] {
                  EngineOptions options;
                  options.metrics = &registry_;  // isolated per fixture
                  options.index_buffer_pages = 16;
                  return options;
                }()),
        executor_(&engine_, [this] {
          QueryExecutorOptions options;
          options.num_threads = 2;
          options.flight_recorder = &flight_recorder_;
          options.slow_log = &slow_log_;
          options.trace_store = &trace_store_;
          return options;
        }()) {}

  void RunQueries(size_t n) {
    QueryWorkloadOptions workload;
    workload.num_queries = n;
    workload.seed = 23;
    std::vector<Sequence> queries =
        GenerateQueryWorkload(engine_.dataset(), workload);
    std::vector<QueryRequest> requests;
    requests.reserve(queries.size());
    for (Sequence& q : queries) {
      requests.push_back(
          QueryRequest{MethodKind::kTwSimSearch, std::move(q), 0.25});
    }
    executor_.SubmitBatch(requests);
  }

  IntrospectionOptions Options() const {
    return IntrospectionOptions{.engine = &engine_,
                                .executor = &executor_,
                                .flight_recorder = &flight_recorder_,
                                .slow_log = &slow_log_,
                                .trace_store = &trace_store_};
  }

  MetricsRegistry registry_;
  FlightRecorder flight_recorder_;
  SlowQueryLog slow_log_;
  TraceStore trace_store_;
  Engine engine_;
  QueryExecutor executor_;
};

TEST_F(IntrospectionTest, StatuszJsonIsValidAndComplete) {
  RunQueries(8);
  const std::string json = StatuszJson(Options(), /*uptime_s=*/1.5);
  ExpectValidJson(json);
  // The acceptance-criterion fields: R-tree health, the cascade plan,
  // buffer-pool hit ratio, in-flight gauge.
  EXPECT_NE(json.find("\"rtree\":{"), std::string::npos);
  EXPECT_NE(json.find("\"height\":"), std::string::npos);
  EXPECT_NE(json.find("\"overlap_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"cascade_plan\":\"" +
                      engine_.cascade_plan().ToString() + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"hit_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"in_flight\":"), std::string::npos);
  EXPECT_NE(json.find("\"queries_total\":8"), std::string::npos);
  EXPECT_NE(json.find("\"uptime_s\":1.5"), std::string::npos);
  EXPECT_NE(json.find(std::string("\"version\":\"") + kWarpIndexVersion),
            std::string::npos);
  // Build identification and the trace-store health section.
  EXPECT_NE(json.find("\"compiler\":"), std::string::npos);
  EXPECT_NE(json.find("\"build_type\":"), std::string::npos);
  EXPECT_NE(json.find("\"trace_store\":{"), std::string::npos);
  EXPECT_NE(json.find("\"offered\":8"), std::string::npos);
}

TEST_F(IntrospectionTest, StatuszRendersNullForAbsentComponents) {
  IntrospectionOptions options;
  options.engine = &engine_;
  const std::string json = StatuszJson(options, 0.0);
  ExpectValidJson(json);
  EXPECT_NE(json.find("\"executor\":null"), std::string::npos);
  EXPECT_NE(json.find("\"flight_recorder\":null"), std::string::npos);
  EXPECT_NE(json.find("\"slow_log\":null"), std::string::npos);
  EXPECT_NE(json.find("\"trace_store\":null"), std::string::npos);
}

TEST_F(IntrospectionTest, EndpointsServeOverHttp) {
  IntrospectionServer server;
  RegisterIntrospectionRoutes(&server, Options());
  const Status start_status = server.Start();
  if (!start_status.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << start_status.ToString();
  }
  RunQueries(8);

  std::string body;
  int status_code = 0;
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/healthz", &body,
                      &status_code)
                  .ok());
  EXPECT_EQ(status_code, 200);
  EXPECT_EQ(body, "ok\n");

  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/metrics", &body,
                      &status_code)
                  .ok());
  EXPECT_EQ(status_code, 200);
  EXPECT_NE(body.find("# TYPE warpindex_queries_total counter"),
            std::string::npos);
  // The build-info series, Prometheus info-metric convention: constant 1
  // with the identifying facts as labels.
  EXPECT_NE(body.find("# TYPE warpindex_build_info gauge"),
            std::string::npos);
  EXPECT_NE(body.find(std::string("warpindex_build_info{version=\"") +
                      kWarpIndexVersion + "\""),
            std::string::npos);
  EXPECT_NE(body.find("build_type="), std::string::npos);
  // Index footprint: pages on disk and entry bytes in memory.
  const RTreeHealth index = engine_.TakeHealthSnapshot().index;
  EXPECT_NE(body.find("warpindex_index_page_bytes " +
                      std::to_string(index.bytes)),
            std::string::npos);
  EXPECT_NE(body.find("warpindex_index_resident_bytes " +
                      std::to_string(index.resident_bytes)),
            std::string::npos);
  EXPECT_GT(index.resident_bytes, 0u);

  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/statusz", &body,
                      &status_code)
                  .ok());
  EXPECT_EQ(status_code, 200);
  ExpectValidJson(body);

  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/slowlog", &body,
                      &status_code)
                  .ok());
  EXPECT_EQ(status_code, 200);
  ExpectValidJson(body);
  EXPECT_NE(body.find("\"count\":8"), std::string::npos);

  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/flightrecorder",
                      &body, &status_code)
                  .ok());
  EXPECT_EQ(status_code, 200);
  ExpectValidJson(body);
  EXPECT_NE(body.find("\"count\":8"), std::string::npos);
}

TEST_F(IntrospectionTest, TracezListsAndLooksUpRetainedTraces) {
  IntrospectionServer server;
  RegisterIntrospectionRoutes(&server, Options());
  const Status start_status = server.Start();
  if (!start_status.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << start_status.ToString();
  }
  RunQueries(8);

  std::string body;
  int status_code = 0;
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/tracez", &body,
                      &status_code)
                  .ok());
  EXPECT_EQ(status_code, 200);
  ExpectValidJson(body);
  // sample_probability = 1 retains all eight traces, spans included.
  EXPECT_NE(body.find("\"count\":8"), std::string::npos);
  EXPECT_NE(body.find("\"offered\":8"), std::string::npos);
  EXPECT_NE(body.find("\"spans\":["), std::string::npos);
  EXPECT_NE(body.find("\"shard_skew_ratio\":"), std::string::npos);

  // Lookup by id: take a retained trace's id straight from the store.
  const std::vector<CompletedTrace> kept = trace_store_.Snapshot();
  ASSERT_FALSE(kept.empty());
  const std::string id_hex = TraceIdHex(kept.back().trace.trace_id());
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/tracez?id=" + id_hex,
                      &body, &status_code)
                  .ok());
  EXPECT_EQ(status_code, 200);
  ExpectValidJson(body);
  EXPECT_NE(body.find("\"trace_id\":\"" + id_hex + "\""),
            std::string::npos);
  EXPECT_NE(body.find("\"keep\":"), std::string::npos);

  // Unknown and malformed ids both 404 with a JSON error body.
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(),
                      "/tracez?id=00000000deadbeef", &body, &status_code)
                  .ok());
  EXPECT_EQ(status_code, 404);
  ExpectValidJson(body);
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/tracez?id=not-hex",
                      &body, &status_code)
                  .ok());
  EXPECT_EQ(status_code, 404);
  ExpectValidJson(body);
}

// /profilez drives the whole sampling-profiler lifecycle over HTTP:
// parameter validation, a real (short) collection in both formats, and
// the 409 when a second scrape races an in-flight one.
TEST_F(IntrospectionTest, ProfilezCollectsAndValidates) {
  IntrospectionServer server;
  RegisterIntrospectionRoutes(&server, Options());
  const Status start_status = server.Start();
  if (!start_status.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << start_status.ToString();
  }

  std::string body;
  int status_code = 0;
  // Bad parameters are rejected before any timer is armed.
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/profilez?seconds=0",
                      &body, &status_code)
                  .ok());
  EXPECT_EQ(status_code, 400);
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/profilez?seconds=999",
                      &body, &status_code)
                  .ok());
  EXPECT_EQ(status_code, 400);
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/profilez?hz=0", &body,
                      &status_code)
                  .ok());
  EXPECT_EQ(status_code, 400);
  // A non-finite or out-of-int hz is refused before any conversion to int
  // (converting it would be undefined behaviour).
  for (const char* hz : {"1e300", "-1e300", "nan", "2147483648"}) {
    ASSERT_TRUE(HttpGet("127.0.0.1", server.port(),
                        std::string("/profilez?hz=") + hz, &body,
                        &status_code)
                    .ok());
    EXPECT_EQ(status_code, 400) << hz;
  }
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(),
                      "/profilez?seconds=0.1&format=xml", &body,
                      &status_code)
                  .ok());
  EXPECT_EQ(status_code, 400);

  // A real scrape: keep queries running so the process burns CPU during
  // the window, then expect a parseable speedscope document.
  std::atomic<bool> done{false};
  std::thread load([&] {
    while (!done.load(std::memory_order_acquire)) {
      RunQueries(2);
    }
  });
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(),
                      "/profilez?seconds=0.3&hz=499", &body, &status_code,
                      /*timeout_ms=*/10000)
                  .ok());
  if (status_code == 409) {
    // Unsupported platform: Collect reports FailedPrecondition.
    done.store(true, std::memory_order_release);
    load.join();
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  EXPECT_EQ(status_code, 200);
  ExpectValidJson(body);
  EXPECT_NE(body.find("\"$schema\""), std::string::npos);

  // The folded format is plain text "stack count" lines.
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(),
                      "/profilez?seconds=0.2&hz=499&format=folded", &body,
                      &status_code, /*timeout_ms=*/10000)
                  .ok());
  EXPECT_EQ(status_code, 200);
  done.store(true, std::memory_order_release);
  load.join();
}

// Without a FleetPoller configured, the fleet view is a clean 400, not
// a crash or an empty 200 that would look like a healthy empty fleet.
TEST_F(IntrospectionTest, FleetViewWithoutPollerIsBadRequest) {
  IntrospectionServer server;
  RegisterIntrospectionRoutes(&server, Options());
  const Status start_status = server.Start();
  if (!start_status.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << start_status.ToString();
  }
  std::string body;
  int status_code = 0;
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/metrics?fleet=1",
                      &body, &status_code)
                  .ok());
  EXPECT_EQ(status_code, 400);
  // /fleetz is only registered when a poller exists.
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/fleetz", &body,
                      &status_code)
                  .ok());
  EXPECT_EQ(status_code, 404);
}

// Every wall_ms in a flight record has a populated cpu_ms sibling once
// real queries ran — the tentpole's end-to-end attribution invariant.
TEST_F(IntrospectionTest, FlightRecordsCarryCpuSiblings) {
  RunQueries(4);
  const std::vector<FlightRecord> records = flight_recorder_.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (const FlightRecord& record : records) {
    EXPECT_GE(record.wall_ms, 0.0);
    EXPECT_GT(record.cpu_ms, 0.0) << record.method;
  }
  const std::string json = FlightRecordsToJson(records);
  EXPECT_NE(json.find("\"cpu_ms\""), std::string::npos);
}

TEST_F(IntrospectionTest, FlightRecordsCarryTraceIds) {
  RunQueries(4);
  // Every query was traced (head gate 1), so every flight record should
  // cross-link to a trace id — the /flightrecorder → /tracez join key.
  const std::vector<FlightRecord> records = flight_recorder_.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (const FlightRecord& record : records) {
    EXPECT_NE(record.trace_id, 0u);
  }
  const std::string json = FlightRecordsToJson(records);
  EXPECT_NE(json.find("\"trace_id\":\"" + TraceIdHex(records[0].trace_id) +
                      "\""),
            std::string::npos);
}

// The TSan target: queries and endpoint scrapes in flight together.
TEST_F(IntrospectionTest, ConcurrentQueriesAndScrapes) {
  IntrospectionServer server;
  RegisterIntrospectionRoutes(&server, Options());
  const Status start_status = server.Start();
  if (!start_status.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << start_status.ToString();
  }

  std::atomic<bool> done{false};
  std::atomic<int> scrape_failures{0};
  std::thread scraper([&] {
    const char* endpoints[] = {"/statusz", "/metrics", "/slowlog",
                               "/flightrecorder", "/tracez", "/healthz"};
    size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::string body;
      int status_code = 0;
      if (!HttpGet("127.0.0.1", server.port(),
                   endpoints[i++ % std::size(endpoints)], &body,
                   &status_code)
               .ok() ||
          status_code != 200) {
        scrape_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Start the queries once the scraper is being served, so the two are
  // in flight together however fast the queries finish.
  for (int waited_ms = 0; server.requests_served() == 0 && waited_ms < 5000;
       ++waited_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int round = 0; round < 4; ++round) {
    RunQueries(6);
  }
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_EQ(flight_recorder_.offered(), 24u);
  EXPECT_EQ(slow_log_.offered(), 24u);
  EXPECT_GT(server.requests_served(), 0u);
}

}  // namespace
}  // namespace warpindex
