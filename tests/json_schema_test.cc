// Pins the schema of every JSON document the program writes: the sorted
// key paths of each document, with the JSON kind of every leaf, compared
// against tests/data/json_key_trees.txt. Number text may change (the
// renderer's number format), keys, nesting and value kinds may not. The
// documents: /statusz for the engine, sharded and ingest shapes,
// /tracez, /flightrecorder, /cachez, MetricsToJson, trace JSON lines,
// trace-event JSON, speedscope profiles and bench metric rows.
//
// On a mismatch the test writes every section it computed to
// <test temp dir>/json_key_trees.actual.txt; after an intended schema
// change, review that file and copy it over the pinned one.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/semantic_cache.h"
#include "common/bench_util.h"
#include "exec/introspection.h"
#include "exec/query_executor.h"
#include "ingest/ingest_engine.h"
#include "net/json.h"
#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/slow_log.h"
#include "obs/trace_store.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "shard/sharded_engine.h"

namespace warpindex {
namespace {

const char* KindName(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return "bool";
    case JsonValue::Kind::kInt:
    case JsonValue::Kind::kDouble:
      return "number";
    case JsonValue::Kind::kString:
      return "string";
    case JsonValue::Kind::kArray:
      return "[]";
    case JsonValue::Kind::kObject:
      return "{}";
  }
  return "?";
}

// "<path> <kind>" for every leaf and every empty container; array items
// all share the path "<array>[]".
void CollectPaths(const JsonValue& value, const std::string& path,
                  std::set<std::string>* out) {
  if (value.kind() == JsonValue::Kind::kObject && !value.members().empty()) {
    for (const auto& [key, member] : value.members()) {
      CollectPaths(member, path.empty() ? key : path + "." + key, out);
    }
  } else if (value.kind() == JsonValue::Kind::kArray && value.size() > 0) {
    for (const JsonValue& item : value.items()) {
      CollectPaths(item, path + "[]", out);
    }
  } else {
    out->insert((path.empty() ? "." : path) + " " + KindName(value.kind()));
  }
}

// The key tree of one or more documents (JSON lines share one tree).
std::string KeyTree(const std::vector<std::string>& documents) {
  std::set<std::string> paths;
  for (const std::string& text : documents) {
    JsonValue doc;
    const Status status = JsonValue::Parse(text, &doc);
    EXPECT_TRUE(status.ok()) << status.ToString() << "\n" << text;
    CollectPaths(doc, "", &paths);
  }
  std::string out;
  for (const std::string& path : paths) {
    out += path + "\n";
  }
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// Sections of the pinned file: "[name]" headers, then key-tree lines.
std::map<std::string, std::string> ReadPinned(const std::string& path) {
  std::map<std::string, std::string> sections;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::string line;
  std::string* current = nullptr;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (line.front() == '[' && line.back() == ']') {
      current = &sections[line.substr(1, line.size() - 2)];
    } else if (current != nullptr) {
      *current += line + "\n";
    }
  }
  return sections;
}

Dataset Walks(size_t n, uint64_t seed) {
  RandomWalkOptions options;
  options.num_sequences = n;
  options.min_length = 20;
  options.max_length = 40;
  options.seed = seed;
  return GenerateRandomWalkDataset(options);
}

std::vector<QueryRequest> Requests(const Dataset& dataset, size_t n) {
  QueryWorkloadOptions workload;
  workload.num_queries = n;
  workload.seed = 5;
  std::vector<QueryRequest> requests;
  for (Sequence& q : GenerateQueryWorkload(dataset, workload)) {
    requests.push_back(
        QueryRequest{MethodKind::kTwSimSearch, std::move(q), 0.3});
  }
  return requests;
}

// A trace with a tagged shard subtree and span counters.
Trace StitchedTrace() {
  Trace trace;
  TraceSpan root;
  root.name = "query";
  root.duration_ms = 4.0;
  trace.AppendSpan(root);
  TraceSpan shard;
  shard.name = "shard";
  shard.parent = 0;
  shard.start_ms = 1.0;
  shard.duration_ms = 2.0;
  shard.shard = 1;
  shard.tid = 2;
  shard.counters.emplace_back("shard_index", 1.0);
  trace.AppendSpan(shard);
  return trace;
}

class JsonSchemaTest : public testing::Test {
 protected:
  // Every document under its section name.
  std::map<std::string, std::string> ComputeSections() {
    std::map<std::string, std::string> sections;

    // The engine shape with every optional component attached; the
    // batch runs twice so the second round hits the cache.
    MetricsRegistry registry;
    FlightRecorder recorder;
    SlowQueryLog slow_log;
    TraceStoreOptions store_options;
    store_options.sample_probability = 1.0;
    TraceStore trace_store(store_options);
    SemanticCache cache;
    EngineOptions engine_options;
    engine_options.metrics = &registry;
    engine_options.index_buffer_pages = 16;
    Engine engine(Walks(60, 11), engine_options);
    QueryExecutorOptions executor_options;
    executor_options.num_threads = 1;
    executor_options.flight_recorder = &recorder;
    executor_options.slow_log = &slow_log;
    executor_options.trace_store = &trace_store;
    executor_options.cache = &cache;
    QueryExecutor executor(&engine, executor_options);
    const std::vector<QueryRequest> requests =
        Requests(engine.dataset(), 4);
    executor.SubmitBatch(requests);
    executor.SubmitBatch(requests);
    const IntrospectionOptions options{.engine = &engine,
                                       .executor = &executor,
                                       .cache = &cache,
                                       .flight_recorder = &recorder,
                                       .slow_log = &slow_log,
                                       .trace_store = &trace_store};
    sections["statusz_engine"] = KeyTree({StatuszJson(options, 1.5)});
    sections["flightrecorder"] =
        KeyTree({FlightRecordsToJson(recorder.Snapshot())});

    IntrospectionServer server;
    RegisterIntrospectionRoutes(&server, options);
    if (server.Start().ok()) {
      for (const char* endpoint : {"/tracez", "/cachez"}) {
        std::string body;
        int status_code = 0;
        EXPECT_TRUE(
            HttpGet("127.0.0.1", server.port(), endpoint, &body, &status_code)
                .ok());
        EXPECT_EQ(status_code, 200) << endpoint;
        sections[endpoint + 1] = KeyTree({body});
      }
      server.Stop();
    }

    {
      ShardedEngineOptions sharded_options;
      sharded_options.num_shards = 3;
      sharded_options.partitioner = PartitionerKind::kRange;
      ShardedEngine sharded(Walks(60, 12), sharded_options);
      QueryExecutor sharded_executor(&sharded, executor_options);
      sharded_executor.SubmitBatch(Requests(Walks(60, 12), 2));
      IntrospectionOptions sharded_view;
      sharded_view.sharded = &sharded;
      sections["statusz_sharded"] =
          KeyTree({StatuszJson(sharded_view, 2.0)});
    }

    {
      IngestOptions ingest_options;
      ingest_options.num_shards = 2;
      ingest_options.partitioner = PartitionerKind::kRange;
      ingest_options.start_compactor = false;
      IngestEngine ingest(Walks(40, 13), ingest_options);
      ingest.Insert(Sequence({1.0, 2.0, 3.0, 2.0}));
      ingest.Delete(0);
      ingest.CompactShard(0);
      IntrospectionOptions ingest_view;
      ingest_view.ingest = &ingest;
      sections["statusz_ingest"] = KeyTree({StatuszJson(ingest_view, 3.0)});
    }

    MetricsRegistry metrics;
    metrics.GetCounter("a_total", "a counter")->Increment(3);
    metrics.GetGauge("b_inflight", "a gauge")->Set(2);
    Histogram* histogram = metrics.GetHistogram("c_ms", {1.0, 10.0}, "ms");
    histogram->Observe(0.5);
    histogram->Observe(20.0);
    const BuildInfo build = GetBuildInfo();
    ProcessSelfMetrics process;
    process.valid = true;
    process.cpu_seconds_total = 1.25;
    process.resident_memory_bytes = 4096.0;
    process.open_fds = 7;
    process.start_time_seconds = 1e9;
    sections["metrics_json"] = KeyTree(
        {MetricsToJson(metrics.TakeSnapshot(), &build, &process).Render()});

    const Trace trace = StitchedTrace();
    sections["trace_json_lines"] =
        KeyTree(Lines(TraceToJsonLines(trace, /*query_id=*/3)));
    sections["trace_events"] = KeyTree({TraceEventsJson({&trace})});

    Profile profile;
    profile.hz = 99;
    profile.samples = 4;
    profile.folded = {{"main;run;dtw", 3}, {"main;idle", 1}};
    sections["speedscope"] = KeyTree({profile.SpeedscopeJson()});

    bench::WorkloadSummary summary;
    summary.avg_candidates = 2.5;
    summary.avg_stage_ms.Add("rtree_search", 0.25);
    summary.total_prunes.Record("lb_keogh", 10, 4);
    const std::string rows_path =
        testing::TempDir() + "/json_schema_test_rows.jsonl";
    bench::MetricsJsonWriter writer("schema_test", rows_path);
    writer.AddRow("TW-Sim-Search", "eps", 0.5, summary);
    EXPECT_TRUE(writer.Flush());
    std::ifstream rows(rows_path);
    std::stringstream buffer;
    buffer << rows.rdbuf();
    sections["bench_metrics_row"] = KeyTree(Lines(buffer.str()));
    std::remove(rows_path.c_str());
    return sections;
  }
};

TEST_F(JsonSchemaTest, KeyTreesMatchThePinnedSchema) {
  const std::map<std::string, std::string> actual = ComputeSections();
  const std::map<std::string, std::string> pinned =
      ReadPinned(WARPINDEX_JSON_KEY_TREES);
  bool same = true;
  for (const auto& [name, tree] : pinned) {
    const auto it = actual.find(name);
    if (it == actual.end()) {
      // /tracez and /cachez need a loopback socket.
      EXPECT_TRUE(name == "tracez" || name == "cachez") << name;
      continue;
    }
    EXPECT_EQ(it->second, tree) << "[" << name << "]";
    same = same && it->second == tree;
  }
  for (const auto& [name, tree] : actual) {
    EXPECT_EQ(pinned.count(name), 1u) << "unpinned section [" << name << "]";
    same = same && pinned.count(name) == 1;
  }
  if (!same) {
    const std::string path =
        testing::TempDir() + "/json_key_trees.actual.txt";
    std::ofstream out(path);
    for (const auto& [name, tree] : actual) {
      out << "[" << name << "]\n" << tree << "\n";
    }
    ADD_FAILURE() << "computed key trees written to " << path;
  }
}

}  // namespace
}  // namespace warpindex
