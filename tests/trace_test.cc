// Tracing layer: span-tree mechanics, the traced engine search path
// (acceptance: stage spans must account for the query's wall time), and
// the JSON-lines exporter.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "obs/exporters.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

TEST(TraceTest, SpanTreeStructure) {
  Trace trace;
  const size_t root = trace.BeginSpan("query");
  const size_t child_a = trace.BeginSpan("rtree_search");
  trace.EndSpan(child_a);
  const size_t child_b = trace.BeginSpan("dtw_postfilter");
  const size_t grandchild = trace.BeginSpan("inner");
  trace.EndSpan(grandchild);
  trace.EndSpan(child_b);
  trace.EndSpan(root);

  ASSERT_EQ(trace.spans().size(), 4u);
  EXPECT_EQ(trace.open_depth(), 0u);
  EXPECT_EQ(trace.spans()[root].parent, -1);
  EXPECT_EQ(trace.spans()[child_a].parent, static_cast<int>(root));
  EXPECT_EQ(trace.spans()[child_b].parent, static_cast<int>(root));
  EXPECT_EQ(trace.spans()[grandchild].parent, static_cast<int>(child_b));
  // Children are contained in the root's duration.
  EXPECT_GE(trace.spans()[root].duration_ms,
            trace.spans()[child_a].duration_ms +
                trace.spans()[child_b].duration_ms);
  EXPECT_GE(trace.spans()[child_b].duration_ms,
            trace.spans()[grandchild].duration_ms);
}

TEST(TraceTest, CountersAttachToInnermostOpenSpan) {
  Trace trace;
  const size_t root = trace.BeginSpan("query");
  trace.AddCounter("pages_read", 3);
  const size_t child = trace.BeginSpan("candidate_fetch");
  trace.AddCounter("pages_read", 2);
  trace.AddCounter("pages_read", 2);
  trace.EndSpan(child);
  trace.AddCounter("dtw_cells", 100);
  trace.EndSpan(root);

  ASSERT_EQ(trace.spans()[child].counters.size(), 1u);
  EXPECT_EQ(trace.spans()[child].counters[0].first, "pages_read");
  EXPECT_EQ(trace.spans()[child].counters[0].second, 4.0);
  ASSERT_EQ(trace.spans()[root].counters.size(), 2u);
  EXPECT_EQ(trace.spans()[root].counters[0].second, 3.0);
  EXPECT_EQ(trace.spans()[root].counters[1].first, "dtw_cells");
}

TEST(TraceTest, ScopedSpanNullTraceIsNoop) {
  ScopedSpan span(nullptr, "anything");
  TraceCounter(nullptr, "anything", 1.0);  // must not crash
}

TEST(TraceTest, TotalMillisSumsSameNamedSpans) {
  Trace trace;
  for (int i = 0; i < 3; ++i) {
    trace.EndSpan(trace.BeginSpan("stage"));
  }
  EXPECT_GE(trace.TotalMillis("stage"), 0.0);
  EXPECT_EQ(trace.TotalMillis("absent"), 0.0);
}

class TracedEngineTest : public testing::Test {
 protected:
  // kTwSimSearchCascade runs the LB_Yi stage alone before exact DTW.
  Engine* MakeEngine(size_t pool_pages = 0) {
    RandomWalkOptions rw;
    rw.num_sequences = 200;
    rw.min_length = 100;
    rw.max_length = 200;
    EngineOptions options;
    options.cascade_plan = CascadePlan{{CascadeStage::kLbYi}};
    options.index_buffer_pages = pool_pages;
    options.metrics = &registry_;  // keep tests out of the global registry
    return new Engine(GenerateRandomWalkDataset(rw), options);
  }

 private:
  MetricsRegistry registry_;
};

// Acceptance criterion: a traced Engine::Search produces a span tree
// whose stage spans sum to within 10% of SearchCost::wall_ms. A large
// epsilon makes the query heavy (every candidate is refined with a full
// DTW), so the untimed residue (feature extraction, vector setup) is
// negligible against the staged work.
TEST_F(TracedEngineTest, StageSpansAccountForWallTime) {
  std::unique_ptr<Engine> engine(MakeEngine());
  const Sequence query =
      PerturbSequence(engine->dataset()[7], /*seed=*/42);

  Trace trace;
  const SearchResult result = engine->Search(query, /*epsilon=*/10.0,
                                             &trace);
  ASSERT_GT(result.num_candidates, 0u);
  ASSERT_GT(result.cost.wall_ms, 0.0);
  EXPECT_EQ(trace.open_depth(), 0u);

  // The span tree has a `query` root with the stage spans below it.
  ASSERT_FALSE(trace.spans().empty());
  EXPECT_EQ(trace.spans()[0].name, "query");
  EXPECT_GT(trace.TotalMillis(kStageRtreeSearch), 0.0);
  EXPECT_GT(trace.TotalMillis(kStageDtwPostfilter), 0.0);

  const double staged = trace.TotalMillis(kStageRtreeSearch) +
                        trace.TotalMillis(kStageCandidateFetch) +
                        trace.TotalMillis(kStageLbYiCascade) +
                        trace.TotalMillis(kStageDtwPostfilter);
  EXPECT_GT(staged, 0.9 * result.cost.wall_ms);
  EXPECT_LE(staged, 1.1 * result.cost.wall_ms);

  // The always-on StageTimings breakdown matches the spans' story.
  EXPECT_GT(result.cost.stages.TotalMillis(), 0.9 * result.cost.wall_ms);
  EXPECT_LE(result.cost.stages.TotalMillis(), 1.1 * result.cost.wall_ms);
  EXPECT_GT(result.cost.stages.Get(kStageDtwPostfilter), 0.0);
}

TEST_F(TracedEngineTest, LbCascadeStageAppearsWhenEnabled) {
  std::unique_ptr<Engine> engine(MakeEngine());
  const Sequence query =
      PerturbSequence(engine->dataset()[3], /*seed=*/7);
  Trace trace;
  const SearchResult result = engine->SearchWith(
      MethodKind::kTwSimSearchCascade, query, 10.0, &trace);
  ASSERT_GT(result.cost.lb_evals, 0u);
  EXPECT_GT(trace.TotalMillis(kStageLbYiCascade), 0.0);
  EXPECT_GT(result.cost.stages.Get(kStageLbYiCascade), 0.0);
}

TEST_F(TracedEngineTest, CountersRecordPagesAndCells) {
  std::unique_ptr<Engine> engine(MakeEngine());
  const Sequence query = PerturbSequence(engine->dataset()[0], 1);
  Trace trace;
  const SearchResult result = engine->Search(query, 5.0, &trace);

  double traced_pages = 0.0;
  double traced_cells = 0.0;
  for (const TraceSpan& span : trace.spans()) {
    for (const auto& [name, value] : span.counters) {
      if (name == "pages_read") {
        traced_pages += value;
      } else if (name == "dtw_cells") {
        traced_cells += value;
      }
    }
  }
  // Data-page reads of the fetch stage (index pages are charged as
  // random reads, not store pages).
  EXPECT_EQ(traced_pages,
            static_cast<double>(result.cost.io.random_page_reads -
                                result.cost.index_nodes));
  EXPECT_EQ(traced_cells, static_cast<double>(result.cost.dtw_cells));
}

TEST_F(TracedEngineTest, BufferPoolCountersReachTrace) {
  std::unique_ptr<Engine> engine(
      MakeEngine(/*pool_pages=*/64));
  const Sequence query = PerturbSequence(engine->dataset()[0], 1);
  // Warm the pool, then trace: the second query should see hits.
  engine->Search(query, 1.0);
  Trace trace;
  engine->Search(query, 1.0, &trace);
  double hits = 0.0;
  for (const TraceSpan& span : trace.spans()) {
    for (const auto& [name, value] : span.counters) {
      if (name == "pool_hits") {
        hits += value;
      }
    }
  }
  EXPECT_GT(hits, 0.0);
}

TEST_F(TracedEngineTest, KnnSearchProducesRefineSpan) {
  std::unique_ptr<Engine> engine(MakeEngine());
  const Sequence query = PerturbSequence(engine->dataset()[11], 3);
  Trace trace;
  const KnnResult result = engine->SearchKnn(query, 5, &trace);
  EXPECT_EQ(result.neighbors.size(), 5u);
  EXPECT_EQ(trace.spans()[0].name, "knn_query");
  EXPECT_GT(trace.TotalMillis(kStageKnnRefine), 0.0);
  EXPECT_GT(result.cost.stages.Get(kStageKnnRefine), 0.0);
}

TEST_F(TracedEngineTest, UntracedSearchRecordsStagesButNoSpans) {
  std::unique_ptr<Engine> engine(MakeEngine());
  const Sequence query = PerturbSequence(engine->dataset()[2], 9);
  const SearchResult result = engine->Search(query, 2.0);
  EXPECT_FALSE(result.cost.stages.empty());
}

// Crude JSON-lines validation: every line is one object with balanced
// braces and quotes outside of string literals.
void ExpectValidJsonLine(const std::string& line) {
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : line) {
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
      ASSERT_GE(depth, 0) << line;
    }
  }
  EXPECT_EQ(depth, 0) << line;
  EXPECT_FALSE(in_string) << line;
}

TEST_F(TracedEngineTest, JsonLinesExportRoundTrip) {
  std::unique_ptr<Engine> engine(MakeEngine());
  const Sequence query = PerturbSequence(engine->dataset()[5], 77);
  Trace trace;
  engine->SearchWith(MethodKind::kTwSimSearchCascade, query, 5.0, &trace);

  const std::string text = TraceToJsonLines(trace, /*query_id=*/5);
  std::istringstream lines(text);
  std::string line;
  size_t count = 0;
  while (std::getline(lines, line)) {
    ExpectValidJsonLine(line);
    EXPECT_NE(line.find("\"query\":5"), std::string::npos);
    EXPECT_NE(line.find("\"duration_ms\":"), std::string::npos);
    ++count;
  }
  EXPECT_EQ(count, trace.spans().size());
  EXPECT_NE(text.find("\"name\":\"rtree_search\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"dtw_postfilter\""), std::string::npos);

  // ExportTrace appends to a file.
  const std::string path = testing::TempDir() + "/trace_test.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(engine->ExportTrace(trace, path, 5).ok());
  ASSERT_TRUE(engine->ExportTrace(trace, path, 6).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  size_t file_lines = 0;
  while (std::getline(in, line)) {
    ExpectValidJsonLine(line);
    ++file_lines;
  }
  EXPECT_EQ(file_lines, 2 * trace.spans().size());
  std::remove(path.c_str());
}

TEST(TraceExportTest, EscapesSpecialCharacters) {
  Trace trace;
  const size_t span = trace.BeginSpan("weird \"name\"\n\\path");
  trace.EndSpan(span);
  const std::string text = TraceToJsonLines(trace);
  EXPECT_NE(text.find("weird \\\"name\\\"\\n\\\\path"),
            std::string::npos);
  ExpectValidJsonLine(text.substr(0, text.size() - 1));
}

// ---- Cross-thread stitching primitives (TraceContext / Adopt).

TEST(TraceIdTest, NewTraceIdsAreNonZeroAndDistinct) {
  const uint64_t a = NewTraceId();
  const uint64_t b = NewTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceIdTest, HexRoundTrip) {
  EXPECT_EQ(TraceIdHex(0x1234abcd5678ef00ull), "1234abcd5678ef00");
  EXPECT_EQ(TraceIdHex(1), "0000000000000001");
  EXPECT_EQ(ParseTraceIdHex("1234abcd5678ef00"), 0x1234abcd5678ef00ull);
  EXPECT_EQ(ParseTraceIdHex("1234ABCD5678EF00"), 0x1234abcd5678ef00ull);
  EXPECT_EQ(ParseTraceIdHex("1"), 1u);
  for (uint64_t id : {NewTraceId(), NewTraceId(), uint64_t{42}}) {
    EXPECT_EQ(ParseTraceIdHex(TraceIdHex(id)), id);
  }
  // Malformed inputs map to the invalid id 0.
  EXPECT_EQ(ParseTraceIdHex(""), 0u);
  EXPECT_EQ(ParseTraceIdHex("xyz"), 0u);
  EXPECT_EQ(ParseTraceIdHex("12345678901234567"), 0u);  // 17 chars
  EXPECT_EQ(ParseTraceIdHex("12 4"), 0u);
}

TEST(TraceContextTest, DefaultContextIsInvalid) {
  TraceContext context;
  EXPECT_FALSE(context.valid());
  EXPECT_TRUE(context.sampled);
}

TEST(TraceContextTest, ChildTraceSharesIdAndClockOrigin) {
  Trace parent;
  const size_t root = parent.BeginSpan("scatter_gather");
  const TraceContext context = parent.ContextForSpan(root);
  EXPECT_TRUE(context.valid());
  EXPECT_EQ(context.trace_id, parent.trace_id());
  EXPECT_EQ(context.span_id, root);

  Trace child(context);
  EXPECT_EQ(child.trace_id(), parent.trace_id());
  const size_t sub = child.BeginSpan("shard");
  child.EndSpan(sub);
  parent.EndSpan(root);
  // Shared clock zero: the child's offset lies inside the parent span.
  EXPECT_GE(child.spans()[sub].start_ms, parent.spans()[root].start_ms);
  EXPECT_LE(child.spans()[sub].start_ms,
            parent.spans()[root].start_ms +
                parent.spans()[root].duration_ms);
}

TEST(TraceTest, ThreadTagStampsNewSpans) {
  Trace trace;
  const size_t before = trace.BeginSpan("untagged");
  trace.EndSpan(before);
  trace.SetThreadTag(/*shard=*/3, /*tid=*/2);
  const size_t tagged = trace.BeginSpan("shard");
  trace.EndSpan(tagged);
  EXPECT_EQ(trace.spans()[before].shard, -1);
  EXPECT_EQ(trace.spans()[before].tid, 0u);
  EXPECT_EQ(trace.spans()[tagged].shard, 3);
  EXPECT_EQ(trace.spans()[tagged].tid, 2u);
}

TEST(TraceTest, AppendSpanIngestsCompletedSpans) {
  Trace trace;
  TraceSpan root;
  root.name = "shard";
  root.start_ms = 1.0;
  root.duration_ms = 5.0;
  const size_t r = trace.AppendSpan(root);
  TraceSpan child;
  child.name = "inner";
  child.parent = static_cast<int>(r);
  trace.AppendSpan(child);
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[1].parent, 0);
  EXPECT_EQ(trace.open_depth(), 0u);
}

TEST(TraceTest, AdoptReparentsRootsAndRebasesInternalLinks) {
  Trace parent;
  const size_t top = parent.BeginSpan("query");
  const size_t sg = parent.BeginSpan("scatter_gather");

  Trace child(parent.ContextForSpan(sg));
  child.SetThreadTag(1, 4);
  const size_t shard_span = child.BeginSpan("shard");
  child.AddCounter("shard_index", 1);
  const size_t inner = child.BeginSpan("rtree_search");
  child.EndSpan(inner);
  child.EndSpan(shard_span);

  parent.Adopt(sg, child);
  parent.EndSpan(sg);
  parent.EndSpan(top);

  ASSERT_EQ(parent.spans().size(), 4u);
  const TraceSpan& adopted_root = parent.spans()[2];
  const TraceSpan& adopted_inner = parent.spans()[3];
  // The child's root is re-parented under the scatter_gather span;
  // internal links are rebased past the parent's existing spans.
  EXPECT_EQ(adopted_root.name, "shard");
  EXPECT_EQ(adopted_root.parent, static_cast<int>(sg));
  EXPECT_EQ(adopted_inner.name, "rtree_search");
  EXPECT_EQ(adopted_inner.parent, 2);
  // Tags and counters travel verbatim.
  EXPECT_EQ(adopted_root.shard, 1);
  EXPECT_EQ(adopted_root.tid, 4u);
  ASSERT_EQ(adopted_root.counters.size(), 1u);
  EXPECT_EQ(adopted_root.counters[0].first, "shard_index");
}

TEST(TraceTest, AdoptingMultipleChildrenKeepsEverySubtree) {
  Trace parent;
  const size_t sg = parent.BeginSpan("scatter_gather");
  const TraceContext context = parent.ContextForSpan(sg);
  for (int s = 0; s < 3; ++s) {
    Trace child(context);
    child.SetThreadTag(s, static_cast<uint32_t>(s + 1));
    const size_t span = child.BeginSpan("shard");
    child.EndSpan(span);
    parent.Adopt(sg, child);
  }
  parent.EndSpan(sg);
  ASSERT_EQ(parent.spans().size(), 4u);
  for (int s = 0; s < 3; ++s) {
    const TraceSpan& span = parent.spans()[static_cast<size_t>(1 + s)];
    EXPECT_EQ(span.name, "shard");
    EXPECT_EQ(span.parent, static_cast<int>(sg));
    EXPECT_EQ(span.shard, s);
  }
}

// ---- Trace-event (Chrome/Perfetto) exporter.

// Builds a deterministic two-shard stitched trace without running
// queries or clocks (AppendSpan is the ingestion-side API).
Trace MakeStitchedTrace() {
  Trace trace;
  TraceSpan root;
  root.name = "query";
  root.start_ms = 0.0;
  root.duration_ms = 10.0;
  trace.AppendSpan(root);
  for (int s = 0; s < 2; ++s) {
    TraceSpan shard;
    shard.name = "shard";
    shard.parent = 0;
    shard.start_ms = 1.0;
    shard.duration_ms = 4.0 + s;
    shard.shard = s;
    shard.tid = static_cast<uint32_t>(s + 1);
    shard.counters.emplace_back("shard_index", s);
    trace.AppendSpan(shard);
  }
  return trace;
}

TEST(TraceEventsTest, DocumentStructureAndLaneMapping) {
  const Trace trace = MakeStitchedTrace();
  const std::string json = TraceEventsJson({&trace});

  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  // Complete events with microsecond timestamps: the shard spans start
  // at 1.0 ms = 1000 us and last 4000/5000 us.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000,"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4000,"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5000,"), std::string::npos);
  // pid = shard + 1 (unsharded spans share pid 0); tid straight through.
  EXPECT_NE(json.find("\"pid\":0,\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1,\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2,\"tid\":2"), std::string::npos);
  // Metadata events name the lanes.
  EXPECT_NE(json.find("{\"name\":\"query\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"shard 0\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"shard 1\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"worker 0\"}"), std::string::npos);
  // Span counters ride in args next to the trace id.
  EXPECT_NE(json.find("\"trace_id\":\"" + TraceIdHex(trace.trace_id()) +
                      "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"shard_index\":1"), std::string::npos);
  ExpectValidJsonLine(json);
}

TEST(TraceEventsTest, EscapesSpanNamesAndCounterKeys) {
  Trace trace;
  TraceSpan span;
  span.name = "evil \"span\"\nname\\";
  span.duration_ms = 1.0;
  span.counters.emplace_back("bad\tkey", 2.0);
  trace.AppendSpan(span);
  const std::string json = TraceEventsJson({&trace});
  EXPECT_NE(json.find("evil \\\"span\\\"\\nname\\\\"), std::string::npos);
  EXPECT_NE(json.find("bad\\tkey"), std::string::npos);
  // No raw control characters or unescaped quotes survive.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
  ExpectValidJsonLine(json);
}

TEST(TraceEventsTest, ConsecutiveTracesAreLaidOutSequentially) {
  const Trace first = MakeStitchedTrace();
  const Trace second = MakeStitchedTrace();
  const std::string json = TraceEventsJson({&first, &second});
  // The first trace's extent is 10 ms, plus a 1 ms gutter: the second
  // trace's root starts at 11 ms = 11000 us.
  EXPECT_NE(json.find("\"ts\":0,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":11000,"), std::string::npos);
  // Both trace ids appear; null entries would have been skipped.
  EXPECT_NE(json.find(TraceIdHex(first.trace_id())), std::string::npos);
  EXPECT_NE(json.find(TraceIdHex(second.trace_id())), std::string::npos);
  ExpectValidJsonLine(json);
}

TEST(TraceEventsTest, NullAndEmptyInputsAreSafe) {
  const std::string empty = TraceEventsJson({});
  EXPECT_EQ(empty, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
  const Trace trace = MakeStitchedTrace();
  const std::string with_null = TraceEventsJson({nullptr, &trace});
  EXPECT_NE(with_null.find("\"ph\":\"X\""), std::string::npos);
  ExpectValidJsonLine(with_null);
}

TEST(TraceEventsTest, WriteTraceEventsFileOverwrites) {
  const Trace trace = MakeStitchedTrace();
  const std::string path = testing::TempDir() + "/trace_events_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(WriteTraceEventsFile({&trace, &trace}, path).ok());
  ASSERT_TRUE(WriteTraceEventsFile({&trace}, path).ok());  // overwrite
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  // One document, not appended lines: exactly one displayTimeUnit key.
  EXPECT_EQ(content.find("displayTimeUnit"),
            content.rfind("displayTimeUnit"));
  EXPECT_EQ(content, TraceEventsJson({&trace}) + "\n");
  std::remove(path.c_str());
}

TEST(TraceExportTest, JsonLinesCarryShardAndTidTagsWhenSet) {
  Trace trace;
  trace.SetThreadTag(2, 5);
  const size_t span = trace.BeginSpan("shard");
  trace.EndSpan(span);
  const std::string text = TraceToJsonLines(trace);
  EXPECT_NE(text.find("\"shard\":2,\"tid\":5"), std::string::npos);
  // Untagged spans keep the compact schema (no shard/tid keys).
  Trace untagged;
  untagged.EndSpan(untagged.BeginSpan("query"));
  EXPECT_EQ(TraceToJsonLines(untagged).find("\"shard\""),
            std::string::npos);
}

TEST(TraceExportTest, JsonArrayWrapsSpans) {
  const Trace trace = MakeStitchedTrace();
  const std::string json = TraceToJsonArray(trace);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"span\":0,"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard\""), std::string::npos);
  ExpectValidJsonLine("{\"spans\":" + json + "}");
}

}  // namespace
}  // namespace warpindex
