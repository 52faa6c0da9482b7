// ShardServer: a process serving a subset of a saved sharded database
// over the wire. Verifies the exactness contract the router builds on —
// HELLO_OK reports the same per-shard feature MBRs the in-process
// ShardedEngine computes, RANGE answers are remapped/merged/sorted
// exactly, KNN honors the seed bound without losing ties — plus the
// failure paths: unserved shards, malformed requests, and drain
// answering UNAVAILABLE.

#include "net/shard_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "net/serialize.h"
#include "net/socket.h"
#include "net/wire.h"
#include "net/wire_client.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "shard/sharded_engine.h"

namespace warpindex {
namespace {

constexpr size_t kNumShards = 3;

Dataset WalkDataset(uint64_t seed = 21) {
  RandomWalkOptions options;
  options.num_sequences = 60;
  options.min_length = 20;
  options.max_length = 44;
  options.seed = seed;
  return GenerateRandomWalkDataset(options);
}

class ShardServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/shard_server_test_db";
    std::filesystem::remove_all(dir_);
    ShardedEngineOptions options;
    options.num_shards = kNumShards;
    options.partitioner = PartitionerKind::kRange;
    const ShardedEngine built(WalkDataset(), options);
    ASSERT_TRUE(built.Save(dir_).ok());
    ASSERT_TRUE(ShardedEngine::Open(dir_, options, &sharded_).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<ShardServer> StartServer(
      std::vector<uint32_t> serve_shards) {
    ShardServerOptions options;
    options.db_dir = dir_;
    options.serve_shards = std::move(serve_shards);
    options.group = 1;
    options.replica = 2;
    options.server.io_timeout_ms = 50;
    std::unique_ptr<ShardServer> server;
    const Status status = ShardServer::Create(std::move(options), &server);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (server != nullptr) {
      EXPECT_TRUE(server->Start().ok());
    }
    return server;
  }

  WireClient MakeClient(const ShardServer& server) {
    WireClientOptions options;
    options.port = server.port();
    options.timeout_ms = 5000;
    options.client_id = "shard-server-test";
    return WireClient(options);
  }

  static JsonValue ShardsArray(std::initializer_list<int64_t> shards) {
    JsonValue array = JsonValue::Array();
    for (const int64_t shard : shards) array.Add(JsonValue::Int(shard));
    return array;
  }

  std::string dir_;
  std::unique_ptr<ShardedEngine> sharded_;
};

TEST_F(ShardServerTest, RejectsUnknownShardAtCreate) {
  ShardServerOptions options;
  options.db_dir = dir_;
  options.serve_shards = {0, 99};
  std::unique_ptr<ShardServer> server;
  EXPECT_FALSE(ShardServer::Create(std::move(options), &server).ok());
}

TEST_F(ShardServerTest, HelloReportsIdentityShardsAndExactBounds) {
  auto server = StartServer({0, 2});
  WireClient client = MakeClient(*server);
  JsonValue info;
  ASSERT_TRUE(client.Connect(&info).ok());

  EXPECT_EQ(info.GetString("role", ""), "shard-server");
  EXPECT_EQ(info.GetInt("group", -1), 1);
  EXPECT_EQ(info.GetInt("replica", -1), 2);
  EXPECT_EQ(info.GetInt("num_shards", -1),
            static_cast<int64_t>(kNumShards));
  EXPECT_EQ(info.GetString("partitioner", ""), "range");

  const JsonValue* shards = info.Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->size(), 2u);
  for (size_t i = 0; i < shards->size(); ++i) {
    const JsonValue& item = shards->at(i);
    const auto shard = static_cast<size_t>(item.GetInt("shard", -1));
    ASSERT_LT(shard, kNumShards);
    EXPECT_EQ(item.GetInt("sequences", -1),
              static_cast<int64_t>(sharded_->shard(shard).dataset().size()));
    // The MBR the router will prune against must be bit-identical to
    // the in-process engine's live-only bounds.
    const ShardFeatureBounds& expected = sharded_->shard_bounds(shard);
    const JsonValue* mbr = item.Find("mbr");
    ASSERT_NE(mbr, nullptr);
    ASSERT_TRUE(expected.valid);
    EXPECT_EQ(mbr->Render(), RectToJson(expected.mbr).Render());
  }
}

TEST_F(ShardServerTest, RangeMergesRemapsAndSortsExactly) {
  auto server = StartServer({0, 1, 2});
  WireClient client = MakeClient(*server);

  const Engine single(WalkDataset(), EngineOptions{});
  const auto queries = GenerateQueryWorkload(
      single.dataset(), QueryWorkloadOptions{.num_queries = 4, .seed = 7});

  for (const Sequence& query : queries) {
    for (const double epsilon : {0.1, 0.3}) {
      JsonValue request = JsonValue::Object();
      request.Set("shards", ShardsArray({0, 1, 2}));
      request.Set("method", JsonValue::Str("TW-Sim-Search"));
      request.Set("epsilon", JsonValue::Double(epsilon));
      request.Set("query", SequenceToJson(query));
      JsonValue response;
      ASSERT_TRUE(
          client.Call(WireType::kRange, request, &response).ok());

      // Matches: global ids, ascending — the single-engine answer.
      std::vector<SequenceId> expected =
          single.Search(query, epsilon).matches;
      std::sort(expected.begin(), expected.end());
      const JsonValue* matches = response.Find("matches");
      ASSERT_NE(matches, nullptr);
      std::vector<SequenceId> got;
      for (const JsonValue& id : matches->items()) {
        got.push_back(id.AsInt());
      }
      EXPECT_EQ(got, expected);

      // num_candidates: summed over the REQUESTED shards, exactly the
      // per-shard engines' counts.
      size_t expected_candidates = 0;
      for (size_t shard = 0; shard < kNumShards; ++shard) {
        expected_candidates +=
            sharded_->shard(shard).Search(query, epsilon).num_candidates;
      }
      EXPECT_EQ(response.GetInt("num_candidates", -1),
                static_cast<int64_t>(expected_candidates));

      // Cost crossed the wire.
      const JsonValue* cost = response.Find("cost");
      ASSERT_NE(cost, nullptr);
      SearchCost decoded;
      ASSERT_TRUE(JsonToCost(*cost, &decoded).ok());
      EXPECT_GT(decoded.dtw_evals + decoded.lb_evals, 0u);
    }
  }
}

TEST_F(ShardServerTest, RangeOverSubsetOnlyTouchesRequestedShards) {
  auto server = StartServer({0, 2});
  WireClient client = MakeClient(*server);
  const auto queries = GenerateQueryWorkload(
      sharded_->shard(0).dataset(),
      QueryWorkloadOptions{.num_queries = 2, .seed = 9});

  JsonValue request = JsonValue::Object();
  request.Set("shards", ShardsArray({0}));
  request.Set("method", JsonValue::Str("TW-Sim-Search"));
  request.Set("epsilon", JsonValue::Double(0.25));
  request.Set("query", SequenceToJson(queries.front()));
  JsonValue response;
  ASSERT_TRUE(client.Call(WireType::kRange, request, &response).ok());
  EXPECT_EQ(
      response.GetInt("num_candidates", -1),
      static_cast<int64_t>(
          sharded_->shard(0).Search(queries.front(), 0.25).num_candidates));
}

TEST_F(ShardServerTest, KnnMatchesInProcessAndHonorsSeedBound) {
  auto server = StartServer({0, 1, 2});
  WireClient client = MakeClient(*server);
  const auto queries = GenerateQueryWorkload(
      sharded_->shard(0).dataset(),
      QueryWorkloadOptions{.num_queries = 3, .seed = 11});

  for (const Sequence& query : queries) {
    for (const size_t k : {1u, 3u}) {
      JsonValue request = JsonValue::Object();
      request.Set("shards", ShardsArray({0, 1, 2}));
      request.Set("k", JsonValue::Int(static_cast<int64_t>(k)));
      request.Set("query", SequenceToJson(query));
      JsonValue response;
      ASSERT_TRUE(client.Call(WireType::kKnn, request, &response).ok());

      const KnnResult expected = sharded_->SearchKnn(query, k);
      const JsonValue* neighbors = response.Find("neighbors");
      ASSERT_NE(neighbors, nullptr);
      std::vector<KnnMatch> got;
      ASSERT_TRUE(JsonToKnnMatches(*neighbors, &got).ok());
      ASSERT_EQ(got.size(), expected.neighbors.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected.neighbors[i].id);
        EXPECT_EQ(got[i].distance, expected.neighbors[i].distance)
            << "distance must cross the wire bit-identically";
      }

      // Seeding the k-th distance as the wave bound must not lose any
      // of the top-k (strictly-greater pruning keeps ties at the
      // bound).
      if (!expected.neighbors.empty()) {
        JsonValue bounded = JsonValue::Object();
        bounded.Set("shards", ShardsArray({0, 1, 2}));
        bounded.Set("k", JsonValue::Int(static_cast<int64_t>(k)));
        bounded.Set("query", SequenceToJson(query));
        bounded.Set("bound",
                    JsonValue::Double(expected.neighbors.back().distance));
        JsonValue bounded_response;
        ASSERT_TRUE(
            client.Call(WireType::kKnn, bounded, &bounded_response).ok());
        std::vector<KnnMatch> bounded_got;
        ASSERT_TRUE(JsonToKnnMatches(*bounded_response.Find("neighbors"),
                                     &bounded_got)
                        .ok());
        ASSERT_EQ(bounded_got.size(), expected.neighbors.size());
        for (size_t i = 0; i < bounded_got.size(); ++i) {
          EXPECT_EQ(bounded_got[i].id, expected.neighbors[i].id);
          EXPECT_EQ(bounded_got[i].distance, expected.neighbors[i].distance);
        }
      }
    }
  }
}

TEST_F(ShardServerTest, MalformedRequestsAreTypedErrors) {
  auto server = StartServer({0, 2});
  WireClient client = MakeClient(*server);
  JsonValue response;

  {  // unserved shard
    JsonValue request = JsonValue::Object();
    request.Set("shards", ShardsArray({1}));
    request.Set("method", JsonValue::Str("TW-Sim-Search"));
    request.Set("epsilon", JsonValue::Double(0.1));
    request.Set("query", SequenceToJson(sharded_->shard(0).dataset()[0]));
    EXPECT_EQ(client.Call(WireType::kRange, request, &response).code(),
              StatusCode::kInvalidArgument);
  }
  {  // unknown method
    JsonValue request = JsonValue::Object();
    request.Set("shards", ShardsArray({0}));
    request.Set("method", JsonValue::Str("bogus"));
    request.Set("epsilon", JsonValue::Double(0.1));
    request.Set("query", SequenceToJson(sharded_->shard(0).dataset()[0]));
    EXPECT_EQ(client.Call(WireType::kRange, request, &response).code(),
              StatusCode::kInvalidArgument);
  }
  {  // ST-Filter on a server started without the suffix tree: a typed
     // error, never a crash.
    JsonValue request = JsonValue::Object();
    request.Set("shards", ShardsArray({0}));
    request.Set("method", JsonValue::Str("ST-Filter"));
    request.Set("epsilon", JsonValue::Double(0.1));
    request.Set("query", SequenceToJson(sharded_->shard(0).dataset()[0]));
    EXPECT_EQ(client.Call(WireType::kRange, request, &response).code(),
              StatusCode::kInvalidArgument);
  }
  {  // negative epsilon
    JsonValue request = JsonValue::Object();
    request.Set("shards", ShardsArray({0}));
    request.Set("method", JsonValue::Str("TW-Sim-Search"));
    request.Set("epsilon", JsonValue::Double(-1.0));
    request.Set("query", SequenceToJson(sharded_->shard(0).dataset()[0]));
    EXPECT_EQ(client.Call(WireType::kRange, request, &response).code(),
              StatusCode::kInvalidArgument);
  }
  {  // missing query
    JsonValue request = JsonValue::Object();
    request.Set("shards", ShardsArray({0}));
    request.Set("k", JsonValue::Int(1));
    EXPECT_EQ(client.Call(WireType::kKnn, request, &response).code(),
              StatusCode::kInvalidArgument);
  }
  {  // k = 0
    JsonValue request = JsonValue::Object();
    request.Set("shards", ShardsArray({0}));
    request.Set("k", JsonValue::Int(0));
    request.Set("query", SequenceToJson(sharded_->shard(0).dataset()[0]));
    EXPECT_EQ(client.Call(WireType::kKnn, request, &response).code(),
              StatusCode::kInvalidArgument);
  }
  // A KNN bound present but not a number >= 0: a negative one would prune
  // every neighbor (an OK reply with none), a string would be ignored.
  for (const JsonValue& bad_bound :
       {JsonValue::Double(-1.0), JsonValue::Str("x"), JsonValue::Null()}) {
    JsonValue request = JsonValue::Object();
    request.Set("shards", ShardsArray({0}));
    request.Set("k", JsonValue::Int(1));
    request.Set("query", SequenceToJson(sharded_->shard(0).dataset()[0]));
    request.Set("bound", bad_bound);
    EXPECT_EQ(client.Call(WireType::kKnn, request, &response).code(),
              StatusCode::kInvalidArgument)
        << bad_bound.Render();
  }
  {  // a shard listed twice would be searched (and answered) twice
    JsonValue request = JsonValue::Object();
    request.Set("shards", ShardsArray({0, 2, 0}));
    request.Set("k", JsonValue::Int(1));
    request.Set("query", SequenceToJson(sharded_->shard(0).dataset()[0]));
    EXPECT_EQ(client.Call(WireType::kKnn, request, &response).code(),
              StatusCode::kInvalidArgument);
  }
}

// A body holding a number beyond the double range (1e999, which a
// lenient decoder reads as +inf) is refused at decode time with a typed
// error: no query with an infinite element or tolerance reaches a shard.
// The raw frames bypass JsonValue rendering, which never writes one.
TEST_F(ShardServerTest, OutOfRangeNumbersInBodiesAreTypedErrors) {
  auto server = StartServer({0, 2});
  int fd = -1;
  ASSERT_TRUE(TcpConnect("127.0.0.1", server->port(), 5000, &fd).ok());
  SetSocketIoTimeout(fd, 5000);
  const WireFrame requests[] = {
      {WireType::kRange, 1,
       R"({"shards":[0],"method":"TW-Sim-Search","epsilon":0.5,)"
       R"("query":[1e999,1,2]})"},
      {WireType::kRange, 2,
       R"({"shards":[0],"method":"TW-Sim-Search","epsilon":1e999,)"
       R"("query":[1,2,3]})"},
      {WireType::kKnn, 3, R"({"shards":[0],"k":1,"query":[1,-1e999,2]})"},
  };
  for (const WireFrame& request : requests) {
    ASSERT_TRUE(WriteFrame(fd, request).ok());
    WireFrame reply;
    ASSERT_TRUE(ReadFrame(fd, &reply).ok()) << request.body;
    EXPECT_EQ(reply.request_id, request.request_id);
    ASSERT_EQ(reply.type, WireType::kError) << request.body;
    EXPECT_EQ(ErrorBodyToStatus(reply.body).code(),
              StatusCode::kInvalidArgument)
        << request.body;
  }
  CloseSocket(fd);
  // The server keeps answering well-formed queries.
  WireClient client = MakeClient(*server);
  JsonValue request = JsonValue::Object();
  request.Set("shards", ShardsArray({0}));
  request.Set("k", JsonValue::Int(1));
  request.Set("query", SequenceToJson(sharded_->shard(0).dataset()[0]));
  JsonValue response;
  EXPECT_TRUE(client.Call(WireType::kKnn, request, &response).ok());
}

TEST_F(ShardServerTest, NonIntegerShardIdsAndKAreTypedErrors) {
  // The server holds shard 0, so an entry that a lenient decode read as 0
  // (a string, a fraction, a bool, a double beyond int64, an id beyond
  // uint32 that wraps) would be silently answered for shard 0.
  auto server = StartServer({0, 2});
  WireClient client = MakeClient(*server);
  const Sequence query = sharded_->shard(0).dataset()[0];
  const JsonValue bad_ids[] = {
      JsonValue::Str("0"), JsonValue::Double(0.9), JsonValue::Bool(true),
      JsonValue::Double(1e300), JsonValue::Int(int64_t{1} << 32)};
  for (const JsonValue& bad : bad_ids) {
    JsonValue shards = JsonValue::Array();
    shards.Add(bad);
    JsonValue range = JsonValue::Object();
    range.Set("shards", shards);
    range.Set("method", JsonValue::Str("TW-Sim-Search"));
    range.Set("epsilon", JsonValue::Double(0.1));
    range.Set("query", SequenceToJson(query));
    JsonValue response;
    EXPECT_EQ(client.Call(WireType::kRange, range, &response).code(),
              StatusCode::kInvalidArgument)
        << bad.Render();
    JsonValue knn = JsonValue::Object();
    knn.Set("shards", std::move(shards));
    knn.Set("k", JsonValue::Int(1));
    knn.Set("query", SequenceToJson(query));
    EXPECT_EQ(client.Call(WireType::kKnn, knn, &response).code(),
              StatusCode::kInvalidArgument)
        << bad.Render();
  }
  for (const JsonValue& bad_k :
       {JsonValue::Double(2.5), JsonValue::Str("2"), JsonValue::Null()}) {
    JsonValue knn = JsonValue::Object();
    knn.Set("shards", ShardsArray({0}));
    knn.Set("k", bad_k);
    knn.Set("query", SequenceToJson(query));
    JsonValue response;
    EXPECT_EQ(client.Call(WireType::kKnn, knn, &response).code(),
              StatusCode::kInvalidArgument)
        << bad_k.Render();
  }
}

// ---- Strict decoding of the cost and span objects a shard server ships
// back. Each class of bad field is a typed error and leaves *out as it
// was: a lenient reader would take a non-integer count as 0, wrap a
// negative one to 2^64 - n, and wrap an out-of-range shard or tid.

SearchCost SampleCost() {
  SearchCost cost;
  cost.io.seeks = 3;
  cost.dtw_cells = 400;
  cost.dtw_evals = 4;
  cost.wall_ms = 1.25;
  cost.stages.Add("rtree_search", 0.5);
  cost.prunes.Record("lb_keogh", 10, 6);
  return cost;
}

// Decodes `json` into a cost pre-set to a sentinel and checks the
// sentinel survived the (expected) failure.
void ExpectCostRejected(const JsonValue& json) {
  SearchCost out;
  out.dtw_evals = 77;
  EXPECT_EQ(JsonToCost(json, &out).code(), StatusCode::kInvalidArgument)
      << json.Render();
  EXPECT_EQ(out.dtw_evals, 77u) << json.Render();
}

TEST(WireDecodeTest, CostRoundTripsExactly) {
  const SearchCost cost = SampleCost();
  SearchCost out;
  ASSERT_TRUE(JsonToCost(CostToJson(cost), &out).ok());
  EXPECT_EQ(out.io.seeks, 3u);
  EXPECT_EQ(out.dtw_cells, 400u);
  EXPECT_EQ(out.wall_ms, 1.25);
  EXPECT_EQ(CostToJson(out).Render(), CostToJson(cost).Render());
}

TEST(WireDecodeTest, CostCountsMustBeNonNegativeIntegers) {
  for (const JsonValue& bad :
       {JsonValue::Str("x"), JsonValue::Int(-5), JsonValue::Double(1.5),
        JsonValue::Bool(true), JsonValue::Null()}) {
    JsonValue json = CostToJson(SampleCost());
    json.Set("dtw_cells", bad);
    ExpectCostRejected(json);
    JsonValue io = *json.Find("io");
    io.Set("seeks", bad);
    json = CostToJson(SampleCost());
    json.Set("io", io);
    ExpectCostRejected(json);
  }
}

TEST(WireDecodeTest, CostMillisecondsMustBeNumbers) {
  for (const JsonValue& bad :
       {JsonValue::Str("1.5"), JsonValue::Null(), JsonValue::Object()}) {
    JsonValue json = CostToJson(SampleCost());
    json.Set("wall_ms", bad);
    ExpectCostRejected(json);
    json = CostToJson(SampleCost());
    JsonValue stages = JsonValue::Object();
    stages.Set("rtree_search", bad);
    json.Set("stages_cpu", stages);
    ExpectCostRejected(json);
  }
}

TEST(WireDecodeTest, CostPruneElementsMustBeNonNegativeIntegers) {
  for (const JsonValue& bad :
       {JsonValue::Int(-1), JsonValue::Double(2.0), JsonValue::Str("3")}) {
    JsonValue pair = JsonValue::Array();
    pair.Add(JsonValue::Int(10));
    pair.Add(bad);
    JsonValue prunes = JsonValue::Object();
    prunes.Set("lb_keogh", pair);
    JsonValue json = CostToJson(SampleCost());
    json.Set("prunes", prunes);
    ExpectCostRejected(json);
  }
}

TEST(WireDecodeTest, SpanShardAndTidMustFitTheirTypes) {
  Trace trace;
  trace.EndSpan(trace.BeginSpan("query"));
  trace.SetThreadTag(2, 5);
  trace.EndSpan(trace.BeginSpan("shard"));
  const JsonValue good = SpansToJson(trace.spans());
  // Untagged spans omit shard/tid; both decode back to the tags.
  EXPECT_EQ(good.at(0).Find("shard"), nullptr);
  std::vector<TraceSpan> spans;
  ASSERT_TRUE(JsonToSpans(good, &spans).ok());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].shard, -1);
  EXPECT_EQ(spans[0].tid, 0u);
  EXPECT_EQ(spans[1].shard, 2);
  EXPECT_EQ(spans[1].tid, 5u);
  EXPECT_EQ(SpansToJson(spans).Render(), good.Render());

  const struct {
    const char* key;
    JsonValue value;
  } bad_fields[] = {
      {"shard", JsonValue::Int(-2)},
      {"shard", JsonValue::Int(int64_t{1} << 31)},
      {"shard", JsonValue::Str("1")},
      {"tid", JsonValue::Int(-1)},
      {"tid", JsonValue::Int(int64_t{1} << 32)},
      {"tid", JsonValue::Double(1.0)},
      {"start_ms", JsonValue::Str("0")},
  };
  for (const auto& field : bad_fields) {
    JsonValue json = JsonValue::Array();
    json.Add(good.at(0));
    JsonValue span = good.at(1);
    span.Set(field.key, field.value);
    json.Add(span);
    std::vector<TraceSpan> out(1);
    out[0].name = "sentinel";
    EXPECT_EQ(JsonToSpans(json, &out).code(), StatusCode::kInvalidArgument)
        << json.Render();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].name, "sentinel");
  }
  // The extremes of each type decode.
  JsonValue edge = JsonValue::Array();
  JsonValue span = good.at(1);
  span.Set("parent", JsonValue::Int(-1));
  span.Set("shard", JsonValue::Int(std::numeric_limits<int32_t>::max()));
  span.Set("tid", JsonValue::Int(std::numeric_limits<uint32_t>::max()));
  edge.Add(span);
  ASSERT_TRUE(JsonToSpans(edge, &spans).ok());
  EXPECT_EQ(spans[0].shard, std::numeric_limits<int32_t>::max());
  EXPECT_EQ(spans[0].tid, std::numeric_limits<uint32_t>::max());
}

// ---- The router's decoders of whole RANGE / KNN response bodies: the
// cost and the count are part of the answer, so a body whose cost fails
// JsonToCost, or whose count is a string, negative or missing, is
// Internal (a failed sub-request) and leaves *out as it was, never a
// merge of a zero cost or a wrapped count.

// `object` without member `key`.
JsonValue Without(const JsonValue& object, const std::string& key) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, value] : object.members()) {
    if (name != key) out.Set(name, value);
  }
  return out;
}

JsonValue RangeBody() {
  JsonValue body = JsonValue::Object();
  JsonValue matches = JsonValue::Array();
  matches.Add(JsonValue::Int(4));
  matches.Add(JsonValue::Int(9));
  JsonValue distances = JsonValue::Array();
  distances.Add(JsonValue::Double(0.5));
  distances.Add(JsonValue::Double(0.75));
  body.Set("matches", std::move(matches));
  body.Set("distances", std::move(distances));
  body.Set("num_candidates", JsonValue::Int(3));
  body.Set("cost", CostToJson(SampleCost()));
  return body;
}

JsonValue KnnBody() {
  JsonValue body = JsonValue::Object();
  body.Set("neighbors", KnnMatchesToJson({{4, 0.5}, {9, 0.75}}));
  body.Set("num_refined", JsonValue::Int(2));
  body.Set("cost", CostToJson(SampleCost()));
  return body;
}

// Decodes a RANGE and a KNN body into sentinels; both must fail with
// Internal and leave the sentinels as they were.
void ExpectResponsesRejected(const JsonValue& range, const JsonValue& knn) {
  SearchResult range_out;
  range_out.num_candidates = 77;
  EXPECT_EQ(DecodeRangeResponse(range, &range_out).code(),
            StatusCode::kInternal)
      << range.Render();
  EXPECT_EQ(range_out.num_candidates, 77u);
  EXPECT_TRUE(range_out.matches.empty());
  KnnResult knn_out;
  knn_out.num_refined = 77;
  EXPECT_EQ(DecodeKnnResponse(knn, &knn_out).code(), StatusCode::kInternal)
      << knn.Render();
  EXPECT_EQ(knn_out.num_refined, 77u);
  EXPECT_TRUE(knn_out.neighbors.empty());
}

TEST(WireDecodeTest, ResponseBodiesDecode) {
  SearchResult range;
  ASSERT_TRUE(DecodeRangeResponse(RangeBody(), &range).ok());
  EXPECT_EQ(range.matches, (std::vector<SequenceId>{4, 9}));
  EXPECT_EQ(range.distances, (std::vector<double>{0.5, 0.75}));
  EXPECT_EQ(range.num_candidates, 3u);
  EXPECT_EQ(CostToJson(range.cost).Render(),
            CostToJson(SampleCost()).Render());
  KnnResult knn;
  ASSERT_TRUE(DecodeKnnResponse(KnnBody(), &knn).ok());
  EXPECT_EQ(knn.neighbors, (std::vector<KnnMatch>{{4, 0.5}, {9, 0.75}}));
  EXPECT_EQ(knn.num_refined, 2u);
  EXPECT_EQ(knn.cost.dtw_evals, SampleCost().dtw_evals);
}

TEST(WireDecodeTest, ResponseCostThatFailsValidationIsInternal) {
  JsonValue cost = CostToJson(SampleCost());
  cost.Set("dtw_evals", JsonValue::Str("4"));
  JsonValue range = RangeBody();
  range.Set("cost", cost);
  JsonValue knn = KnnBody();
  knn.Set("cost", cost);
  ExpectResponsesRejected(range, knn);
  // A missing cost too: a server always sends one.
  ExpectResponsesRejected(Without(RangeBody(), "cost"),
                          Without(KnnBody(), "cost"));
}

TEST(WireDecodeTest, ResponseStringCountIsInternal) {
  JsonValue range = RangeBody();
  range.Set("num_candidates", JsonValue::Str("3"));
  JsonValue knn = KnnBody();
  knn.Set("num_refined", JsonValue::Str("2"));
  ExpectResponsesRejected(range, knn);
}

TEST(WireDecodeTest, ResponseNegativeCountIsInternal) {
  JsonValue range = RangeBody();
  range.Set("num_candidates", JsonValue::Int(-3));
  JsonValue knn = KnnBody();
  knn.Set("num_refined", JsonValue::Int(-2));
  ExpectResponsesRejected(range, knn);
}

TEST(WireDecodeTest, ResponseMissingCountIsInternal) {
  ExpectResponsesRejected(Without(RangeBody(), "num_candidates"),
                          Without(KnnBody(), "num_refined"));
}

TEST_F(ShardServerTest, TracedRangeShipsSpans) {
  auto server = StartServer({0, 1, 2});
  WireClient client = MakeClient(*server);
  JsonValue request = JsonValue::Object();
  request.Set("shards", ShardsArray({0, 1, 2}));
  request.Set("method", JsonValue::Str("TW-Sim-Search"));
  request.Set("epsilon", JsonValue::Double(0.2));
  request.Set("query", SequenceToJson(sharded_->shard(0).dataset()[0]));
  request.Set("trace", JsonValue::Bool(true));
  JsonValue response;
  ASSERT_TRUE(client.Call(WireType::kRange, request, &response).ok());
  const JsonValue* spans_json = response.Find("spans");
  ASSERT_NE(spans_json, nullptr);
  std::vector<TraceSpan> spans;
  ASSERT_TRUE(JsonToSpans(*spans_json, &spans).ok());
  // One "shard" span per requested shard, each carrying its index.
  size_t shard_spans = 0;
  for (const TraceSpan& span : spans) {
    if (span.name == "shard") ++shard_spans;
  }
  EXPECT_EQ(shard_spans, kNumShards);
}

TEST_F(ShardServerTest, ServedAccessorAndDrain) {
  auto server = StartServer({0, 2});
  EXPECT_EQ(server->group(), 1);
  EXPECT_EQ(server->replica(), 2);
  EXPECT_EQ(server->manifest_num_shards(), kNumShards);
  EXPECT_EQ(server->partitioner(), PartitionerKind::kRange);
  const auto served = server->served();
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0].shard, 0u);
  EXPECT_EQ(served[1].shard, 2u);
  EXPECT_EQ(served[0].sequences, sharded_->shard(0).dataset().size());
  EXPECT_EQ(served[0].live, sharded_->shard(0).live_size());

  WireClient client = MakeClient(*server);
  JsonValue response;
  ASSERT_TRUE(
      client.Call(WireType::kHealth, JsonValue::Object(), &response).ok());

  server->RequestDrain();
  EXPECT_TRUE(server->draining());
  JsonValue request = JsonValue::Object();
  request.Set("shards", ShardsArray({0}));
  request.Set("method", JsonValue::Str("TW-Sim-Search"));
  request.Set("epsilon", JsonValue::Double(0.1));
  request.Set("query", SequenceToJson(sharded_->shard(0).dataset()[0]));
  EXPECT_EQ(client.Call(WireType::kRange, request, &response).code(),
            StatusCode::kUnavailable);
  server->WaitIdle();
  server->Stop();
}

}  // namespace
}  // namespace warpindex
