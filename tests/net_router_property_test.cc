// The serving-plane acceptance property: a Router scatter-gathering
// over real shard-server processes (in-process here: same classes the
// `warpindex_cli shard-serve` / `route` processes run) answers BIT-
// identically to the in-process ShardedEngine over the same saved
// database — for every shard count, both partitioners, every search
// method, and kNN at every wave size. Robustness riders: a killed
// replica, a draining replica, and a stalled replica (forcing a hedged
// backup request) must not change a single bit of any answer.

#include "net/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "obs/flight_recorder.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "sequence/query_workload.h"
#include "sequence/random_walk_generator.h"
#include "shard/sharded_engine.h"

namespace warpindex {
namespace {

Dataset WalkDataset(uint64_t seed) {
  RandomWalkOptions options;
  options.num_sequences = 70;
  options.min_length = 20;
  options.max_length = 44;
  options.seed = seed;
  return GenerateRandomWalkDataset(options);
}

const MethodKind kAllMethods[] = {
    MethodKind::kTwSimSearch, MethodKind::kNaiveScan, MethodKind::kLbScan,
    MethodKind::kStFilter, MethodKind::kTwSimSearchCascade};

// One saved database plus the shard-server fleet and router over it.
// `group_shards[g]` lists the manifest shards group g serves;
// `replicas` servers are started per group (same subset).
class Cluster {
 public:
  Status Build(const std::string& dir, uint64_t seed, size_t num_shards,
               PartitionerKind partitioner,
               std::vector<std::vector<uint32_t>> group_shards,
               int replicas, RouterOptions router_options) {
    dir_ = dir;
    std::filesystem::remove_all(dir_);
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.partitioner = partitioner;
    // kStFilter is part of the method sweep; both sides need the index.
    options.engine.build_st_filter = true;
    {
      const ShardedEngine built(WalkDataset(seed), options);
      WARPINDEX_RETURN_IF_ERROR(built.Save(dir_));
    }
    WARPINDEX_RETURN_IF_ERROR(
        ShardedEngine::Open(dir_, options, &expected_));

    router_options.groups.clear();
    for (size_t g = 0; g < group_shards.size(); ++g) {
      std::vector<RouterEndpoint> endpoints;
      for (int r = 0; r < replicas; ++r) {
        ShardServerOptions server_options;
        server_options.db_dir = dir_;
        server_options.serve_shards = group_shards[g];
        server_options.group = static_cast<int>(g);
        server_options.replica = r;
        server_options.engine.build_st_filter = true;
        server_options.server.io_timeout_ms = 50;
        std::unique_ptr<ShardServer> server;
        WARPINDEX_RETURN_IF_ERROR(
            ShardServer::Create(std::move(server_options), &server));
        WARPINDEX_RETURN_IF_ERROR(server->Start());
        endpoints.push_back(RouterEndpoint{"127.0.0.1", server->port()});
        servers_.push_back(std::move(server));
      }
      router_options.groups.push_back(std::move(endpoints));
    }
    return Router::Create(std::move(router_options), &router_);
  }

  ~Cluster() {
    router_.reset();  // drop pooled connections before the servers
    for (auto& server : servers_) {
      if (server != nullptr) server->Stop();
    }
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  const ShardedEngine& expected() const { return *expected_; }
  Router& router() { return *router_; }
  // Server index: group * replicas + replica (Build's start order).
  ShardServer& server(size_t index) { return *servers_[index]; }

 private:
  std::string dir_;
  std::unique_ptr<ShardedEngine> expected_;
  std::vector<std::unique_ptr<ShardServer>> servers_;
  std::unique_ptr<Router> router_;
};

// Hedging off for the determinism-sensitive property runs; the hedge
// path has its own test below (exactness holds either way, but the
// property loop should not depend on timing).
RouterOptions QuietOptions() {
  RouterOptions options;
  options.enable_hedging = false;
  options.connect_timeout_ms = 2000;
  options.call_timeout_ms = 20000;
  return options;
}

std::vector<std::vector<uint32_t>> OneShardPerGroup(size_t num_shards) {
  std::vector<std::vector<uint32_t>> groups;
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    groups.push_back({shard});
  }
  return groups;
}

void ExpectRangeBitIdentical(const ShardedEngine& expected, Router& router,
                             const std::vector<Sequence>& queries,
                             const std::string& label) {
  for (const Sequence& query : queries) {
    for (const double epsilon : {0.1, 0.35}) {
      for (const MethodKind kind : kAllMethods) {
        const SearchResult want =
            expected.SearchWith(kind, query, epsilon);
        SearchResult got;
        const Status status =
            router.RouteRange(kind, query, epsilon, nullptr, &got);
        ASSERT_TRUE(status.ok())
            << label << " method=" << MethodKindName(kind) << ": "
            << status.ToString();
        EXPECT_EQ(got.matches, want.matches)
            << label << " method=" << MethodKindName(kind)
            << " eps=" << epsilon;
        EXPECT_EQ(got.num_candidates, want.num_candidates)
            << label << " method=" << MethodKindName(kind)
            << " eps=" << epsilon;
        // Work counters are sums over the same per-shard engines, so
        // they survive the extra merge level unchanged.
        EXPECT_EQ(got.cost.dtw_evals, want.cost.dtw_evals) << label;
        EXPECT_EQ(got.cost.lb_evals, want.cost.lb_evals) << label;
      }
    }
  }
}

void ExpectKnnBitIdentical(const ShardedEngine& expected, Router& router,
                           const std::vector<Sequence>& queries,
                           const std::string& label) {
  for (const Sequence& query : queries) {
    for (const size_t k : {1u, 2u, 5u}) {
      const KnnResult want = expected.SearchKnn(query, k);
      KnnResult got;
      const Status status = router.RouteKnn(query, k, nullptr, &got);
      ASSERT_TRUE(status.ok()) << label << ": " << status.ToString();
      ASSERT_EQ(got.neighbors.size(), want.neighbors.size())
          << label << " k=" << k;
      for (size_t i = 0; i < got.neighbors.size(); ++i) {
        EXPECT_EQ(got.neighbors[i].id, want.neighbors[i].id)
            << label << " k=" << k << " i=" << i;
        EXPECT_EQ(got.neighbors[i].distance, want.neighbors[i].distance)
            << label << " k=" << k << " i=" << i
            << " (distances must cross the wire bit-identically)";
      }
    }
  }
}

class RouterPropertyTest
    : public ::testing::TestWithParam<PartitionerKind> {
 protected:
  std::string TempName(const std::string& tag) const {
    return testing::TempDir() + "/router_prop_" + tag + "_" +
           PartitionerKindName(GetParam());
  }
};

TEST_P(RouterPropertyTest, EveryMethodMatchesShardedEngineForEveryK) {
  for (const size_t num_shards : {1u, 2u, 4u}) {
    // Appended rather than "k" + std::to_string(...): gcc 12 at -O3
    // reports a false -Wrestrict overlap inside the prepend's memcpy.
    std::string tag = "k";
    tag += std::to_string(num_shards);
    Cluster cluster;
    ASSERT_TRUE(cluster
                    .Build(TempName(tag),
                           /*seed=*/29 + num_shards, num_shards,
                           GetParam(), OneShardPerGroup(num_shards),
                           /*replicas=*/1, QuietOptions())
                    .ok());
    const auto queries = GenerateQueryWorkload(
        cluster.expected().shard(0).dataset(),
        QueryWorkloadOptions{.num_queries = 4, .seed = 31});
    ExpectRangeBitIdentical(cluster.expected(), cluster.router(), queries,
                            "K=" + std::to_string(num_shards));
    ExpectKnnBitIdentical(cluster.expected(), cluster.router(), queries,
                          "K=" + std::to_string(num_shards));

    const Router::Stats stats = cluster.router().stats();
    EXPECT_EQ(stats.num_shards, num_shards);
    EXPECT_GT(stats.queries, 0u);
    EXPECT_EQ(stats.failed_subrequests, 0u);
  }
}

TEST_P(RouterPropertyTest, MultiShardGroupsMergeIdentically) {
  // K=4 shards packed into 2 groups: the per-group pre-merge on the
  // shard server must not change the final merged answer.
  Cluster cluster;
  ASSERT_TRUE(cluster
                  .Build(TempName("grouped"), /*seed=*/47,
                         /*num_shards=*/4, GetParam(),
                         {{0u, 1u}, {2u, 3u}}, /*replicas=*/1,
                         QuietOptions())
                  .ok());
  const auto queries = GenerateQueryWorkload(
      cluster.expected().shard(0).dataset(),
      QueryWorkloadOptions{.num_queries = 4, .seed = 48});
  ExpectRangeBitIdentical(cluster.expected(), cluster.router(), queries,
                          "grouped");
  ExpectKnnBitIdentical(cluster.expected(), cluster.router(), queries,
                        "grouped");
  EXPECT_EQ(cluster.router().num_groups(), 2u);
  EXPECT_EQ(cluster.router().num_shards(), 4u);
}

TEST_P(RouterPropertyTest, KnnWaveSizesAllProduceTheSameAnswer) {
  // Smaller waves tighten the wave bound earlier but may only PRUNE
  // harder, never change the merged top-k.
  for (const size_t wave : {0u, 1u, 2u}) {
    RouterOptions options = QuietOptions();
    options.knn_wave_size = wave;
    Cluster cluster;
    ASSERT_TRUE(cluster
                    .Build(TempName("wave" + std::to_string(wave)),
                           /*seed=*/53, /*num_shards=*/4, GetParam(),
                           OneShardPerGroup(4), /*replicas=*/1,
                           std::move(options))
                    .ok());
    const auto queries = GenerateQueryWorkload(
        cluster.expected().shard(0).dataset(),
        QueryWorkloadOptions{.num_queries = 3, .seed = 54});
    ExpectKnnBitIdentical(cluster.expected(), cluster.router(), queries,
                          "wave=" + std::to_string(wave));
  }
}

TEST_P(RouterPropertyTest, KilledReplicaFailsOverWithExactAnswers) {
  Cluster cluster;
  ASSERT_TRUE(cluster
                  .Build(TempName("killed"), /*seed=*/61,
                         /*num_shards=*/2, GetParam(),
                         OneShardPerGroup(2), /*replicas=*/2,
                         QuietOptions())
                  .ok());
  // Hard-kill group 0's primary replica (server order: g0r0 g0r1 g1r0
  // g1r1). Connection refused is UNAVAILABLE: the router moves to the
  // next replica without backoff, and every answer stays exact.
  cluster.server(0).Stop();

  const auto queries = GenerateQueryWorkload(
      cluster.expected().shard(0).dataset(),
      QueryWorkloadOptions{.num_queries = 3, .seed = 62});
  ExpectRangeBitIdentical(cluster.expected(), cluster.router(), queries,
                          "killed-replica");
  ExpectKnnBitIdentical(cluster.expected(), cluster.router(), queries,
                        "killed-replica");
  EXPECT_GT(cluster.router().stats().retries, 0u);
  EXPECT_EQ(cluster.router().stats().failed_subrequests, 0u);
}

TEST_P(RouterPropertyTest, DrainingReplicaFailsOverWithExactAnswers) {
  Cluster cluster;
  ASSERT_TRUE(cluster
                  .Build(TempName("drained"), /*seed=*/67,
                         /*num_shards=*/2, GetParam(),
                         OneShardPerGroup(2), /*replicas=*/2,
                         QuietOptions())
                  .ok());
  // Graceful SIGTERM path: the replica answers UNAVAILABLE "draining"
  // on pooled connections — the router's signal to fail over now.
  cluster.server(0).RequestDrain();

  const auto queries = GenerateQueryWorkload(
      cluster.expected().shard(0).dataset(),
      QueryWorkloadOptions{.num_queries = 3, .seed = 68});
  ExpectRangeBitIdentical(cluster.expected(), cluster.router(), queries,
                          "draining-replica");
  cluster.server(0).WaitIdle();
  EXPECT_EQ(cluster.router().stats().failed_subrequests, 0u);
}

TEST_P(RouterPropertyTest, AllReplicasDeadIsAnErrorNotAPartialAnswer) {
  Cluster cluster;
  ASSERT_TRUE(cluster
                  .Build(TempName("dead"), /*seed=*/71,
                         /*num_shards=*/2, GetParam(),
                         OneShardPerGroup(2), /*replicas=*/1,
                         QuietOptions())
                  .ok());
  cluster.server(0).Stop();  // group 0 has no surviving replica

  const auto queries = GenerateQueryWorkload(
      cluster.expected().shard(0).dataset(),
      QueryWorkloadOptions{.num_queries = 1, .seed = 72});
  SearchResult out;
  const Status status = cluster.router().RouteRange(
      MethodKind::kTwSimSearch, queries.front(), /*epsilon=*/10.0,
      nullptr, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(out.matches.empty()) << "no partial answers";
  EXPECT_GT(cluster.router().stats().failed_subrequests, 0u);
}

// A wire proxy in front of one shard server that forwards every request
// and rewrites the RANGE or KNN response bodies with `tamper`, so a
// router behind it sees a well-framed but malformed group response.
class TamperingProxy {
 public:
  using Tamper = std::function<void(WireType, JsonValue*)>;

  Status Start(uint16_t upstream_port, Tamper tamper) {
    WireClientOptions client_options;
    client_options.port = upstream_port;
    client_options.timeout_ms = 20000;
    client_ = std::make_unique<WireClient>(client_options);
    WARPINDEX_RETURN_IF_ERROR(client_->Connect(&hello_));
    WireServerOptions server_options;
    server_options.io_timeout_ms = 50;
    server_ = std::make_unique<WireServer>(server_options);
    server_->Handle(WireType::kHello,
                    [this](const std::string&, const JsonValue&,
                           JsonValue* response) {
                      *response = hello_;
                      return Status::Ok();
                    });
    for (const WireType type : {WireType::kRange, WireType::kKnn}) {
      server_->Handle(type, [this, type, tamper](const std::string&,
                                                 const JsonValue& request,
                                                 JsonValue* response) {
        std::lock_guard<std::mutex> lock(mu_);
        WARPINDEX_RETURN_IF_ERROR(client_->Call(type, request, response));
        tamper(type, response);
        return Status::Ok();
      });
    }
    return server_->Start();
  }

  ~TamperingProxy() {
    if (server_ != nullptr) server_->Stop();
  }

  uint16_t port() const { return server_->port(); }

 private:
  JsonValue hello_;
  std::mutex mu_;  // one upstream connection, shared by the handlers
  std::unique_ptr<WireClient> client_;
  std::unique_ptr<WireServer> server_;
};

// `object` without member `key`.
JsonValue Without(const JsonValue& object, const std::string& key) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, value] : object.members()) {
    if (name != key) out.Set(name, value);
  }
  return out;
}

// Each decode-failure class of a group response: the query fails with a
// typed error (Internal, as for a body that does not parse), counts a
// failed sub-request, and returns no partial answer. The untampered
// kind still answers exactly through the same proxies.
TEST_P(RouterPropertyTest, MalformedGroupResponseIsAFailedSubrequest) {
  Cluster cluster;
  ASSERT_TRUE(cluster
                  .Build(TempName("malformed"), /*seed=*/91,
                         /*num_shards=*/2, GetParam(),
                         OneShardPerGroup(2), /*replicas=*/1,
                         QuietOptions())
                  .ok());
  struct Case {
    const char* name;
    WireType type;
    std::function<void(JsonValue*)> tamper;
  };
  const Case cases[] = {
      {"kNN neighbors missing", WireType::kKnn,
       [](JsonValue* r) { *r = Without(*r, "neighbors"); }},
      {"kNN neighbors not an array", WireType::kKnn,
       [](JsonValue* r) { r->Set("neighbors", JsonValue::Str("none")); }},
      {"kNN neighbor id not an integer", WireType::kKnn,
       [](JsonValue* r) {
         JsonValue neighbor = JsonValue::Object();
         neighbor.Set("id", JsonValue::Double(1.5));
         neighbor.Set("distance", JsonValue::Double(0.25));
         JsonValue neighbors = JsonValue::Array();
         neighbors.Add(std::move(neighbor));
         r->Set("neighbors", std::move(neighbors));
       }},
      {"range matches missing", WireType::kRange,
       [](JsonValue* r) { *r = Without(*r, "matches"); }},
      {"range match id not an integer", WireType::kRange,
       [](JsonValue* r) {
         JsonValue matches = JsonValue::Array();
         matches.Add(JsonValue::Str("7"));
         JsonValue distances = JsonValue::Array();
         distances.Add(JsonValue::Double(0.0));
         r->Set("matches", std::move(matches));
         r->Set("distances", std::move(distances));
       }},
      {"range distances miscounted", WireType::kRange,
       [](JsonValue* r) {
         JsonValue distances = *r->Find("distances");
         distances.Add(JsonValue::Double(0.0));
         r->Set("distances", std::move(distances));
       }},
      {"range cost fails validation", WireType::kRange,
       [](JsonValue* r) {
         JsonValue cost = *r->Find("cost");
         cost.Set("dtw_evals", JsonValue::Int(-1));
         r->Set("cost", std::move(cost));
       }},
      {"range num_candidates a string", WireType::kRange,
       [](JsonValue* r) { r->Set("num_candidates", JsonValue::Str("3")); }},
      {"kNN cost missing", WireType::kKnn,
       [](JsonValue* r) { *r = Without(*r, "cost"); }},
      {"kNN num_refined negative", WireType::kKnn,
       [](JsonValue* r) { r->Set("num_refined", JsonValue::Int(-1)); }},
  };
  const Sequence query =
      GenerateQueryWorkload(cluster.expected().shard(0).dataset(),
                            QueryWorkloadOptions{.num_queries = 1, .seed = 92})
          .front();
  // Epsilon large enough that no shard is pruned and group 0 matches.
  const double epsilon = 1e9;
  for (const Case& c : cases) {
    TamperingProxy tampered;
    TamperingProxy clean;
    ASSERT_TRUE(tampered
                    .Start(cluster.server(0).port(),
                           [&c](WireType type, JsonValue* response) {
                             if (type == c.type) c.tamper(response);
                           })
                    .ok());
    ASSERT_TRUE(
        clean.Start(cluster.server(1).port(), [](WireType, JsonValue*) {})
            .ok());
    RouterOptions options = QuietOptions();
    options.groups = {{RouterEndpoint{"127.0.0.1", tampered.port()}},
                      {RouterEndpoint{"127.0.0.1", clean.port()}}};
    std::unique_ptr<Router> router;
    ASSERT_TRUE(Router::Create(std::move(options), &router).ok()) << c.name;

    SearchResult range;
    const Status range_status = router->RouteRange(
        MethodKind::kTwSimSearch, query, epsilon, nullptr, &range);
    KnnResult knn;
    const Status knn_status = router->RouteKnn(query, 5, nullptr, &knn);
    const Status& failed =
        c.type == WireType::kRange ? range_status : knn_status;
    EXPECT_EQ(failed.code(), StatusCode::kInternal)
        << c.name << ": " << failed.ToString();
    EXPECT_EQ(router->stats().failed_subrequests, 1u) << c.name;
    if (c.type == WireType::kRange) {
      EXPECT_TRUE(range.matches.empty()) << c.name << ": no partial answer";
      ASSERT_TRUE(knn_status.ok()) << c.name;
      EXPECT_EQ(knn.neighbors, cluster.expected().SearchKnn(query, 5).neighbors)
          << c.name;
    } else {
      EXPECT_TRUE(knn.neighbors.empty()) << c.name << ": no partial answer";
      ASSERT_TRUE(range_status.ok()) << c.name;
      EXPECT_EQ(range.matches,
                cluster.expected()
                    .SearchWith(MethodKind::kTwSimSearch, query, epsilon)
                    .matches)
          << c.name;
    }
  }
}

// A replica that accepts connections but never answers forces the hedge
// deterministically: the primary leg stalls past the hedge deadline, the
// backup leg answers, and the answer is still bit-identical.
TEST_P(RouterPropertyTest, StalledReplicaTriggersHedgeWithExactAnswers) {
  // Stalled fake replica: accepts and holds connections silently.
  TcpListener stalled;
  ASSERT_TRUE(stalled.Listen(TcpListenerOptions{}).ok());
  std::atomic<bool> stop{false};
  std::vector<int> held;
  std::mutex held_mu;
  std::thread acceptor([&] {
    while (!stop.load()) {
      const int fd = stalled.Accept();
      if (fd < 0) break;
      std::lock_guard<std::mutex> lock(held_mu);
      held.push_back(fd);
    }
  });

  const std::string dir = testing::TempDir() + "/router_prop_hedge_" +
                          std::string(PartitionerKindName(GetParam()));
  std::filesystem::remove_all(dir);
  ShardedEngineOptions engine_options;
  engine_options.num_shards = 1;
  engine_options.partitioner = GetParam();
  {
    const ShardedEngine built(WalkDataset(83), engine_options);
    ASSERT_TRUE(built.Save(dir).ok());
  }
  std::unique_ptr<ShardedEngine> expected;
  ASSERT_TRUE(ShardedEngine::Open(dir, engine_options, &expected).ok());

  ShardServerOptions server_options;
  server_options.db_dir = dir;
  server_options.serve_shards = {0};
  server_options.replica = 1;
  server_options.server.io_timeout_ms = 50;
  std::unique_ptr<ShardServer> real_replica;
  ASSERT_TRUE(
      ShardServer::Create(std::move(server_options), &real_replica).ok());
  ASSERT_TRUE(real_replica->Start().ok());

  FlightRecorder recorder(FlightRecorderOptions{.capacity = 64});
  RouterOptions options;
  options.enable_hedging = true;
  options.hedge_min_ms = 5;
  options.hedge_max_ms = 5;  // hedge almost immediately
  options.connect_timeout_ms = 500;
  options.call_timeout_ms = 3000;
  options.flight_recorder = &recorder;
  // Replica 0 stalls; replica 1 is real. The handshake succeeds off the
  // real replica, and every query's primary leg stalls into a hedge.
  options.groups = {{RouterEndpoint{"127.0.0.1", stalled.port()},
                     RouterEndpoint{"127.0.0.1", real_replica->port()}}};
  std::unique_ptr<Router> router;
  ASSERT_TRUE(Router::Create(std::move(options), &router).ok());

  const auto queries = GenerateQueryWorkload(
      expected->shard(0).dataset(),
      QueryWorkloadOptions{.num_queries = 3, .seed = 84});
  for (const Sequence& query : queries) {
    const SearchResult want =
        expected->SearchWith(MethodKind::kTwSimSearch, query, 0.3);
    SearchResult got;
    const Status status = router->RouteRange(MethodKind::kTwSimSearch,
                                             query, 0.3, nullptr, &got);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(got.matches, want.matches);
    EXPECT_EQ(got.num_candidates, want.num_candidates);
  }
  EXPECT_GT(router->stats().hedges, 0u)
      << "a stalled primary must force hedged backup requests";

  // The flight recorder attributes the winning replica and the hedge.
  bool saw_hedged_subrequest = false;
  for (const FlightRecord& record : recorder.Snapshot()) {
    if (record.replica >= 0 && record.net_hedges > 0) {
      saw_hedged_subrequest = true;
      EXPECT_EQ(record.replica, 1) << "the real replica won";
    }
  }
  EXPECT_TRUE(saw_hedged_subrequest);

  router.reset();
  stop.store(true);
  stalled.Shutdown();
  acceptor.join();
  {
    std::lock_guard<std::mutex> lock(held_mu);
    for (const int fd : held) CloseSocket(fd);
  }
  real_replica->Stop();
  std::filesystem::remove_all(dir);
}

TEST_P(RouterPropertyTest, TracedQueryStitchesRemoteSpans) {
  Cluster cluster;
  ASSERT_TRUE(cluster
                  .Build(TempName("traced"), /*seed=*/91,
                         /*num_shards=*/2, GetParam(),
                         OneShardPerGroup(2), /*replicas=*/1,
                         QuietOptions())
                  .ok());
  const auto queries = GenerateQueryWorkload(
      cluster.expected().shard(0).dataset(),
      QueryWorkloadOptions{.num_queries = 1, .seed = 92});

  Trace trace;
  SearchResult out;
  ASSERT_TRUE(cluster.router()
                  .RouteRange(MethodKind::kTwSimSearch, queries.front(),
                              /*epsilon=*/0.5, &trace, &out)
                  .ok());
  size_t scatter_spans = 0;
  size_t net_group_spans = 0;
  size_t remote_shard_spans = 0;
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == "scatter_gather") ++scatter_spans;
    if (span.name == "net_group") ++net_group_spans;
    if (span.name == "shard") ++remote_shard_spans;
  }
  EXPECT_EQ(scatter_spans, 1u);
  // One synthetic net_group span per unpruned group, each holding the
  // replica's shipped remote spans underneath.
  EXPECT_GT(net_group_spans, 0u);
  EXPECT_EQ(remote_shard_spans, net_group_spans);
}

TEST_P(RouterPropertyTest, TopologyErrorsAreRejectedAtCreate) {
  const std::string dir = TempName("topology");
  std::filesystem::remove_all(dir);
  ShardedEngineOptions engine_options;
  engine_options.num_shards = 2;
  engine_options.partitioner = GetParam();
  {
    const ShardedEngine built(WalkDataset(97), engine_options);
    ASSERT_TRUE(built.Save(dir).ok());
  }

  auto start_server = [&](std::vector<uint32_t> shards)
      -> std::unique_ptr<ShardServer> {
    ShardServerOptions server_options;
    server_options.db_dir = dir;
    server_options.serve_shards = std::move(shards);
    server_options.server.io_timeout_ms = 50;
    std::unique_ptr<ShardServer> server;
    EXPECT_TRUE(
        ShardServer::Create(std::move(server_options), &server).ok());
    EXPECT_TRUE(server->Start().ok());
    return server;
  };

  auto shard0 = start_server({0});
  auto shard1 = start_server({1});
  auto both = start_server({0, 1});

  {  // Incomplete coverage: shard 1 unclaimed.
    RouterOptions options = QuietOptions();
    options.groups = {{RouterEndpoint{"127.0.0.1", shard0->port()}}};
    std::unique_ptr<Router> router;
    EXPECT_FALSE(Router::Create(std::move(options), &router).ok());
  }
  {  // Overlap: shard 0 claimed twice.
    RouterOptions options = QuietOptions();
    options.groups = {{RouterEndpoint{"127.0.0.1", shard0->port()}},
                      {RouterEndpoint{"127.0.0.1", both->port()}}};
    std::unique_ptr<Router> router;
    EXPECT_FALSE(Router::Create(std::move(options), &router).ok());
  }
  {  // Replicas of one group disagree about their shard subset.
    RouterOptions options = QuietOptions();
    options.groups = {{RouterEndpoint{"127.0.0.1", shard0->port()},
                       RouterEndpoint{"127.0.0.1", both->port()}},
                      {RouterEndpoint{"127.0.0.1", shard1->port()}}};
    std::unique_ptr<Router> router;
    EXPECT_FALSE(Router::Create(std::move(options), &router).ok());
  }
  {  // No groups at all.
    RouterOptions options = QuietOptions();
    std::unique_ptr<Router> router;
    EXPECT_FALSE(Router::Create(std::move(options), &router).ok());
  }
  {  // The happy topology still works (the rejections above were real).
    RouterOptions options = QuietOptions();
    options.groups = {{RouterEndpoint{"127.0.0.1", shard0->port()}},
                      {RouterEndpoint{"127.0.0.1", shard1->port()}}};
    std::unique_ptr<Router> router;
    EXPECT_TRUE(Router::Create(std::move(options), &router).ok());
  }

  shard0->Stop();
  shard1->Stop();
  both->Stop();
  std::filesystem::remove_all(dir);
}

TEST_P(RouterPropertyTest, FlightRecorderAttributesSubrequests) {
  FlightRecorder recorder(FlightRecorderOptions{.capacity = 64});
  SlowQueryLog slow_log(8);
  RouterOptions options = QuietOptions();
  options.flight_recorder = &recorder;
  options.slow_log = &slow_log;

  Cluster cluster;
  ASSERT_TRUE(cluster
                  .Build(TempName("flight"), /*seed=*/101,
                         /*num_shards=*/2, GetParam(),
                         OneShardPerGroup(2), /*replicas=*/1,
                         std::move(options))
                  .ok());
  const auto queries = GenerateQueryWorkload(
      cluster.expected().shard(0).dataset(),
      QueryWorkloadOptions{.num_queries = 2, .seed = 102});
  SearchResult out;
  ASSERT_TRUE(cluster.router()
                  .RouteRange(MethodKind::kTwSimSearch, queries.front(),
                              /*epsilon=*/0.5, nullptr, &out)
                  .ok());
  KnnResult knn;
  ASSERT_TRUE(
      cluster.router().RouteKnn(queries.front(), 2, nullptr, &knn).ok());

  size_t merged_records = 0;
  size_t sub_records = 0;
  for (const FlightRecord& record : recorder.Snapshot()) {
    if (record.shard < 0) {
      ++merged_records;  // the logical query (shard = -1)
    } else {
      ++sub_records;
      EXPECT_GE(record.replica, 0)
          << "sub-requests must say which replica answered";
    }
  }
  EXPECT_EQ(merged_records, 2u);  // one range + one kNN
  EXPECT_GT(sub_records, 0u);
  EXPECT_FALSE(slow_log.Snapshot().empty());
}

INSTANTIATE_TEST_SUITE_P(AllPartitioners, RouterPropertyTest,
                         ::testing::Values(PartitionerKind::kHash,
                                           PartitionerKind::kRange),
                         [](const auto& info) {
                           return std::string(
                               PartitionerKindName(info.param));
                         });

}  // namespace
}  // namespace warpindex
