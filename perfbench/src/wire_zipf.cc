// wire-zipf: the multi-process serving path, run inside one process.
//
// A Router over 2 in-process ShardServers on loopback; they serve a saved
// K = 4 ShardedEngine, 2 shards each, 1 replica, no hedging, no fleet
// poller. The router's semantic cache has a byte budget smaller than the
// distinct-query working set, so it evicts. Queries are Zipfian repeats
// from a pool of distinct perturbed queries, 80% range at a tight epsilon
// and 20% k-NN, on short sequences so engine work per query is small:
// JSON encode/decode, sockets, router pruning and merging, and cache hits
// and evictions do most of the work.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>

#include "cache/semantic_cache.h"
#include "common/timer.h"
#include "exec/thread_pool.h"
#include "net/router.h"
#include "net/shard_server.h"
#include "sequence/feature.h"
#include "sequence/query_workload.h"
#include "shard/sharded_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using warpindex::Dataset;
using warpindex::MethodKind;
using warpindex::Router;
using warpindex::RouterOptions;
using warpindex::SemanticCache;
using warpindex::SemanticCacheOptions;
using warpindex::SequenceId;
using warpindex::ShardedEngine;
using warpindex::ShardedEngineOptions;
using warpindex::ShardServer;
using warpindex::Status;

constexpr size_t kRows = 8000;
constexpr size_t kLength = 64;
constexpr size_t kShards = 4;
constexpr size_t kServers = 2;
constexpr double kEpsilon = 0.05;
constexpr double kKnnShare = 0.2;
constexpr size_t kK = 10;
constexpr size_t kQueryPool = 4000;
constexpr double kSkew = 0.7;
constexpr size_t kCacheBytes = 96 << 10;
constexpr size_t kWarmupOps = 50;
constexpr int kSetups = 5;
constexpr size_t kTraceOps = 3000;
constexpr size_t kQuickOps = 300;
constexpr size_t kMaxPairs = 4000;
constexpr int kBand = static_cast<int>(kLength / 10);
const MethodKind kMethod = MethodKind::kTwSimSearch;

struct Op {
  bool knn = false;
  size_t query = 0;  // pool index
};

Op OpAt(uint64_t seed, const Zipf& zipf, size_t i) {
  return {Unit(Mix(seed, 1, i)) < kKnnShare, zipf.At(Mix(seed, 9, i))};
}

struct Answer {
  bool ok = true;
  SearchResult range;
  KnnResult knn;
};

// One serving deployment: saved shards, two servers, the router and its
// cache, plus the in-process engine answers are checked against.
class World {
 public:
  World(uint64_t seed, const std::string& dir);
  ~World() {
    router.reset();
    for (const auto& server : servers) {
      server->Stop();
    }
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  Answer Run(const Op& op, Trace* trace) const {
    Answer answer;
    const Sequence& query = pool[op.query];
    const Status status =
        op.knn ? router->RouteKnn(query, kK, trace, &answer.knn)
               : router->RouteRange(kMethod, query, kEpsilon, trace,
                                    &answer.range);
    answer.ok = status.ok();
    return answer;
  }

  // The in-process answer for `op`.
  Answer Reference(const Op& op) const {
    Answer answer;
    const Sequence& query = pool[op.query];
    if (op.knn) {
      answer.knn = inproc->SearchKnn(query, kK);
    } else {
      answer.range = inproc->SearchWith(kMethod, query, kEpsilon);
    }
    return answer;
  }

  uint64_t seed;
  std::vector<Sequence> pool;
  Zipf zipf{kQueryPool, kSkew};
  std::unique_ptr<ShardedEngine> inproc;
  // One helper thread: with the calling thread the in-process fan-out runs
  // two shard searches at once, like the two servers.
  warpindex::ThreadPool inproc_pool{1};
  std::unique_ptr<SemanticCache> cache;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::unique_ptr<Router> router;
  // Seconds per setup phase: build, save, serve, warmup.
  JsonValue phases = JsonValue::Object();
};

void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "wire-zipf %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

World::World(uint64_t s, const std::string& dir) : seed(s) {
  const double t0 = NowSeconds();
  Dataset data = RandomWalks(kRows, kLength, seed);
  pool.reserve(kQueryPool);
  for (size_t q = 0; q < kQueryPool; ++q) {
    const size_t pick = static_cast<size_t>(Mix(seed, 7, q) % data.size());
    pool.push_back(warpindex::PerturbSequence(data[pick], Mix(seed, 8, q)));
  }
  ShardedEngineOptions options;
  options.num_shards = kShards;
  options.partitioner = warpindex::PartitionerKind::kHash;
  inproc = std::make_unique<ShardedEngine>(std::move(data), options);
  inproc->AttachPool(&inproc_pool);
  const double t1 = NowSeconds();
  std::filesystem::remove_all(dir);
  Require(inproc->Save(dir), "save");
  const double t2 = NowSeconds();

  RouterOptions router_options;
  router_options.enable_hedging = false;
  for (size_t g = 0; g < kServers; ++g) {
    warpindex::ShardServerOptions server_options;
    server_options.db_dir = dir;
    server_options.group = static_cast<int>(g);
    for (size_t s = g * (kShards / kServers); s < (g + 1) * (kShards / kServers);
         ++s) {
      server_options.serve_shards.push_back(static_cast<uint32_t>(s));
    }
    std::unique_ptr<ShardServer> server;
    Require(ShardServer::Create(std::move(server_options), &server),
            "shard server");
    Require(server->Start(), "shard server start");
    router_options.groups.push_back(
        {warpindex::RouterEndpoint{"127.0.0.1", server->port()}});
    servers.push_back(std::move(server));
  }
  SemanticCacheOptions cache_options;
  cache_options.max_bytes = kCacheBytes;
  cache_options.tier = "router";
  cache = std::make_unique<SemanticCache>(cache_options);
  router_options.cache = cache.get();
  Require(Router::Create(std::move(router_options), &router), "router");
  phases.Set("build", JsonValue::Double(t1 - t0));
  phases.Set("save", JsonValue::Double(t2 - t1));
  phases.Set("serve", JsonValue::Double(NowSeconds() - t2));
}

std::unique_ptr<World> Setup(const RunConfig& config) {
  auto world = std::make_unique<World>(config.seed,
                                       config.work_dir + "/wire_zipf_db");
  const double t0 = NowSeconds();
  for (size_t i = 0; i < kWarmupOps; ++i) {
    world->Run(OpAt(config.seed, world->zipf, i), nullptr);
  }
  world->phases.Set("warmup", JsonValue::Double(NowSeconds() - t0));
  return world;
}

bool Same(const Op& op, const Answer& a, const Answer& b) {
  return a.ok && b.ok &&
         (op.knn ? SameKnn(a.knn, b.knn) : SameRange(a.range, b.range));
}

// Fingerprint of an answer; 0 marks a failed call.
uint64_t FingerprintOf(const Op& op, const Answer& a) {
  if (!a.ok) {
    return 0;
  }
  return op.knn ? Fingerprint(a.knn) : Fingerprint(a.range);
}

// Per-group wire bodies for one op, rebuilt in-process: the router's
// pruning predicate picks each group's shards, the shard engines give
// each group's answer, and net/serialize encodes both directions.
void ReplayBodies(const World& world, const Op& op, CodecTotals* codec) {
  const Sequence& query = world.pool[op.query];
  const warpindex::Point point = warpindex::FeatureIndex::FeatureToPoint(
      warpindex::ExtractFeature(query));
  for (const warpindex::RouterGroup& group : world.router->groups()) {
    std::vector<uint32_t> shards;
    for (size_t i = 0; i < group.shards.size(); ++i) {
      if (group.bounds[i].valid &&
          (op.knn || group.bounds[i].mbr.MinDistLinf(point) <= kEpsilon)) {
        shards.push_back(group.shards[i]);
      }
    }
    if (shards.empty()) {
      continue;
    }
    if (op.knn) {
      KnnResult merged;
      for (const uint32_t s : shards) {
        KnnResult part = world.inproc->shard(s).SearchKnn(query, kK);
        for (warpindex::KnnMatch m : part.neighbors) {
          m.id = world.inproc->ToGlobalId(s, m.id);
          merged.neighbors.push_back(m);
        }
        merged.num_refined += part.num_refined;
        merged.cost.Merge(part.cost);
      }
      std::sort(merged.neighbors.begin(), merged.neighbors.end(),
                warpindex::KnnMatchOrder);
      if (merged.neighbors.size() > kK) {
        merged.neighbors.resize(kK);
      }
      CodecKnn(shards, kK, query, merged, codec);
      continue;
    }
    SearchResult merged;
    for (const uint32_t s : shards) {
      const SearchResult part =
          world.inproc->shard(s).SearchWith(kMethod, query, kEpsilon);
      for (size_t m = 0; m < part.matches.size(); ++m) {
        merged.matches.push_back(world.inproc->ToGlobalId(s, part.matches[m]));
        merged.distances.push_back(part.distances[m]);
      }
      merged.num_candidates += part.num_candidates;
      merged.cost.MergeParallel(part.cost);
    }
    warpindex::CanonicalizeMatchOrder(&merged);
    CodecRange(shards, warpindex::MethodKindName(kMethod), kEpsilon, query,
               merged, codec);
  }
}

void AddSizes(Output* out) {
  JsonValue& info = out->info();
  info.Set("corpus_rows", JsonValue::Int(kRows));
  info.Set("corpus_length", JsonValue::Int(kLength));
  info.Set("shards", JsonValue::Int(kShards));
  info.Set("shard_servers", JsonValue::Int(kServers));
  info.Set("replicas", JsonValue::Int(1));
  info.Set("epsilon", JsonValue::Double(kEpsilon));
  info.Set("knn_k", JsonValue::Int(kK));
  info.Set("knn_share", JsonValue::Double(kKnnShare));
  info.Set("distinct_queries", JsonValue::Int(kQueryPool));
  info.Set("zipf_skew", JsonValue::Double(kSkew));
  info.Set("cache_budget_bytes", JsonValue::Int(kCacheBytes));
  info.Set("client_threads", JsonValue::Int(1));
  info.Set("connections", JsonValue::Int(kServers));
  info.Set("warmup_ops", JsonValue::Int(kWarmupOps));
}

// Working set: the cache bytes the distinct queries of the window would
// need with no eviction, read from an unbounded cache fed the same stream.
size_t WorkingSetBytes(const World& world, size_t first, size_t ops) {
  SemanticCacheOptions options;
  options.max_bytes = size_t{1} << 40;
  options.tier = "working_set";
  SemanticCache unbounded(options);
  std::map<std::pair<bool, size_t>, bool> seen;
  for (size_t i = first; i < first + ops; ++i) {
    const Op op = OpAt(world.seed, world.zipf, i);
    if (!seen.emplace(std::make_pair(op.knn, op.query), true).second) {
      continue;
    }
    const Answer answer = world.Reference(op);
    const Sequence& query = world.pool[op.query];
    if (op.knn) {
      unbounded.InsertKnn(SemanticCache::KnnKey(query, warpindex::DtwOptions()),
                          kK, 0, answer.knn);
    } else {
      unbounded.InsertRange(
          SemanticCache::RangeKey(query, warpindex::DtwOptions(), kMethod),
          kEpsilon, 0, answer.range);
    }
  }
  return unbounded.TakeStats().bytes;
}

void RunUntraced(const RunConfig& config, Output* out) {
  std::vector<double> setups;
  std::unique_ptr<World> world;
  const int setups_wanted = config.quick ? 1 : kSetups;
  for (int r = 0; r < setups_wanted; ++r) {
    world.reset();
    const double t0 = NowSeconds();
    world = Setup(config);
    setups.push_back(NowSeconds() - t0);
  }

  Samples range_ms;
  Samples knn_ms;
  size_t range_hits = 0;
  size_t knn_hits = 0;
  std::vector<uint64_t> answers;
  const Window window = RunWindow(
      kWarmupOps, config.seconds, [&](size_t i) {
        const Op op = OpAt(config.seed, world->zipf, i);
        const double t0 = NowSeconds();
        Answer answer = world->Run(op, nullptr);
        const double ms = (NowSeconds() - t0) * 1e3;
        (op.knn ? knn_ms : range_ms).Add(ms);
        const uint64_t hit = op.knn ? answer.knn.cost.cache_hits
                                    : answer.range.cost.cache_hits;
        (op.knn ? knn_hits : range_hits) += hit > 0 ? 1 : 0;
        answers.push_back(FingerprintOf(op, answer));
      });
  const warpindex::SemanticCacheStats cache = world->cache->TakeStats();

  // Every answer must be bit-identical to the in-process engine's.
  out->attempted = window.ops;
  std::map<std::pair<bool, size_t>, uint64_t> reference;
  for (size_t j = 0; j < answers.size(); ++j) {
    const Op op = OpAt(config.seed, world->zipf, kWarmupOps + j);
    auto it = reference.find({op.knn, op.query});
    if (it == reference.end()) {
      it = reference
               .emplace(std::make_pair(op.knn, op.query),
                        FingerprintOf(op, world->Reference(op)))
               .first;
    }
    if (answers[j] == 0 || answers[j] != it->second) {
      ++out->failed;
    }
  }

  AddEndToEnd(range_ms, knn_ms, window, setups, out);
  out->info().Set("cache_hit_ratio_since_setup",
                  JsonValue::Double(cache.hit_ratio));
  out->info().Set("range_cache_hit_share",
                  JsonValue::Double(static_cast<double>(range_hits) /
                                    static_cast<double>(range_ms.count())));
  out->info().Set("knn_cache_hit_share",
                  JsonValue::Double(static_cast<double>(knn_hits) /
                                    static_cast<double>(knn_ms.count())));
  out->info().Set("distinct_ops_checked", JsonValue::Int(reference.size()));
  out->info().Set("setup_phases_s", world->phases);
}

void RunTraced(const RunConfig& config, Output* out) {
  const size_t n = config.quick ? kQuickOps : kTraceOps;

  // Pass 1, untraced, on its own deployment: the overhead baseline.
  Samples untraced_range;
  {
    const std::unique_ptr<World> world = Setup(config);
    for (size_t i = kWarmupOps; i < kWarmupOps + n; ++i) {
      const Op op = OpAt(config.seed, world->zipf, i);
      const double t0 = NowSeconds();
      world->Run(op, nullptr);
      if (!op.knn) {
        untraced_range.Add((NowSeconds() - t0) * 1e3);
      }
    }
  }

  // Pass 2, traced, on a fresh deployment replaying the same ops.
  const std::unique_ptr<World> world = Setup(config);
  const Router::Stats router0 = world->router->stats();
  const warpindex::SemanticCacheStats cache0 = world->cache->TakeStats();
  Samples traced_range;
  Samples hit_ms;
  CostTotals costs;
  TraceTotals spans;
  CodecTotals codec;
  std::vector<KernelPair> pairs;
  double tax_ms = 0.0;
  size_t wire_ops = 0;
  for (size_t i = kWarmupOps; i < kWarmupOps + n; ++i) {
    const Op op = OpAt(config.seed, world->zipf, i);
    const Sequence& query = world->pool[op.query];
    Trace trace;
    const double t0 = NowSeconds();
    const Answer answer = world->Run(op, &trace);
    const double ms = (NowSeconds() - t0) * 1e3;
    const warpindex::SearchCost& cost =
        op.knn ? answer.knn.cost : answer.range.cost;
    spans.Fold(trace, ms, cost.wall_ms);
    costs.Fold(cost);
    if (!op.knn) {
      traced_range.Add(ms);
      costs.FoldRange(answer.range, world->inproc->live_size());
    }
    // The same query through the in-process engine: the correctness
    // reference, and (for ops that reached the wire) the wire tax.
    const double t1 = NowSeconds();
    const Answer reference = world->Reference(op);
    const double inproc_ms = (NowSeconds() - t1) * 1e3;
    if (!Same(op, answer, reference)) {
      ++out->failed;
    }
    if (cost.cache_hits > 0) {
      hit_ms.Add(ms);
      continue;
    }
    ++wire_ops;
    tax_ms += ms - inproc_ms;
    ReplayBodies(*world, op, &codec);
    if (op.knn) {
      continue;
    }
    for (size_t s = 0; s < world->inproc->num_shards(); ++s) {
      const warpindex::Engine& shard = world->inproc->shard(s);
      for (const SequenceId id : shard.feature_index().RangeQuery(
               warpindex::ExtractFeature(query), kEpsilon)) {
        if (pairs.size() < kMaxPairs) {
          pairs.push_back({&query, &shard.dataset()[static_cast<size_t>(id)],
                           kEpsilon});
        }
      }
    }
  }
  const Router::Stats router1 = world->router->stats();
  const warpindex::SemanticCacheStats cache1 = world->cache->TakeStats();
  out->attempted = n;

  ReplayKernels(pairs, kBand, config.quick ? 5.0 : 200.0, out);
  AddCostMetrics(costs, n, out);
  const double nops = static_cast<double>(n);
  out->AddRatio("core.unattributed_ms_per_op", spans.unattributed_ms, nops,
                "ms", "ops");
  out->AddRatio("shard.shards_searched_per_op",
                static_cast<double>(spans.shard_spans), nops, "count", "ops");
  out->AddRatio("shard.fanout_tax_ms_per_op", spans.fanout_tax_ms,
                static_cast<double>(spans.fanout_traces), "ms",
                "ops that fanned out");
  out->AddRatio("net.subrequests_per_op",
                static_cast<double>(router1.subrequests - router0.subrequests),
                nops, "count", "ops");
  out->Add("net.retries", static_cast<double>(router1.retries - router0.retries),
           "count");
  out->Add("net.hedges", static_cast<double>(router1.hedges - router0.hedges),
           "count");
  out->Add("net.failed_subrequests",
           static_cast<double>(router1.failed_subrequests -
                               router0.failed_subrequests),
           "count");
  out->AddRatio("net.request_bytes_per_op",
                static_cast<double>(codec.request_bytes), nops, "bytes",
                "ops");
  out->AddRatio("net.response_bytes_per_op",
                static_cast<double>(codec.response_bytes), nops, "bytes",
                "ops");
  out->AddRatio("net.codec_ms_per_op", codec.codec_ms, nops, "ms", "ops");
  out->AddRatio("net.tax_ms_per_op", tax_ms, static_cast<double>(wire_ops),
                "ms", "ops that reached the wire");
  out->AddRatio("cache.hit_ratio",
                static_cast<double>(cache1.hits - cache0.hits),
                static_cast<double>(cache1.lookups - cache0.lookups), "1",
                "router-tier lookups");
  out->AddRatio("cache.hit_ms_mean", hit_ms.Sum(),
                static_cast<double>(hit_ms.count()), "ms", "cache-hit ops");
  out->AddRatio("cache.evictions_per_op",
                static_cast<double>(cache1.evictions - cache0.evictions),
                nops, "count", "ops");
  out->Add("obs.trace_overhead_pct",
           (traced_range.Percentile(0.5) / untraced_range.Percentile(0.5) -
            1.0) * 100.0,
           "%");
  out->AddRatio("failed_op_ratio", static_cast<double>(out->failed), nops,
                "1", "ops");
  out->info().Set("traced_ops", JsonValue::Int(n));
  out->info().Set("cache_working_set_bytes",
                  JsonValue::Int(static_cast<int64_t>(
                      WorkingSetBytes(*world, kWarmupOps, n))));
  out->info().Set("span_self_ms_per_op", spans.SelfJson(n));
}

}  // namespace

void RunWireZipf(const RunConfig& config, Output* out) {
  AddSizes(out);
  if (config.trace) {
    RunTraced(config, out);
  } else {
    RunUntraced(config, out);
  }
}

}  // namespace perfbench
