#include "net/router.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>
#include <utility>

#include "cache/semantic_cache.h"
#include "common/stats.h"
#include "core/engine.h"
#include "net/serialize.h"
#include "sequence/feature.h"
#include "shard/fanout.h"

namespace warpindex {
namespace {

std::string EndpointName(const RouterEndpoint& endpoint) {
  return endpoint.host + ":" + std::to_string(endpoint.port);
}

// Cap on pooled idle connections per replica.
constexpr size_t kMaxIdleClientsPerReplica = 8;

// Sub-request latency samples needed before the hedge delay trusts the
// p99 (before that, hedge late rather than storm a cold server).
constexpr size_t kMinHedgeSamples = 8;

}  // namespace

void Router::NoteFailedSubrequest(size_t group, const Status& status,
                                  Status* first_error) const {
  failed_subrequests_.fetch_add(1, std::memory_order_relaxed);
  if (first_error->ok()) {
    *first_error = Status(status.code(), "group " + std::to_string(group) +
                                             ": " + status.message());
  }
}

// Per-group progress of one scatter. Guarded by CallContext::mu except
// `request` and `launch`, which are immutable after the leg is
// submitted.
struct Router::GroupState {
  size_t group = 0;
  JsonValue request;
  std::chrono::steady_clock::time_point launch{};
  std::chrono::steady_clock::time_point hedge_deadline{};
  double start_offset_ms = 0.0;
  bool done = false;
  bool hedged = false;
  int outstanding = 0;
  Status last_status = Status::Ok();
  SubOutcome outcome;
};

// Shared between the orchestrating caller and its legs; legs hold a
// shared_ptr so a losing hedge can finish after CallGroups returned.
struct Router::CallContext {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<GroupState> states;
};

Router::Router(RouterOptions options)
    : options_(std::move(options)) {}

Router::~Router() {
  // Joins outstanding legs before the connection pool dies.
  io_pool_.reset();
}

Status Router::Create(RouterOptions options, std::unique_ptr<Router>* out) {
  if (options.groups.empty()) {
    return Status::InvalidArgument(
        "router needs at least one shard group");
  }
  for (size_t g = 0; g < options.groups.size(); ++g) {
    if (options.groups[g].empty()) {
      return Status::InvalidArgument("group " + std::to_string(g) +
                                     " has no replicas");
    }
  }
  auto router = std::unique_ptr<Router>(new Router(std::move(options)));
  router->idle_clients_.resize(router->options_.groups.size());
  for (size_t g = 0; g < router->options_.groups.size(); ++g) {
    router->idle_clients_[g].resize(router->options_.groups[g].size());
  }
  WARPINDEX_RETURN_IF_ERROR(router->Handshake());
  router->io_pool_ = std::make_unique<ThreadPool>(
      std::max<size_t>(4, 2 * router->groups_.size()));
  MetricsRegistry& registry = router->metrics();
  router->queries_counter_ = registry.GetCounter(
      "warpindex_net_router_queries_total",
      "Logical queries served by the router");
  router->subrequests_counter_ = registry.GetCounter(
      "warpindex_net_router_subrequests_total",
      "Per-group wire sub-requests issued");
  router->hedges_counter_ = registry.GetCounter(
      "warpindex_net_router_hedges_total",
      "Hedged backup requests launched");
  router->retries_counter_ = registry.GetCounter(
      "warpindex_net_router_retries_total",
      "Replica retries after a failed attempt");
  *out = std::move(router);
  return Status::Ok();
}

MetricsRegistry& Router::metrics() const {
  return options_.metrics != nullptr ? *options_.metrics
                                     : MetricsRegistry::Global();
}

Status Router::Handshake() {
  groups_.assign(options_.groups.size(), RouterGroup{});
  int64_t num_shards = -1;
  std::string partitioner_name;
  for (size_t g = 0; g < options_.groups.size(); ++g) {
    RouterGroup& group = groups_[g];
    group.replicas = options_.groups[g];
    std::string shards_fingerprint;
    Status last = Status::Unavailable("no replica contacted");
    for (size_t r = 0; r < group.replicas.size(); ++r) {
      WireClientOptions client_options;
      client_options.host = group.replicas[r].host;
      client_options.port = group.replicas[r].port;
      client_options.timeout_ms = options_.connect_timeout_ms;
      client_options.client_id = options_.client_id;
      auto client = std::make_unique<WireClient>(client_options);
      JsonValue info;
      const Status status = client->Connect(&info);
      if (!status.ok()) {
        last = status;
        continue;
      }
      const JsonValue* shards = info.Find("shards");
      if (shards == nullptr ||
          shards->kind() != JsonValue::Kind::kArray ||
          shards->size() == 0) {
        return Status::Internal(
            EndpointName(group.replicas[r]) +
            " did not report its shards in HELLO_OK");
      }
      const std::string fingerprint = shards->Render();
      if (shards_fingerprint.empty()) {
        // First replica of the group to answer: learn the shard set.
        shards_fingerprint = fingerprint;
        for (const JsonValue& item : shards->items()) {
          const int64_t shard = item.GetInt("shard", -1);
          if (shard < 0) {
            return Status::Internal("malformed shard entry in HELLO_OK");
          }
          group.shards.push_back(static_cast<uint32_t>(shard));
          ShardFeatureBounds bounds;
          const JsonValue* mbr = item.Find("mbr");
          if (mbr != nullptr && !mbr->is_null()) {
            WARPINDEX_RETURN_IF_ERROR(JsonToRect(*mbr, &bounds.mbr));
            bounds.valid = true;
          }
          group.bounds.push_back(bounds);
        }
        const int64_t total = info.GetInt("num_shards", -1);
        if (num_shards < 0) {
          num_shards = total;
          partitioner_name = info.GetString("partitioner", "");
        } else if (num_shards != total) {
          return Status::InvalidArgument(
              EndpointName(group.replicas[r]) + " serves a " +
              std::to_string(total) + "-shard database, other groups a " +
              std::to_string(num_shards) + "-shard one");
        }
      } else if (fingerprint != shards_fingerprint) {
        // Replicas of one group must be interchangeable: same shards,
        // same MBRs (bit-identical — the fingerprint is the rendered
        // round-trip JSON), or pruning would depend on which replica
        // answers.
        return Status::InvalidArgument(
            EndpointName(group.replicas[r]) +
            " disagrees with its group about shards/MBRs");
      }
      ReleaseClient(g, r, std::move(client));
    }
    if (group.shards.empty()) {
      return Status(last.code(),
                    "no replica of group " + std::to_string(g) +
                        " answered the handshake: " + last.message());
    }
  }
  if (num_shards < 1) {
    return Status::Internal("handshake learned no shard count");
  }
  num_shards_ = static_cast<size_t>(num_shards);
  if (!ParsePartitionerKind(partitioner_name, &partitioner_)) {
    return Status::Internal("unknown partitioner '" + partitioner_name +
                            "' in HELLO_OK");
  }
  // The groups together must cover every manifest shard exactly once.
  shard_bounds_.assign(num_shards_, ShardFeatureBounds{});
  group_of_shard_.assign(num_shards_, SIZE_MAX);
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (size_t i = 0; i < groups_[g].shards.size(); ++i) {
      const uint32_t shard = groups_[g].shards[i];
      if (shard >= num_shards_) {
        return Status::InvalidArgument(
            "group " + std::to_string(g) + " serves shard " +
            std::to_string(shard) + " beyond the manifest's " +
            std::to_string(num_shards_));
      }
      if (group_of_shard_[shard] != SIZE_MAX) {
        return Status::InvalidArgument(
            "shard " + std::to_string(shard) +
            " is served by groups " +
            std::to_string(group_of_shard_[shard]) + " and " +
            std::to_string(g) + "; groups must be disjoint");
      }
      group_of_shard_[shard] = g;
      shard_bounds_[shard] = groups_[g].bounds[i];
    }
  }
  for (size_t shard = 0; shard < num_shards_; ++shard) {
    if (group_of_shard_[shard] == SIZE_MAX) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard) +
          " is served by no group; the cover is incomplete");
    }
  }
  return Status::Ok();
}

std::unique_ptr<WireClient> Router::AcquireClient(size_t group,
                                                  size_t replica) const {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    auto& idle = idle_clients_[group][replica];
    if (!idle.empty()) {
      std::unique_ptr<WireClient> client = std::move(idle.back());
      idle.pop_back();
      return client;
    }
  }
  WireClientOptions client_options;
  client_options.host = options_.groups[group][replica].host;
  client_options.port = options_.groups[group][replica].port;
  client_options.timeout_ms = options_.connect_timeout_ms;
  client_options.client_id = options_.client_id;
  return std::make_unique<WireClient>(client_options);
}

void Router::ReleaseClient(size_t group, size_t replica,
                           std::unique_ptr<WireClient> client) const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  auto& idle = idle_clients_[group][replica];
  if (idle.size() < kMaxIdleClientsPerReplica) {
    idle.push_back(std::move(client));
  }
}

double Router::HedgeDelayMs() const {
  double delay = static_cast<double>(options_.hedge_max_ms);
  if (options_.flight_recorder != nullptr) {
    std::vector<double> samples;
    for (const FlightRecord& record :
         options_.flight_recorder->Snapshot()) {
      if (record.replica >= 0) {  // networked sub-requests only
        samples.push_back(record.wall_ms);
      }
    }
    if (samples.size() >= kMinHedgeSamples) {
      delay = Percentile(std::move(samples), 0.99);
    }
  }
  delay = std::min(delay, static_cast<double>(options_.hedge_max_ms));
  delay = std::max(delay, static_cast<double>(options_.hedge_min_ms));
  return delay;
}

void Router::RunLeg(WireType type, std::shared_ptr<CallContext> context,
                    size_t state_index, size_t start_replica) const {
  GroupState& state = context->states[state_index];
  const size_t group = state.group;
  const size_t num_replicas = groups_[group].replicas.size();
  Status last = Status::Internal("no attempt made");
  uint32_t leg_retries = 0;
  for (int attempt = 0; attempt < std::max(1, options_.max_attempts);
       ++attempt) {
    {
      std::lock_guard<std::mutex> lock(context->mu);
      if (state.done) {
        break;  // the other leg already won
      }
    }
    const size_t replica = (start_replica + attempt) % num_replicas;
    std::unique_ptr<WireClient> client = AcquireClient(group, replica);
    JsonValue response;
    const Status status = client->Call(type, state.request, &response,
                                       options_.call_timeout_ms);
    if (status.ok()) {
      ReleaseClient(group, replica, std::move(client));
      std::lock_guard<std::mutex> lock(context->mu);
      state.outcome.retries += leg_retries;
      if (!state.done) {
        state.done = true;
        state.outcome.status = Status::Ok();
        state.outcome.response = std::move(response);
        state.outcome.replica = static_cast<int>(replica);
        state.outcome.wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - state.launch)
                .count();
      }
      --state.outstanding;
      context->cv.notify_all();
      return;
    }
    // Failed attempt: the client's connection state is already torn
    // down (wire_client.cc); drop it rather than pooling it.
    last = status;
    if (status.code() == StatusCode::kResourceExhausted) {
      // The quota said no. Retrying a replica would defeat it.
      break;
    }
    if (attempt + 1 >= std::max(1, options_.max_attempts)) {
      break;
    }
    ++leg_retries;
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (retries_counter_ != nullptr) {
      retries_counter_->Increment();
    }
    if (status.code() != StatusCode::kUnavailable &&
        options_.backoff_ms > 0) {
      // Exponential backoff for transient faults; UNAVAILABLE (refused
      // connection, draining server) skips it — the next replica is the
      // fix, not time.
      const int sleep_ms =
          std::min(options_.backoff_ms << attempt, 1000);
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
  std::lock_guard<std::mutex> lock(context->mu);
  state.outcome.retries += leg_retries;
  state.last_status = last;
  --state.outstanding;
  context->cv.notify_all();
}

void Router::CallGroups(WireType type, std::vector<JsonValue> requests,
                        const std::vector<size_t>& group_ids,
                        const WallTimer& query_start,
                        std::vector<SubOutcome>* outcomes) const {
  outcomes->assign(group_ids.size(), SubOutcome());
  if (group_ids.empty()) {
    return;
  }
  const double hedge_delay = HedgeDelayMs();
  last_hedge_delay_ms_.store(hedge_delay, std::memory_order_relaxed);

  auto context = std::make_shared<CallContext>();
  context->states.resize(group_ids.size());
  const auto now = std::chrono::steady_clock::now();
  const auto hedge_at =
      now + std::chrono::microseconds(
                static_cast<int64_t>(hedge_delay * 1000.0));
  for (size_t i = 0; i < group_ids.size(); ++i) {
    GroupState& state = context->states[i];
    state.group = group_ids[i];
    state.request = std::move(requests[i]);
    state.launch = now;
    state.hedge_deadline = hedge_at;
    state.start_offset_ms = query_start.ElapsedMillis();
    state.outstanding = 1;
  }
  subrequests_.fetch_add(group_ids.size(), std::memory_order_relaxed);
  if (subrequests_counter_ != nullptr) {
    subrequests_counter_->Increment(group_ids.size());
  }
  for (size_t i = 0; i < group_ids.size(); ++i) {
    if (!io_pool_->TrySubmitDetached(
            [this, context, i, type] { RunLeg(type, context, i, 0); })) {
      std::lock_guard<std::mutex> lock(context->mu);
      GroupState& state = context->states[i];
      state.outstanding = 0;
      state.last_status = Status::Internal("I/O pool is shut down");
    }
  }

  std::unique_lock<std::mutex> lock(context->mu);
  for (;;) {
    bool all_decided = true;
    bool have_deadline = false;
    auto next_deadline = std::chrono::steady_clock::time_point::max();
    const auto poll_now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < context->states.size(); ++i) {
      GroupState& state = context->states[i];
      if (state.done || state.outstanding == 0) {
        continue;
      }
      all_decided = false;
      const bool can_hedge = options_.enable_hedging && !state.hedged &&
                             groups_[state.group].replicas.size() > 1;
      if (!can_hedge) {
        continue;
      }
      if (poll_now >= state.hedge_deadline) {
        state.hedged = true;
        ++state.outstanding;
        ++state.outcome.hedges;
        hedges_.fetch_add(1, std::memory_order_relaxed);
        if (hedges_counter_ != nullptr) {
          hedges_counter_->Increment();
        }
        // Backup request starting on the NEXT replica; first answer
        // wins, the loser's response is discarded under `done`.
        if (!io_pool_->TrySubmitDetached([this, context, i, type] {
              RunLeg(type, context, i, 1);
            })) {
          --state.outstanding;
        }
      } else {
        next_deadline = std::min(next_deadline, state.hedge_deadline);
        have_deadline = true;
      }
    }
    if (all_decided) {
      break;
    }
    if (have_deadline) {
      context->cv.wait_until(lock, next_deadline);
    } else {
      context->cv.wait(lock);
    }
  }
  for (size_t i = 0; i < context->states.size(); ++i) {
    GroupState& state = context->states[i];
    if (!state.done) {
      state.outcome.status = state.last_status.ok()
                                 ? Status::Unavailable("sub-request failed")
                                 : state.last_status;
    }
    (*outcomes)[i] = state.outcome;
  }
}

void Router::StitchGroupSpans(Trace* trace, size_t parent_index,
                              size_t group,
                              const SubOutcome& outcome) const {
  if (trace == nullptr) {
    return;
  }
  TraceSpan group_span;
  group_span.name = "net_group";
  group_span.parent = static_cast<int>(parent_index);
  group_span.start_ms = outcome.start_offset_ms;
  group_span.duration_ms = outcome.wall_ms;
  group_span.counters = {
      {"group", static_cast<double>(group)},
      {"replica", static_cast<double>(outcome.replica)},
      {"hedges", static_cast<double>(outcome.hedges)},
      {"retries", static_cast<double>(outcome.retries)},
  };
  const size_t group_index = trace->AppendSpan(std::move(group_span));
  const JsonValue* spans_json = outcome.response.Find("spans");
  if (spans_json == nullptr) {
    return;
  }
  std::vector<TraceSpan> remote;
  if (!JsonToSpans(*spans_json, &remote).ok()) {
    return;  // a malformed remote trace must not fail the query
  }
  // Remote parent links are local to the remote array; rebase them onto
  // this trace, rooting parentless spans under the net_group span, and
  // shift start offsets by the sub-request's launch offset so lanes
  // line up with the router's clock.
  const size_t base = trace->spans().size();
  for (size_t i = 0; i < remote.size(); ++i) {
    TraceSpan span = std::move(remote[i]);
    span.parent = span.parent < 0
                      ? static_cast<int>(group_index)
                      : static_cast<int>(base + static_cast<size_t>(span.parent));
    span.start_ms += outcome.start_offset_ms;
    trace->AppendSpan(std::move(span));
  }
}

void Router::RecordSubFlight(const char* method, double epsilon,
                             size_t query_length, size_t group,
                             const SubOutcome& outcome, size_t matches,
                             size_t num_candidates, const SearchCost& cost,
                             uint64_t trace_id) const {
  if (options_.flight_recorder == nullptr) {
    return;
  }
  FlightRecord record = MakeFlightRecord(method, epsilon, query_length,
                                         matches, num_candidates, cost,
                                         trace_id);
  record.wall_ms = outcome.wall_ms;  // client-observed, feeds the hedge p99
  record.shard = static_cast<int32_t>(group);
  record.replica = outcome.replica;
  record.net_hedges = outcome.hedges;
  record.net_retries = outcome.retries;
  options_.flight_recorder->Record(std::move(record));
}

void Router::RecordMergedFlight(const char* method, double epsilon,
                                size_t query_length, size_t matches,
                                size_t num_candidates,
                                const SearchCost& cost,
                                uint64_t trace_id,
                                CacheTier cache_tier) const {
  FlightRecord record = MakeFlightRecord(method, epsilon, query_length,
                                         matches, num_candidates, cost,
                                         trace_id);
  record.cache_hit = cache_tier;
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->Record(record);
  }
  if (options_.slow_log != nullptr) {
    options_.slow_log->Record(std::move(record));
  }
}

Status Router::RouteRange(MethodKind kind, const Sequence& query,
                          double epsilon, Trace* trace,
                          SearchResult* out) const {
  WallTimer timer;
  // Router-side CPU (pruning, request building, response parsing, merge,
  // sort). The remote servers' CPU arrives in the wire costs and is
  // summed by MergeParallel; the io_pool legs spend their time blocked
  // on the network, so the caller thread's CPU is strictly additive.
  ThreadCpuTimer cpu_timer;
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (queries_counter_ != nullptr) {
    queries_counter_->Increment();
  }
  *out = SearchResult();
  if (query.empty()) {
    return Status::InvalidArgument("query must be non-empty");
  }
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }
  // Wire-side semantic cache: a hit answers here, before a single
  // sub-request exists — no fan-out, no hedges, no per-group flights.
  // The router fronts immutable saved shards, so version is fixed at 0;
  // the DTW configuration is the servers' (constant per deployment), so
  // a default-keyed fingerprint is consistent within this router.
  uint64_t cache_key = 0;
  if (options_.cache != nullptr) {
    cache_key = SemanticCache::RangeKey(query, DtwOptions(), kind);
    SearchResult cached;
    if (options_.cache->LookupRange(cache_key, epsilon, 0, &cached)) {
      if (trace != nullptr) {
        ScopedSpan span(trace, "cache_hit");
        TraceCounter(trace, "cached_matches",
                     static_cast<double>(cached.matches.size()));
      }
      cached.cost.wall_ms = timer.ElapsedMillis();
      cached.cost.cpu_ms = cpu_timer.ElapsedMillis();
      RecordMergedFlight(MethodKindName(kind), epsilon, query.size(),
                         cached.matches.size(), cached.num_candidates,
                         cached.cost,
                         trace != nullptr ? trace->trace_id() : 0,
                         CacheTier::kRouter);
      *out = std::move(cached);
      return Status::Ok();
    }
  }
  // The feature point and predicate of the in-process engines (the
  // fan-out core) — identical doubles, identical skips.
  const Point feature_point =
      FeatureIndex::FeatureToPoint(ExtractFeature(query));

  // Router-side shard pruning — the exact in-process predicate against
  // the exact MBR doubles the handshake carried. Each group is asked
  // for only its unpruned shards, so the servers' num_candidates sums
  // match ShardedEngine's sum over active shards.
  std::vector<size_t> group_ids;
  std::vector<JsonValue> requests;
  size_t active_shards = 0;
  for (size_t g = 0; g < groups_.size(); ++g) {
    JsonValue shards = JsonValue::Array();
    for (size_t i = 0; i < groups_[g].shards.size(); ++i) {
      if (PartitionMayMatch(groups_[g].bounds[i], feature_point, epsilon)) {
        shards.Add(JsonValue::Int(groups_[g].shards[i]));
      }
    }
    if (shards.size() == 0) {
      continue;  // every shard of the group pruned
    }
    active_shards += shards.size();
    JsonValue request = JsonValue::Object();
    request.Set("shards", std::move(shards));
    request.Set("method", JsonValue::Str(MethodKindName(kind)));
    request.Set("epsilon", JsonValue::Double(epsilon));
    request.Set("query", SequenceToJson(query));
    if (trace != nullptr) {
      request.Set("trace", JsonValue::Bool(true));
    }
    group_ids.push_back(g);
    requests.push_back(std::move(request));
  }
  const uint64_t trace_id = trace != nullptr ? trace->trace_id() : 0;

  std::vector<SubOutcome> outcomes;
  std::vector<SearchResult> partials;
  Status first_error = Status::Ok();
  {
    ScopedSpan span(trace, "scatter_gather");
    TraceCounter(trace, "group_fanout",
                 static_cast<double>(group_ids.size()));
    TraceCounter(trace, "shard_fanout",
                 static_cast<double>(active_shards));
    TraceCounter(trace, "shards_skipped",
                 static_cast<double>(num_shards_ - active_shards));
    CallGroups(WireType::kRange, std::move(requests), group_ids,
               timer, &outcomes);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const SubOutcome& outcome = outcomes[i];
      SearchResult group;
      Status status = outcome.status;
      if (status.ok()) {
        status = DecodeRangeResponse(outcome.response, &group);
      }
      if (!status.ok()) {
        // The query fails (first_error), so the partly merged answer is
        // never returned.
        NoteFailedSubrequest(group_ids[i], status, &first_error);
        continue;
      }
      StitchGroupSpans(trace, span.index(), group_ids[i], outcome);
      RecordSubFlight(MethodKindName(kind), epsilon, query.size(),
                      group_ids[i], outcome, group.matches.size(),
                      group.num_candidates, group.cost, trace_id);
      partials.push_back(std::move(group));
    }
  }
  if (!first_error.ok()) {
    return first_error;
  }
  // The in-process merge: canonical ascending-id order, costs folded.
  SearchResult merged = MergeRange(&partials);
  merged.cost.wall_ms = timer.ElapsedMillis();
  merged.cost.cpu_ms += cpu_timer.ElapsedMillis();
  if (options_.cache != nullptr) {
    merged.cost.cache_misses = 1;
    options_.cache->InsertRange(cache_key, epsilon, 0, merged);
  }
  RecordMergedFlight(MethodKindName(kind), epsilon, query.size(),
                     merged.matches.size(), merged.num_candidates,
                     merged.cost, trace_id);
  *out = std::move(merged);
  return Status::Ok();
}

Status Router::RouteKnn(const Sequence& query, size_t k, Trace* trace,
                        KnnResult* out) const {
  WallTimer timer;
  // Same caller-CPU accounting as RouteRange.
  ThreadCpuTimer cpu_timer;
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (queries_counter_ != nullptr) {
    queries_counter_->Increment();
  }
  *out = KnnResult();
  if (query.empty()) {
    return Status::InvalidArgument("query must be non-empty");
  }
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  // Wire-side cache: a stored kNN answer with k' >= k is the answer
  // (its first k entries); failing that, a stored range answer for this
  // query seeds the first wave's bound with the exact global k-th
  // distance (servers prune strictly above it, so ties survive).
  uint64_t knn_key = 0;
  double seed_bound = kInfiniteDistance;
  if (options_.cache != nullptr) {
    knn_key = SemanticCache::KnnKey(query, DtwOptions());
    KnnResult cached;
    if (options_.cache->LookupKnn(knn_key, k, 0, &cached)) {
      if (trace != nullptr) {
        ScopedSpan span(trace, "cache_hit");
        TraceCounter(trace, "cached_neighbors",
                     static_cast<double>(cached.neighbors.size()));
      }
      cached.cost.wall_ms = timer.ElapsedMillis();
      cached.cost.cpu_ms = cpu_timer.ElapsedMillis();
      RecordMergedFlight("kNN", 0.0, query.size(),
                         cached.neighbors.size(), cached.num_refined,
                         cached.cost,
                         trace != nullptr ? trace->trace_id() : 0,
                         CacheTier::kRouter);
      *out = std::move(cached);
      return Status::Ok();
    }
    (void)options_.cache->LookupKnnSeed(query, DtwOptions(), k, 0,
                                        &seed_bound);
  }
  // Like the in-process engine, kNN has no epsilon to prune with up
  // front: every group with a non-empty shard participates.
  std::vector<size_t> active;
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (const ShardFeatureBounds& bounds : groups_[g].bounds) {
      if (bounds.valid) {
        active.push_back(g);
        break;
      }
    }
  }
  const uint64_t trace_id = trace != nullptr ? trace->trace_id() : 0;
  const size_t wave_size =
      options_.knn_wave_size == 0 ? std::max<size_t>(active.size(), 1)
                                  : options_.knn_wave_size;

  KnnResult merged;
  std::vector<KnnMatch> best;
  Status first_error = Status::Ok();
  {
    ScopedSpan span(trace, "scatter_gather");
    TraceCounter(trace, "group_fanout", static_cast<double>(active.size()));
    for (size_t begin = 0;
         begin < active.size() && first_error.ok();
         begin += wave_size) {
      const size_t end = std::min(begin + wave_size, active.size());
      std::vector<size_t> wave(active.begin() + begin,
                               active.begin() + end);
      std::vector<JsonValue> requests;
      requests.reserve(wave.size());
      for (const size_t g : wave) {
        JsonValue shards = JsonValue::Array();
        for (size_t i = 0; i < groups_[g].shards.size(); ++i) {
          if (groups_[g].bounds[i].valid) {
            shards.Add(JsonValue::Int(groups_[g].shards[i]));
          }
        }
        JsonValue request = JsonValue::Object();
        request.Set("shards", std::move(shards));
        request.Set("k", JsonValue::Uint(k));
        request.Set("query", SequenceToJson(query));
        // The k-th best distance among settled groups upper-bounds the
        // global k-th (their union is a subset of the database), so it
        // is an exactness-preserving seed: the server prunes strictly
        // ABOVE it, ties survive. The cached-range seed is the exact
        // global k-th, so it is at least as tight and covers the first
        // wave too; without either, no bound.
        double bound = seed_bound;
        if (best.size() == k) {
          bound = std::min(bound, best.back().distance);
        }
        if (bound < kInfiniteDistance) {
          request.Set("bound", JsonValue::Double(bound));
        }
        if (trace != nullptr) {
          request.Set("trace", JsonValue::Bool(true));
        }
        requests.push_back(std::move(request));
      }
      std::vector<SubOutcome> outcomes;
      CallGroups(WireType::kKnn, std::move(requests), wave, timer,
                 &outcomes);
      for (size_t i = 0; i < outcomes.size(); ++i) {
        const SubOutcome& outcome = outcomes[i];
        KnnResult group;
        Status status = outcome.status;
        if (status.ok()) {
          status = DecodeKnnResponse(outcome.response, &group);
        }
        if (!status.ok()) {
          NoteFailedSubrequest(wave[i], status, &first_error);
          continue;
        }
        merged.num_refined += group.num_refined;
        merged.cost.MergeParallel(group.cost);
        StitchGroupSpans(trace, span.index(), wave[i], outcome);
        RecordSubFlight("kNN", 0.0, query.size(), wave[i], outcome,
                        group.neighbors.size(), group.num_refined,
                        group.cost, trace_id);
        best.insert(best.end(), group.neighbors.begin(),
                    group.neighbors.end());
      }
      // The running top-k over every settled group.
      KeepTopK(k, &best);
    }
  }
  if (!first_error.ok()) {
    return first_error;
  }
  merged.neighbors = std::move(best);
  merged.cost.wall_ms = timer.ElapsedMillis();
  merged.cost.cpu_ms += cpu_timer.ElapsedMillis();
  if (options_.cache != nullptr) {
    merged.cost.cache_misses = 1;
    options_.cache->InsertKnn(knn_key, k, 0, merged);
  }
  RecordMergedFlight("kNN", 0.0, query.size(), merged.neighbors.size(),
                     merged.num_refined, merged.cost, trace_id);
  *out = std::move(merged);
  return Status::Ok();
}

Router::Stats Router::stats() const {
  Stats stats;
  stats.num_groups = groups_.size();
  stats.num_shards = num_shards_;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.subrequests = subrequests_.load(std::memory_order_relaxed);
  stats.hedges = hedges_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.failed_subrequests =
      failed_subrequests_.load(std::memory_order_relaxed);
  stats.hedge_delay_ms =
      last_hedge_delay_ms_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace warpindex
