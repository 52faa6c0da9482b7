#include "net/shard_server.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "net/serialize.h"
#include "obs/exporters.h"
#include "shard/fanout.h"

namespace warpindex {
ShardServer::ShardServer(ShardServerOptions options)
    : options_(std::move(options)),
      server_([this] {
        WireServerOptions server_options = options_.server;
        server_options.name = "shard-server";
        return server_options;
      }()) {}

Status ShardServer::Create(ShardServerOptions options,
                           std::unique_ptr<ShardServer>* out) {
  auto server = std::unique_ptr<ShardServer>(new ShardServer(std::move(options)));
  WARPINDEX_RETURN_IF_ERROR(server->Load());
  server->RegisterHandlers();
  *out = std::move(server);
  return Status::Ok();
}

Status ShardServer::Load() {
  if (options_.serve_shards.empty()) {
    return Status::InvalidArgument(
        "a shard server must serve at least one shard");
  }
  // The live-only MBRs the loader computes are exactly ShardedEngine's,
  // so the router prunes with the in-process engine's boxes.
  ShardSet set;
  WARPINDEX_RETURN_IF_ERROR(OpenShardSet(options_.db_dir,
                                         options_.serve_shards,
                                         options_.engine, nullptr, &set));
  manifest_ = std::move(set.manifest);
  shards_ = std::move(set.shards);
  return Status::Ok();
}

void ShardServer::RegisterHandlers() {
  server_.Handle(WireType::kHello,
                 [this](const std::string&, const JsonValue& request,
                        JsonValue* response) {
                   return HandleHello(request, response);
                 });
  server_.Handle(WireType::kRange,
                 [this](const std::string&, const JsonValue& request,
                        JsonValue* response) {
                   return HandleRange(request, response);
                 });
  server_.Handle(WireType::kKnn,
                 [this](const std::string&, const JsonValue& request,
                        JsonValue* response) {
                   return HandleKnn(request, response);
                 });
  server_.Handle(WireType::kStats,
                 [this](const std::string&, const JsonValue& request,
                        JsonValue* response) {
                   return HandleStats(request, response);
                 });
}

Status ShardServer::HandleStats(const JsonValue& /*request*/,
                                JsonValue* response) {
  response->Set("server", JsonValue::Str("shard-server"));
  response->Set("group", JsonValue::Int(options_.group));
  response->Set("replica", JsonValue::Int(options_.replica));
  response->Set("draining", JsonValue::Bool(server_.draining()));
  response->Set("shards", JsonValue::Uint(shards_.size()));
  // The same snapshot /metrics would render on this process, as a JSON
  // object the poller can walk (counter sums, histogram bucket merges).
  MetricsRegistry* registry = options_.server.metrics != nullptr
                                  ? options_.server.metrics
                                  : &MetricsRegistry::Global();
  const ProcessSelfMetrics process = CollectProcessSelfMetrics();
  response->Set("metrics",
                MetricsToJson(registry->TakeSnapshot(), nullptr, &process));
  return Status::Ok();
}

std::vector<ShardServer::ServedShard> ShardServer::served() const {
  std::vector<ServedShard> out;
  out.reserve(shards_.size());
  for (size_t slot = 0; slot < shards_.size(); ++slot) {
    ServedShard row;
    row.shard = options_.serve_shards[slot];
    row.sequences = shards_[slot].engine->dataset().size();
    row.live = shards_[slot].engine->live_size();
    out.push_back(row);
  }
  return out;
}

int ShardServer::SlotOf(uint32_t shard) const {
  for (size_t slot = 0; slot < options_.serve_shards.size(); ++slot) {
    if (options_.serve_shards[slot] == shard) {
      return static_cast<int>(slot);
    }
  }
  return -1;
}

Status ShardServer::RequestedSlots(const JsonValue& request,
                                   std::vector<size_t>* slots) const {
  const JsonValue* shards = request.Find("shards");
  if (shards == nullptr || shards->kind() != JsonValue::Kind::kArray ||
      shards->size() == 0) {
    return Status::InvalidArgument(
        "request needs a non-empty 'shards' array");
  }
  slots->clear();
  slots->reserve(shards->size());
  for (const JsonValue& item : shards->items()) {
    // Strict: a string, fractional, boolean or out-of-range entry is an
    // error, never silently read as some shard the server holds.
    int64_t shard = -1;
    if (!item.TryAsInt(&shard)) {
      return Status::InvalidArgument("'shards' entries must be integers");
    }
    const int slot =
        shard >= 0 && shard <= std::numeric_limits<uint32_t>::max()
            ? SlotOf(static_cast<uint32_t>(shard))
            : -1;
    if (slot < 0) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard) +
          " is not served by this server");
    }
    if (std::find(slots->begin(), slots->end(), slot) != slots->end()) {
      return Status::InvalidArgument("shard " + std::to_string(shard) +
                                     " listed twice");
    }
    slots->push_back(static_cast<size_t>(slot));
  }
  return Status::Ok();
}

Status ShardServer::HandleHello(const JsonValue& /*request*/,
                                JsonValue* response) {
  response->Set("role", JsonValue::Str("shard-server"));
  response->Set("group", JsonValue::Int(options_.group));
  response->Set("replica", JsonValue::Int(options_.replica));
  response->Set("num_shards", JsonValue::Uint(manifest_.assignment.num_shards));
  response->Set("partitioner",
                JsonValue::Str(PartitionerKindName(manifest_.partitioner)));
  JsonValue shards = JsonValue::Array();
  for (size_t slot = 0; slot < shards_.size(); ++slot) {
    const BaseShard& shard = shards_[slot];
    JsonValue item = JsonValue::Object();
    item.Set("shard", JsonValue::Int(options_.serve_shards[slot]));
    item.Set("sequences", JsonValue::Uint(shard.engine->dataset().size()));
    item.Set("live", JsonValue::Uint(shard.engine->live_size()));
    // null MBR = empty shard; the router prunes it unconditionally,
    // matching ShardFeatureBounds::valid == false in-process.
    item.Set("mbr", shard.bounds.valid ? RectToJson(shard.bounds.mbr)
                                       : JsonValue::Null());
    shards.Add(std::move(item));
  }
  response->Set("shards", std::move(shards));
  return Status::Ok();
}

size_t ShardServer::BeginShardSpan(Trace* trace, size_t slot) const {
  const int32_t shard = static_cast<int32_t>(options_.serve_shards[slot]);
  trace->SetThreadTag(shard, 0);
  const size_t span = trace->BeginSpan("shard");
  trace->AddCounter("shard_index", static_cast<double>(shard));
  return span;
}

// Both handlers run on this thread with the fan-out core's helpers; the
// shipped spans sit at the root of the trace (the router's own
// scatter_gather span is the only one per routed query). RANGE searches
// its slots one by one, each under a "shard" span, and merges; KNN runs
// one refine loop over all of them. The engine calls measure their own
// CPU, so FanOutClock excludes those windows and adds only the parse /
// merge / serialize share.
Status ShardServer::HandleRange(const JsonValue& request,
                                JsonValue* response) {
  FanOutClock clock;
  std::vector<size_t> slots;
  WARPINDEX_RETURN_IF_ERROR(RequestedSlots(request, &slots));
  MethodKind kind;
  const std::string method = request.GetString("method", "");
  if (!ParseMethodKind(method, &kind)) {
    return Status::InvalidArgument("unknown method '" + method + "'");
  }
  // A remote request must never crash the process: ST-Filter needs the
  // suffix tree this server may have been started without.
  if (kind == MethodKind::kStFilter &&
      !options_.engine.build_st_filter) {
    return Status::InvalidArgument(
        "this server was started without the ST-Filter index "
        "(st_filter=false)");
  }
  const double epsilon = request.GetDouble("epsilon", -1.0);
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }
  const JsonValue* query_json = request.Find("query");
  if (query_json == nullptr) {
    return Status::InvalidArgument("request needs a 'query' array");
  }
  Sequence query;
  WARPINDEX_RETURN_IF_ERROR(JsonToSequence(*query_json, &query));
  const bool traced = request.GetBool("trace", false);

  Trace trace;
  std::vector<SearchResult> partials(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    const BaseShard& shard = shards_[slots[i]];
    Trace* sub = traced ? &trace : nullptr;
    const size_t span = traced ? BeginShardSpan(sub, slots[i]) : 0;
    DtwScratch scratch;
    ThreadCpuTimer search_cpu;
    SearchResult& partial = partials[i];
    partial = shard.engine->SearchWith(kind, query, epsilon, sub, &scratch);
    clock.ExcludeCpu(search_cpu.ElapsedMillis());
    if (traced) {
      trace.AddCounter("candidates",
                       static_cast<double>(partial.num_candidates));
      trace.AddCounter("matches",
                       static_cast<double>(partial.matches.size()));
      trace.EndSpan(span);
    }
    RemapToGlobal(*shard.global_of, nullptr, &partial);
  }
  SearchResult merged = MergeRange(&partials);
  clock.Stamp(&merged.cost);

  JsonValue matches = JsonValue::Array();
  for (const SequenceId id : merged.matches) {
    matches.Add(JsonValue::Int(id));
  }
  response->Set("matches", std::move(matches));
  // Exact per-match D_tw distances, parallel to "matches". Doubles
  // serialize in round-trip form so the router's cache stores
  // bit-identical values.
  JsonValue distances = JsonValue::Array();
  for (const double d : merged.distances) {
    distances.Add(JsonValue::Double(d));
  }
  response->Set("distances", std::move(distances));
  response->Set("num_candidates", JsonValue::Uint(merged.num_candidates));
  response->Set("cost", CostToJson(merged.cost));
  if (traced) {
    response->Set("spans", SpansToJson(trace.spans()));
  }
  return Status::Ok();
}

Status ShardServer::HandleKnn(const JsonValue& request,
                              JsonValue* response) {
  FanOutClock clock;
  std::vector<size_t> slots;
  WARPINDEX_RETURN_IF_ERROR(RequestedSlots(request, &slots));
  int64_t k = 0;
  const JsonValue* k_json = request.Find("k");
  if (k_json == nullptr || !k_json->TryAsInt(&k) || k < 1) {
    return Status::InvalidArgument("k must be an integer >= 1");
  }
  const JsonValue* query_json = request.Find("query");
  if (query_json == nullptr) {
    return Status::InvalidArgument("request needs a 'query' array");
  }
  Sequence query;
  WARPINDEX_RETURN_IF_ERROR(JsonToSequence(*query_json, &query));
  const bool traced = request.GetBool("trace", false);

  // The router's wave bound seeds the refine loop's cutoff: pruning is
  // strictly greater-than, so members tying the bound survive for the
  // router's (distance, id) merge (docs/NETWORKING.md). A bound below
  // zero would prune every neighbor, so like a negative RANGE epsilon it
  // is refused, never answered as an empty list.
  double seed_bound = kInfiniteDistance;
  if (const JsonValue* bound = request.Find("bound"); bound != nullptr) {
    if (!bound->is_number() || !(bound->AsDouble() >= 0.0)) {
      return Status::InvalidArgument("bound must be a number >= 0");
    }
    seed_bound = bound->AsDouble();
  }

  // One refine loop over every requested slot's index, like the
  // in-process engines; its spans sit at the root of the shipped trace.
  Trace trace;
  KnnResult result =
      SearchPartitionsKnn(shards_, slots, {}, {}, query,
                          static_cast<size_t>(k), seed_bound,
                          traced ? &trace : nullptr);
  clock.ExcludeCpu(result.cost.cpu_ms);
  clock.Stamp(&result.cost);

  response->Set("neighbors", KnnMatchesToJson(result.neighbors));
  response->Set("num_refined", JsonValue::Uint(result.num_refined));
  response->Set("cost", CostToJson(result.cost));
  if (traced) {
    response->Set("spans", SpansToJson(trace.spans()));
  }
  return Status::Ok();
}

}  // namespace warpindex
