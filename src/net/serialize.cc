#include "net/serialize.h"

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "obs/exporters.h"

namespace warpindex {
namespace {

Status ExpectKind(const JsonValue& json, JsonValue::Kind kind,
                  const char* what) {
  if (json.kind() != kind) {
    return Status::InvalidArgument(std::string(what) +
                                   " has the wrong JSON shape");
  }
  return Status::Ok();
}

Status NumberArrayToVector(const JsonValue& json, const char* what,
                           std::vector<double>* out) {
  WARPINDEX_RETURN_IF_ERROR(ExpectKind(json, JsonValue::Kind::kArray, what));
  out->clear();
  out->reserve(json.size());
  for (const JsonValue& item : json.items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument(std::string(what) +
                                     " contains a non-numeric element");
    }
    out->push_back(item.AsDouble());
  }
  return Status::Ok();
}

// Reads the integer at `key` when present; a present value that is not an
// integer in [lo, hi] is InvalidArgument. An absent key leaves *out.
Status ReadInt(const JsonValue& json, const std::string& key, int64_t lo,
               int64_t hi, int64_t* out) {
  const JsonValue* value = json.Find(key);
  if (value == nullptr) {
    return Status::Ok();
  }
  int64_t n = 0;
  if (!value->TryAsInt(&n) || n < lo || n > hi) {
    return Status::InvalidArgument("'" + key + "' must be an integer in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  *out = n;
  return Status::Ok();
}

// A cost counter: a non-negative integer when present.
Status ReadCount(const JsonValue& json, const std::string& key,
                 uint64_t* out) {
  int64_t n = 0;
  WARPINDEX_RETURN_IF_ERROR(
      ReadInt(json, key, 0, std::numeric_limits<int64_t>::max(), &n));
  *out = static_cast<uint64_t>(n);
  return Status::Ok();
}

// Reads the number at `key` when present; a present non-number is
// InvalidArgument. An absent key leaves *out.
Status ReadNumber(const JsonValue& json, const std::string& key,
                  double* out) {
  const JsonValue* value = json.Find(key);
  if (value == nullptr) {
    return Status::Ok();
  }
  if (!value->is_number()) {
    return Status::InvalidArgument("'" + key + "' must be a number");
  }
  *out = value->AsDouble();
  return Status::Ok();
}

// An optional {stage: ms} object.
Status ReadStageTimings(const JsonValue& json, const std::string& key,
                        StageTimings* out) {
  const JsonValue* stages = json.Find(key);
  if (stages == nullptr) {
    return Status::Ok();
  }
  WARPINDEX_RETURN_IF_ERROR(
      ExpectKind(*stages, JsonValue::Kind::kObject, key.c_str()));
  for (const auto& [stage, ms] : stages->members()) {
    if (!ms.is_number()) {
      return Status::InvalidArgument("'" + key + "' entry for '" + stage +
                                     "' must be a number");
    }
    out->Add(stage, ms.AsDouble());
  }
  return Status::Ok();
}

// The parts of a RANGE (`count_key` "num_candidates") or KNN
// ("num_refined") response body beside its matches: the count and the
// cost, both required.
Status ReadCountAndCost(const JsonValue& response, const std::string& count_key,
                        size_t* count, SearchCost* cost) {
  int64_t n = -1;  // stays -1 when absent
  WARPINDEX_RETURN_IF_ERROR(ReadInt(
      response, count_key, 0, std::numeric_limits<int64_t>::max(), &n));
  const JsonValue* cost_json = response.Find("cost");
  if (n < 0 || cost_json == nullptr) {
    return Status::InvalidArgument("needs '" + count_key + "' and 'cost'");
  }
  WARPINDEX_RETURN_IF_ERROR(JsonToCost(*cost_json, cost));
  *count = static_cast<size_t>(n);
  return Status::Ok();
}

// A RANGE body's "matches" (integer ids), one numeric "distances" entry
// per match, count and cost.
Status ReadRangeResponse(const JsonValue& response, SearchResult* out) {
  const JsonValue* matches = response.Find("matches");
  const JsonValue* distances = response.Find("distances");
  if (matches == nullptr || distances == nullptr) {
    return Status::InvalidArgument("needs \"matches\" and \"distances\"");
  }
  WARPINDEX_RETURN_IF_ERROR(
      ExpectKind(*matches, JsonValue::Kind::kArray, "matches"));
  WARPINDEX_RETURN_IF_ERROR(
      NumberArrayToVector(*distances, "distances", &out->distances));
  if (out->distances.size() != matches->size()) {
    return Status::InvalidArgument("needs one distance per match");
  }
  for (const JsonValue& match : matches->items()) {
    SequenceId id = kInvalidSequenceId;
    if (!match.TryAsInt(&id)) {
      return Status::InvalidArgument("match ids must be integers");
    }
    out->matches.push_back(id);
  }
  return ReadCountAndCost(response, "num_candidates", &out->num_candidates,
                          &out->cost);
}

// A KNN body's "neighbors", count and cost.
Status ReadKnnResponse(const JsonValue& response, KnnResult* out) {
  const JsonValue* neighbors = response.Find("neighbors");
  if (neighbors == nullptr) {
    return Status::InvalidArgument("needs \"neighbors\"");
  }
  WARPINDEX_RETURN_IF_ERROR(JsonToKnnMatches(*neighbors, &out->neighbors));
  return ReadCountAndCost(response, "num_refined", &out->num_refined,
                          &out->cost);
}

// Decodes with `read` into a fresh result; a failure is Internal.
template <typename Result, typename Read>
Status DecodeResponse(const JsonValue& response, const char* rpc, Read read,
                      Result* out) {
  Result result;
  const Status status = read(response, &result);
  if (!status.ok()) {
    return Status::Internal(std::string("malformed ") + rpc +
                            " response: " + status.message());
  }
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace

JsonValue SequenceToJson(const Sequence& sequence) {
  JsonValue array = JsonValue::Array();
  for (const double v : sequence.elements()) {
    array.Add(JsonValue::Double(v));
  }
  return array;
}

Status JsonToSequence(const JsonValue& json, Sequence* out) {
  std::vector<double> elements;
  WARPINDEX_RETURN_IF_ERROR(
      NumberArrayToVector(json, "sequence", &elements));
  if (elements.empty()) {
    return Status::InvalidArgument("sequence must be non-empty");
  }
  *out = Sequence(std::move(elements));
  return Status::Ok();
}

JsonValue CostToJson(const SearchCost& cost) {
  JsonValue json = JsonValue::Object();
  JsonValue io = JsonValue::Object();
  io.Set("random_page_reads", JsonValue::Uint(cost.io.random_page_reads));
  io.Set("sequential_page_reads",
         JsonValue::Uint(cost.io.sequential_page_reads));
  io.Set("page_writes", JsonValue::Uint(cost.io.page_writes));
  io.Set("seeks", JsonValue::Uint(cost.io.seeks));
  json.Set("io", std::move(io));
  json.Set("dtw_cells", JsonValue::Uint(cost.dtw_cells));
  json.Set("dtw_evals", JsonValue::Uint(cost.dtw_evals));
  json.Set("lb_evals", JsonValue::Uint(cost.lb_evals));
  json.Set("index_nodes", JsonValue::Uint(cost.index_nodes));
  json.Set("pool_hits", JsonValue::Uint(cost.pool_hits));
  json.Set("pool_misses", JsonValue::Uint(cost.pool_misses));
  json.Set("wall_ms", JsonValue::Double(cost.wall_ms));
  json.Set("cpu_ms", JsonValue::Double(cost.cpu_ms));
  json.Set("stages", StageTimingsToJson(cost.stages));
  json.Set("stages_cpu", StageTimingsToJson(cost.stages_cpu));
  JsonValue prunes = JsonValue::Object();
  for (const auto& [stage, counts] : cost.prunes.entries()) {
    JsonValue pair = JsonValue::Array();
    pair.Add(JsonValue::Uint(counts.in));
    pair.Add(JsonValue::Uint(counts.pruned));
    prunes.Set(stage, std::move(pair));
  }
  json.Set("prunes", std::move(prunes));
  return json;
}

Status JsonToCost(const JsonValue& json, SearchCost* out) {
  WARPINDEX_RETURN_IF_ERROR(
      ExpectKind(json, JsonValue::Kind::kObject, "cost"));
  SearchCost cost;
  if (const JsonValue* io = json.Find("io"); io != nullptr) {
    WARPINDEX_RETURN_IF_ERROR(
        ExpectKind(*io, JsonValue::Kind::kObject, "cost.io"));
    WARPINDEX_RETURN_IF_ERROR(
        ReadCount(*io, "random_page_reads", &cost.io.random_page_reads));
    WARPINDEX_RETURN_IF_ERROR(ReadCount(*io, "sequential_page_reads",
                                        &cost.io.sequential_page_reads));
    WARPINDEX_RETURN_IF_ERROR(
        ReadCount(*io, "page_writes", &cost.io.page_writes));
    WARPINDEX_RETURN_IF_ERROR(ReadCount(*io, "seeks", &cost.io.seeks));
  }
  WARPINDEX_RETURN_IF_ERROR(ReadCount(json, "dtw_cells", &cost.dtw_cells));
  WARPINDEX_RETURN_IF_ERROR(ReadCount(json, "dtw_evals", &cost.dtw_evals));
  WARPINDEX_RETURN_IF_ERROR(ReadCount(json, "lb_evals", &cost.lb_evals));
  WARPINDEX_RETURN_IF_ERROR(
      ReadCount(json, "index_nodes", &cost.index_nodes));
  WARPINDEX_RETURN_IF_ERROR(ReadCount(json, "pool_hits", &cost.pool_hits));
  WARPINDEX_RETURN_IF_ERROR(
      ReadCount(json, "pool_misses", &cost.pool_misses));
  WARPINDEX_RETURN_IF_ERROR(ReadNumber(json, "wall_ms", &cost.wall_ms));
  WARPINDEX_RETURN_IF_ERROR(ReadNumber(json, "cpu_ms", &cost.cpu_ms));
  WARPINDEX_RETURN_IF_ERROR(
      ReadStageTimings(json, "stages", &cost.stages));
  WARPINDEX_RETURN_IF_ERROR(
      ReadStageTimings(json, "stages_cpu", &cost.stages_cpu));
  if (const JsonValue* prunes = json.Find("prunes"); prunes != nullptr) {
    WARPINDEX_RETURN_IF_ERROR(
        ExpectKind(*prunes, JsonValue::Kind::kObject, "cost.prunes"));
    for (const auto& [stage, pair] : prunes->members()) {
      int64_t in = 0;
      int64_t pruned = 0;
      if (pair.kind() != JsonValue::Kind::kArray || pair.size() != 2 ||
          !pair.at(0).TryAsInt(&in) || !pair.at(1).TryAsInt(&pruned) ||
          in < 0 || pruned < 0) {
        return Status::InvalidArgument(
            "cost.prunes entry for '" + stage +
            "' is not an [in, pruned] pair of non-negative integers");
      }
      cost.prunes.Record(stage, static_cast<uint64_t>(in),
                         static_cast<uint64_t>(pruned));
    }
  }
  *out = std::move(cost);
  return Status::Ok();
}

JsonValue SpansToJson(const std::vector<TraceSpan>& spans) {
  JsonValue array = JsonValue::Array();
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    JsonValue item = JsonValue::Object();
    item.Set("span", JsonValue::Uint(i));
    item.Set("parent", JsonValue::Int(span.parent));
    item.Set("name", JsonValue::Str(span.name));
    item.Set("start_ms", JsonValue::Double(span.start_ms));
    item.Set("duration_ms", JsonValue::Double(span.duration_ms));
    item.Set("cpu_ms", JsonValue::Double(span.cpu_ms));
    // An untagged span omits shard/tid and a span without counters omits
    // them; JsonToSpans reads each omitted field back as that default.
    if (span.shard >= 0 || span.tid > 0) {
      item.Set("shard", JsonValue::Int(span.shard));
      item.Set("tid", JsonValue::Uint(span.tid));
    }
    if (!span.counters.empty()) {
      JsonValue counters = JsonValue::Object();
      for (const auto& [name, value] : span.counters) {
        counters.Set(name, JsonValue::Double(value));
      }
      item.Set("counters", std::move(counters));
    }
    array.Add(std::move(item));
  }
  return array;
}

Status JsonToSpans(const JsonValue& json, std::vector<TraceSpan>* out) {
  WARPINDEX_RETURN_IF_ERROR(
      ExpectKind(json, JsonValue::Kind::kArray, "spans"));
  std::vector<TraceSpan> spans;
  spans.reserve(json.size());
  for (size_t i = 0; i < json.size(); ++i) {
    const JsonValue& item = json.at(i);
    WARPINDEX_RETURN_IF_ERROR(
        ExpectKind(item, JsonValue::Kind::kObject, "span"));
    TraceSpan span;
    span.name = item.GetString("name", "");
    int64_t parent = -1;
    WARPINDEX_RETURN_IF_ERROR(ReadInt(item, "parent", -1,
                                      static_cast<int64_t>(i) - 1, &parent));
    span.parent = static_cast<int>(parent);
    WARPINDEX_RETURN_IF_ERROR(ReadNumber(item, "start_ms", &span.start_ms));
    WARPINDEX_RETURN_IF_ERROR(
        ReadNumber(item, "duration_ms", &span.duration_ms));
    WARPINDEX_RETURN_IF_ERROR(ReadNumber(item, "cpu_ms", &span.cpu_ms));
    int64_t shard = -1;
    int64_t tid = 0;
    WARPINDEX_RETURN_IF_ERROR(ReadInt(
        item, "shard", -1, std::numeric_limits<int32_t>::max(), &shard));
    WARPINDEX_RETURN_IF_ERROR(ReadInt(
        item, "tid", 0, std::numeric_limits<uint32_t>::max(), &tid));
    span.shard = static_cast<int32_t>(shard);
    span.tid = static_cast<uint32_t>(tid);
    if (const JsonValue* counters = item.Find("counters");
        counters != nullptr) {
      WARPINDEX_RETURN_IF_ERROR(
          ExpectKind(*counters, JsonValue::Kind::kObject, "span counters"));
      for (const auto& [name, value] : counters->members()) {
        if (!value.is_number()) {
          return Status::InvalidArgument("span counter '" + name +
                                         "' is not a number");
        }
        span.counters.emplace_back(name, value.AsDouble());
      }
    }
    spans.push_back(std::move(span));
  }
  *out = std::move(spans);
  return Status::Ok();
}

JsonValue RectToJson(const Rect& rect) {
  JsonValue json = JsonValue::Object();
  JsonValue mins = JsonValue::Array();
  JsonValue maxs = JsonValue::Array();
  for (int d = 0; d < rect.dims; ++d) {
    mins.Add(JsonValue::Double(rect.min(d)));
    maxs.Add(JsonValue::Double(rect.max(d)));
  }
  json.Set("min", std::move(mins));
  json.Set("max", std::move(maxs));
  return json;
}

Status JsonToRect(const JsonValue& json, Rect* out) {
  WARPINDEX_RETURN_IF_ERROR(
      ExpectKind(json, JsonValue::Kind::kObject, "mbr"));
  const JsonValue* mins = json.Find("min");
  const JsonValue* maxs = json.Find("max");
  if (mins == nullptr || maxs == nullptr) {
    return Status::InvalidArgument("mbr is missing min/max");
  }
  std::vector<double> lo;
  std::vector<double> hi;
  WARPINDEX_RETURN_IF_ERROR(NumberArrayToVector(*mins, "mbr.min", &lo));
  WARPINDEX_RETURN_IF_ERROR(NumberArrayToVector(*maxs, "mbr.max", &hi));
  if (lo.size() != hi.size() || lo.empty() ||
      lo.size() > static_cast<size_t>(kMaxRTreeDims)) {
    return Status::InvalidArgument("mbr min/max lengths are invalid");
  }
  *out = Rect();
  out->dims = static_cast<int>(lo.size());
  for (int d = 0; d < out->dims; ++d) {
    out->Set(d, lo[static_cast<size_t>(d)], hi[static_cast<size_t>(d)]);
  }
  return Status::Ok();
}

JsonValue KnnMatchesToJson(const std::vector<KnnMatch>& matches) {
  JsonValue array = JsonValue::Array();
  for (const KnnMatch& match : matches) {
    JsonValue item = JsonValue::Object();
    item.Set("id", JsonValue::Int(match.id));
    item.Set("distance", JsonValue::Double(match.distance));
    array.Add(std::move(item));
  }
  return array;
}

Status JsonToKnnMatches(const JsonValue& json,
                        std::vector<KnnMatch>* out) {
  WARPINDEX_RETURN_IF_ERROR(
      ExpectKind(json, JsonValue::Kind::kArray, "neighbors"));
  out->clear();
  out->reserve(json.size());
  for (const JsonValue& item : json.items()) {
    WARPINDEX_RETURN_IF_ERROR(
        ExpectKind(item, JsonValue::Kind::kObject, "neighbor"));
    const JsonValue* id = item.Find("id");
    const JsonValue* distance = item.Find("distance");
    KnnMatch match;
    if (id == nullptr || !id->TryAsInt(&match.id)) {
      return Status::InvalidArgument("neighbor id must be an integer");
    }
    if (distance == nullptr || !distance->is_number()) {
      return Status::InvalidArgument("neighbor distance must be a number");
    }
    match.distance = distance->AsDouble();
    out->push_back(match);
  }
  return Status::Ok();
}


Status DecodeRangeResponse(const JsonValue& response, SearchResult* out) {
  return DecodeResponse(response, "RANGE", ReadRangeResponse, out);
}

Status DecodeKnnResponse(const JsonValue& response, KnnResult* out) {
  return DecodeResponse(response, "KNN", ReadKnnResponse, out);
}

}  // namespace warpindex
