#include "net/serialize.h"

#include <string>

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
  io.Set("random_page_reads",
         JsonValue::Int(static_cast<int64_t>(cost.io.random_page_reads)));
  io.Set("sequential_page_reads",
         JsonValue::Int(
             static_cast<int64_t>(cost.io.sequential_page_reads)));
  io.Set("page_writes",
         JsonValue::Int(static_cast<int64_t>(cost.io.page_writes)));
  io.Set("seeks", JsonValue::Int(static_cast<int64_t>(cost.io.seeks)));
  json.Set("io", std::move(io));
  json.Set("dtw_cells",
           JsonValue::Int(static_cast<int64_t>(cost.dtw_cells)));
  json.Set("dtw_evals",
           JsonValue::Int(static_cast<int64_t>(cost.dtw_evals)));
  json.Set("lb_evals", JsonValue::Int(static_cast<int64_t>(cost.lb_evals)));
  json.Set("index_nodes",
           JsonValue::Int(static_cast<int64_t>(cost.index_nodes)));
  json.Set("pool_hits",
           JsonValue::Int(static_cast<int64_t>(cost.pool_hits)));
  json.Set("pool_misses",
           JsonValue::Int(static_cast<int64_t>(cost.pool_misses)));
  json.Set("wall_ms", JsonValue::Double(cost.wall_ms));
  json.Set("cpu_ms", JsonValue::Double(cost.cpu_ms));
  JsonValue stages = JsonValue::Object();
  for (const auto& [stage, ms] : cost.stages.entries()) {
    stages.Set(stage, JsonValue::Double(ms));
  }
  json.Set("stages", std::move(stages));
  JsonValue stages_cpu = JsonValue::Object();
  for (const auto& [stage, ms] : cost.stages_cpu.entries()) {
    stages_cpu.Set(stage, JsonValue::Double(ms));
  }
  json.Set("stages_cpu", std::move(stages_cpu));
  JsonValue prunes = JsonValue::Object();
  for (const auto& [stage, counts] : cost.prunes.entries()) {
    JsonValue pair = JsonValue::Array();
    pair.Add(JsonValue::Int(static_cast<int64_t>(counts.in)));
    pair.Add(JsonValue::Int(static_cast<int64_t>(counts.pruned)));
    prunes.Set(stage, std::move(pair));
  }
  json.Set("prunes", std::move(prunes));
  return json;
}

Status JsonToCost(const JsonValue& json, SearchCost* out) {
  WARPINDEX_RETURN_IF_ERROR(
      ExpectKind(json, JsonValue::Kind::kObject, "cost"));
  *out = SearchCost();
  if (const JsonValue* io = json.Find("io");
      io != nullptr && io->kind() == JsonValue::Kind::kObject) {
    out->io.random_page_reads =
        static_cast<uint64_t>(io->GetInt("random_page_reads", 0));
    out->io.sequential_page_reads =
        static_cast<uint64_t>(io->GetInt("sequential_page_reads", 0));
    out->io.page_writes =
        static_cast<uint64_t>(io->GetInt("page_writes", 0));
    out->io.seeks = static_cast<uint64_t>(io->GetInt("seeks", 0));
  }
  out->dtw_cells = static_cast<uint64_t>(json.GetInt("dtw_cells", 0));
  out->dtw_evals = static_cast<uint64_t>(json.GetInt("dtw_evals", 0));
  out->lb_evals = static_cast<uint64_t>(json.GetInt("lb_evals", 0));
  out->index_nodes = static_cast<uint64_t>(json.GetInt("index_nodes", 0));
  out->pool_hits = static_cast<uint64_t>(json.GetInt("pool_hits", 0));
  out->pool_misses = static_cast<uint64_t>(json.GetInt("pool_misses", 0));
  out->wall_ms = json.GetDouble("wall_ms", 0.0);
  out->cpu_ms = json.GetDouble("cpu_ms", 0.0);
  if (const JsonValue* stages = json.Find("stages");
      stages != nullptr && stages->kind() == JsonValue::Kind::kObject) {
    for (const auto& [stage, ms] : stages->members()) {
      out->stages.Add(stage, ms.AsDouble());
    }
  }
  if (const JsonValue* stages_cpu = json.Find("stages_cpu");
      stages_cpu != nullptr &&
      stages_cpu->kind() == JsonValue::Kind::kObject) {
    for (const auto& [stage, ms] : stages_cpu->members()) {
      out->stages_cpu.Add(stage, ms.AsDouble());
    }
  }
  if (const JsonValue* prunes = json.Find("prunes");
      prunes != nullptr && prunes->kind() == JsonValue::Kind::kObject) {
    for (const auto& [stage, pair] : prunes->members()) {
      if (pair.kind() != JsonValue::Kind::kArray || pair.size() != 2) {
        return Status::InvalidArgument("cost.prunes entry for '" + stage +
                                       "' is not an [in, pruned] pair");
      }
      out->prunes.Record(stage,
                         static_cast<uint64_t>(pair.at(0).AsInt()),
                         static_cast<uint64_t>(pair.at(1).AsInt()));
    }
  }
  return Status::Ok();
}

JsonValue SpansToJson(const std::vector<TraceSpan>& spans) {
  JsonValue array = JsonValue::Array();
  for (const TraceSpan& span : spans) {
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::Str(span.name));
    item.Set("parent", JsonValue::Int(span.parent));
    item.Set("start_ms", JsonValue::Double(span.start_ms));
    item.Set("duration_ms", JsonValue::Double(span.duration_ms));
    item.Set("cpu_ms", JsonValue::Double(span.cpu_ms));
    item.Set("shard", JsonValue::Int(span.shard));
    item.Set("tid", JsonValue::Int(static_cast<int64_t>(span.tid)));
    JsonValue counters = JsonValue::Object();
    for (const auto& [name, value] : span.counters) {
      counters.Set(name, JsonValue::Double(value));
    }
    item.Set("counters", std::move(counters));
    array.Add(std::move(item));
  }
  return array;
}

Status JsonToSpans(const JsonValue& json, std::vector<TraceSpan>* out) {
  WARPINDEX_RETURN_IF_ERROR(
      ExpectKind(json, JsonValue::Kind::kArray, "spans"));
  out->clear();
  out->reserve(json.size());
  for (size_t i = 0; i < json.size(); ++i) {
    const JsonValue& item = json.at(i);
    WARPINDEX_RETURN_IF_ERROR(
        ExpectKind(item, JsonValue::Kind::kObject, "span"));
    TraceSpan span;
    span.name = item.GetString("name", "");
    const int64_t parent = item.GetInt("parent", -1);
    if (parent < -1 || parent >= static_cast<int64_t>(i)) {
      return Status::InvalidArgument(
          "span " + std::to_string(i) + " has parent " +
          std::to_string(parent) + ", which is not an earlier span");
    }
    span.parent = static_cast<int>(parent);
    span.start_ms = item.GetDouble("start_ms", 0.0);
    span.duration_ms = item.GetDouble("duration_ms", 0.0);
    span.cpu_ms = item.GetDouble("cpu_ms", 0.0);
    span.shard = static_cast<int32_t>(item.GetInt("shard", -1));
    span.tid = static_cast<uint32_t>(item.GetInt("tid", 0));
    if (const JsonValue* counters = item.Find("counters");
        counters != nullptr &&
        counters->kind() == JsonValue::Kind::kObject) {
      for (const auto& [name, value] : counters->members()) {
        span.counters.emplace_back(name, value.AsDouble());
      }
    }
    out->push_back(std::move(span));
  }
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

}  // namespace warpindex
