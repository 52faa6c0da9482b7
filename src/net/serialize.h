// JSON <-> core-struct conversions for the wire protocol. Shared by the
// shard server (encode side) and the router (decode side) so both ends
// agree field-for-field; the property tests in
// tests/net_router_property_test.cc depend on every conversion here
// round-tripping exactly.
//
// Exactness: doubles are rendered in their shortest round-trip form
// (AppendJsonNumber, net/json.h) and parsed with strtod, which gives back
// every finite IEEE double bit-identically.
// Sequences, epsilon, distances, and MBR corners therefore survive the
// wire unchanged, and the router's merge produces the same bits as the
// in-process ShardedEngine.

#ifndef WARPINDEX_NET_SERIALIZE_H_
#define WARPINDEX_NET_SERIALIZE_H_

#include <vector>

#include "common/status.h"
#include "core/search_method.h"
#include "core/tw_knn_search.h"
#include "net/json.h"
#include "obs/trace.h"
#include "rtree/geometry.h"
#include "sequence/sequence.h"

namespace warpindex {

// Sequence <-> flat JSON array of element values (the id does not cross
// the wire; queries are anonymous).
JsonValue SequenceToJson(const Sequence& sequence);
Status JsonToSequence(const JsonValue& json, Sequence* out);

// SearchCost <-> object. Everything the router needs to reproduce the
// ShardedEngine's merged cost accounting crosses: io, dtw/lb work,
// index/pool traffic, wall time, per-stage timings and prune counters.
// Decoding is strict: a present count or prune entry that is not a
// non-negative integer, or a present *_ms value that is not a number, is
// InvalidArgument, and *out is untouched on error.
JsonValue CostToJson(const SearchCost& cost);
Status JsonToCost(const JsonValue& json, SearchCost* out);

// Trace spans <-> array of span objects: the one span serializer, used by
// the wire, trace JSON lines, and /tracez. Each object is
//   {"span":i,"parent":p,"name":...,"start_ms":...,"duration_ms":...,
//    "cpu_ms":...,"shard":s,"tid":t,"counters":{...}}
// with shard/tid omitted on untagged spans and counters omitted when
// empty; decoding reads an omitted field as that default (-1, 0, none).
// Parent indexes are local to the array; the router rebases them when
// stitching. Decoding is strict: a parent that is not an earlier span, a
// shard outside [-1, INT32_MAX], a tid outside uint32, or a non-numeric
// *_ms or counter value is InvalidArgument, and *out is untouched on
// error.
JsonValue SpansToJson(const std::vector<TraceSpan>& spans);
Status JsonToSpans(const JsonValue& json, std::vector<TraceSpan>* out);

// Feature MBR <-> {"min":[...],"max":[...]}. dims from array length.
JsonValue RectToJson(const Rect& rect);
Status JsonToRect(const JsonValue& json, Rect* out);

// kNN matches <-> array of {"id":...,"distance":...}. Decoding rejects
// (InvalidArgument) a neighbor without an integer id or a numeric
// distance.
JsonValue KnnMatchesToJson(const std::vector<KnnMatch>& matches);
Status JsonToKnnMatches(const JsonValue& json, std::vector<KnnMatch>* out);

// A shard server's RANGE / KNN response body, as the router reads it.
// RANGE: "matches" (integer ids) with one numeric "distances" entry per
// match, "num_candidates" and "cost"; KNN: "neighbors"
// (JsonToKnnMatches), "num_refined" and "cost". The count must be a
// non-negative integer and the cost must pass JsonToCost. A body that
// breaks any rule is Internal (like a body that fails to parse), never
// an answer with that group's matches, work or counts missing; *out is
// untouched on error.
Status DecodeRangeResponse(const JsonValue& response, SearchResult* out);
Status DecodeKnnResponse(const JsonValue& response, KnnResult* out);

}  // namespace warpindex

#endif  // WARPINDEX_NET_SERIALIZE_H_
