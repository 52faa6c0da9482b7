// JSON <-> core-struct conversions for the wire protocol. Shared by the
// shard server (encode side) and the router (decode side) so both ends
// agree field-for-field; the property tests in
// tests/net_router_property_test.cc depend on every conversion here
// round-tripping exactly.
//
// Exactness: doubles are rendered as %.17g (net/json.h) and parsed with
// strtod, which round-trips every finite IEEE double bit-identically.
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
JsonValue CostToJson(const SearchCost& cost);
Status JsonToCost(const JsonValue& json, SearchCost* out);

// Trace spans <-> array of span objects (name, parent, start_ms,
// duration_ms, shard, tid, counters). Parent indexes are local to the
// serialized array; the router rebases them when stitching.
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

}  // namespace warpindex

#endif  // WARPINDEX_NET_SERIALIZE_H_
