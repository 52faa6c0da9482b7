// Router: the scatter-gather front of the multi-process serving plane
// (`warpindex_cli route`).
//
// A router connects to R replicas in each of G shard-server groups
// (net/shard_server.h), learns every shard's feature MBR at handshake,
// and answers RouteRange/RouteKnn by fanning sub-queries out over the
// wire and merging per the exact semantics of the in-process
// partitioned engine — the property test in
// tests/net_router_property_test.cc asserts bit-identical answers. It
// is no EngineLike: a query can fail on the wire, and the Route* calls
// say so instead of answering from a subset of the database.
//
// Exactness:
//   * Range queries prune shards with the same strict
//     `MinDistLinf(feature(Q), mbr) <= epsilon` predicate, against MBRs
//     that crossed the wire as round-trip decimal (bit-identical doubles).
//     Each group is asked for exactly its unpruned shards, so the
//     num_candidates sum matches the in-process sum over active shards.
//   * kNN runs in waves (knn_wave_size groups at a time; 0 = one wave
//     of everything). The k-th best distance among settled groups
//     upper-bounds the global k-th (their union is a subset of the
//     database), so re-broadcasting it as the next wave's seed bound
//     prunes only sequences provably outside the top-k; ties at the
//     bound survive (strictly-greater pruning) for the (distance, id)
//     merge. The merged, truncated list is the in-process answer.
//
// Production-traffic robustness:
//   * Hedged requests — if a group's primary replica has not answered
//     within the hedge delay, a backup request goes to the next
//     replica; first answer wins. The delay adapts: p99 of recent
//     sub-request latencies from the router's own flight recorder,
//     clamped to [hedge_min_ms, hedge_max_ms].
//   * Retry with backoff — connection failures and deadline expiries
//     move to the next replica (UNAVAILABLE — a refused connection or
//     a draining server — skips the backoff; RESOURCE_EXHAUSTED is
//     never retried: the quota said no and a replica hop would defeat
//     it).
//   * Every sub-request is flight-recorded with the winning replica and
//     its hedge/retry counts (FlightRecord::replica/net_hedges/
//     net_retries), so /flightrecorder and /slowlog show which replica
//     answered a slow query.
//
// Threading: the caller's thread orchestrates (waits, launches hedges);
// attempts run on a dedicated I/O pool and never submit further pool
// work, so the pool can saturate but not deadlock. Connections are
// pooled per replica and never shared between in-flight attempts.

#ifndef WARPINDEX_NET_ROUTER_H_
#define WARPINDEX_NET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "core/search_method.h"
#include "core/tw_knn_search.h"
#include "exec/thread_pool.h"
#include "net/wire_client.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "shard/partitioner.h"

namespace warpindex {

class SemanticCache;
enum class MethodKind;

struct RouterEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct RouterOptions {
  // groups[g] = the replica endpoints of shard group g. Every replica
  // of a group must serve the same shard subset; the groups together
  // must cover the manifest's shards exactly once.
  std::vector<std::vector<RouterEndpoint>> groups;
  std::string client_id = "router";
  // Per-attempt deadlines (wire client timeouts).
  int connect_timeout_ms = 2000;
  int call_timeout_ms = 10000;
  // Sequential replica attempts per leg (primary or hedge).
  int max_attempts = 3;
  // Base backoff between retries within a leg; doubles per attempt.
  // UNAVAILABLE failures skip it (the replica is known-dead; move on).
  int backoff_ms = 25;
  // Hedged backup requests: after the hedge delay without an answer, a
  // second leg starts on the next replica.
  bool enable_hedging = true;
  int hedge_min_ms = 10;
  int hedge_max_ms = 1000;
  // Groups per kNN wave; 0 = every group in one wave. Smaller waves
  // tighten the bound earlier at the cost of sequential rounds.
  size_t knn_wave_size = 0;
  MetricsRegistry* metrics = nullptr;          // null = process global
  FlightRecorder* flight_recorder = nullptr;   // optional
  SlowQueryLog* slow_log = nullptr;            // optional
  // Optional wire-side semantic cache (borrowed; construct with tier
  // "router"). A hit answers before any sub-request is built, so the
  // whole scatter-gather — hedges, retries, per-group flights — is
  // skipped; warpindex_shard_subqueries_total does not move. The
  // router serves saved (immutable) shard directories, so entries are
  // tagged with version 0 and never expire; do not attach a cache when
  // fronting servers whose data can change.
  SemanticCache* cache = nullptr;
};

// One shard group as learned at handshake.
struct RouterGroup {
  std::vector<RouterEndpoint> replicas;
  std::vector<uint32_t> shards;
  std::vector<ShardFeatureBounds> bounds;  // aligned with `shards`
};

class Router {
 public:
  // Connects to every group (at least one replica each must answer),
  // validates that replicas agree and the groups cover the database's
  // shards exactly once, and records the per-shard feature MBRs used
  // for router-side pruning.
  static Status Create(RouterOptions options, std::unique_ptr<Router>* out);
  ~Router();

  // Queries. A non-OK status means some shard
  // group could not be reached on any replica within the retry budget —
  // the answer would be incomplete, so none is returned.
  Status RouteRange(MethodKind kind, const Sequence& query, double epsilon,
                    Trace* trace, SearchResult* out) const;
  Status RouteKnn(const Sequence& query, size_t k, Trace* trace,
                  KnnResult* out) const;

  // The registry the router's warpindex_net_* series land in.
  MetricsRegistry& metrics() const;

  struct Stats {
    size_t num_groups = 0;
    size_t num_shards = 0;
    uint64_t queries = 0;
    uint64_t subrequests = 0;
    uint64_t hedges = 0;
    uint64_t retries = 0;
    uint64_t failed_subrequests = 0;
    double hedge_delay_ms = 0.0;  // last computed
  };
  Stats stats() const;

  size_t num_groups() const { return groups_.size(); }
  size_t num_shards() const { return num_shards_; }
  PartitionerKind partitioner() const { return partitioner_; }
  const std::vector<RouterGroup>& groups() const { return groups_; }

 private:
  // Result of one group's sub-request (whichever leg won).
  struct SubOutcome {
    Status status = Status::Ok();
    JsonValue response;
    int replica = -1;
    uint32_t hedges = 0;
    uint32_t retries = 0;
    double wall_ms = 0.0;
    double start_offset_ms = 0.0;  // vs. query start
  };

  struct GroupState;
  struct CallContext;

  explicit Router(RouterOptions options);

  Status Handshake();

  // Scatters per-group `requests` (of `type`) to `group_ids`, with
  // hedging and retries; outcomes land in `outcomes` (aligned with
  // group_ids). Returns once every group is decided; losing hedge legs
  // may still be unwinding on the I/O pool (they hold the shared
  // context, not this call's stack). `query_start` anchors span offsets.
  void CallGroups(WireType type, std::vector<JsonValue> requests,
                  const std::vector<size_t>& group_ids,
                  const WallTimer& query_start,
                  std::vector<SubOutcome>* outcomes) const;

  // One leg: sequential replica attempts with backoff.
  void RunLeg(WireType type, std::shared_ptr<CallContext> context,
              size_t state_index, size_t start_replica) const;

  // Connection pool.
  std::unique_ptr<WireClient> AcquireClient(size_t group,
                                            size_t replica) const;
  void ReleaseClient(size_t group, size_t replica,
                     std::unique_ptr<WireClient> client) const;

  double HedgeDelayMs() const;

  // Counts a failed sub-request (transport error or malformed body) and
  // keeps the query's first error, prefixed with its group.
  void NoteFailedSubrequest(size_t group, const Status& status,
                            Status* first_error) const;

  void RecordSubFlight(const char* method, double epsilon,
                       size_t query_length, size_t group,
                       const SubOutcome& outcome, size_t matches,
                       size_t num_candidates, const SearchCost& cost,
                       uint64_t trace_id) const;
  void RecordMergedFlight(const char* method, double epsilon,
                          size_t query_length, size_t matches,
                          size_t num_candidates, const SearchCost& cost,
                          uint64_t trace_id,
                          CacheTier cache_tier = CacheTier::kNone) const;

  // Stitches one group's remote spans (plus a synthetic net_group span)
  // under `parent_index` of `trace`.
  void StitchGroupSpans(Trace* trace, size_t parent_index, size_t group,
                        const SubOutcome& outcome) const;

  RouterOptions options_;
  std::vector<RouterGroup> groups_;
  size_t num_shards_ = 0;
  PartitionerKind partitioner_ = PartitionerKind::kHash;
  // Per-shard bounds in manifest shard order (router-side pruning).
  std::vector<ShardFeatureBounds> shard_bounds_;
  std::vector<size_t> group_of_shard_;

  mutable std::unique_ptr<ThreadPool> io_pool_;

  // Idle connection pool, per (group, replica).
  mutable std::mutex pool_mu_;
  mutable std::vector<std::vector<std::vector<std::unique_ptr<WireClient>>>>
      idle_clients_;

  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> subrequests_{0};
  mutable std::atomic<uint64_t> hedges_{0};
  mutable std::atomic<uint64_t> retries_{0};
  mutable std::atomic<uint64_t> failed_subrequests_{0};
  mutable std::atomic<double> last_hedge_delay_ms_{0.0};

  Counter* queries_counter_ = nullptr;
  Counter* subrequests_counter_ = nullptr;
  Counter* hedges_counter_ = nullptr;
  Counter* retries_counter_ = nullptr;
};

}  // namespace warpindex

#endif  // WARPINDEX_NET_ROUTER_H_
