// FlightRecorder: an always-on, lock-striped ring buffer of the last N
// completed queries.
//
// Where a Trace must be attached by the caller before the query runs, the
// flight recorder captures after the fact: whoever finishes a query (the
// concurrent executor's workers, or a sequential serving loop) offers one
// FlightRecord, and the recorder keeps the most recent `capacity` of them.
// When something goes wrong in production — a latency spike, a query
// whose cascade pruned nothing — `/flightrecorder` (obs/httpd.h) serves the recent
// history without anyone having thought to enable tracing beforehand.
//
// Cost discipline: recording is one atomic increment to pick a slot plus
// one short stripe-mutex hold to copy the record in. Stripes are selected
// by slot, so concurrent writers on different slots almost never share a
// lock, and a snapshot reader only ever blocks one stripe at a time.
// `sample_every` > 1 drops all but every k-th query before taking any
// lock, bounding recorder overhead at arbitrary query rates.
//
// Thread-safety: Record() and Snapshot() may race freely from any number
// of threads. A snapshot is a point-in-time copy ordered oldest-first by
// completion sequence number; records being written while the snapshot
// walks the stripes are either fully visible or absent, never torn.

#ifndef WARPINDEX_OBS_FLIGHT_RECORDER_H_
#define WARPINDEX_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/stage_counters.h"
#include "obs/stage_timings.h"

namespace warpindex {

// Which semantic-cache tier (if any) answered a query without running
// the engine. Rendered as "none" / "executor" / "router" in the
// /flightrecorder and /slowlog JSON.
enum class CacheTier : int32_t {
  kNone = 0,      // the engine ran the query
  kExecutor = 1,  // QueryExecutor's engine-side cache answered
  kRouter = 2,    // the router's wire-side cache answered (no fan-out)
};

const char* CacheTierName(CacheTier tier);

// Everything worth keeping about one completed query. Built by the layer
// that ran the query (exec/query_executor.cc fills it from a
// SearchResult); obs stays independent of the core types.
struct FlightRecord {
  // Completion sequence number assigned by the recorder (1-based; 0 means
  // an empty slot). Snapshot order key.
  uint64_t seq = 0;
  // Completion time in milliseconds since the recorder was created
  // (steady clock).
  double timestamp_ms = 0.0;
  // Trace id of the query's trace, or 0 when the query ran untraced.
  // Cross-links /flightrecorder and /slowlog rows to /tracez?id=<hex>.
  uint64_t trace_id = 0;
  std::string method;
  double epsilon = 0.0;
  size_t query_length = 0;
  size_t matches = 0;
  size_t num_candidates = 0;
  double wall_ms = 0.0;
  // Thread-CPU time summed over every thread that worked on the query
  // (SearchCost::cpu_ms); > wall_ms on parallel queries.
  double cpu_ms = 0.0;
  uint64_t dtw_evals = 0;
  uint64_t dtw_cells = 0;
  uint64_t index_nodes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  // Per-stage wall time, per-stage CPU time, and cascade prune counters,
  // verbatim from SearchCost (names are the kStage* constants).
  StageTimings stage_ms;
  StageTimings stage_cpu_ms;
  StageCounters prunes;
  // Shard that ran this (sub-)query, or -1 for an unsharded query / the
  // merged record of a partitioned one (ingest/ingest_engine.h). The
  // router's per-group sub-request records reuse this field for the
  // GROUP index (net/router.h).
  int32_t shard = -1;
  // Wire-plane bookkeeping (net/router.h): the replica that answered
  // this sub-request (-1 = not a networked sub-request — the test
  // /flightrecorder filters on), and how many hedged / retried attempts
  // the sub-request took before that answer.
  int32_t replica = -1;
  uint32_t net_hedges = 0;
  uint32_t net_retries = 0;
  // Semantic-cache attribution: which tier answered this query from a
  // stored result (kNone when the engine actually ran).
  CacheTier cache_hit = CacheTier::kNone;
};

// The record of one (sub-)query with its cost fields copied from a
// SearchCost — the one place that copy is written. A template over the
// cost type so obs stays independent of the core types.
template <typename Cost>
FlightRecord MakeFlightRecord(std::string method, double epsilon,
                              size_t query_length, size_t matches,
                              size_t num_candidates, const Cost& cost,
                              uint64_t trace_id) {
  FlightRecord record;
  record.trace_id = trace_id;
  record.method = std::move(method);
  record.epsilon = epsilon;
  record.query_length = query_length;
  record.matches = matches;
  record.num_candidates = num_candidates;
  record.wall_ms = cost.wall_ms;
  record.cpu_ms = cost.cpu_ms;
  record.dtw_evals = cost.dtw_evals;
  record.dtw_cells = cost.dtw_cells;
  record.index_nodes = cost.index_nodes;
  record.pool_hits = cost.pool_hits;
  record.pool_misses = cost.pool_misses;
  record.stage_ms = cost.stages;
  record.stage_cpu_ms = cost.stages_cpu;
  record.prunes = cost.prunes;
  return record;
}

struct FlightRecorderOptions {
  // Ring capacity in records.
  size_t capacity = 256;
  // Lock stripes; 0 picks min(8, capacity). More stripes = less writer
  // contention, slightly more snapshot work.
  size_t num_stripes = 0;
  // Keep every k-th offered record (1 = keep all). The skip test runs
  // before any lock, so a high-rate serving loop can leave the recorder
  // always-on and pay one atomic increment per dropped query.
  uint64_t sample_every = 1;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Offers one completed query. `record.seq` and `record.timestamp_ms`
  // are assigned here; everything else is the caller's. Thread-safe.
  void Record(FlightRecord record);

  // The retained records, oldest first. Thread-safe against writers.
  std::vector<FlightRecord> Snapshot() const;

  size_t capacity() const { return capacity_; }
  size_t num_stripes() const { return stripes_.size(); }
  uint64_t sample_every() const { return options_.sample_every; }
  // Queries offered to Record() (before sampling).
  uint64_t offered() const {
    return offered_.load(std::memory_order_relaxed);
  }
  // Records actually written (after sampling).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

 private:
  struct Stripe {
    mutable std::mutex mu;
  };

  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  FlightRecorderOptions options_;
  size_t capacity_;
  std::chrono::steady_clock::time_point origin_;
  // slots_[i] is guarded by stripes_[i % stripes_.size()].mu.
  mutable std::vector<FlightRecord> slots_;
  mutable std::vector<Stripe> stripes_;
  std::atomic<uint64_t> offered_{0};
  std::atomic<uint64_t> recorded_{0};
};

}  // namespace warpindex

#endif  // WARPINDEX_OBS_FLIGHT_RECORDER_H_
