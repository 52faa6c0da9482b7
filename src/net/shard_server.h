// Shard server: one process serving a SUBSET of a sharded database over
// the wire protocol (`warpindex_cli shard-serve`).
//
// A shard server opens the shared manifest (shard/shard_io.h) but only
// the Engine directories of the shards it was asked to serve; several
// servers with disjoint subsets together cover the database, and servers
// with the SAME subset are replicas of one shard group (the router fails
// over / hedges between them).
//
// Exactness contract with the router (tests/net_router_property_test.cc):
//
//   * The HELLO_OK handshake reports each served shard's live-only
//     feature MBR, computed by the same shard-set loader ShardedEngine::
//     Open uses (shard/fanout.h). The router prunes shard groups against
//     these MBRs with the same PartitionMayMatch predicate the in-process
//     engine uses, so the set of shards actually queried — and therefore
//     the summed num_candidates — is identical.
//   * RANGE answers are merged per the in-process semantics: local ids
//     remapped through the manifest assignment (ascending-global-order
//     locals), matches sorted ascending, num_candidates summed over the
//     REQUESTED shards, resource costs merged with MergeParallel.
//   * KNN runs the in-process engines' one refine loop over the
//     requested shards (SearchPartitionsKnn), its cutoff seeded with the
//     router's wave `bound` (strictly-greater pruning keeps ties; a bound
//     that is not a number >= 0 is InvalidArgument), and returns the
//     top k in KnnMatchOrder for the router's merge.
//
// Drain: RequestDrain() (SIGTERM path, or a DRAIN frame in tests) stops
// accepting, finishes in-flight requests, and answers new queries with
// UNAVAILABLE "draining" — the router's signal to fail over. WaitIdle()
// then blocks until the last request completes.

#ifndef WARPINDEX_NET_SHARD_SERVER_H_
#define WARPINDEX_NET_SHARD_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "net/wire_server.h"
#include "shard/partitioner.h"
#include "shard/shard_io.h"
#include "shard/shard_view.h"

namespace warpindex {

struct ShardServerOptions {
  // Directory holding manifest.wism + shard-NNNN/ engine directories
  // (a ShardedEngine::Save, e.g. `warpindex_cli save`).
  std::string db_dir;
  // Manifest shard indexes this server opens and answers for.
  std::vector<uint32_t> serve_shards;
  // Replica identity, echoed in HELLO_OK: replicas of one group serve
  // the same shard subset.
  int group = 0;
  int replica = 0;
  // Engine knobs; page_size_bytes is taken from the manifest.
  EngineOptions engine;
  // Transport (bind address, port, admission quotas, metrics). The
  // server name is forced to "shard-server".
  WireServerOptions server;
};

class ShardServer {
 public:
  // Loads the manifest, opens the requested shards, and computes their
  // live-only feature MBRs. Does not start serving.
  static Status Create(ShardServerOptions options,
                       std::unique_ptr<ShardServer>* out);

  Status Start() { return server_.Start(); }
  void RequestDrain() { server_.RequestDrain(); }
  void WaitIdle() { server_.WaitIdle(); }
  void Stop() { server_.Stop(); }

  uint16_t port() const { return server_.port(); }
  bool draining() const { return server_.draining(); }
  const WireServer& server() const { return server_; }
  const std::vector<uint32_t>& serve_shards() const {
    return options_.serve_shards;
  }
  int group() const { return options_.group; }
  int replica() const { return options_.replica; }

  // One /statusz row per served shard.
  struct ServedShard {
    uint32_t shard = 0;
    size_t sequences = 0;
    size_t live = 0;
  };
  std::vector<ServedShard> served() const;
  size_t manifest_num_shards() const {
    return manifest_.assignment.num_shards;
  }
  PartitionerKind partitioner() const { return manifest_.partitioner; }

 private:
  explicit ShardServer(ShardServerOptions options);

  Status Load();
  void RegisterHandlers();

  // Slot = position in serve_shards / shards_ for a manifest shard
  // index; -1 when this server does not serve it.
  int SlotOf(uint32_t shard) const;

  Status HandleHello(const JsonValue& request, JsonValue* response);
  Status HandleRange(const JsonValue& request, JsonValue* response);
  Status HandleKnn(const JsonValue& request, JsonValue* response);
  // STATS: identity + a full metrics snapshot as JSON, the payload the
  // router's fleet poller aggregates into /metrics?fleet=1 and /fleetz.
  Status HandleStats(const JsonValue& request, JsonValue* response);

  // Parses the request's "shards" array into slots (every entry must be
  // an integer naming a shard served here).
  Status RequestedSlots(const JsonValue& request,
                        std::vector<size_t>* slots) const;

  // Opens slot's "shard" span (tagged and counted with its manifest shard
  // index) at the root of `trace`; returns the span index.
  size_t BeginShardSpan(Trace* trace, size_t slot) const;

  ShardServerOptions options_;
  ShardManifest manifest_;
  // Per slot: engine, local -> global ids, live-only feature MBR.
  std::vector<BaseShard> shards_;
  WireServer server_;
};

}  // namespace warpindex

#endif  // WARPINDEX_NET_SHARD_SERVER_H_
