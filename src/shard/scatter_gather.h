// ScatterGather: fan a fixed set of independent sub-tasks out over a
// borrowed ThreadPool, with the calling thread always participating.
//
// This is the fan-out substrate of the partition fan-out core: RunFanOut
// (shard/fanout.h), its only caller, which serves the ShardedEngine and
// IngestEngine range paths. The caller-participation rule is what lets
// those engines share the QueryExecutor's pool without a second pool or
// a deadlock: when a pool WORKER runs a partitioned query, its
// per-partition sub-tasks are offered to the same pool — but the worker
// also claims sub-tasks itself off the shared cursor, so the query
// completes even when every other worker is busy with queries of its own
// (see docs/CONCURRENCY.md).
//
// With a null pool (or a single task) everything runs inline on the
// caller — same results, no concurrency.

#ifndef WARPINDEX_SHARD_SCATTER_GATHER_H_
#define WARPINDEX_SHARD_SCATTER_GATHER_H_

#include <cstddef>
#include <functional>

#include "exec/thread_pool.h"

namespace warpindex {

class ScatterGather {
 public:
  // `pool` is borrowed (may be null) and must outlive this object.
  explicit ScatterGather(ThreadPool* pool) : pool_(pool) {}

  // Runs fn(i) exactly once for every i in [0, num_tasks), distributing
  // tasks over the pool's idle workers plus the calling thread, and
  // returns when all have finished. Tasks must not throw. fn may capture
  // caller-stack state: every invocation completes before Run returns
  // (a straggling helper that finds no work left touches only the
  // heap-allocated cursor, never fn).
  void Run(size_t num_tasks, std::function<void(size_t)> fn) const;

  ThreadPool* pool() const { return pool_; }

 private:
  ThreadPool* pool_;
};

}  // namespace warpindex

#endif  // WARPINDEX_SHARD_SCATTER_GATHER_H_
