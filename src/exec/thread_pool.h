// Fixed-size thread pool with a FIFO work queue and graceful shutdown.
//
// The pool is the substrate of the concurrent query executor
// (exec/query_executor.h): a server core keeps one pool for its lifetime
// and feeds it queries, so thread creation cost is paid once, not per
// request. Tasks are arbitrary callables; Submit() returns a
// std::future carrying the callable's result — or its exception, which
// packaged_task propagates to whoever calls future::get().
//
// Shutdown semantics: Shutdown() (also run by the destructor) stops
// accepting new work, lets every already-queued task run to completion,
// and joins the workers. Work submitted after shutdown fails with
// std::runtime_error. This "drain, don't drop" policy means a caller
// holding futures never deadlocks on a future whose task was discarded.
//
// Worker identity: inside a pool task, ThreadPool::current_worker_index()
// is the index of the executing worker in [0, num_threads) — the query
// executor uses it to give each worker its own DTW scratch buffer.
// Outside any pool thread it is -1.

#ifndef WARPINDEX_EXEC_THREAD_POOL_H_
#define WARPINDEX_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace warpindex {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);

  // Drains and joins (Shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn` and returns a future for its result. The future
  // receives any exception `fn` throws. Throws std::runtime_error if the
  // pool is shut down.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  // Fire-and-forget enqueue; returns false (dropping `fn`) if the pool is
  // shut down instead of throwing. Used for helper tasks whose completion
  // is tracked elsewhere (e.g. ScatterGather's task cursor).
  bool TrySubmitDetached(std::function<void()> fn);

  // Stops accepting work, runs everything already queued, joins all
  // workers. Idempotent; safe to call concurrently with Submit (the loser
  // of the race gets the runtime_error).
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

  // Tasks queued but not yet claimed by a worker (approximate: another
  // thread may claim concurrently).
  size_t queue_depth() const;

  // Index of the calling pool worker in [0, num_threads); -1 when called
  // from a thread that does not belong to any ThreadPool.
  static int current_worker_index();

 private:
  void Enqueue(std::function<void()> fn);
  void WorkerLoop(size_t worker_index);

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace warpindex

#endif  // WARPINDEX_EXEC_THREAD_POOL_H_
