// Fixed-size thread pool for the parallel experiment harness.
//
// Design goals (DESIGN/EXPERIMENTS: deterministic figure regeneration):
//
//   * Work-stealing-free: one shared atomic index is the only dispatch
//     mechanism.  Each worker claims the next unclaimed index; which
//     thread runs which index is scheduling-dependent, but callers that
//     write results by index (exp::parallel_map) get output that is
//     independent of the interleaving — the basis for the harness's
//     byte-identical-at-any-thread-count guarantee.
//   * Caller participation: a pool of size N spawns N-1 workers and the
//     calling thread drains indices alongside them, so size 1 executes
//     the batch strictly inline on the caller — the serial baseline is
//     literally the same code path.
//   * Fixed size: threads are spawned once at construction and live for
//     the pool's lifetime; parallel_for has no per-call thread churn.
//
// Exactly one batch runs at a time; parallel_for is not reentrant (a
// body must not invoke parallel_for on the same pool).  The first
// exception thrown by a body cancels the remaining indices and is
// rethrown on the calling thread once the batch has drained.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lfrt::exp {

/// Thread count from the environment: LFRT_THREADS if set to a positive
/// integer, else the CPUs in this process's affinity mask (at least 1).
int default_threads();

/// Thread count from a bench command line: the last `--threads=N` or
/// `--threads N` wins; without one, falls back to default_threads().
/// Unrelated arguments are ignored (benches parse their own flags).
int threads_from_args(int argc, const char* const* argv);

class ThreadPool {
 public:
  /// A pool of total concurrency `threads` (>= 1): threads-1 workers
  /// plus the calling thread during parallel_for.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// Run body(i) for every i in [0, n), distributed over the pool.
  /// Blocks until every index has finished (or the batch was cancelled
  /// by an exception, which is rethrown here).
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& body);

 private:
  void worker_loop();
  void drain();

  int size_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: a new batch (or stop)
  std::condition_variable done_cv_;  ///< caller: all workers left batch
  const std::function<void(std::int64_t)>* body_ = nullptr;
  std::int64_t batch_size_ = 0;
  std::atomic<std::int64_t> next_{0};
  std::int64_t generation_ = 0;  ///< bumped per batch; wakes workers
  int active_ = 0;               ///< workers still inside the batch
  bool in_batch_ = false;        ///< reentrancy guard
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace lfrt::exp
