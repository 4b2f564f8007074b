// Fixed-size thread pool: the eval pool that trains dispatched candidate
// evaluations concurrently (`--eval-parallelism`).
//
// The virtual cluster (src/cluster) simulates the paper's GPU workers with a
// discrete event loop, but candidate *scores* come from real training on
// whatever cores exist; run_search submits those trainings here when more
// than one may run at once.  It is the only pool that computes: the kernels
// inside a training run on the pool thread that trains it.
//
// Exception contract: a throwing task does NOT terminate the process.  The
// first exception is captured; remaining queued tasks still run (so the pool
// always drains back to idle) and the captured exception is rethrown from the
// next wait_idle() on this pool.  Later exceptions raised before that
// rethrow are dropped — first error wins, mirroring what a serial loop would
// have surfaced.
//
// Workers register with the sampling profiler and add their task and wait
// time to the `pool.busy_seconds` / `pool.idle_seconds` gauges.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace swt {

class ThreadPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue (already-submitted tasks still run), then joins.  A
  /// pending captured exception that nobody waited for is discarded —
  /// destructors cannot throw.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; returns immediately.  Throws std::runtime_error if the
  /// pool is shutting down (submit racing the destructor either enqueues the
  /// task — which then runs during the drain — or throws; never a silent
  /// drop, never a deadlock).
  void submit(std::function<void()> task);

  /// Block until every submitted task has completed.  Rethrows the first
  /// exception any task threw since the last wait (clearing it).
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;  // guarded by mutex_
};

}  // namespace swt
