#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/prof/sampler.hpp"

namespace swt {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  // Workers update the process metrics registry until shutdown; touching it
  // here makes the registry's function-local static construct first, hence
  // destruct after any static pool.
  (void)metrics();
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::scoped_lock lock(mutex_);
    if (stop_) throw std::runtime_error("ThreadPool::submit on a stopping pool");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr err;
  {
    std::unique_lock lock(mutex_);
    cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
    std::swap(err, first_error_);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::worker_loop() {
  // Pool workers are where the compute happens: register them with the
  // sampling profiler (no-op cost when it is not running).
  const prof::ScopedProfiledThread profiled("pool-worker");
  Gauge& busy_gauge = metrics().gauge("pool.busy_seconds");
  Gauge& idle_gauge = metrics().gauge("pool.idle_seconds");
  for (;;) {
    std::function<void()> task;
    {
      const double wait_begin = steady_seconds();
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      idle_gauge.add(steady_seconds() - wait_begin);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const double task_begin = steady_seconds();
    try {
      task();
    } catch (...) {
      std::scoped_lock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    busy_gauge.add(steady_seconds() - task_begin);
    {
      std::scoped_lock lock(mutex_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace swt
