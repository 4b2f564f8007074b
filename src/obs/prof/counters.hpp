// Per-thread resource counters with a graceful fallback ladder:
//
//   1. perf_event_open (hardware cycles / instructions / cache-misses as one
//      counter group) + CLOCK_THREAD_CPUTIME_ID for CPU seconds, or
//   2. CLOCK_THREAD_CPUTIME_ID alone (containers commonly deny perf_event
//      with EPERM/EACCES; kernels without the syscall return ENOSYS).
//
// Both rungs are cheap enough to bracket kernel calls; which rung is active
// is visible via backend().  Fork safety: perf fds are process-global
// resources — an atfork child handler closes every registered fd and bumps
// a generation counter so surviving instances lazily reopen.
#pragma once

#include <cstdint>
#include <string>

namespace swt::prof {

enum class CounterBackend {
  kThreadClock,  // portable fallback: thread CPU clock only
  kPerfEvent,    // hardware counters via perf_event_open
};

const char* counter_backend_name(CounterBackend b);

/// Cumulative readings for one thread.  Hardware fields are zero when the
/// backend is kThreadClock.
struct CounterSample {
  double cpu_seconds = 0.0;
  std::int64_t cycles = 0;
  std::int64_t instructions = 0;
  std::int64_t cache_misses = 0;
  bool hardware = false;

  CounterSample delta(const CounterSample& earlier) const;
};

/// One thread's counter handle.  Construct and read from the owning thread
/// only (perf fds are opened for the calling thread).
class ThreadCounters {
 public:
  ThreadCounters();
  /// Test hook: force the portable fallback even when perf_event works.
  explicit ThreadCounters(bool force_fallback);
  ~ThreadCounters();
  ThreadCounters(const ThreadCounters&) = delete;
  ThreadCounters& operator=(const ThreadCounters&) = delete;

  CounterBackend backend() const noexcept { return backend_; }
  /// errno from the failed perf_event_open attempt (0 if it succeeded or
  /// was never attempted).
  int perf_errno() const noexcept { return perf_errno_; }

  CounterSample read();

  /// Lazily-constructed handle for the calling thread.
  static ThreadCounters& this_thread();

 private:
  void open(bool force_fallback);
  void close_fds();

  CounterBackend backend_ = CounterBackend::kThreadClock;
  int perf_errno_ = 0;
  int group_fd_ = -1;
  int fds_[3] = {-1, -1, -1};  // cycles (leader), instructions, cache-misses
  std::uint64_t generation_ = 0;
};

/// Phase attribution: kernels report wall time, FLOPs and the calling
/// thread's counter delta per call; the accumulators surface as prof.gemm.*
/// and prof.conv.* metrics (achieved GF/s, IPC, cache misses) on /metrics.
enum class Phase { kGemm, kConv };

void record_phase(Phase phase, double wall_seconds, std::int64_t flops,
                  const CounterSample& delta);

}  // namespace swt::prof
