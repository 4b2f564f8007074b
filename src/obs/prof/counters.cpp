#include "obs/prof/counters.hpp"

#include <errno.h>
#include <pthread.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <vector>

#if __has_include(<linux/perf_event.h>)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#define SWT_HAVE_PERF_EVENT 1
#else
#define SWT_HAVE_PERF_EVENT 0
#endif

#include "obs/metrics.hpp"

namespace swt::prof {

namespace {

double thread_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Registry of open perf fds so an atfork child can close every inherited
// descriptor (the child typically _exit()s or execs, but the crash-recovery
// tests fork from a fully instrumented parent).  generation bumps tell
// surviving instances their fds are gone.
std::mutex& fd_mutex() {
  static std::mutex* m = new std::mutex;
  return *m;
}
std::vector<int>& fd_registry() {
  static auto* v = new std::vector<int>;
  return *v;
}
std::atomic<std::uint64_t> g_fork_generation{0};

void register_fd(int fd) {
  std::lock_guard lk(fd_mutex());
  fd_registry().push_back(fd);
}

void unregister_fd(int fd) {
  std::lock_guard lk(fd_mutex());
  auto& fds = fd_registry();
  for (auto it = fds.begin(); it != fds.end(); ++it) {
    if (*it == fd) {
      fds.erase(it);
      return;
    }
  }
}

void counters_atfork_child() {
  // Locks may be held by threads that no longer exist: rebuild the mutex
  // state by construction order — the child only ever runs this once,
  // before touching counters again, and is single-threaded at this point.
  for (const int fd : fd_registry()) close(fd);
  fd_registry().clear();
  g_fork_generation.fetch_add(1, std::memory_order_relaxed);
}

void counters_atfork_prepare() { fd_mutex().lock(); }
void counters_atfork_parent() { fd_mutex().unlock(); }
void counters_atfork_child_unlock() { fd_mutex().unlock(); }

void install_counters_atfork_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    pthread_atfork(&counters_atfork_prepare, &counters_atfork_parent, [] {
      counters_atfork_child_unlock();
      counters_atfork_child();
    });
  });
}

#if SWT_HAVE_PERF_EVENT
int perf_event_open_syscall(perf_event_attr* attr, pid_t pid, int cpu,
                            int group_fd, unsigned long flags) {
  return static_cast<int>(
      syscall(__NR_perf_event_open, attr, pid, cpu, group_fd, flags));
}

int open_hw_counter(std::uint64_t config, int group_fd, bool leader) {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = leader ? 1 : 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  if (leader) attr.read_format = PERF_FORMAT_GROUP;
  return perf_event_open_syscall(&attr, 0 /*calling thread*/, -1, group_fd, 0);
}
#endif

}  // namespace

const char* counter_backend_name(CounterBackend b) {
  switch (b) {
    case CounterBackend::kPerfEvent:
      return "perf_event";
    case CounterBackend::kThreadClock:
      return "thread_clock";
  }
  return "unknown";
}

CounterSample CounterSample::delta(const CounterSample& earlier) const {
  CounterSample d;
  d.cpu_seconds = cpu_seconds - earlier.cpu_seconds;
  d.cycles = cycles - earlier.cycles;
  d.instructions = instructions - earlier.instructions;
  d.cache_misses = cache_misses - earlier.cache_misses;
  d.hardware = hardware && earlier.hardware;
  return d;
}

void CounterSample::add(const CounterSample& other) {
  cpu_seconds += other.cpu_seconds;
  cycles += other.cycles;
  instructions += other.instructions;
  cache_misses += other.cache_misses;
  hardware = hardware && other.hardware;
}

ThreadCounters::ThreadCounters() { open(false); }

ThreadCounters::ThreadCounters(bool force_fallback) { open(force_fallback); }

ThreadCounters::~ThreadCounters() { close_fds(); }

void ThreadCounters::open(bool force_fallback) {
  install_counters_atfork_once();
  generation_ = g_fork_generation.load(std::memory_order_relaxed);
  backend_ = CounterBackend::kThreadClock;
  perf_errno_ = 0;
  if (force_fallback) return;
#if SWT_HAVE_PERF_EVENT
  const int cycles = open_hw_counter(PERF_COUNT_HW_CPU_CYCLES, -1, true);
  if (cycles < 0) {
    perf_errno_ = errno;  // EPERM/EACCES in containers, ENOSYS without perf
    return;
  }
  const int instructions = open_hw_counter(PERF_COUNT_HW_INSTRUCTIONS, cycles, false);
  const int misses = open_hw_counter(PERF_COUNT_HW_CACHE_MISSES, cycles, false);
  if (instructions < 0 || misses < 0) {
    perf_errno_ = errno;
    if (instructions >= 0) close(instructions);
    if (misses >= 0) close(misses);
    close(cycles);
    return;
  }
  group_fd_ = cycles;
  fds_[0] = cycles;
  fds_[1] = instructions;
  fds_[2] = misses;
  for (const int fd : fds_) register_fd(fd);
  ioctl(group_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(group_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  backend_ = CounterBackend::kPerfEvent;
#else
  perf_errno_ = ENOSYS;
#endif
}

void ThreadCounters::close_fds() {
  if (group_fd_ < 0) return;
  // After a fork the child already closed every registered fd; closing
  // again would hit unrelated descriptors that reused the numbers.
  if (generation_ == g_fork_generation.load(std::memory_order_relaxed)) {
    for (const int fd : fds_) {
      if (fd >= 0) {
        unregister_fd(fd);
        close(fd);
      }
    }
  }
  group_fd_ = -1;
  fds_[0] = fds_[1] = fds_[2] = -1;
}

CounterSample ThreadCounters::read() {
  if (generation_ != g_fork_generation.load(std::memory_order_relaxed)) {
    group_fd_ = -1;  // fds were closed by the atfork child handler
    fds_[0] = fds_[1] = fds_[2] = -1;
    open(false);
  }
  CounterSample s;
  s.cpu_seconds = thread_cpu_seconds();
#if SWT_HAVE_PERF_EVENT
  if (backend_ == CounterBackend::kPerfEvent && group_fd_ >= 0) {
    // PERF_FORMAT_GROUP layout: u64 nr; u64 values[nr]; in creation order.
    std::uint64_t buf[1 + 3] = {};
    const ssize_t n = ::read(group_fd_, buf, sizeof(buf));
    if (n >= static_cast<ssize_t>(4 * sizeof(std::uint64_t)) && buf[0] >= 3) {
      s.cycles = static_cast<std::int64_t>(buf[1]);
      s.instructions = static_cast<std::int64_t>(buf[2]);
      s.cache_misses = static_cast<std::int64_t>(buf[3]);
      s.hardware = true;
    }
  }
#endif
  return s;
}

ThreadCounters& ThreadCounters::this_thread() {
  thread_local ThreadCounters counters;
  return counters;
}

// ---------------------------------------------------------------------------
// Phase accumulation

namespace {

struct PhaseInstruments {
  Counter& calls;
  Counter& flops;
  Gauge& wall;
  Gauge& cpu;
  Gauge& gflops;
};

PhaseInstruments make_phase(const std::string& prefix) {
  return PhaseInstruments{
      metrics().counter(prefix + ".calls_total"),
      metrics().counter(prefix + ".flops_total"),
      metrics().gauge(prefix + ".wall_seconds"),
      metrics().gauge(prefix + ".cpu_seconds"),
      metrics().gauge(prefix + ".gflops"),
  };
}

/// Hardware-counter series of a phase.  Registered on the phase's first
/// hardware sample, so a host on the CPU-clock fallback exports none of
/// them instead of zeros it never measured.
struct HardwareInstruments {
  Counter& cycles;
  Counter& instructions;
  Counter& cache_misses;
  Gauge& ipc;
};

HardwareInstruments make_hardware(const std::string& prefix) {
  return HardwareInstruments{
      metrics().counter(prefix + ".cycles_total"),
      metrics().counter(prefix + ".instructions_total"),
      metrics().counter(prefix + ".cache_misses_total"),
      metrics().gauge(prefix + ".ipc"),
  };
}

PhaseInstruments& phase_instruments(Phase phase) {
  static PhaseInstruments gemm = make_phase("prof.gemm");
  static PhaseInstruments conv = make_phase("prof.conv");
  return phase == Phase::kGemm ? gemm : conv;
}

HardwareInstruments& hardware_instruments(Phase phase) {
  if (phase == Phase::kGemm) {
    static HardwareInstruments gemm = make_hardware("prof.gemm");
    return gemm;
  }
  static HardwareInstruments conv = make_hardware("prof.conv");
  return conv;
}

}  // namespace

void record_phase(Phase phase, double wall_seconds, std::int64_t flops,
                  const CounterSample& delta) {
  if (!metrics_enabled()) return;
  PhaseInstruments& ins = phase_instruments(phase);
  ins.calls.add(1);
  ins.flops.add(flops);
  ins.wall.add(wall_seconds);
  ins.cpu.add(delta.cpu_seconds);
  const double wall_total = ins.wall.value();
  if (wall_total > 0.0)
    ins.gflops.set(static_cast<double>(ins.flops.value()) / wall_total / 1e9);
  if (!delta.hardware) return;
  HardwareInstruments& hw = hardware_instruments(phase);
  hw.cycles.add(delta.cycles);
  hw.instructions.add(delta.instructions);
  hw.cache_misses.add(delta.cache_misses);
  const std::int64_t cycles_total = hw.cycles.value();
  if (cycles_total > 0)
    hw.ipc.set(static_cast<double>(hw.instructions.value()) /
               static_cast<double>(cycles_total));
}

}  // namespace swt::prof
