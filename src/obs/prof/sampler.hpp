// Sampling CPU profiler: per-thread SIGPROF timers push frame-pointer
// backtraces into async-signal-safe ring buffers; a collector thread drains
// them into an aggregate stack -> count map that can be symbolized offline
// (dladdr + demangle) and rendered as collapsed flamegraph text or
// speedscope JSON.
//
// Signal-safety rules (see DESIGN.md §11): the SIGPROF handler only walks
// frame pointers seeded from the interrupted ucontext and pushes raw PCs
// into a preallocated single-producer/single-consumer ring.  No malloc, no
// locks, no dladdr, no glibc backtrace() (its lazy dl_iterate_phdr path can
// deadlock against the loader lock).  Everything that allocates or
// symbolizes runs on ordinary threads, after the fact.
//
// Determinism contract: the profiler observes wall-clock CPU time only.  It
// never touches the virtual clock, the search RNG, or any simulation state,
// so traces from profiled and unprofiled runs are byte-identical (CI
// cmp-gates this).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace swt::prof {

/// Fixed-capacity single-producer/single-consumer ring of stack samples.
/// The producer is the SIGPROF handler of exactly one thread; the consumer
/// is the profiler's collector thread.  Overflow drops the new sample and
/// bumps a counter instead of blocking — a profiler must never stall the
/// profiled thread.
class SampleRing {
 public:
  static constexpr int kMaxFrames = 32;

  struct Sample {
    std::uint16_t depth = 0;
    std::uintptr_t pc[kMaxFrames];  // root-last (pc[0] is the leaf)
  };

  /// Capacity is rounded up to a power of two, minimum 8.
  explicit SampleRing(std::size_t capacity = 2048);

  /// Producer side; async-signal-safe (no allocation, no locks).
  bool try_push(const std::uintptr_t* pcs, int depth) noexcept;

  /// Consumer side: append all pending samples to `out`, return how many.
  std::size_t drain(std::vector<Sample>& out);

  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Consumer side: move the drop count out (so drops are counted once).
  std::uint64_t take_dropped() noexcept;
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  std::vector<Sample> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};  // next write (producer)
  std::atomic<std::uint64_t> tail_{0};  // next read (consumer)
  std::atomic<std::uint64_t> dropped_{0};
};

/// Raw aggregated profile: root-first PC stacks -> sample counts.
struct StackProfile {
  std::map<std::vector<std::uintptr_t>, std::uint64_t> stacks;
  std::uint64_t total_samples = 0;
  std::uint64_t dropped_samples = 0;

  /// Window diff: subtract an earlier cumulative snapshot from this one.
  StackProfile& subtract(const StackProfile& earlier);
};

/// Symbolized profile: root-first frame-name stacks -> sample counts.
struct SymbolizedProfile {
  std::vector<std::pair<std::vector<std::string>, std::uint64_t>> stacks;
  std::uint64_t total_samples = 0;
  std::uint64_t dropped_samples = 0;
};

/// Offline symbolization via dladdr + __cxa_demangle (cached per PC).
/// Unresolvable frames render as "module+0x<off>" or "0x<pc>".
SymbolizedProfile symbolize(const StackProfile& raw);

/// Collapsed flamegraph text: one "frame;frame;frame count" line per stack,
/// root first, sorted by descending count then lexicographically.
std::string to_collapsed(const SymbolizedProfile& prof);

/// Parse collapsed text back (round-trip with to_collapsed; also accepts
/// external flamegraph collapsed files).  Count is the last space-separated
/// token so frame names may contain spaces (C++ template args); a line whose
/// count is not a whole unsigned number is skipped.
SymbolizedProfile parse_collapsed(std::istream& in);

/// speedscope.app "sampled" profile JSON for interactive flamegraphs.
void write_speedscope_json(std::ostream& out, const SymbolizedProfile& prof,
                           const std::string& name);

struct ProfilerConfig {
  int hz = 97;  // prime, so sampling does not beat against 10ms schedulers
};

/// Register the calling thread for sampling (sticky, survives until thread
/// exit).  Threads that never register are never signalled — HTTP pollers
/// and collector threads stay out of profiles by construction.
void register_current_thread(const char* name);

/// RAII registration for pool workers: registers on construction, disarms
/// the timer and parks the slot on destruction.
class ScopedProfiledThread {
 public:
  explicit ScopedProfiledThread(const char* name);
  ~ScopedProfiledThread();
  ScopedProfiledThread(const ScopedProfiledThread&) = delete;
  ScopedProfiledThread& operator=(const ScopedProfiledThread&) = delete;

 private:
  bool owned_ = false;  // false when the thread was already registered
};

/// Process-wide sampling profiler.  start() arms one POSIX per-thread
/// CPU-time timer (timer_create + SIGEV_THREAD_ID) per registered thread
/// and spawns a collector; stop() disarms and performs a final drain.  The
/// aggregate is cumulative across start/stop cycles until reset().
class CpuProfiler {
 public:
  static CpuProfiler& global();

  /// Returns false (with last_error() set) if sampling is unavailable or
  /// the profiler is already running.  Registers the calling thread.
  bool start(const ProfilerConfig& cfg = {});
  void stop();
  bool running() const noexcept;
  void reset();

  /// Cumulative aggregate since the last reset (includes a live drain).
  StackProfile snapshot();

  const std::string& last_error() const { return last_error_; }
  int hz() const noexcept { return hz_; }

 private:
  CpuProfiler() = default;
  std::string last_error_;
  int hz_ = 0;
};

}  // namespace swt::prof
