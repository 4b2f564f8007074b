// Performance-attribution plane (src/obs/prof): ring-buffer semantics,
// sampling under concurrency, the counter fallback ladder, collapsed-text
// round-trips, the critical-path analyzer on a hand-built DAG, one
// critical-path input from spans, CSV and memory, and the fork-safety
// contract.  Runs on a single-core host and degrades to
// GTEST_SKIP where the kernel denies per-thread timers.
#include "obs/prof/sampler.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/virtual_cluster.hpp"
#include "exp/analysis.hpp"
#include "exp/apps.hpp"
#include "exp/runner.hpp"
#include "exp/trace_io.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/counters.hpp"
#include "obs/prof/critical_path.hpp"
#include "obs/span_tracer.hpp"

namespace {

using namespace swt;

// ---------------------------------------------------------------- SampleRing

TEST(SampleRing, OverflowDropsInsteadOfBlockingAndCountsOnce) {
  prof::SampleRing ring(8);  // rounds to capacity 8
  const std::uintptr_t pcs[2] = {0x1000, 0x2000};
  for (std::size_t i = 0; i < ring.capacity(); ++i)
    EXPECT_TRUE(ring.try_push(pcs, 2));
  EXPECT_FALSE(ring.try_push(pcs, 2));
  EXPECT_FALSE(ring.try_push(pcs, 2));
  EXPECT_EQ(ring.dropped(), 2u);

  std::vector<prof::SampleRing::Sample> out;
  EXPECT_EQ(ring.drain(out), ring.capacity());
  ASSERT_EQ(out.size(), ring.capacity());
  EXPECT_EQ(out[0].depth, 2);
  EXPECT_EQ(out[0].pc[0], 0x1000u);

  // After the drain there is room again, and take_dropped moves the count.
  EXPECT_TRUE(ring.try_push(pcs, 2));
  EXPECT_EQ(ring.take_dropped(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SampleRing, TruncatesDeepStacksAndRejectsEmpty) {
  prof::SampleRing ring(8);
  std::uintptr_t deep[prof::SampleRing::kMaxFrames + 16];
  for (std::size_t i = 0; i < std::size(deep); ++i) deep[i] = 0x1000 + i;
  EXPECT_TRUE(ring.try_push(deep, static_cast<int>(std::size(deep))));
  EXPECT_FALSE(ring.try_push(deep, 0));
  std::vector<prof::SampleRing::Sample> out;
  ASSERT_EQ(ring.drain(out), 1u);
  EXPECT_EQ(out[0].depth, prof::SampleRing::kMaxFrames);
}

// ------------------------------------------------------------ collapsed text

TEST(Collapsed, RoundTripsIncludingFramesWithSpaces) {
  prof::SymbolizedProfile prof;
  prof.stacks.push_back({{"main", "run()", "swt::gemm<float, 8>(int, int)"}, 7});
  prof.stacks.push_back({{"main", "idle wait"}, 2});
  prof.total_samples = 9;

  const std::string text = prof::to_collapsed(prof);
  // Count is the last space-separated token; frame names keep their spaces.
  EXPECT_NE(text.find("main;run();swt::gemm<float, 8>(int, int) 7\n"),
            std::string::npos);

  // A count with a sign or a suffix is no count: those lines are skipped.
  std::istringstream in("# header comment\n" + text +
                        "main;negative -1\nmain;suffixed 3x\n\n# trailing\n");
  const prof::SymbolizedProfile back = prof::parse_collapsed(in);
  ASSERT_EQ(back.stacks.size(), 2u);
  EXPECT_EQ(back.total_samples, 9u);
  // to_collapsed sorts by descending count, so order is deterministic.
  EXPECT_EQ(back.stacks[0].second, 7u);
  ASSERT_EQ(back.stacks[0].first.size(), 3u);
  EXPECT_EQ(back.stacks[0].first[2], "swt::gemm<float, 8>(int, int)");
  EXPECT_EQ(back.stacks[1].first[1], "idle wait");
}

TEST(Collapsed, SpeedscopeJsonInternsFramesAndSumsWeights) {
  prof::SymbolizedProfile prof;
  prof.stacks.push_back({{"a", "b"}, 3});
  prof.stacks.push_back({{"a", "c"}, 1});
  std::ostringstream out;
  prof::write_speedscope_json(out, prof, "test");
  const std::string json = out.str();
  // "a" is shared: three interned frames, not four.
  EXPECT_NE(json.find("\"frames\":[{\"name\":\"a\"},{\"name\":\"b\"},{\"name\":\"c\"}]"),
            std::string::npos);
  EXPECT_NE(json.find("\"endValue\":4"), std::string::npos);
  EXPECT_NE(json.find("\"samples\":[[0,1],[0,2]]"), std::string::npos);
}

TEST(StackProfile, SubtractGivesTheWindowDiff) {
  prof::StackProfile before, after;
  before.stacks[{0x1}] = 2;
  before.total_samples = 2;
  after.stacks[{0x1}] = 5;
  after.stacks[{0x2}] = 1;
  after.total_samples = 6;
  after.subtract(before);
  EXPECT_EQ(after.stacks.at({0x1}), 3u);
  EXPECT_EQ(after.stacks.at({0x2}), 1u);
  EXPECT_EQ(after.total_samples, 4u);
}

// ---------------------------------------------------------------- profiler

/// Burn thread CPU time so CPU-clock sampling timers actually fire.
void burn_cpu_ms(int ms) {
  volatile double x = 1.0;
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 4096; ++i) x = x * 1.000001 + 1e-9;
  }
}

TEST(CpuProfiler, SamplesConcurrentRegisteredThreadsSignalSafely) {
  prof::CpuProfiler& profiler = prof::CpuProfiler::global();
  profiler.reset();
  if (!profiler.start(prof::ProfilerConfig{997})) {
    GTEST_SKIP() << "per-thread CPU timers unavailable: " << profiler.last_error();
  }
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.start()) << "double-start must fail";

  std::atomic<bool> go{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&go] {
      const prof::ScopedProfiledThread profiled("test-burner");
      while (go.load(std::memory_order_relaxed)) burn_cpu_ms(5);
    });
  }
  // Concurrent snapshots race the collector and the handlers on purpose.
  std::uint64_t last = 0;
  for (int i = 0; i < 20; ++i) {
    burn_cpu_ms(10);
    const prof::StackProfile snap = profiler.snapshot();
    EXPECT_GE(snap.total_samples, last);
    last = snap.total_samples;
  }
  go.store(false);
  for (auto& th : threads) th.join();
  profiler.stop();
  EXPECT_FALSE(profiler.running());

  const prof::StackProfile final_snap = profiler.snapshot();
  EXPECT_GT(final_snap.total_samples, 0u) << "a ~1kHz timer over ~400ms of "
                                             "busy CPU produced no samples";
  for (const auto& [stack, count] : final_snap.stacks) {
    EXPECT_FALSE(stack.empty());
    EXPECT_GT(count, 0u);
  }
  // Symbolization happens offline and must never throw on raw PCs.
  const prof::SymbolizedProfile sym = prof::symbolize(final_snap);
  EXPECT_EQ(sym.total_samples, final_snap.total_samples);
  profiler.reset();
  EXPECT_EQ(profiler.snapshot().total_samples, 0u);
}

TEST(CpuProfiler, ProfilingNeverPerturbsTheTrace) {
  // The determinism contract: under fixed virtual time, a profiled run's
  // trace is byte-identical to an unprofiled one.
  const AppConfig app = make_app(AppId::kMnist, 5);
  NasRunConfig cfg;
  cfg.mode = TransferMode::kLCS;
  cfg.n_evals = 8;
  cfg.seed = 5;
  cfg.cluster.num_workers = 4;
  cfg.cluster.fixed_train_seconds = 1.0;

  std::ostringstream plain;
  write_trace_csv(plain, run_nas(app, cfg).trace);

  prof::CpuProfiler& profiler = prof::CpuProfiler::global();
  profiler.reset();
  const bool started = profiler.start(prof::ProfilerConfig{997});
  std::ostringstream profiled;
  write_trace_csv(profiled, run_nas(app, cfg).trace);
  if (started) profiler.stop();
  profiler.reset();

  EXPECT_EQ(plain.str(), profiled.str());
}

// ------------------------------------------------------------- fork safety

TEST(ForkSafety, ChildQuiescesAndBothSidesStayFunctional) {
  prof::CpuProfiler& profiler = prof::CpuProfiler::global();
  profiler.reset();
  if (!profiler.start(prof::ProfilerConfig{997})) {
    GTEST_SKIP() << "per-thread CPU timers unavailable: " << profiler.last_error();
  }
  // Arm a perf/fallback counter handle too: the child must survive closed fds.
  prof::ThreadCounters& counters = prof::ThreadCounters::this_thread();
  (void)counters.read();
  burn_cpu_ms(30);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: the atfork handler disarmed sampling (timers are not inherited)
    // and reset every slot; registration and counter reads must still work.
    int rc = 0;
    if (prof::CpuProfiler::global().running()) rc |= 1;
    prof::register_current_thread("child");
    const prof::CounterSample s = prof::ThreadCounters::this_thread().read();
    if (!(s.cpu_seconds >= 0.0)) rc |= 2;
    burn_cpu_ms(5);
    _exit(rc);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child saw a non-quiesced profiler "
                                       "(bit 1) or a broken counter read (bit 2)";

  // Parent: sampling continues across the fork.
  const std::uint64_t before = profiler.snapshot().total_samples;
  burn_cpu_ms(60);
  const std::uint64_t after = profiler.snapshot().total_samples;
  EXPECT_GE(after, before);
  const prof::CounterSample s = counters.read();
  EXPECT_GE(s.cpu_seconds, 0.0);
  profiler.stop();
  profiler.reset();
}

// ---------------------------------------------------------------- counters

TEST(ThreadCounters, FallbackLadderSelectsAWorkingBackend) {
  prof::ThreadCounters counters;
  if (counters.backend() == prof::CounterBackend::kThreadClock) {
    // Containers commonly deny perf_event_open; the recorded errno must be
    // one of the expected "not available here" values (or 0 when the
    // syscall is compiled out entirely).
    EXPECT_TRUE(counters.perf_errno() == 0 || counters.perf_errno() == EPERM ||
                counters.perf_errno() == EACCES || counters.perf_errno() == ENOSYS ||
                counters.perf_errno() == ENOENT || counters.perf_errno() == ENODEV)
        << "unexpected perf_event_open errno " << counters.perf_errno();
  }
  const prof::CounterSample a = counters.read();
  burn_cpu_ms(20);
  const prof::CounterSample b = counters.read();
  const prof::CounterSample d = b.delta(a);
  EXPECT_GT(d.cpu_seconds, 0.0);
  EXPECT_LT(d.cpu_seconds, 10.0);
  if (counters.backend() == prof::CounterBackend::kPerfEvent) {
    EXPECT_TRUE(d.hardware);
    EXPECT_GT(d.cycles, 0);
    EXPECT_GT(d.instructions, 0);
  } else {
    EXPECT_FALSE(d.hardware);
    EXPECT_EQ(d.cycles, 0);
  }
}

TEST(ThreadCounters, ForcedFallbackIsAlwaysThreadClock) {
  prof::ThreadCounters counters(/*force_fallback=*/true);
  EXPECT_EQ(counters.backend(), prof::CounterBackend::kThreadClock);
  EXPECT_STREQ(prof::counter_backend_name(counters.backend()), "thread_clock");
  const prof::CounterSample a = counters.read();
  burn_cpu_ms(10);
  const prof::CounterSample d = counters.read().delta(a);
  EXPECT_GT(d.cpu_seconds, 0.0);
  EXPECT_FALSE(d.hardware);
}

TEST(ThreadCounters, RecordPhaseFeedsProfMetrics) {
  set_metrics_enabled(true);
  const MetricsSnapshot before = metrics().snapshot();
  const auto counter_or0 = [](const MetricsSnapshot& s, const char* name) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? std::int64_t{0} : it->second;
  };
  prof::CounterSample delta;
  delta.cpu_seconds = 0.5;
  prof::record_phase(prof::Phase::kGemm, /*wall_seconds=*/0.25,
                     /*flops=*/1'000'000'000, delta);
  const MetricsSnapshot after = metrics().snapshot();
  EXPECT_EQ(counter_or0(after, "prof.gemm.calls_total"),
            counter_or0(before, "prof.gemm.calls_total") + 1);
  EXPECT_EQ(counter_or0(after, "prof.gemm.flops_total"),
            counter_or0(before, "prof.gemm.flops_total") + 1'000'000'000);
  // The gauge tracks cumulative achieved throughput (earlier kernel calls in
  // this process contribute too): gflops == flops_total / wall_seconds / 1e9.
  const double wall = after.gauges.at("prof.gemm.wall_seconds");
  ASSERT_GT(wall, 0.0);
  EXPECT_NEAR(after.gauges.at("prof.gemm.gflops"),
              static_cast<double>(counter_or0(after, "prof.gemm.flops_total")) /
                  wall / 1e9,
              1e-6);
}

// A metric the backend cannot measure is absent, never a zero: software-only
// samples (the CPU-clock fallback) must not register the hardware series.
TEST(ThreadCounters, SoftwareSamplesRegisterNoHardwareSeries) {
  if (prof::ThreadCounters::this_thread().backend() != prof::CounterBackend::kThreadClock)
    GTEST_SKIP() << "perf_event counters are live: hardware samples register these "
                    "series legitimately";
  set_metrics_enabled(true);
  prof::CounterSample delta;
  delta.cpu_seconds = 0.1;
  prof::record_phase(prof::Phase::kGemm, 0.1, 1000, delta);
  prof::record_phase(prof::Phase::kConv, 0.1, 1000, delta);
  const MetricsSnapshot snap = metrics().snapshot();
  EXPECT_TRUE(snap.counters.contains("prof.gemm.calls_total"));
  EXPECT_TRUE(snap.counters.contains("prof.conv.calls_total"));
  for (const char* phase : {"gemm", "conv"}) {
    const std::string prefix = std::string("prof.") + phase;
    for (const char* counter : {".cycles_total", ".instructions_total", ".cache_misses_total"})
      EXPECT_FALSE(snap.counters.contains(prefix + counter)) << prefix + counter;
    EXPECT_FALSE(snap.gauges.contains(prefix + ".ipc")) << prefix + ".ipc";
  }
}

// ------------------------------------------------------------ critical path

/// Hand-built DAG: two workers, a transfer chain A -> C across workers with
/// C stalled on A's checkpoint, and an independent B.
///
///   w0: A[0,10]                     (train 9, ckpt write 1)
///   w1: B[0,4]     C[12,20]         (C: parent A, ready_at 12, stall 2,
///                                    read 1, transfer 1, train 4)
prof::CriticalPathInput two_worker_dag() {
  prof::CriticalPathInput in;
  in.workers = 2;
  prof::EvalSpan a;
  a.id = 1;
  a.worker = 0;
  a.start = 0.0;
  a.finish = 10.0;
  a.ready_at = 10.0;
  a.train = 9.0;
  a.ckpt_write = 1.0;
  prof::EvalSpan b;
  b.id = 2;
  b.worker = 1;
  b.start = 0.0;
  b.finish = 4.0;
  b.ready_at = 4.0;
  b.train = 4.0;
  prof::EvalSpan c;
  c.id = 3;
  c.parent_id = 1;
  c.worker = 1;
  c.start = 12.0;
  c.finish = 20.0;
  c.ready_at = 20.0;
  c.stall = 2.0;
  c.ckpt_read = 1.0;
  c.transfer = 1.0;
  c.train = 4.0;
  in.evals = {a, b, c};
  return in;
}

TEST(CriticalPath, HandBuiltDagYieldsTheTransferChain) {
  const prof::CriticalPathReport r = prof::analyze_critical_path(two_worker_dag());
  EXPECT_EQ(r.workers, 2);
  EXPECT_DOUBLE_EQ(r.t0, 0.0);
  EXPECT_DOUBLE_EQ(r.makespan, 20.0);
  EXPECT_DOUBLE_EQ(r.worker_seconds, 40.0);

  // Path must be the lineage chain A -> C, not B (which finishes early).
  ASSERT_EQ(r.path.size(), 2u);
  EXPECT_EQ(r.path[0].id, 1);
  EXPECT_EQ(r.path[1].id, 3);
  EXPECT_EQ(r.path[1].bound_by, "parent");
  EXPECT_EQ(r.path[1].pred_id, 1);
  // C started at 12 but its parent was ready at 10: 2 s of scheduler wait.
  EXPECT_DOUBLE_EQ(r.path[1].wait_before, 2.0);
  EXPECT_DOUBLE_EQ(r.path_wait_seconds, 2.0);
  EXPECT_DOUBLE_EQ(r.path_seconds, 20.0);

  // Phase shares: train 17, ckpt write 1, ckpt read 1, stall 2, transfer 1;
  // busy total 22 of 40 worker-seconds -> idle 18; shares sum to 1.
  EXPECT_DOUBLE_EQ(r.phase_seconds.at("train"), 17.0);
  EXPECT_DOUBLE_EQ(r.phase_seconds.at("checkpoint"), 2.0);
  EXPECT_DOUBLE_EQ(r.phase_seconds.at("checkpoint stall"), 2.0);
  EXPECT_DOUBLE_EQ(r.phase_seconds.at("transfer"), 1.0);
  EXPECT_DOUBLE_EQ(r.phase_seconds.at("idle"), 18.0);
  EXPECT_NEAR(r.share_sum, 1.0, 1e-12);

  // What-ifs: checkpoint costs on the path are A's write (1) + C's stall(2)
  // + read (1) = 4; transfer removes 1; perfect scheduling removes the 2 s
  // gap.  All are lower bounds ( > 0 speedup estimates).
  double ckpt_removed = 0.0, transfer_removed = 0.0, sched_removed = 0.0;
  for (const prof::WhatIf& w : r.what_ifs) {
    if (w.name == "zero_cost_checkpointing") ckpt_removed = w.removed_seconds;
    if (w.name == "zero_cost_transfer") transfer_removed = w.removed_seconds;
    if (w.name == "perfect_scheduling") sched_removed = w.removed_seconds;
  }
  EXPECT_DOUBLE_EQ(ckpt_removed, 4.0);
  EXPECT_DOUBLE_EQ(transfer_removed, 1.0);
  EXPECT_DOUBLE_EQ(sched_removed, 2.0);

  // JSON serialization stays parseable and carries the headline numbers.
  const std::string json = prof::critical_path_json(r);
  EXPECT_NE(json.find("\"makespan_s\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
}

TEST(CriticalPath, SameWorkerPredecessorBindsWhenNoLineage) {
  // Two sequential evals on one worker, no transfer: the second is bound by
  // worker occupancy, not by a parent.
  prof::CriticalPathInput in;
  in.workers = 1;
  prof::EvalSpan a;
  a.id = 1;
  a.worker = 0;
  a.start = 0.0;
  a.finish = 5.0;
  a.ready_at = 5.0;
  a.train = 5.0;
  prof::EvalSpan b = a;
  b.id = 2;
  b.start = 5.0;
  b.finish = 9.0;
  b.ready_at = 9.0;
  b.train = 4.0;
  in.evals = {a, b};
  const prof::CriticalPathReport r = prof::analyze_critical_path(in);
  ASSERT_EQ(r.path.size(), 2u);
  EXPECT_EQ(r.path[1].bound_by, "worker");
  EXPECT_DOUBLE_EQ(r.path_wait_seconds, 0.0);
  EXPECT_NEAR(r.share_sum, 1.0, 1e-12);
}

TEST(CriticalPath, TraceBuilderDecomposesTheEnvelopeExactly) {
  // On a real (deterministic) run, the CSV-trace builder's per-eval phases
  // must tile each evaluation's envelope: stall + read + transfer + train +
  // write + retry == finish - start, so shares always sum to 1.
  const AppConfig app = make_app(AppId::kMnist, 3);
  NasRunConfig cfg;
  cfg.mode = TransferMode::kLCS;
  cfg.n_evals = 12;
  cfg.seed = 3;
  cfg.cluster.num_workers = 4;
  cfg.cluster.fixed_train_seconds = 1.0;
  const Trace trace = run_nas(app, cfg).trace;

  const prof::CriticalPathInput in = critical_path_input(trace);
  ASSERT_EQ(in.evals.size(), trace.records.size());
  for (const prof::EvalSpan& s : in.evals) {
    const double envelope = s.finish - s.start;
    const double parts =
        s.stall + s.ckpt_read + s.transfer + s.train + s.ckpt_write + s.ckpt_retry;
    EXPECT_NEAR(parts, envelope, 1e-9) << "eval " << s.id;
  }
  const prof::CriticalPathReport r = prof::analyze_critical_path(in);
  EXPECT_NEAR(r.share_sum, 1.0, 1e-9);
  EXPECT_FALSE(r.path.empty());
  EXPECT_NEAR(r.makespan - r.t0, trace.makespan, 1e-9);
}

void expect_bit_equal(const prof::CriticalPathInput& a, const prof::CriticalPathInput& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(a.workers, b.workers);
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    const prof::EvalSpan& x = a.evals[i];
    const prof::EvalSpan& y = b.evals[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.parent_id, y.parent_id);
    EXPECT_EQ(x.worker, y.worker);
    for (const auto& [p, q] : {std::pair{x.start, y.start}, {x.finish, y.finish},
                               {x.ready_at, y.ready_at}, {x.stall, y.stall},
                               {x.ckpt_read, y.ckpt_read}, {x.transfer, y.transfer},
                               {x.train, y.train}, {x.ckpt_write, y.ckpt_write},
                               {x.ckpt_retry, y.ckpt_retry}})
      EXPECT_EQ(bits(p), bits(q)) << "eval " << x.id;
  }
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].worker, b.faults[i].worker);
    EXPECT_EQ(bits(a.faults[i].start), bits(b.faults[i].start));
    EXPECT_EQ(bits(a.faults[i].finish), bits(b.faults[i].finish));
  }
}

TEST(CriticalPath, SpansCsvAndMemoryGiveOneInput) {
  // A span trace, the in-memory trace and its CSV round trip are one
  // reading of the run, faults included: the span args carry the values
  // eval_span and the crash records give, bit for bit.
  SpanTracer& tracer = SpanTracer::global();
  for (const TransferMode mode : {TransferMode::kNone, TransferMode::kLCS}) {
    tracer.clear();
    tracer.set_enabled(true);
    const AppConfig app = make_app(AppId::kMnist, 7);
    NasRunConfig cfg;
    cfg.mode = mode;
    cfg.n_evals = 16;
    cfg.seed = 7;
    cfg.cluster.num_workers = 4;
    cfg.cluster.fixed_train_seconds = 2.0;
    cfg.cluster.async_checkpointing = true;
    cfg.cluster.faults.mtbf_seconds = 5.0;
    cfg.cluster.faults.worker_recovery_s = 5.0;
    const Trace trace = run_nas(app, cfg).trace;
    tracer.set_enabled(false);
    std::stringstream spans;
    write_trace_json(spans, tracer.events());
    tracer.clear();

    ASSERT_GT(trace.crashes.size(), 0u);
    std::stringstream csv;
    write_trace_csv(csv, trace);
    const prof::CriticalPathInput memory = critical_path_input(trace);
    EXPECT_EQ(memory.faults.size(), 2 * trace.crashes.size());
    expect_bit_equal(memory, critical_path_input(read_trace_csv(csv)));
    expect_bit_equal(memory, prof::critical_path_input_from_events(read_trace_json(spans)));
  }
}

TEST(CriticalPath, EmptyInputYieldsEmptyReport) {
  const prof::CriticalPathReport r = prof::analyze_critical_path({});
  EXPECT_TRUE(r.path.empty());
  EXPECT_TRUE(r.what_ifs.empty());
}

}  // namespace
