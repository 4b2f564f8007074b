// Time-series telemetry and run health: TimeSeriesStore ring semantics and
// CSV/JSON round-trips, Sampler background ticking against a live registry,
// the HealthWatchdog state machine (ok -> stalled -> ok, checkpoint
// degradation, health_changed emission), EventBus extra listeners, and the
// InterruptFlusher's flush-then-exit contract (fork + SIGINT/SIGTERM,
// asserting the 128+sig exit codes).
#include "obs/series.hpp"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/interrupt.hpp"
#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace swt {
namespace {

// ---------------------------------------------------------- TimeSeriesStore

TEST(TimeSeriesStore, AppendAndReadBackOldestFirst) {
  TimeSeriesStore store(8);
  for (int i = 0; i < 5; ++i)
    store.append("a", {double(i), double(i) * 10, double(i) * 100});
  const auto pts = store.points("a");
  ASSERT_EQ(pts.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(pts[size_t(i)].wall_s, double(i));
    EXPECT_DOUBLE_EQ(pts[size_t(i)].virtual_s, double(i) * 10);
    EXPECT_DOUBLE_EQ(pts[size_t(i)].value, double(i) * 100);
  }
  EXPECT_EQ(store.total_appended("a"), 5u);
  EXPECT_EQ(store.dropped(), 0u);
  EXPECT_TRUE(store.points("missing").empty());
}

TEST(TimeSeriesStore, RingOverwritesOldestAndCountsDropped) {
  TimeSeriesStore store(4);
  for (int i = 0; i < 10; ++i) store.append("s", {double(i), -1.0, double(i)});
  const auto pts = store.points("s");
  ASSERT_EQ(pts.size(), 4u);  // capacity retained
  EXPECT_DOUBLE_EQ(pts.front().value, 6.0);
  EXPECT_DOUBLE_EQ(pts.back().value, 9.0);
  EXPECT_EQ(store.total_appended("s"), 10u);
  EXPECT_EQ(store.dropped(), 6u);
}

TEST(TimeSeriesStore, WindowDownsamplesAndPinsNewestPoint) {
  TimeSeriesStore store(64);
  for (int i = 0; i < 50; ++i) store.append("w", {double(i), -1.0, double(i)});
  const auto all = store.window("w", 0);
  EXPECT_EQ(all.size(), 50u);
  const auto win = store.window("w", 10);
  ASSERT_LE(win.size(), 10u);
  ASSERT_GE(win.size(), 2u);
  EXPECT_DOUBLE_EQ(win.back().value, 49.0);  // newest always included
  for (std::size_t i = 1; i < win.size(); ++i)
    EXPECT_GT(win[i].value, win[i - 1].value);  // order preserved
}

TEST(TimeSeriesStore, CsvRoundTripsAllSeries) {
  TimeSeriesStore store(16);
  store.append("b.second", {1.5, 2.5, 3.5});
  store.append("a.first", {0.25, -1.0, 42.0});
  store.append("a.first", {0.5, 10.0, 43.0});

  std::ostringstream csv;
  write_series_csv(csv, store);
  EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
            "series,wall_s,virtual_s,value");

  TimeSeriesStore back(16);
  std::istringstream in(csv.str());
  read_series_csv(in, back);
  ASSERT_EQ(back.names(), store.names());
  const auto pts = back.points("a.first");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].value, 42.0);
  EXPECT_DOUBLE_EQ(pts[0].virtual_s, -1.0);
  EXPECT_DOUBLE_EQ(pts[1].virtual_s, 10.0);
}

TEST(TimeSeriesStore, CsvReaderRejectsMalformedRowsWithLineNumber) {
  // A missing column, and numbers with trailing garbage that stod alone
  // would read as 1.5 and 3.
  for (const char* row : {"x,1.0,2.0", "x,1.5x,2.0,3.0", "x,1.0,2.0,3abc"}) {
    TimeSeriesStore store(4);
    std::istringstream in(std::string("series,wall_s,virtual_s,value\n") + row + "\n");
    try {
      read_series_csv(in, store);
      ADD_FAILURE() << "expected malformed-row rejection of " << row;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
}

TEST(TimeSeriesStore, JsonExportCarriesNameTotalAndPoints) {
  TimeSeriesStore store(4);
  store.append("q", {1.0, 2.0, 3.0});
  const std::string json = series_to_json("q", store.points("q"), 1);
  EXPECT_NE(json.find("\"name\":\"q\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":1"), std::string::npos);
  EXPECT_NE(json.find('3'), std::string::npos);
}

// ------------------------------------------------------------------ Sampler

TEST(Sampler, TickSnapshotsMatchingCountersAndGauges) {
  MetricsRegistry reg;
  reg.counter("search.done_total").add(7);
  reg.gauge("quality.best_score").set(0.5);
  reg.gauge("unrelated.thing").set(9.0);  // prefix-filtered out

  TimeSeriesStore store(8);
  Sampler sampler(store, reg);
  sampler.tick();

  EXPECT_EQ(store.points("search.done_total").size(), 1u);
  EXPECT_DOUBLE_EQ(store.points("search.done_total")[0].value, 7.0);
  EXPECT_DOUBLE_EQ(store.points("quality.best_score")[0].value, 0.5);
  EXPECT_TRUE(store.points("unrelated.thing").empty());
}

TEST(Sampler, VirtualStampComesFromTheConfiguredGauge) {
  MetricsRegistry reg;
  reg.gauge("quality.best_score").set(1.0);
  TimeSeriesStore store(8);
  Sampler sampler(store, reg);

  sampler.tick();  // no virtual clock gauge yet
  reg.gauge("search.virtual_time_seconds").set(123.5);
  sampler.tick();

  const auto pts = store.points("quality.best_score");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].virtual_s, -1.0);
  EXPECT_DOUBLE_EQ(pts[1].virtual_s, 123.5);
}

TEST(Sampler, BackgroundThreadTicksAndInvokesHook) {
  MetricsRegistry reg;
  reg.gauge("search.x").set(1.0);
  TimeSeriesStore store(64);
  Sampler::Config cfg;
  cfg.interval = std::chrono::milliseconds(5);
  Sampler sampler(store, reg, cfg);
  std::atomic<int> hook_calls{0};
  sampler.set_on_tick([&hook_calls] { hook_calls.fetch_add(1); });

  sampler.start();
  EXPECT_TRUE(sampler.running());
  while (sampler.ticks() < 3) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  sampler.stop();
  EXPECT_FALSE(sampler.running());

  EXPECT_GE(store.points("search.x").size(), 3u);
  EXPECT_GE(hook_calls.load(), 3);
  const auto after = sampler.ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(sampler.ticks(), after);  // stop() really stopped the thread
}

TEST(Sampler, RejectsNonPositiveInterval) {
  MetricsRegistry reg;
  TimeSeriesStore store(4);
  Sampler::Config cfg;
  cfg.interval = std::chrono::milliseconds(0);
  EXPECT_THROW((Sampler{store, reg, cfg}), std::invalid_argument);
}

// ----------------------------------------------------------- EventBus fan-out

TEST(EventBus, ExtraListenersAllReceiveAndRemoveIndividually) {
  EventBus bus;
  bus.set_enabled(true);
  int primary = 0, a = 0, b = 0;
  bus.set_listener([&primary](const Event&) { ++primary; });
  const int id_a = bus.add_listener([&a](const Event&) { ++a; });
  bus.add_listener([&b](const Event&) { ++b; });

  bus.emit(EventType::kEvalFinished, 1.0, 0, 1);
  EXPECT_EQ(primary, 1);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);

  bus.remove_listener(id_a);
  bus.emit(EventType::kEvalFinished, 2.0, 0, 2);
  EXPECT_EQ(primary, 2);
  EXPECT_EQ(a, 1);  // removed
  EXPECT_EQ(b, 2);
}

// ------------------------------------------------------------ HealthWatchdog

// Hand-made events need the wall stamp EventBus::emit would have applied.
Event make_event(EventType type, int worker = -1, long id = -1) {
  Event ev;
  ev.type = type;
  ev.worker = worker;
  ev.eval_id = id;
  ev.wall_s = SpanTracer::wall_now_us() / 1e6;
  return ev;
}

TEST(HealthWatchdog, IdleUntilARunStartsThenOk) {
  HealthWatchdog dog;
  EXPECT_EQ(dog.state(), HealthWatchdog::State::kIdle);
  EXPECT_FALSE(dog.run_active());
  EXPECT_LT(dog.seconds_since_progress(), 0.0);

  dog.on_event(make_event(EventType::kRunStarted));
  EXPECT_EQ(dog.poll(), HealthWatchdog::State::kOk);
  EXPECT_TRUE(dog.run_active());
  EXPECT_GE(dog.seconds_since_progress(), 0.0);

  dog.on_event(make_event(EventType::kRunFinished));
  EXPECT_EQ(dog.poll(), HealthWatchdog::State::kIdle);
}

TEST(HealthWatchdog, StallsAfterThresholdAndRecoversOnProgress) {
  HealthWatchdog dog(HealthWatchdog::Config{.stall_after_s = 0.05});
  dog.on_event(make_event(EventType::kRunStarted));
  EXPECT_EQ(dog.poll(), HealthWatchdog::State::kOk);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(dog.poll(), HealthWatchdog::State::kStalled);
  EXPECT_NE(dog.reason().find("stalled"), std::string::npos);

  dog.on_event(make_event(EventType::kEvalFinished, 0, 1));
  EXPECT_EQ(dog.poll(), HealthWatchdog::State::kOk);
  EXPECT_TRUE(dog.reason().empty());
}

TEST(HealthWatchdog, ExcessiveCkptRetriesDegradeUntilProgress) {
  HealthWatchdog dog(
      HealthWatchdog::Config{.stall_after_s = 1000.0, .ckpt_retry_limit = 3});
  dog.on_event(make_event(EventType::kRunStarted));
  for (int i = 0; i < 4; ++i) dog.on_event(make_event(EventType::kCkptRetry, 0, 1));
  EXPECT_EQ(dog.poll(), HealthWatchdog::State::kCkptDegraded);
  EXPECT_NE(dog.reason().find("retries"), std::string::npos);

  dog.on_event(make_event(EventType::kEvalFinished, 0, 1));  // retries reset
  EXPECT_EQ(dog.poll(), HealthWatchdog::State::kOk);
}

TEST(HealthWatchdog, TracksPerWorkerBusyAndCounts) {
  HealthWatchdog dog;
  dog.on_event(make_event(EventType::kRunStarted));
  dog.on_event(make_event(EventType::kEvalStarted, 0, 10));
  dog.on_event(make_event(EventType::kEvalStarted, 2, 11));
  dog.on_event(make_event(EventType::kEvalFinished, 0, 10));
  dog.on_event(make_event(EventType::kWorkerCrashed, 2, 11));

  const auto workers = dog.workers();
  ASSERT_EQ(workers.size(), 2u);  // only workers that appeared in events
  EXPECT_EQ(workers[0].worker, 0);
  EXPECT_FALSE(workers[0].busy);
  EXPECT_EQ(workers[0].evals_finished, 1);
  EXPECT_EQ(workers[1].worker, 2);
  EXPECT_FALSE(workers[1].busy);  // crash clears busy
  EXPECT_EQ(workers[1].crashes, 1);
}

TEST(HealthWatchdog, AttachedBusDrivesItAndTransitionsEmitHealthChanged) {
  EventBus bus;
  bus.set_enabled(true);
  HealthWatchdog dog(HealthWatchdog::Config{.stall_after_s = 0.05});
  dog.attach(bus);

  std::vector<Event> seen;
  bus.add_listener([&seen](const Event& ev) {
    if (ev.type == EventType::kHealthChanged) seen.push_back(ev);
  });

  bus.emit(EventType::kRunStarted, 0.0);
  dog.poll();  // idle -> ok
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  dog.poll();  // ok -> stalled
  bus.emit(EventType::kEvalFinished, 1.0, 0, 1);
  dog.poll();  // stalled -> ok

  ASSERT_EQ(seen.size(), 3u);
  const auto state_field = [](const Event& ev) {
    for (const auto& [k, v] : ev.fields)
      if (k == "state") return v;
    return std::string();
  };
  EXPECT_EQ(state_field(seen[0]), "\"ok\"");
  EXPECT_EQ(state_field(seen[1]), "\"stalled\"");
  EXPECT_EQ(state_field(seen[2]), "\"ok\"");

  dog.detach();
  bus.emit(EventType::kRunFinished, 2.0);
  EXPECT_TRUE(dog.run_active());  // detached: no longer listening
}

TEST(HealthWatchdog, PublishesHealthGaugesOnPoll) {
  MetricsRegistry& m = metrics();
  HealthWatchdog dog;
  dog.on_event(make_event(EventType::kRunStarted));
  dog.on_event(make_event(EventType::kEvalStarted, 1, 5));
  dog.poll();
  EXPECT_DOUBLE_EQ(m.gauge("health.state").value(),
                   double(int(HealthWatchdog::State::kOk)));
  EXPECT_DOUBLE_EQ(m.gauge("health.workers_busy").value(), 1.0);
  EXPECT_GE(m.gauge("health.seconds_since_progress").value(), 0.0);
}

// ---------------------------------------------------------- InterruptFlusher
//
// Fork tests: the child installs the flusher with a callback that writes a
// marker file, then spins; the parent signals it and asserts (a) the
// distinct exit code 128+sig and (b) the marker file exists — i.e. the
// flush ran before death.

int run_child_and_signal(int sig, const std::string& marker) {
  const pid_t pid = fork();
  if (pid == 0) {
    const InterruptFlusher flusher([marker] {
      std::ofstream out(marker, std::ios::trunc);
      out << "flushed\n";
    });
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Give the child time to install the handlers before signalling.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  kill(pid, sig);
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

TEST(InterruptFlusher, SigintFlushesAndExits130) {
  const std::string marker = "/tmp/swtnas_test_int_marker";
  ::unlink(marker.c_str());
  const int status = run_child_and_signal(SIGINT, marker);
  ASSERT_TRUE(WIFEXITED(status)) << "child was killed, not exited";
  EXPECT_EQ(WEXITSTATUS(status), 130);
  EXPECT_EQ(InterruptFlusher::exit_code_for(SIGINT), 130);
  std::ifstream in(marker);
  std::string line;
  ASSERT_TRUE(std::getline(in, line)) << "flush callback never ran";
  EXPECT_EQ(line, "flushed");
  ::unlink(marker.c_str());
}

TEST(InterruptFlusher, SigtermFlushesAndExits143) {
  const std::string marker = "/tmp/swtnas_test_term_marker";
  ::unlink(marker.c_str());
  const int status = run_child_and_signal(SIGTERM, marker);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 143);
  std::ifstream in(marker);
  EXPECT_TRUE(in.good()) << "flush callback never ran";
  ::unlink(marker.c_str());
}

TEST(InterruptFlusher, DestructorRestoresDispositionsCleanly) {
  {
    const InterruptFlusher flusher([] {});
  }
  // A second install after teardown must succeed (singleton slot released).
  const InterruptFlusher again([] {});
}

}  // namespace
}  // namespace swt
