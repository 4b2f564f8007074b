// Observability layer: histogram buckets and quantile estimates, lossless
// concurrent counter/histogram updates from thread_pool workers, the
// registry's get-or-create and reset semantics, the enabled kill-switch,
// span nesting on one thread, trace_event JSON round-trips, the JSON
// parser, and the injectable log sink with per-level message counters.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/span_tracer.hpp"

namespace swt {
namespace {

// ---------------------------------------------------------------- Histogram

TEST(Histogram, BucketCountsLandInInclusiveUpperEdges) {
  Histogram h({1.0, 2.0, 5.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 100.0}) h.observe(v);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);      // 0.5, 1.0 (edges are inclusive)
  EXPECT_EQ(counts[1], 2u);      // 1.5, 2.0
  EXPECT_EQ(counts[2], 2u);      // 3.0, 5.0
  EXPECT_EQ(counts[3], 2u);      // 7.0, 100.0 overflow
  EXPECT_EQ(h.count(), 8u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 5.0 + 7.0 + 100.0);
}

TEST(Histogram, QuantilesInterpolateWithinTheCrossingBucket) {
  Histogram h({10.0, 20.0, 30.0, 40.0});
  // 100 uniform samples in (0, 40]: quantile(q) should track 40q closely.
  for (int i = 1; i <= 100; ++i) h.observe(0.4 * i);
  EXPECT_NEAR(h.quantile(0.5), 20.0, 2.0);
  EXPECT_NEAR(h.quantile(0.25), 10.0, 2.0);
  EXPECT_NEAR(h.quantile(0.9), 36.0, 2.0);
  // Clamped to observed extremes at the ends.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.4);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
}

TEST(Histogram, QuantileOfOverflowBucketReportsObservedMax) {
  Histogram h({1.0});
  h.observe(50.0);
  h.observe(70.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 70.0);
}

TEST(Histogram, EmptyAndResetAreZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.observe(3.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, DefaultSecondsBoundsAreStrictlyIncreasing) {
  const auto bounds = Histogram::default_seconds_bounds();
  ASSERT_GE(bounds.size(), 10u);
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_LT(bounds[i - 1], bounds[i]);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_DOUBLE_EQ(bounds.back(), 1e3);
}

// ------------------------------------------------------------- concurrency

TEST(MetricsConcurrency, CounterIncrementsFromPoolWorkersAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.counter("concurrent");
  constexpr std::size_t kTasks = 64, kPerTask = 10'000;
  ThreadPool pool;
  for (std::size_t t = 0; t < kTasks; ++t)
    pool.submit([&] {
      for (std::size_t i = 0; i < kPerTask; ++i) c.add();
    });
  pool.wait_idle();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kTasks * kPerTask));
}

TEST(MetricsConcurrency, GaugeAndHistogramAccumulateLosslessly) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("seconds_total");
  Histogram& h = reg.histogram("latency", {1.0, 2.0});
  constexpr std::size_t kTasks = 32, kPerTask = 2'000;
  ThreadPool pool;
  for (std::size_t t = 0; t < kTasks; ++t)
    pool.submit([&] {
      for (std::size_t i = 0; i < kPerTask; ++i) {
        g.add(0.5);
        h.observe(1.5);
      }
    });
  pool.wait_idle();
  EXPECT_DOUBLE_EQ(g.value(), 0.5 * kTasks * kPerTask);
  EXPECT_EQ(h.count(), kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(h.sum(), 1.5 * kTasks * kPerTask);
  EXPECT_EQ(h.bucket_counts()[1], kTasks * kPerTask);
}

// The concurrent-scrape contract (metrics.hpp): a reader that loads count()
// and then bucket_counts() never sees a counted observation missing from
// its bucket — sum(buckets) >= count — and successive scrapes are monotone.
// 8 writers hammer one histogram while a reader scrapes flat out; run this
// under TSan (-DSWT_SANITIZE=thread, label "sanitize") to also prove the
// orderings are data-race-free, not merely tear-free.
TEST(MetricsConcurrency, ScrapeUnderEightWritersSeesBucketsBeforeCount) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("stress.scrape", {0.25, 0.5, 0.75});
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 20000;

  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kPerWriter; ++i)
        h.observe(static_cast<double>((w * kPerWriter + i) % 100) / 100.0);
      done.fetch_add(1, std::memory_order_release);
    });

  go.store(true, std::memory_order_release);
  std::uint64_t last_count = 0;
  long scrapes = 0;
  while (done.load(std::memory_order_acquire) < kWriters) {
    const std::uint64_t count = h.count();  // acquire: buckets now visible
    const std::vector<std::uint64_t> buckets = h.bucket_counts();
    std::uint64_t in_buckets = 0;
    for (const std::uint64_t b : buckets) in_buckets += b;
    ASSERT_GE(in_buckets, count) << "bucket increment published after count";
    ASSERT_GE(count, last_count) << "scrape went backwards";
    last_count = count;
    ++scrapes;
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_GT(scrapes, 0);

  // Full-registry snapshots racing the same writers must also be coherent.
  const HistogramSnapshot snap = reg.snapshot().histograms.at("stress.scrape");
  std::uint64_t in_buckets = 0;
  for (const std::uint64_t b : snap.counts) in_buckets += b;
  EXPECT_EQ(in_buckets, snap.count);
}

TEST(MetricsConcurrency, ConcurrentGetOrCreateReturnsOneInstrument) {
  MetricsRegistry reg;
  std::vector<Counter*> seen(64);
  ThreadPool pool;
  for (std::size_t i = 0; i < seen.size(); ++i)
    pool.submit([&, i] { seen[i] = &reg.counter("shared.name"); });
  pool.wait_idle();
  for (Counter* p : seen) EXPECT_EQ(p, seen[0]);
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, GetOrCreateIsStableAndSnapshotSeesValues) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  a.add(3);
  EXPECT_EQ(&a, &reg.counter("a"));
  reg.gauge("g").set(2.5);
  reg.histogram("h").observe(0.25);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 3);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.5);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("h").sum, 0.25);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  a.add(7);
  reg.histogram("h").observe(1.0);
  reg.reset();
  EXPECT_EQ(a.value(), 0);                  // cached reference survives
  EXPECT_EQ(&a, &reg.counter("a"));         // still the same instrument
  EXPECT_EQ(reg.snapshot().histograms.at("h").count, 0u);
}

TEST(MetricsRegistry, DisabledUpdatesAreNoOps) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  set_metrics_enabled(false);
  c.add(5);
  g.set(1.0);
  g.add(1.0);
  h.observe(1.0);
  set_metrics_enabled(true);
  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.add(5);
  EXPECT_EQ(c.value(), 5);  // re-enabling resumes accumulation
}

TEST(MetricsRegistry, JsonSerializationParsesBack) {
  MetricsRegistry reg;
  reg.counter("evals").add(42);
  reg.gauge("depth").set(3.5);
  Histogram& h = reg.histogram("lat", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  std::ostringstream os;
  write_metrics_json(os, reg.snapshot());
  const JsonValue doc = parse_json(os.str());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("evals").number, 42.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("depth").number, 3.5);
  const JsonValue& lat = doc.at("histograms").at("lat");
  EXPECT_DOUBLE_EQ(lat.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(lat.at("sum").number, 2.0);
  EXPECT_EQ(lat.at("buckets").array.size(), 2u);  // sparse: two occupied
}

TEST(MetricsRegistry, CsvSerializationExpandsHistogramAggregates) {
  MetricsRegistry reg;
  reg.counter("n").add(1);
  reg.histogram("lat").observe(2.0);
  std::ostringstream os;
  write_metrics_csv(os, reg.snapshot());
  const std::string csv = os.str();
  EXPECT_NE(csv.find("n,counter,1"), std::string::npos);
  EXPECT_NE(csv.find("lat.count,histogram,1"), std::string::npos);
  EXPECT_NE(csv.find("lat.p99,histogram,"), std::string::npos);
}

// -------------------------------------------------------------- span tracer

TEST(SpanTracer, DisabledTracerRecordsNothing) {
  SpanTracer tracer;
  { const ScopedSpan s("outer", "wall", tracer); }
  tracer.complete("x", "c", kTraceVirtualPid, 0, 0.0, 1.0);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(SpanTracer, ScopedSpansNestByIntervalContainmentOnOneThread) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  {
    const ScopedSpan outer("outer", "wall", tracer);
    { const ScopedSpan inner("inner", "wall", tracer); }
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order records inner first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_EQ(inner.pid, kTraceWallPid);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-3);
}

TEST(SpanTracer, TraceEventJsonRoundTrips) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  tracer.name_process(kTraceVirtualPid, "virtual cluster");
  tracer.name_track(kTraceVirtualPid, 3, "worker 3");
  tracer.complete("eval \"7\"", "eval", kTraceVirtualPid, 3, 1'000.0, 2'500.0,
                  {{"score", "0.75"}, {"note", "\"has \\\"quotes\\\"\""}});
  tracer.counter("in_flight", kTraceVirtualPid, 1'000.0, 5.0);

  std::ostringstream os;
  write_trace_json(os, tracer.events());
  std::istringstream is(os.str());
  const auto back = read_trace_json(is);
  ASSERT_EQ(back.size(), 4u);

  const TraceEvent& span = back[2];
  EXPECT_EQ(span.ph, 'X');
  EXPECT_EQ(span.name, "eval \"7\"");
  EXPECT_EQ(span.cat, "eval");
  EXPECT_EQ(span.pid, kTraceVirtualPid);
  EXPECT_EQ(span.tid, 3);
  EXPECT_DOUBLE_EQ(span.ts_us, 1'000.0);
  EXPECT_DOUBLE_EQ(span.dur_us, 2'500.0);
  // The parser stores objects in a std::map, so args come back key-sorted —
  // compare by key, not position.
  ASSERT_EQ(span.args.size(), 2u);
  const auto arg = [&](const std::string& key) -> std::string {
    for (const auto& [k, v] : span.args)
      if (k == key) return v;
    return "<missing>";
  };
  EXPECT_EQ(arg("score"), "0.75");
  EXPECT_EQ(arg("note"), "\"has \\\"quotes\\\"\"");

  EXPECT_EQ(back[0].ph, 'M');
  EXPECT_EQ(back[1].name, "thread_name");
  const TraceEvent& ctr = back[3];
  EXPECT_EQ(ctr.ph, 'C');
  ASSERT_EQ(ctr.args.size(), 1u);
  EXPECT_EQ(ctr.args[0].second, "5");
}

TEST(SpanTracer, ConcurrentRecordingLosesNoEvents) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  constexpr std::size_t kTasks = 32, kPerTask = 200;
  ThreadPool pool;
  for (std::size_t t = 0; t < kTasks; ++t)
    pool.submit([&] {
      for (std::size_t i = 0; i < kPerTask; ++i) {
        const ScopedSpan s("work", "wall", tracer);
      }
    });
  pool.wait_idle();
  EXPECT_EQ(tracer.size(), kTasks * kPerTask);
}

// -------------------------------------------------------------- JSON parser

TEST(JsonParser, ParsesNestedDocuments) {
  const JsonValue doc = parse_json(
      R"({"a": [1, 2.5, -3e2], "b": {"s": "x\n\"y\""}, "t": true, "n": null})");
  EXPECT_DOUBLE_EQ(doc.at("a").array[2].number, -300.0);
  EXPECT_EQ(doc.at("b").at("s").string, "x\n\"y\"");
  EXPECT_TRUE(doc.at("t").boolean);
  EXPECT_EQ(doc.at("n").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc.at("missing").kind, JsonValue::Kind::kNull);
}

// ----------------------------------------------- non-finite doubles -> null
// JSON has no NaN/Inf tokens; a bare `nan` in a document makes the whole
// file unparseable by parse_json.  NaN scores are reachable (the kernels
// deliberately propagate 0*NaN), so every writer routes doubles through
// json_number, which must map non-finite values to `null`.

TEST(JsonNumber, NonFiniteValuesEmitNull) {
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(1.5), "1.5");  // finite values unaffected
}

TEST(JsonNumber, NullRoundTripsThroughParserToFallback) {
  const JsonValue doc = parse_json("{\"score\":" + json_number(std::nan("")) + "}");
  EXPECT_EQ(doc.at("score").kind, JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(doc.number_or("score", -1.0), -1.0);
}

TEST(EventBus, NanEventFieldStreamsAsParseableNdjson) {
  EventBus bus;
  std::ostringstream sink;
  bus.set_stream(&sink);
  bus.set_enabled(true);
  bus.emit(EventType::kEvalFinished, 1.0, 0, 7,
           {{"score", json_number(std::nan(""))}});
  bus.set_enabled(false);
  bus.set_stream(nullptr);
  const std::string out = sink.str();
  ASSERT_FALSE(out.empty());
  const JsonValue doc = parse_json(out.substr(0, out.find('\n')));
  EXPECT_EQ(doc.string_or("ev", ""), "eval_finished");
  EXPECT_EQ(doc.at("score").kind, JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(doc.number_or("id", -1.0), 7.0);
}

TEST(MetricsRegistry, NonFiniteGaugeSerializesAsParseableJson) {
  MetricsRegistry reg;
  reg.gauge("bad").set(std::nan(""));
  reg.gauge("good").set(2.5);
  std::ostringstream os;
  write_metrics_json(os, reg.snapshot());
  const JsonValue doc = parse_json(os.str());  // must not choke on `nan`
  EXPECT_EQ(doc.at("gauges").at("bad").kind, JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(doc.at("gauges").number_or("bad", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").number_or("good", -1.0), 2.5);
}

TEST(SpanTracer, NanSpanArgSerializesAsParseableJson) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  tracer.complete("eval", "eval", kTraceVirtualPid, 0, 1'000.0, 500.0,
                  {{"score", json_number(std::nan(""))}});
  std::ostringstream os;
  write_trace_json(os, tracer.events());
  std::istringstream is(os.str());
  const auto back = read_trace_json(is);  // must not choke on `nan`
  ASSERT_FALSE(back.empty());
  const TraceEvent& span = back.back();
  ASSERT_EQ(span.args.size(), 1u);
  EXPECT_EQ(span.args[0].second, "null");
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
  // Deep nesting is refused before the recursion can exhaust the stack.
  EXPECT_THROW(parse_json(std::string(100000, '[')), std::runtime_error);
  EXPECT_NO_THROW(parse_json(std::string(256, '[') + std::string(256, ']')));
  EXPECT_THROW(parse_json(std::string(257, '[') + std::string(257, ']')), std::runtime_error);
}

// -------------------------------------------------------------------- logger

TEST(Logger, InjectableSinkCapturesWarnAndErrorLines) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&](LogLevel level, const std::string& msg) {
    captured.emplace_back(level, msg);
  });
  const LogLevel before = log_level();
  set_log_level(LogLevel::kWarn);

  log_debug("hidden ", 1);
  log_info("also hidden");
  log_warn("ckpt write gave up after ", 3, " failed tries");
  log_error("fatal-ish");

  set_log_level(before);
  set_log_sink({});  // restore stderr default

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kWarn);
  EXPECT_EQ(captured[0].second, "ckpt write gave up after 3 failed tries");
  EXPECT_EQ(captured[1].first, LogLevel::kError);
  EXPECT_EQ(captured[1].second, "fatal-ish");
}

TEST(Logger, PerLevelMessageCountersTrackEmittedLines) {
  set_log_sink([](LogLevel, const std::string&) {});  // swallow output
  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  const std::int64_t warn0 = metrics().counter("log.messages_total.warn").value();
  const std::int64_t info0 = metrics().counter("log.messages_total.info").value();

  log_warn("w1");
  log_warn("w2");
  log_info("i1");

  set_log_level(before);
  set_log_sink({});
  EXPECT_EQ(metrics().counter("log.messages_total.warn").value() - warn0, 2);
  EXPECT_EQ(metrics().counter("log.messages_total.info").value() - info0, 1);
}

TEST(Logger, ParseLogLevelRoundTrips) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff}) {
    const auto parsed = parse_log_level(to_string(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(parse_log_level("verbose").has_value());
}

}  // namespace
}  // namespace swt
