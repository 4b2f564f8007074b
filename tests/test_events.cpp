#include "obs/events.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <sstream>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "exp/runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/span_tracer.hpp"

namespace swt {
namespace {

TEST(EventBus, DisabledBusEmitsNothing) {
  EventBus bus;
  std::ostringstream sink;
  bus.set_stream(&sink);
  ASSERT_FALSE(bus.enabled());  // kill switch is the default state
  bus.emit(EventType::kEvalFinished, 1.0, 0, 1, {{"score", "0.5"}});
  Event ev;
  ev.type = EventType::kRunStarted;
  bus.emit(ev);
  EXPECT_TRUE(sink.str().empty());
  EXPECT_EQ(bus.total_emitted(), 0);
}

TEST(EventBus, WritesOneJsonObjectPerLine) {
  EventBus bus;
  std::ostringstream sink;
  bus.set_stream(&sink);
  bus.set_enabled(true);
  bus.emit(EventType::kRunStarted, 0.0, -1, -1, {{"n_evals", "4"}});
  bus.emit(EventType::kEvalFinished, 2.5, 1, 7, {{"score", "0.75"}});
  bus.set_enabled(false);

  std::istringstream lines(sink.str());
  std::string line;
  std::vector<JsonValue> parsed;
  while (std::getline(lines, line)) parsed.push_back(parse_json(line));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].string_or("ev", ""), "run_started");
  EXPECT_DOUBLE_EQ(parsed[0].number_or("n_evals", -1), 4.0);
  EXPECT_EQ(parsed[1].string_or("ev", ""), "eval_finished");
  EXPECT_DOUBLE_EQ(parsed[1].number_or("vt", -1), 2.5);
  EXPECT_DOUBLE_EQ(parsed[1].number_or("worker", -1), 1.0);
  EXPECT_DOUBLE_EQ(parsed[1].number_or("id", -1), 7.0);
  EXPECT_DOUBLE_EQ(parsed[1].number_or("score", -1), 0.75);
  EXPECT_EQ(bus.total_emitted(), 2);
  EXPECT_EQ(bus.emitted(EventType::kEvalFinished), 1);
  EXPECT_EQ(bus.emitted(EventType::kWorkerCrashed), 0);
}

TEST(EventBus, NegativeContextFieldsAreOmitted) {
  Event ev;
  ev.type = EventType::kRunFinished;
  ev.wall_s = 1.0;
  const std::string line = event_to_ndjson(ev);
  const JsonValue v = parse_json(line);
  EXPECT_FALSE(v.contains("vt"));
  EXPECT_FALSE(v.contains("worker"));
  EXPECT_FALSE(v.contains("id"));
}

TEST(EventBus, FieldValuesAreEscaped) {
  Event ev;
  ev.type = EventType::kCkptWrite;
  ev.fields = {{"key", event_str("he\"llo\nworld")}};
  const JsonValue v = parse_json(event_to_ndjson(ev));
  EXPECT_EQ(v.string_or("key", ""), "he\"llo\nworld");
}

// The bus is written to from run_search's completion loop but also from
// checkpoint-store call sites that may run on pool threads under async
// checkpointing: concurrent emission must still produce one well-formed
// JSON object per line, with nothing torn or interleaved.
TEST(EventBus, ConcurrentEmissionKeepsLinesWellFormed) {
  EventBus bus;
  std::ostringstream sink;
  bus.set_stream(&sink);
  bus.set_enabled(true);
  constexpr std::size_t kEmitters = 64;
  constexpr int kPerEmitter = 25;
  ThreadPool pool;
  for (std::size_t i = 0; i < kEmitters; ++i)
    pool.submit([&, i] {
      for (int k = 0; k < kPerEmitter; ++k)
        bus.emit(EventType::kCkptWrite, static_cast<double>(k), static_cast<int>(i),
                 static_cast<long>(i * 1000 + k),
                 {{"key", event_str("ckpt-" + std::to_string(i))},
                  {"bytes", std::to_string(k)}});
    });
  pool.wait_idle();
  bus.set_enabled(false);

  std::istringstream lines(sink.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    const JsonValue v = parse_json(line);  // throws on a torn line
    EXPECT_EQ(v.string_or("ev", ""), "ckpt_write");
    ++n;
  }
  EXPECT_EQ(n, kEmitters * kPerEmitter);
  EXPECT_EQ(bus.total_emitted(), static_cast<long>(kEmitters * kPerEmitter));
}

TEST(EventBus, ListenerSeesEveryEvent) {
  EventBus bus;
  bus.set_enabled(true);  // no stream attached: listener-only operation
  std::vector<EventType> seen;
  bus.set_listener([&seen](const Event& ev) { seen.push_back(ev.type); });
  bus.emit(EventType::kEvalStarted, 0.0, 0, 1);
  bus.emit(EventType::kEvalFinished, 1.0, 0, 1);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], EventType::kEvalStarted);
  EXPECT_EQ(seen[1], EventType::kEvalFinished);
}

TEST(EventBus, ResetCountsZeroesTallies) {
  EventBus bus;
  bus.set_enabled(true);
  bus.emit(EventType::kResubmission, 0.0, -1, 2);
  ASSERT_EQ(bus.total_emitted(), 1);
  bus.reset_counts();
  EXPECT_EQ(bus.total_emitted(), 0);
  EXPECT_EQ(bus.emitted(EventType::kResubmission), 0);
}

TEST(IncrementalKendall, MatchesBatchKendallTau) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  IncrementalKendall inc;
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    // Correlated with noise, plus deliberate ties every 8th sample.
    const double x = i % 8 == 0 ? 0.5 : uni(rng);
    const double y = i % 8 == 0 ? 0.5 : 0.7 * x + 0.3 * uni(rng);
    xs.push_back(x);
    ys.push_back(y);
    inc.add(x, y);
  }
  EXPECT_NEAR(inc.tau(), kendall_tau(xs, ys), 1e-12);
  EXPECT_EQ(inc.count(), 200u);
}

TEST(IncrementalKendall, FewPointsGiveZeroInsteadOfThrowing) {
  IncrementalKendall inc;
  EXPECT_DOUBLE_EQ(inc.tau(), 0.0);
  inc.add(1.0, 2.0);
  EXPECT_DOUBLE_EQ(inc.tau(), 0.0);
}

TEST(IncrementalKendall, RespectsPointCap) {
  IncrementalKendall inc(10);
  for (int i = 0; i < 50; ++i) inc.add(i, i);
  EXPECT_EQ(inc.count(), 10u);
  EXPECT_DOUBLE_EQ(inc.tau(), 1.0);  // perfectly concordant prefix
}

TEST(QualityTelemetry, TracksBestAndRates) {
  QualityTelemetry q;
  // Scratch eval: improves (first), depth 1.
  EXPECT_TRUE(q.observe({.eval_id = 0, .parent_id = -1, .transferred = false,
                         .transfer_fallback = false, .first_epoch_score = 0.1,
                         .score = 0.5}));
  // Transferred child of 0: improves, depth 2.
  EXPECT_TRUE(q.observe({.eval_id = 1, .parent_id = 0, .transferred = true,
                         .transfer_fallback = false, .first_epoch_score = 0.4,
                         .score = 0.8}));
  // Fallback eval, worse score: no improvement, depth 1.
  EXPECT_FALSE(q.observe({.eval_id = 2, .parent_id = 0, .transferred = false,
                          .transfer_fallback = true, .first_epoch_score = 0.2,
                          .score = 0.3}));
  EXPECT_EQ(q.evals_seen(), 3u);
  EXPECT_DOUBLE_EQ(q.best_score(), 0.8);
  EXPECT_NEAR(q.transfer_hit_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(q.transfer_fallback_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(q.mean_lineage_depth(), (1 + 2 + 1) / 3.0, 1e-12);
  EXPECT_EQ(q.max_lineage_depth(), 2);
  const auto& hist = q.lineage_histogram();
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist.at(1), 2);
  EXPECT_EQ(hist.at(2), 1);
  EXPECT_GT(q.score_dispersion(), 0.0);
  EXPECT_GT(q.early_final_tau(), 0.0);  // scores here are rank-concordant
}

TEST(QualityTelemetry, LineageDepthChains) {
  QualityTelemetry q;
  (void)q.observe({.eval_id = 0, .parent_id = -1, .transferred = false,
                   .transfer_fallback = false, .first_epoch_score = 0, .score = 0.1});
  for (long id = 1; id <= 4; ++id)
    (void)q.observe({.eval_id = id, .parent_id = id - 1, .transferred = true,
                     .transfer_fallback = false, .first_epoch_score = 0,
                     .score = 0.1 * static_cast<double>(id)});
  EXPECT_EQ(q.max_lineage_depth(), 5);
  // Transfer from an unknown parent (e.g. trimmed history) counts as depth 2.
  (void)q.observe({.eval_id = 99, .parent_id = 1234, .transferred = true,
                   .transfer_fallback = false, .first_epoch_score = 0, .score = 0.0});
  EXPECT_EQ(q.lineage_histogram().at(2), 2);
}

// Every live view of a search counts what its Trace holds: the bus, the
// virtual-timeline spans and the cluster counters are fed by the scheduler
// at its transitions, the Trace is what the search returns.  A faulted
// serial search exercises crashes, resubmissions, lost evaluations,
// transfer hits and fallbacks.
TEST(SearchTelemetry, EventsSpansAndCountersReconcileWithTheTrace) {
  EventBus& bus = EventBus::global();
  SpanTracer& tracer = SpanTracer::global();
  const bool metrics_were_on = metrics_enabled();
  metrics().reset();
  bus.reset_counts();
  tracer.clear();
  set_metrics_enabled(true);
  bus.set_enabled(true);
  tracer.set_enabled(true);
  const AppConfig app = make_app(AppId::kMnist, 11, {.data_scale = 0.2});
  NasRunConfig cfg;
  cfg.mode = TransferMode::kLCS;
  cfg.n_evals = 30;
  cfg.seed = 11;
  cfg.cluster.num_workers = 4;
  cfg.cluster.fixed_train_seconds = 1.0;
  cfg.cluster.faults.mtbf_seconds = 3.0;
  cfg.cluster.faults.worker_recovery_s = 2.0;
  cfg.cluster.faults.max_attempts = 2;
  cfg.cluster.faults.ckpt_read_fault_rate = 0.5;
  cfg.cluster.faults.max_io_retries = 1;
  cfg.evolution = {.population_size = 6, .sample_size = 3};
  const Trace trace = run_nas(app, cfg).trace;
  tracer.set_enabled(false);
  bus.set_enabled(false);
  set_metrics_enabled(metrics_were_on);

  const long records = static_cast<long>(trace.records.size());
  const long crashes = static_cast<long>(trace.crashes.size());
  ASSERT_GT(trace.resubmissions, 0);
  ASSERT_GT(trace.lost_evaluations, 0);
  ASSERT_GT(trace.transfer_fallbacks, 0);
  long transfer_hits = 0;
  long improvements = 0;
  double best = 0.0;
  for (const EvalRecord& r : trace.records) {
    if (r.tensors_transferred > 0) ++transfer_hits;
    if (improvements == 0 || r.score > best) {
      best = r.score;
      ++improvements;
    }
  }
  ASSERT_GT(transfer_hits, 0);

  EXPECT_EQ(bus.emitted(EventType::kRunStarted), 1);
  EXPECT_EQ(bus.emitted(EventType::kEvalSubmitted), records + trace.lost_evaluations);
  EXPECT_EQ(bus.emitted(EventType::kEvalStarted), records + crashes);
  EXPECT_EQ(bus.emitted(EventType::kEvalFinished), records);
  EXPECT_EQ(bus.emitted(EventType::kWorkerCrashed), crashes);
  EXPECT_EQ(bus.emitted(EventType::kWorkerRecovered), crashes);
  EXPECT_EQ(bus.emitted(EventType::kResubmission), trace.resubmissions);
  EXPECT_EQ(bus.emitted(EventType::kTransferHit), transfer_hits);
  EXPECT_EQ(bus.emitted(EventType::kTransferFallback), trace.transfer_fallbacks);
  EXPECT_EQ(bus.emitted(EventType::kBestScoreImproved), improvements);
  EXPECT_EQ(bus.emitted(EventType::kRunFinished), 1);
  bus.reset_counts();

  long eval_spans = 0;
  long fault_spans = 0;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.pid != kTraceVirtualPid || ev.ph != 'X') continue;
    if (ev.cat == "eval") ++eval_spans;
    if (ev.cat == "fault") ++fault_spans;
  }
  tracer.clear();
  EXPECT_EQ(eval_spans, records);
  EXPECT_EQ(fault_spans, 2 * crashes);

  const MetricsSnapshot snap = metrics().snapshot();
  metrics().reset();
  EXPECT_EQ(snap.counters.at("cluster.evals_completed_total"), records);
  EXPECT_EQ(snap.counters.at("cluster.crashes_total"), crashes);
  EXPECT_EQ(snap.counters.at("cluster.resubmissions_total"), trace.resubmissions);
  EXPECT_EQ(snap.counters.at("cluster.lost_evaluations_total"), trace.lost_evaluations);
  EXPECT_EQ(snap.counters.at("cluster.transfer_fallbacks_total"), trace.transfer_fallbacks);
  EXPECT_EQ(snap.gauges.at("search.evals_completed"),
            static_cast<double>(records + trace.lost_evaluations));
  EXPECT_NEAR(snap.gauges.at("cluster.worker_recovery_seconds"),
              static_cast<double>(crashes) * cfg.cluster.faults.worker_recovery_s, 1e-9);
  EXPECT_NEAR(snap.gauges.at("cluster.worker_busy_seconds") +
                  snap.gauges.at("cluster.worker_recovery_seconds") +
                  snap.gauges.at("cluster.worker_idle_seconds"),
              trace.makespan * cfg.cluster.num_workers, 1e-9);
}

}  // namespace
}  // namespace swt
