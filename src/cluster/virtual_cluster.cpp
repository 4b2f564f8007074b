#include "cluster/virtual_cluster.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/span_tracer.hpp"
#include "tensor/kernels.hpp"

namespace swt {

double Trace::total_ckpt_overhead() const noexcept {
  // Overhead as experienced by the workers: charged writes, reads, stalls.
  double t = 0.0;
  for (const auto& r : records)
    t += r.ckpt_read_cost + r.ckpt_read_wait + r.ckpt_write_charged;
  return t;
}

namespace {

struct InFlight {
  double finish;
  EvalRecord record;
  int worker;
  bool crashed = false;  ///< event is a worker crash, not a completion
  Proposal proposal;     ///< kept for resubmission of crashed attempts
  /// Set when `record` is a plan whose training may still be running; the
  /// result is joined when this event pops.
  std::shared_future<EvalRecord> training;
  bool operator>(const InFlight& other) const noexcept { return finish > other.finish; }
};

struct Resubmit {
  long id;
  Proposal proposal;
  int attempt;
};

constexpr double kUsPerS = 1e6;

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The record of a planned dispatch once its training is joined.  The plan
/// already moved the virtual clock, so the evaluator's checkpoint costs must
/// equal it bit for bit; a difference is a scheduler bug and is never
/// patched over.  The timing fields finish_dispatch wrote into the plan are
/// carried onto the trained record.
EvalRecord resolve_plan(const EvalRecord& planned, EvalRecord trained) {
  if (trained.ckpt_bytes != planned.ckpt_bytes ||
      !same_bits(trained.ckpt_read_cost, planned.ckpt_read_cost) ||
      !same_bits(trained.ckpt_write_cost, planned.ckpt_write_cost) ||
      trained.retry_seconds != 0.0 || trained.transfer_fallback)
    throw std::logic_error("run_search: eval " + std::to_string(planned.id) +
                           " trained with checkpoint costs that differ from its plan");
  trained.train_seconds = planned.train_seconds;
  trained.transfer_seconds = planned.transfer_seconds;
  trained.ckpt_write_charged = planned.ckpt_write_charged;
  trained.ckpt_read_wait = planned.ckpt_read_wait;
  trained.ckpt_available_at = planned.ckpt_available_at;
  trained.virtual_start = planned.virtual_start;
  trained.virtual_finish = planned.virtual_finish;
  trained.worker = planned.worker;
  trained.faults |= planned.faults;
  return trained;
}

/// Emit one completed evaluation as a per-worker timeline: a top-level
/// "eval" span plus one child span per eval_phases component, in virtual
/// microseconds.
void emit_eval_spans(SpanTracer& tracer, const EvalRecord& rec) {
  const double dur = rec.virtual_finish - rec.virtual_start;
  tracer.complete("eval " + std::to_string(rec.id), "eval", kTraceVirtualPid,
                  rec.worker, rec.virtual_start * kUsPerS, dur * kUsPerS,
                  {{"id", std::to_string(rec.id)},
                   {"parent", std::to_string(rec.parent_id)},
                   {"attempt", std::to_string(rec.attempt)},
                   {"score", json_number(rec.score)}});
  double t = rec.virtual_start;
  const auto child = [&](const char* name, const char* cat, double seconds) {
    if (seconds <= 0.0) return;
    tracer.complete(name, cat, kTraceVirtualPid, rec.worker, t * kUsPerS,
                    seconds * kUsPerS);
    t += seconds;
  };
  const EvalPhases p = eval_phases(rec);
  child("ckpt stall", "idle", p.stall);
  child("ckpt read", "checkpoint", p.read);
  child("transfer", "transfer", p.transfer);
  child("train", "train", p.train);
  child("ckpt write", "checkpoint", p.write);
  child("ckpt retry", "checkpoint", p.retry);
}

}  // namespace

Trace run_search(Evaluator& evaluator, SearchStrategy& strategy, long n_evals,
                 const ClusterConfig& cfg, Rng& rng) {
  if (cfg.num_workers <= 0) throw std::invalid_argument("run_search: need >= 1 worker");
  if (cfg.eval_parallelism <= 0)
    throw std::invalid_argument("run_search: eval_parallelism must be >= 1");
  const FaultModel fault_model(cfg.faults);
  const FaultModel* faults = fault_model.enabled() ? &fault_model : nullptr;
  const int max_attempts = std::max(1, cfg.faults.max_attempts);

  Trace trace;
  trace.num_workers = cfg.num_workers;
  trace.records.reserve(static_cast<std::size_t>(n_evals));

  // Observability: virtual-timeline spans (one Perfetto track per worker)
  // plus scheduler-level metrics, lifecycle events on the bus and the online
  // quality telemetry.  All of it is branch-only when the tracer, metrics
  // and bus are off.
  SpanTracer& tracer = SpanTracer::global();
  if (tracer.enabled()) {
    tracer.name_process(kTraceVirtualPid, "virtual cluster (virtual time)");
    tracer.name_process(kTraceWallPid, "process (wall time)");
    for (int w = 0; w < cfg.num_workers; ++w)
      tracer.name_track(kTraceVirtualPid, w, "worker " + std::to_string(w));
  }
  EventBus& bus = EventBus::global();
  bus.emit(EventType::kRunStarted, 0.0, -1, -1,
           {{"n_evals", std::to_string(n_evals)},
            {"workers", std::to_string(cfg.num_workers)}});
  // Quality statistics cost O(completed evals) per completion (the
  // incremental Kendall scan); skip them entirely when nothing consumes
  // the result.
  QualityTelemetry quality;
  const bool quality_on = metrics_enabled() || bus.enabled();
  double busy_seconds = 0.0;      // worker-seconds spent on attempts
  double recovery_seconds = 0.0;  // worker-seconds lost to crash recovery

  std::vector<double> worker_free(static_cast<std::size_t>(cfg.num_workers), 0.0);
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> in_flight;
  std::deque<Resubmit> resubmit;                       // crashed, awaiting retry
  std::unordered_map<long, double> ckpt_available_at;  // by evaluation id
  double clock = 0.0;
  long submitted = 0;  // fresh proposals issued (resubmissions reuse their id)
  long finished = 0;   // completed records + permanently lost evaluations

  // Live progress telemetry.  Counters are bumped incrementally as events
  // happen (so a /metrics scrape mid-run sees real progress, and the final
  // totals equal what a single end-of-run add would have produced); the
  // search.* gauges give scrapers and the sampler a consistent live view,
  // including the virtual clock (which nothing here ever reads back).
  const bool live_metrics = metrics_enabled();
  const auto publish_progress = [&] {
    if (!live_metrics) return;
    MetricsRegistry& m = metrics();
    m.gauge("search.virtual_time_seconds").set(clock);
    m.gauge("search.evals_completed").set(static_cast<double>(finished));
    m.gauge("search.evals_submitted").set(static_cast<double>(submitted));
    m.gauge("search.evals_in_flight").set(static_cast<double>(in_flight.size()));
  };
  // One-shot wall-clock stall (see FaultConfig::stall_after_evals): freezes
  // the scheduler thread in real time so the watchdog sees no progress, but
  // leaves the virtual timeline untouched.
  bool stall_fired = false;

  // Execution substrate.  With eval_parallelism > 1 every dispatched
  // training runs as a future on a dedicated pool rather than
  // ThreadPool::global(): trainer kernels dispatch row chunks onto the
  // global pool, and eval tasks blocking inside it while their nested chunks
  // sit behind them in the same queue would deadlock.  Eval tasks instead
  // pin their kernels serial (ScopedSerialKernels) — the cores are already
  // saturated at task level, and the kernel determinism contract makes that
  // a pure scheduling choice.
  std::unique_ptr<ThreadPool> eval_pool;
  if (cfg.eval_parallelism > 1)
    eval_pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(
        std::min(cfg.eval_parallelism, cfg.num_workers)));
  // A dispatch whose record Evaluator::plan can price before training is
  // booked at once and joined only when its completion pops; that needs a
  // timeline free of measured times, faults and journal appends.  Every
  // other dispatch is joined before the clock next advances (DESIGN.md §8).
  const bool plannable = eval_pool != nullptr && cfg.fixed_train_seconds >= 0.0 &&
                         faults == nullptr && cfg.journal == nullptr;

  // Join telemetry, scheduler thread only: trainings submitted and not yet
  // joined (a pure function of scheduler state), and wall time spent
  // blocked on a join.
  long trainings_pending = 0;
  Histogram* const in_flight_hist =
      live_metrics ? &metrics().histogram("cluster.trainings_in_flight",
                                          {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64})
                   : nullptr;
  Gauge* const join_wait =
      live_metrics ? &metrics().gauge("cluster.join_wait_seconds") : nullptr;
  const auto note_training = [&] {
    ++trainings_pending;
    if (in_flight_hist != nullptr)
      in_flight_hist->observe(static_cast<double>(trainings_pending));
  };
  const auto join = [&](const std::shared_future<EvalRecord>& training) {
    if (join_wait != nullptr) {
      const WallTimer blocked;
      training.wait();
      join_wait->add(blocked.seconds());
    }
    --trainings_pending;
    return training.get();  // rethrows the evaluation's exception
  };
  // Submit one training.  The task holds copies of what it reads except the
  // evaluator (the caller's) and the fault model (declared before the pool,
  // whose destructor runs queued tasks before returning), so a failure that
  // unwinds run_search never leaves a task pointing at a dead local.
  const auto start_training = [&](long id, const Proposal& proposal, int attempt) {
    auto task = std::make_shared<std::packaged_task<EvalRecord()>>(
        [&evaluator, proposal, id, attempt, faults] {
          const kernels::ScopedSerialKernels serial_kernels;
          return evaluator.evaluate(id, proposal, attempt, faults);
        });
    std::shared_future<EvalRecord> training = task->get_future().share();
    eval_pool->submit([task] { (*task)(); });
    note_training();
    return training;
  };

  // Post-training bookkeeping for one dispatched evaluation: charge virtual
  // time, model checkpoint costs, decide crashes, and enqueue the completion
  // event.  Runs on the scheduler thread only, in dispatch order — so the
  // virtual timeline, float accumulation order and heap contents are
  // identical whether the training ran inline, on the pool, or is still
  // running behind a planned record (`training` set).
  const auto finish_dispatch = [&](int w, long id, EvalRecord rec, Proposal proposal,
                                   std::shared_future<EvalRecord> training = {}) {
    // In fixed-duration mode (tests, CI baselines) the measured train and
    // transfer wall times are excluded from the virtual timeline *and*
    // overwritten in the record, so the whole persisted trace — not just
    // the clock — is bit-reproducible; the mechanism cost is micro-seconds
    // here and <150 ms in the paper.
    if (cfg.fixed_train_seconds >= 0.0) {
      rec.train_seconds = cfg.fixed_train_seconds;
      rec.transfer_seconds = 0.0;
    }
    double compute_virtual =
        cfg.fixed_train_seconds >= 0.0
            ? cfg.fixed_train_seconds
            : rec.train_seconds * cfg.time_scale + rec.transfer_seconds;
    const double straggle =
        faults != nullptr ? faults->straggler_factor(id, rec.attempt) : 1.0;
    if (straggle > 1.0) {
      rec.faults |= kFaultStraggler;
      compute_virtual *= straggle;
    }

    // Checkpoint cost model.  Synchronous: the worker pays the full write.
    // Asynchronous: it pays only the enqueue latency, the drain completes
    // in the background, and a read of a still-draining parent stalls.
    rec.ckpt_write_charged =
        rec.ckpt_bytes == 0
            ? 0.0
            : (cfg.async_checkpointing ? cfg.async_enqueue_latency_s
                                       : rec.ckpt_write_cost);
    if (rec.ckpt_read_cost > 0.0 && cfg.async_checkpointing) {
      const auto it = ckpt_available_at.find(rec.parent_id);
      if (it != ckpt_available_at.end() && it->second > clock)
        rec.ckpt_read_wait = it->second - clock;
    }
    const double duration = compute_virtual + rec.ckpt_read_wait + rec.ckpt_read_cost +
                            rec.ckpt_write_charged + rec.retry_seconds;
    rec.virtual_start = clock;
    rec.worker = w;

    // Crash exposure scales with the attempt's (straggler-stretched)
    // compute time.  A crashed attempt's result is discarded: nothing is
    // reported, its checkpoint never becomes readable, and the worker is
    // out of the pool until it recovers.
    const FaultModel::CrashDecision cd =
        faults != nullptr ? faults->crash(id, rec.attempt, compute_virtual)
                          : FaultModel::CrashDecision{};
    if (cd.crashed) {
      rec.faults |= kFaultCrash;
      const double crash_at = clock + cd.work_fraction * duration;
      rec.virtual_finish = crash_at;
      ++trace.crashed_attempts;
      trace.lost_train_seconds += cd.work_fraction * compute_virtual;
      busy_seconds += crash_at - clock;
      recovery_seconds += cfg.faults.worker_recovery_s;
      if (tracer.enabled()) {
        tracer.complete("crash (eval " + std::to_string(id) + ")", "fault",
                        kTraceVirtualPid, w, clock * 1e6, (crash_at - clock) * 1e6,
                        {{"attempt", std::to_string(rec.attempt)}});
        tracer.complete("recovery", "fault", kTraceVirtualPid, w, crash_at * 1e6,
                        cfg.faults.worker_recovery_s * 1e6);
      }
      if (bus.enabled()) {
        bus.emit(EventType::kWorkerCrashed, crash_at, w, id,
                 {{"attempt", std::to_string(rec.attempt)},
                  {"lost_s", json_number(cd.work_fraction * compute_virtual)}});
        // The recovery end is known now; emitted eagerly with its virtual
        // timestamp, so the stream stays strictly append-only.
        bus.emit(EventType::kWorkerRecovered,
                 crash_at + cfg.faults.worker_recovery_s, w);
      }
      worker_free[static_cast<std::size_t>(w)] =
          crash_at + cfg.faults.worker_recovery_s;
      in_flight.push(InFlight{crash_at, std::move(rec), w, /*crashed=*/true,
                              std::move(proposal), {}});
      return;
    }
    busy_seconds += duration;

    rec.virtual_finish = clock + duration;
    if (rec.ckpt_bytes > 0) {
      // Sync: readable once the evaluation finishes.  Async: the drain
      // starts at the end of the evaluation and takes the full write cost.
      rec.ckpt_available_at = cfg.async_checkpointing
                                  ? rec.virtual_finish + rec.ckpt_write_cost
                                  : rec.virtual_finish;
      ckpt_available_at.emplace(rec.id, rec.ckpt_available_at);
    }
    worker_free[static_cast<std::size_t>(w)] = rec.virtual_finish;
    in_flight.push(InFlight{rec.virtual_finish, std::move(rec), w,
                            /*crashed=*/false, Proposal{}, std::move(training)});
  };

  // A dispatch joined before the clock next advances.  Journal hits carry
  // their record and no training.
  struct Deferred {
    int worker;
    long id;
    Proposal proposal;
    // The strategy-RNG state captured at selection time: invariant across
    // eval_parallelism values, unlike any post-training instant.
    Rng::State sel_state;
    EvalRecord record;
    std::shared_future<EvalRecord> training;
  };
  std::vector<Deferred> deferred;

  // Pair a selected attempt with the journal: a hit fills `rec` from a
  // previous (killed) process and skips training entirely; a miss trains
  // for real and durably journals the evaluator output.  Either way the
  // scheduler bookkeeping downstream (finish_dispatch) is identical, which
  // is what makes the resumed trace byte-identical.  Returns true on a hit.
  const auto journal_fill = [&](long id, int attempt, const ArchSeq& arch,
                                EvalRecord& rec) {
    if (cfg.journal == nullptr) return false;
    const EvalRecord* hit = cfg.journal->lookup(id, attempt, arch, rng);
    if (hit == nullptr) return false;
    rec = *hit;
    return true;
  };

  while (finished < n_evals) {
    // Hand work to every worker that is idle at the current virtual time —
    // resubmissions of crashed attempts first, then fresh proposals.  All
    // proposals issued at the same instant see the same strategy state —
    // exactly the behaviour of an asynchronous scheduler that fans out to
    // multiple free evaluators at once.
    for (int w = 0; w < cfg.num_workers; ++w) {
      if (resubmit.empty() && submitted >= n_evals) break;
      if (worker_free[static_cast<std::size_t>(w)] > clock) continue;
      long id;
      Proposal proposal;
      int attempt = 0;
      if (!resubmit.empty()) {
        id = resubmit.front().id;
        proposal = std::move(resubmit.front().proposal);
        attempt = resubmit.front().attempt;
        resubmit.pop_front();
      } else {
        proposal = strategy.propose(rng);
        id = submitted;
        ++submitted;
        bus.emit(EventType::kEvalSubmitted, clock, -1, id);
      }
      if (bus.enabled())
        bus.emit(EventType::kEvalStarted, clock, w, id,
                 {{"attempt", std::to_string(attempt)}});
      const Rng::State sel_state = rng.state();
      EvalRecord rec;
      const bool journaled = journal_fill(id, attempt, proposal.arch, rec);
      if (eval_pool == nullptr) {
        // Serial substrate: train inline, exactly the historical path.
        if (!journaled) {
          note_training();
          rec = evaluator.evaluate(id, proposal, attempt, faults);
          --trainings_pending;
          if (cfg.journal != nullptr) cfg.journal->append(rec, sel_state);
        }
        finish_dispatch(w, id, std::move(rec), std::move(proposal));
        continue;
      }
      // Booking a plan now keeps bookkeeping in dispatch order only while
      // no earlier dispatch of this instant is still deferred.
      std::optional<EvalRecord> planned;
      if (plannable && deferred.empty()) planned = evaluator.plan(id, proposal, attempt);
      if (planned.has_value()) {
        std::shared_future<EvalRecord> training = start_training(id, proposal, attempt);
        finish_dispatch(w, id, *std::move(planned), std::move(proposal),
                        std::move(training));
      } else {
        std::shared_future<EvalRecord> training;
        if (!journaled) training = start_training(id, proposal, attempt);
        deferred.push_back(Deferred{w, id, std::move(proposal), sel_state, std::move(rec),
                                    std::move(training)});
      }
    }
    // Join the deferred dispatches in dispatch order — the order the serial
    // path interleaves bookkeeping — so virtual timestamps, float sums, the
    // completion heap *and the journal byte stream* come out bit-identical.
    for (Deferred& d : deferred) {
      if (d.training.valid()) {
        d.record = join(d.training);
        if (cfg.journal != nullptr) cfg.journal->append(d.record, d.sel_state);
      }
      finish_dispatch(d.worker, d.id, std::move(d.record), std::move(d.proposal));
    }
    deferred.clear();

    if (in_flight.empty()) {
      // Nothing running.  If work remains (queued resubmissions or fresh
      // proposals), every worker is still in crash recovery: jump the clock
      // to the first one back up.
      if (resubmit.empty() && submitted >= n_evals)
        throw std::logic_error("run_search: no work in flight (scheduler stall)");
      clock = *std::min_element(worker_free.begin(), worker_free.end());
      continue;
    }

    // Advance the clock to the next event.
    InFlight done = in_flight.top();
    in_flight.pop();
    clock = done.finish;
    if (tracer.enabled())
      tracer.counter("in_flight", kTraceVirtualPid, clock * 1e6,
                     static_cast<double>(in_flight.size()));
    if (done.crashed) {
      if (live_metrics) metrics().counter("cluster.crashes_total").add(1);
      if (done.record.attempt + 1 < max_attempts) {
        resubmit.push_back(
            Resubmit{done.record.id, std::move(done.proposal), done.record.attempt + 1});
        ++trace.resubmissions;
        if (live_metrics) metrics().counter("cluster.resubmissions_total").add(1);
        bus.emit(EventType::kResubmission, clock, -1, done.record.id,
                 {{"attempt", std::to_string(done.record.attempt + 1)}});
      } else {
        ++trace.lost_evaluations;  // accounted, never silently dropped
        if (live_metrics) metrics().counter("cluster.lost_evaluations_total").add(1);
        ++finished;
      }
      publish_progress();
      continue;
    }
    if (done.training.valid()) done.record = resolve_plan(done.record, join(done.training));
    strategy.report(Outcome{done.record.id, done.record.arch, done.record.score,
                            done.record.ckpt_key});
    trace.makespan = std::max(trace.makespan, done.record.virtual_finish);
    trace.retry_seconds += done.record.retry_seconds;
    if (done.record.transfer_fallback) {
      ++trace.transfer_fallbacks;
      if (live_metrics) metrics().counter("cluster.transfer_fallbacks_total").add(1);
    }
    if (tracer.enabled()) emit_eval_spans(tracer, done.record);
    if (bus.enabled()) {
      bus.emit(EventType::kEvalFinished, done.record.virtual_finish, done.worker,
               done.record.id,
               {{"score", json_number(done.record.score)},
                {"attempt", std::to_string(done.record.attempt)}});
      if (done.record.tensors_transferred > 0)
        bus.emit(EventType::kTransferHit, done.record.virtual_finish, done.worker,
                 done.record.id,
                 {{"parent", std::to_string(done.record.parent_id)},
                  {"tensors", std::to_string(done.record.tensors_transferred)},
                  {"values", std::to_string(done.record.values_transferred)}});
      if (done.record.transfer_fallback)
        bus.emit(EventType::kTransferFallback, done.record.virtual_finish, done.worker,
                 done.record.id);
    }
    if (quality_on) {
      const EvalRecord& r = done.record;
      const bool improved =
          quality.observe(QualityObservation{r.id, r.parent_id, r.tensors_transferred > 0,
                                             r.transfer_fallback, r.first_epoch_score,
                                             r.score});
      if (improved)
        bus.emit(EventType::kBestScoreImproved, r.virtual_finish, r.worker, r.id,
                 {{"score", json_number(r.score)},
                  {"evals_seen", std::to_string(quality.evals_seen())}});
    }
    trace.records.push_back(std::move(done.record));
    ++finished;
    if (live_metrics) metrics().counter("cluster.evals_completed_total").add(1);
    publish_progress();

    if (cfg.faults.stall_after_evals >= 0 && !stall_fired &&
        finished >= cfg.faults.stall_after_evals &&
        cfg.faults.stall_wall_seconds > 0.0) {
      stall_fired = true;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(cfg.faults.stall_wall_seconds));
    }
  }

  if (metrics_enabled()) {
    MetricsRegistry& m = metrics();
    const double wall = trace.makespan * cfg.num_workers;
    m.gauge("cluster.worker_busy_seconds").add(busy_seconds);
    m.gauge("cluster.worker_recovery_seconds").add(recovery_seconds);
    m.gauge("cluster.worker_idle_seconds")
        .add(std::max(0.0, wall - busy_seconds - recovery_seconds));
  }
  bus.emit(EventType::kRunFinished, trace.makespan, -1, -1,
           {{"evals", std::to_string(trace.records.size())},
            {"crashes", std::to_string(trace.crashed_attempts)},
            {"resubmissions", std::to_string(trace.resubmissions)},
            {"lost", std::to_string(trace.lost_evaluations)},
            {"transfer_fallbacks", std::to_string(trace.transfer_fallbacks)},
            {"makespan", json_number(trace.makespan)},
            {"best_score", json_number(quality.best_score())},
            {"transfer_hit_rate", json_number(quality.transfer_hit_rate())},
            {"mean_lineage_depth", json_number(quality.mean_lineage_depth())},
            {"kendall_tau_early_final", json_number(quality.early_final_tau())}});
  return trace;
}

}  // namespace swt
