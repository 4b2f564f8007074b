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
#include "obs/prof/critical_path.hpp"
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

/// A booked attempt's next event: its completion, or its crash when the
/// record carries kFaultCrash.
struct InFlight {
  double finish;
  EvalRecord record;
  Proposal proposal;  ///< kept for resubmission of crashed attempts
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

/// Every live view of a search: the event bus, the virtual-timeline spans,
/// the quality telemetry and the scheduler metrics, fed once per scheduler
/// transition.  The views read the schedule and never write it back, and
/// each one costs a branch while its instrument is off.  Counters are bumped
/// as the transitions happen, so a /metrics scrape mid-run sees real
/// progress and the final totals equal one end-of-run count.
class LiveViews {
 public:
  LiveViews(long n_evals, int num_workers) {
    // One Perfetto track per worker on the virtual timeline.
    if (tracer_.enabled()) {
      tracer_.name_process(kTraceVirtualPid, "virtual cluster (virtual time)");
      tracer_.name_process(kTraceWallPid, "process (wall time)");
      for (int w = 0; w < num_workers; ++w)
        tracer_.name_track(kTraceVirtualPid, w, "worker " + std::to_string(w));
    }
    if (bus_.enabled())
      bus_.emit(EventType::kRunStarted, 0.0, -1, -1,
                {{"n_evals", std::to_string(n_evals)},
                 {"workers", std::to_string(num_workers)}});
  }

  /// An attempt handed to an idle worker; `fresh` when it is a new proposal
  /// rather than the resubmission of a crashed attempt.
  void dispatch(double clock, int worker, long id, int attempt, bool fresh) {
    if (!bus_.enabled()) return;
    if (fresh) bus_.emit(EventType::kEvalSubmitted, clock, -1, id);
    bus_.emit(EventType::kEvalStarted, clock, worker, id,
              {{"attempt", std::to_string(attempt)}});
  }

  /// An attempt booked to crash, `lost_seconds` of its compute destroyed.
  /// Both blocks are known at booking; the events carry their virtual
  /// timestamps, so the stream stays strictly append-only.
  void booked_crash(const CrashRecord& crash, double lost_seconds) {
    if (tracer_.enabled()) {
      prof::emit_fault_span(tracer_, {crash.worker, crash.start, crash.crash_at},
                            "crash (eval " + std::to_string(crash.id) + ")",
                            {{"attempt", std::to_string(crash.attempt)}});
      prof::emit_fault_span(tracer_, {crash.worker, crash.crash_at, crash.recovered_at},
                            "recovery");
    }
    if (bus_.enabled()) {
      bus_.emit(EventType::kWorkerCrashed, crash.crash_at, crash.worker, crash.id,
                {{"attempt", std::to_string(crash.attempt)},
                 {"lost_s", json_number(lost_seconds)}});
      bus_.emit(EventType::kWorkerRecovered, crash.recovered_at, crash.worker);
    }
  }

  void clock_advanced(double clock, std::size_t in_flight) {
    if (tracer_.enabled())
      tracer_.counter("in_flight", kTraceVirtualPid, clock * 1e6,
                      static_cast<double>(in_flight));
  }

  /// A crashed attempt's event popped: resubmitted, or its evaluation lost.
  void crash_resolved(long id, int attempt, bool resubmitted, double clock) {
    if (metrics_) {
      metrics().counter("cluster.crashes_total").add(1);
      metrics()
          .counter(resubmitted ? "cluster.resubmissions_total"
                               : "cluster.lost_evaluations_total")
          .add(1);
    }
    if (resubmitted && bus_.enabled())
      bus_.emit(EventType::kResubmission, clock, -1, id,
                {{"attempt", std::to_string(attempt + 1)}});
  }

  void completion(const EvalRecord& r) {
    if (metrics_ && r.transfer_fallback)
      metrics().counter("cluster.transfer_fallbacks_total").add(1);
    if (tracer_.enabled())
      prof::emit_eval_span(tracer_, eval_span(r), "eval " + std::to_string(r.id),
                           {{"attempt", std::to_string(r.attempt)},
                            {"score", json_number(r.score)}});
    if (bus_.enabled()) {
      bus_.emit(EventType::kEvalFinished, r.virtual_finish, r.worker, r.id,
                {{"score", json_number(r.score)}, {"attempt", std::to_string(r.attempt)}});
      if (r.tensors_transferred > 0)
        bus_.emit(EventType::kTransferHit, r.virtual_finish, r.worker, r.id,
                  {{"parent", std::to_string(r.parent_id)},
                   {"tensors", std::to_string(r.tensors_transferred)},
                   {"values", std::to_string(r.values_transferred)}});
      if (r.transfer_fallback)
        bus_.emit(EventType::kTransferFallback, r.virtual_finish, r.worker, r.id);
    }
    if (quality_on_ &&
        quality_.observe(QualityObservation{r.id, r.parent_id, r.tensors_transferred > 0,
                                            r.transfer_fallback, r.first_epoch_score,
                                            r.score}))
      bus_.emit(EventType::kBestScoreImproved, r.virtual_finish, r.worker, r.id,
                {{"score", json_number(r.score)},
                 {"evals_seen", std::to_string(quality_.evals_seen())}});
    if (metrics_) metrics().counter("cluster.evals_completed_total").add(1);
  }

  /// The search.* gauges: a consistent live view for scrapers and the
  /// sampler, the virtual clock included (nothing here reads it back).
  void progress(double clock, long finished, long submitted, std::size_t in_flight) {
    if (!metrics_) return;
    MetricsRegistry& m = metrics();
    m.gauge("search.virtual_time_seconds").set(clock);
    m.gauge("search.evals_completed").set(static_cast<double>(finished));
    m.gauge("search.evals_submitted").set(static_cast<double>(submitted));
    m.gauge("search.evals_in_flight").set(static_cast<double>(in_flight));
  }

  void run_end(const Trace& trace) {
    if (metrics_) {
      // Worker-seconds from the trace: a record's envelope and a doomed
      // attempt's work are busy, a recovery window is lost, the rest of
      // workers x makespan is idle.
      double busy = 0.0;
      double recovery = 0.0;
      for (const EvalRecord& r : trace.records) busy += r.virtual_finish - r.virtual_start;
      for (const CrashRecord& c : trace.crashes) {
        busy += c.crash_at - c.start;
        recovery += c.recovered_at - c.crash_at;
      }
      MetricsRegistry& m = metrics();
      m.gauge("cluster.worker_busy_seconds").add(busy);
      m.gauge("cluster.worker_recovery_seconds").add(recovery);
      m.gauge("cluster.worker_idle_seconds")
          .add(std::max(0.0, trace.makespan * trace.num_workers - busy - recovery));
    }
    if (bus_.enabled())
      bus_.emit(EventType::kRunFinished, trace.makespan, -1, -1,
                {{"evals", std::to_string(trace.records.size())},
                 {"crashes", std::to_string(trace.crashes.size())},
                 {"resubmissions", std::to_string(trace.resubmissions)},
                 {"lost", std::to_string(trace.lost_evaluations)},
                 {"transfer_fallbacks", std::to_string(trace.transfer_fallbacks)},
                 {"makespan", json_number(trace.makespan)},
                 {"best_score", json_number(quality_.best_score())},
                 {"transfer_hit_rate", json_number(quality_.transfer_hit_rate())},
                 {"mean_lineage_depth", json_number(quality_.mean_lineage_depth())},
                 {"kendall_tau_early_final", json_number(quality_.early_final_tau())}});
  }

 private:
  SpanTracer& tracer_ = SpanTracer::global();
  EventBus& bus_ = EventBus::global();
  const bool metrics_ = metrics_enabled();
  // Quality statistics cost O(completed evals) per completion (the
  // incremental Kendall scan); skip them entirely when nothing consumes
  // the result.
  const bool quality_on_ = metrics_ || bus_.enabled();
  QualityTelemetry quality_;
};

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
  LiveViews views(n_evals, cfg.num_workers);

  std::vector<double> worker_free(static_cast<std::size_t>(cfg.num_workers), 0.0);
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> in_flight;
  std::deque<Resubmit> resubmit;                       // crashed, awaiting retry
  std::unordered_map<long, double> ckpt_available_at;  // by evaluation id
  double clock = 0.0;
  long submitted = 0;  // fresh proposals issued (resubmissions reuse their id)
  long finished = 0;   // completed records + permanently lost evaluations
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
      metrics_enabled() ? &metrics().histogram("cluster.trainings_in_flight",
                                               {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64})
                        : nullptr;
  Gauge* const join_wait =
      metrics_enabled() ? &metrics().gauge("cluster.join_wait_seconds") : nullptr;
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

  // Book one dispatched attempt: charge it virtual time, model its
  // checkpoint costs, decide whether it crashes, journal it when it trained
  // in this process (`journal_state` is its selection-time strategy-RNG
  // state; null for a journal hit), and enqueue its completion or crash
  // event.  Booking assigns every field it owns, so a replayed journal row
  // is re-booked from scratch.  Runs on the scheduler thread only, in
  // dispatch order — so the virtual timeline, float accumulation order,
  // heap contents and journal byte stream are identical whether the
  // training ran inline, on the pool, or is still running behind a planned
  // record (`training` set).
  const auto finish_dispatch = [&](int w, long id, EvalRecord rec, Proposal proposal,
                                   const Rng::State* journal_state,
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
    rec.faults &= ~(kFaultStraggler | kFaultCrash);
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
    rec.ckpt_read_wait = 0.0;
    if (rec.ckpt_read_cost > 0.0 && cfg.async_checkpointing) {
      const auto it = ckpt_available_at.find(rec.parent_id);
      if (it != ckpt_available_at.end() && it->second > clock)
        rec.ckpt_read_wait = it->second - clock;
    }
    const double duration = compute_virtual + rec.ckpt_read_wait + rec.ckpt_read_cost +
                            rec.ckpt_write_charged + rec.retry_seconds;
    rec.virtual_start = clock;
    rec.worker = w;
    rec.ckpt_available_at = 0.0;

    // Crash exposure scales with the attempt's (straggler-stretched)
    // compute time.  A crashed attempt's result is discarded: nothing is
    // reported, its checkpoint never becomes readable, and the worker is
    // out of the pool until it recovers.
    const FaultModel::CrashDecision cd =
        faults != nullptr ? faults->crash(id, rec.attempt, compute_virtual)
                          : FaultModel::CrashDecision{};
    if (cd.crashed) {
      rec.faults |= kFaultCrash;
      rec.virtual_finish = clock + cd.work_fraction * duration;
      const CrashRecord& crash = trace.crashes.emplace_back(
          CrashRecord{id, rec.attempt, w, clock, rec.virtual_finish,
                      rec.virtual_finish + cfg.faults.worker_recovery_s});
      trace.lost_train_seconds += cd.work_fraction * compute_virtual;
      views.booked_crash(crash, cd.work_fraction * compute_virtual);
      worker_free[static_cast<std::size_t>(w)] = crash.recovered_at;
    } else {
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
    }
    if (cfg.journal != nullptr && journal_state != nullptr)
      cfg.journal->append(rec, *journal_state);
    in_flight.push(InFlight{rec.virtual_finish, std::move(rec),
                            cd.crashed ? std::move(proposal) : Proposal{},
                            std::move(training)});
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
      const bool fresh = resubmit.empty();
      if (!fresh) {
        id = resubmit.front().id;
        proposal = std::move(resubmit.front().proposal);
        attempt = resubmit.front().attempt;
        resubmit.pop_front();
      } else {
        proposal = strategy.propose(rng);
        id = submitted;
        ++submitted;
      }
      views.dispatch(clock, w, id, attempt, fresh);
      // A journal hit is an attempt a previous (killed) process trained and
      // booked: its row skips training and is booked again exactly as the
      // first time, which is what makes the resumed trace byte-identical.
      const Rng::State sel_state = rng.state();
      const EvalRecord* journaled =
          cfg.journal != nullptr ? cfg.journal->lookup(id, attempt, proposal.arch, rng)
                                 : nullptr;
      if (eval_pool == nullptr) {
        // Serial substrate: train inline, exactly the historical path.
        EvalRecord rec;
        if (journaled != nullptr) {
          rec = *journaled;
        } else {
          note_training();
          rec = evaluator.evaluate(id, proposal, attempt, faults);
          --trainings_pending;
        }
        finish_dispatch(w, id, std::move(rec), std::move(proposal),
                        journaled != nullptr ? nullptr : &sel_state);
        continue;
      }
      // Booking a plan now keeps bookkeeping in dispatch order only while
      // no earlier dispatch of this instant is still deferred.
      std::optional<EvalRecord> planned;
      if (plannable && deferred.empty()) planned = evaluator.plan(id, proposal, attempt);
      if (planned.has_value()) {
        std::shared_future<EvalRecord> training = start_training(id, proposal, attempt);
        finish_dispatch(w, id, *std::move(planned), std::move(proposal), nullptr,
                        std::move(training));
      } else {
        std::shared_future<EvalRecord> training;
        if (journaled == nullptr) training = start_training(id, proposal, attempt);
        deferred.push_back(Deferred{w, id, std::move(proposal), sel_state,
                                    journaled != nullptr ? *journaled : EvalRecord{},
                                    std::move(training)});
      }
    }
    // Book the deferred dispatches in dispatch order — the order the serial
    // path interleaves bookkeeping — so virtual timestamps, float sums, the
    // completion heap *and the journal byte stream* come out bit-identical.
    for (Deferred& d : deferred) {
      const bool trained = d.training.valid();
      if (trained) d.record = join(d.training);
      finish_dispatch(d.worker, d.id, std::move(d.record), std::move(d.proposal),
                      trained ? &d.sel_state : nullptr);
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
    views.clock_advanced(clock, in_flight.size());
    if ((done.record.faults & kFaultCrash) != 0) {
      const bool retry = done.record.attempt + 1 < max_attempts;
      if (retry) {
        resubmit.push_back(
            Resubmit{done.record.id, std::move(done.proposal), done.record.attempt + 1});
        ++trace.resubmissions;
      } else {
        ++trace.lost_evaluations;  // accounted, never silently dropped
        ++finished;
      }
      views.crash_resolved(done.record.id, done.record.attempt, retry, clock);
      views.progress(clock, finished, submitted, in_flight.size());
      continue;
    }
    if (done.training.valid()) done.record = resolve_plan(done.record, join(done.training));
    strategy.report(Outcome{done.record.id, done.record.arch, done.record.score,
                            done.record.ckpt_key});
    trace.makespan = std::max(trace.makespan, done.record.virtual_finish);
    trace.retry_seconds += done.record.retry_seconds;
    if (done.record.transfer_fallback) ++trace.transfer_fallbacks;
    views.completion(done.record);
    trace.records.push_back(std::move(done.record));
    ++finished;
    views.progress(clock, finished, submitted, in_flight.size());

    if (cfg.faults.stall_after_evals >= 0 && !stall_fired &&
        finished >= cfg.faults.stall_after_evals &&
        cfg.faults.stall_wall_seconds > 0.0) {
      stall_fired = true;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(cfg.faults.stall_wall_seconds));
    }
  }

  views.run_end(trace);
  return trace;
}

}  // namespace swt
