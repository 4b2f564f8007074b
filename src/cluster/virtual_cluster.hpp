// Discrete-event cluster simulation.
//
// The paper runs DeepHyper with Ray evaluators on up to 32 GPUs; candidate
// scores come from real training, but the *scheduling* (async completion,
// scalability, checkpoint overhead share) is what Figs. 7 and 10 measure.
// We simulate N workers with a virtual clock: every evaluation is executed
// for real and its measured training time plus its modelled checkpoint I/O
// time advances the clock of the worker it is assigned to.  The strategy
// sees results in virtual-completion order, exactly as an asynchronous
// scheduler would.  On multi-core hosts the trainings can additionally run
// concurrently — `ClusterConfig::eval_parallelism` — each as a future that
// the scheduler joins as late as the virtual timeline allows, without
// changing a single byte of the resulting trace.
#pragma once

#include <vector>

#include "cluster/evaluator.hpp"
#include "cluster/faults.hpp"

namespace swt {

/// Write-ahead journal hook for crash recovery (implemented by
/// exp/journal.hpp's RunJournal; abstract here so the scheduler does not
/// depend on the persistence layer).  The scheduler calls `lookup` at
/// selection time — the instant a proposal is paired with an idle worker,
/// a point whose strategy-RNG state is the same at every eval_parallelism —
/// and `append` once a fresh attempt's training is joined, always on the
/// scheduler thread in dispatch order.  An attached journal therefore makes
/// every training join before the virtual clock next advances (DESIGN.md
/// §8), so appends never wait on a later instant.  A hit means
/// the attempt was already trained by a previous (killed) process: its
/// evaluator-output record is reused verbatim and training is skipped,
/// which is what makes a resumed run byte-identical to an uninterrupted
/// one.
class EvalJournal {
 public:
  virtual ~EvalJournal() = default;

  /// The journaled evaluator-output record for (id, attempt), or nullptr
  /// when the attempt was never journaled.  Implementations should verify
  /// `arch` and `strategy_rng` against the journaled values and throw
  /// std::runtime_error on mismatch — a divergent replay means the journal
  /// belongs to a different configuration and continuing would corrupt the
  /// trace silently.
  [[nodiscard]] virtual const EvalRecord* lookup(long id, int attempt,
                                                 const ArchSeq& arch,
                                                 const Rng& strategy_rng) = 0;

  /// Durably persist a freshly trained attempt.  `selection_state` is the
  /// strategy-RNG state captured when the attempt was selected (used as the
  /// replay cross-check in lookup).  Called in deterministic scheduler
  /// order, so the journal byte stream is identical for every
  /// eval_parallelism value.
  virtual void append(const EvalRecord& rec, const Rng::State& selection_state) = 0;
};

struct ClusterConfig {
  int num_workers = 8;
  /// Real threads that train dispatched evaluations.  A candidate needs
  /// nothing after its proposal — its parent *completed* (strictly earlier
  /// in virtual time) before the strategy could select it — so trainings
  /// can run concurrently without changing any result.  1 = fully serial,
  /// inline execution; values > 1 submit every training as a future to a
  /// dedicated pool of min(value, num_workers) threads, with per-eval
  /// compute kernels forced serial.  The scheduler joins a future at its
  /// completion pop when Evaluator::plan prices the record beforehand
  /// (fixed_train_seconds >= 0, no faults, no journal, a flat store or no
  /// checkpoint writes), otherwise before the clock next advances.  Traces
  /// are bit-identical for every value (see DESIGN.md "Eval parallelism").
  int eval_parallelism = 1;
  /// Scale factor applied to measured training seconds before they are
  /// charged to the virtual clock (1.0 = measured time).
  double time_scale = 1.0;
  /// When >= 0, replaces measured training time with this constant, making
  /// traces bit-reproducible (used by tests; experiments use measured time).
  double fixed_train_seconds = -1.0;
  /// VELOC/DeepFreeze-style asynchronous checkpointing (the paper's stated
  /// future work): the worker is charged only a small enqueue latency for
  /// writes; the full PFS write drains in the background, and a child that
  /// reads a parent checkpoint before its drain completes stalls until it
  /// is available.
  bool async_checkpointing = false;
  double async_enqueue_latency_s = 0.002;
  /// Deterministic fault injection (crashes, stragglers, checkpoint I/O
  /// failures); inert by default, so fault-free traces are unchanged.
  FaultConfig faults = {};
  /// Optional write-ahead journal (non-owning).  When set, every freshly
  /// trained attempt is durably appended and previously journaled attempts
  /// skip training on replay.  Null = no journaling (traces unchanged).
  EvalJournal* journal = nullptr;
};

struct Trace {
  std::vector<EvalRecord> records;  ///< in virtual completion order
  double makespan = 0.0;            ///< virtual finish time of the last record
  int num_workers = 0;

  // Failure accounting (all zero on a fault-free run):
  long crashed_attempts = 0;   ///< evaluation attempts destroyed by crashes
  long resubmissions = 0;      ///< crashed attempts re-queued for another try
  long lost_evaluations = 0;   ///< proposals abandoned after max_attempts
  double lost_train_seconds = 0.0;  ///< virtual compute destroyed by crashes
  double retry_seconds = 0.0;  ///< ckpt-I/O retry + backoff time (completed records)
  long transfer_fallbacks = 0; ///< completed evals that fell back to random init

  [[nodiscard]] double total_ckpt_overhead() const noexcept;
};

/// Run `n_evals` candidate evaluations of `strategy` on a simulated cluster.
/// `rng` drives the strategy's proposals only; per-candidate randomness is
/// derived inside the evaluator from (seed, id).
///
/// With `cfg.faults` active the scheduler is failure-aware: a crashed
/// attempt's work is discarded (never reported to the strategy), its worker
/// rejoins after `worker_recovery_s`, and the same proposal is resubmitted
/// under the same evaluation id with a fresh derived RNG stream, up to
/// `max_attempts` tries; proposals that exhaust the budget are counted in
/// `Trace::lost_evaluations`, so no evaluation is ever silently dropped.
[[nodiscard]] Trace run_search(Evaluator& evaluator, SearchStrategy& strategy,
                               long n_evals, const ClusterConfig& cfg, Rng& rng);

}  // namespace swt
