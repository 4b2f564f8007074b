// Candidate evaluator (one simulated GPU worker's job, Section VI).
//
// For each proposal the evaluator: builds the candidate network, randomly
// initialises it, optionally reads the parent checkpoint and applies LP/LCS
// weight transfer, trains for the estimation budget (one epoch by default),
// scores it on the validation split and checkpoints the result.  Everything
// random is derived from (seed, evaluation id), so a trace is reproducible
// regardless of how evaluations interleave on the virtual cluster.
#pragma once

#include <optional>
#include <string>

#include "ckpt/store.hpp"
#include "core/transfer.hpp"
#include "data/dataset.hpp"
#include "nas/strategy.hpp"
#include "nn/trainer.hpp"
#include "obs/prof/critical_path.hpp"

namespace swt {

class FaultModel;

/// Everything recorded about one candidate evaluation (one trace row).
struct EvalRecord {
  long id = -1;
  ArchSeq arch;
  double score = 0.0;
  /// Validation objective after the first estimation epoch; equals `score`
  /// for single-epoch estimation.  Feeds the live early-vs-final Kendall tau
  /// (obs/quality.hpp), the online form of the paper's Fig. 9 metric.
  double first_epoch_score = 0.0;
  long parent_id = -1;
  std::string ckpt_key;

  std::int64_t param_count = 0;
  std::size_t tensors_transferred = 0;
  std::size_t values_transferred = 0;

  double train_seconds = 0.0;      ///< measured wall time of training
  double transfer_seconds = 0.0;   ///< measured LP/LCS + copy time
  double ckpt_read_cost = 0.0;     ///< modelled PFS read seconds
  double ckpt_write_cost = 0.0;    ///< modelled PFS write seconds (full drain)
  std::size_t ckpt_bytes = 0;

  // Filled by the virtual cluster's checkpointing model:
  double ckpt_write_charged = 0.0;  ///< write time charged to the worker
  double ckpt_read_wait = 0.0;      ///< stall waiting for an async drain
  double ckpt_available_at = 0.0;   ///< virtual time the checkpoint is readable

  // Filled by the virtual cluster:
  double virtual_start = 0.0;
  double virtual_finish = 0.0;
  int worker = -1;

  // Fault tolerance (all zero on a fault-free run; see cluster/faults.hpp):
  int attempt = 0;            ///< 0 = first submission, >0 = resubmission
  unsigned faults = 0;        ///< FaultKind bitmask observed by this attempt
  int retries = 0;            ///< failed checkpoint-I/O tries (then retried)
  double retry_seconds = 0.0; ///< modelled cost of those tries + backoff
  bool transfer_fallback = false;  ///< parent wanted but unreadable -> random init
};

/// A scheduled record as the critical-path analyzer reads it: the virtual
/// envelope [virtual_start, virtual_finish] split into consecutive phases.
/// The checkpoint stall and read lead, the charged write and the I/O
/// retries trail (only the retries' total is known), and the compute window
/// between them is the transfer — its measured time, an approximation in
/// scaled/fixed-time runs — followed by training.  `parent_id` is set only
/// when weights were actually transferred.  The one conversion behind the
/// virtual-timeline spans and every critical-path input.
[[nodiscard]] prof::EvalSpan eval_span(const EvalRecord& rec) noexcept;

class Evaluator {
 public:
  struct Config {
    TransferMode mode = TransferMode::kNone;
    TrainOptions train;          ///< estimation budget (epochs=1 by default)
    std::uint64_t seed = 1;
    /// Baseline evaluators do not checkpoint; transfer modes must, because
    /// every scored candidate is a potential provider.
    bool write_checkpoints = true;
    /// Candidate estimation on a fixed random subset of the training data
    /// (Section II lists dataset-subset estimation as an alternative to
    /// few-epoch estimation; the paper argues weight transfer applies to
    /// such estimators too).  1.0 = the full training split.
    double train_subset_fraction = 1.0;
  };

  /// `space`, `data` and `store` must outlive the evaluator.
  Evaluator(const SearchSpace& space, const DatasetPair& data, CheckpointStore& store,
            Config cfg);

  /// Evaluate one proposal; `id` is the global evaluation id.  `attempt`
  /// numbers resubmissions of the same proposal after a worker crash: each
  /// attempt draws a fresh derived RNG stream (attempt 0 reproduces the
  /// historical stream exactly).  `faults`, when non-null and active,
  /// injects checkpoint I/O failures; their retry cost lands in the record.
  /// An unreadable parent checkpoint (missing, corrupt, or retries
  /// exhausted) degrades to the already-applied random initialisation and
  /// sets `transfer_fallback` instead of aborting the search.
  [[nodiscard]] EvalRecord evaluate(long id, const Proposal& proposal,
                                    int attempt = 0,
                                    const FaultModel* faults = nullptr);

  /// The checkpoint costs a fault-free evaluate() of `proposal` will report,
  /// computed without training: a record carrying the identity fields plus
  /// `ckpt_read_cost`, `ckpt_write_cost` and `ckpt_bytes`.  The read is
  /// priced at the parent blob's stored size, the write at the wire size of
  /// the candidate's architecture.  Empty when those costs depend on the
  /// training itself (a banked store prices a put by its new-chunk bytes) or
  /// the parent read would fall back to random init.
  [[nodiscard]] std::optional<EvalRecord> plan(long id, const Proposal& proposal,
                                               int attempt = 0) const;

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

 private:
  const SearchSpace* space_;
  const DatasetPair* data_;
  CheckpointStore* store_;
  Config cfg_;
  /// Materialised estimation subset (same for every candidate, like a fixed
  /// proxy dataset); empty when the full split is used.
  Dataset train_subset_;
  bool use_subset_ = false;
};

}  // namespace swt
