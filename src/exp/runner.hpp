// NAS run orchestration and top-K full training — the shared machinery
// behind the Fig. 7/8/9/10 and Table III/IV reproductions.
#pragma once

#include <memory>

#include "cluster/virtual_cluster.hpp"
#include "exp/apps.hpp"

namespace swt {

struct NasRunConfig {
  TransferMode mode = TransferMode::kNone;
  long n_evals = 80;
  std::uint64_t seed = 1;
  ClusterConfig cluster = {};
  /// Overrides cluster.time_scale when > 0; otherwise app.time_scale is used.
  double time_scale = 0.0;
  /// Checkpoint payload compression for the run's store (see compress.hpp).
  CompressionKind compression = CompressionKind::kNone;
  /// Estimation-time training-data fraction (see Evaluator::Config).
  double train_subset_fraction = 1.0;
  /// Estimation epochs override (0 = the app's estimation_epochs).
  int estimation_epochs = 0;
  RegularizedEvolution::Config evolution = {};

  // Content-addressed weight bank (DESIGN.md "Weight bank").  Off by
  // default: bank-disabled runs use the flat store and their trace CSVs are
  // byte-identical to pre-bank builds.
  /// Store checkpoints as deduplicated per-tensor chunks + manifests;
  /// provider reads are then priced at manifest size (cache hits).
  bool bank = false;
  /// Resident chunk byte cap for the bank (0 = unlimited).  Evicted chunks
  /// turn their checkpoints into read misses (random-init fallback).
  std::size_t bank_budget_bytes = 0;
  /// Cross-run warm start: a previous run's directory (its trace.csv +
  /// ckpts/).  The top-K surviving checkpoints are re-put into this run's
  /// store and reported to the evolution strategy as pre-scored outcomes,
  /// so early generations mutate trained parents instead of random inits.
  /// Requires a transfer mode; ignored (with a warning) under kNone.
  std::filesystem::path warm_start_dir;
  /// How many checkpoints to seed from warm_start_dir; 0 = auto = the
  /// evolution population size, which fills the warm-up window completely
  /// (fewer would leave the strategy proposing random architectures until
  /// its own warm-up finishes).
  int warm_start_k = 0;

  // Crash-consistent run directory (DESIGN.md "Durability contract").
  // None of these knobs changes search behaviour, so they are deliberately
  // outside the registry config hash: a journaled run and a plain run of
  // the same configuration produce byte-identical traces.
  /// When non-empty, the run is durable: checkpoints live on disk under
  /// `<run_dir>/ckpts`, a manifest pins the configuration at start, and
  /// every trained attempt is journaled (write-ahead, fsynced).  Empty =
  /// the historical in-memory run.
  std::filesystem::path run_dir;
  /// Resume a previous (killed) run in `run_dir`: the configuration must
  /// hash-match the manifest, journaled attempts skip training, and the
  /// final trace is byte-identical to an uninterrupted run.
  bool resume = false;
  /// fsync the journal after each record (default).  Off trades power-loss
  /// durability of trailing records for speed; never affects correctness.
  bool journal_fsync = true;
  /// Crash-injection hook for tests: `_exit` the instant the (n+1)-th fresh
  /// record would be journaled.  Negative = never.
  long journal_crash_after = -1;
};

/// A completed NAS run: the trace plus the checkpoint store (kept alive so
/// top-K full training can resume from candidate checkpoints).
struct NasRun {
  Trace trace;
  std::unique_ptr<CheckpointStore> store;
  TransferMode mode = TransferMode::kNone;

  // Journal accounting (all zero for non-journaled runs):
  std::size_t journal_replayed = 0;   ///< attempts restored without retraining
  std::size_t journal_appended = 0;   ///< attempts trained and journaled
  bool journal_truncated_tail = false;  ///< a torn final record was discarded

  /// Checkpoints seeded from warm_start_dir (0 = no warm start).
  std::size_t warm_start_seeded = 0;
};

/// One NAS run of `cfg.n_evals` candidates with regularized evolution.
[[nodiscard]] NasRun run_nas(const AppConfig& app, const NasRunConfig& cfg);

/// Top-K records by score, deduplicated by architecture (evolution can
/// re-evaluate an architecture; the paper's top-10 are distinct models).
[[nodiscard]] std::vector<EvalRecord> top_k(const Trace& trace, std::size_t k);

struct FullTrainResult {
  ArchSeq arch;
  double early_stop_objective = 0.0;
  int early_stop_epochs = 0;
  double full_objective = 0.0;  ///< trained to max epochs, no early stop
  int full_epochs = 0;
  std::int64_t param_count = 0;
};

struct FullTrainConfig {
  std::uint64_t seed = 1;
  /// Also run the no-early-stop "full training" pass (doubles the cost);
  /// Fig. 8's orange lines and Table III's "Fully Trained" column need it.
  bool with_full_pass = true;
};

/// Fully train one candidate.  If `resume_from` is non-null and `mode` is a
/// transfer mode, initial weights come from that checkpoint via LP/LCS
/// (for the candidate's own checkpoint this is exactly "resume training");
/// otherwise training starts from random weights, like the baseline.
[[nodiscard]] FullTrainResult full_train(const AppConfig& app, const ArchSeq& arch,
                                         const Checkpoint* resume_from, TransferMode mode,
                                         const FullTrainConfig& cfg);

}  // namespace swt
