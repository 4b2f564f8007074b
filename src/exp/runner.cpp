#include "exp/runner.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/log.hpp"
#include "exp/journal.hpp"
#include "exp/registry.hpp"
#include "exp/trace_io.hpp"

namespace swt {

namespace {

/// Seed `strategy` and `store` from a previous run's directory: re-put the
/// top-K surviving checkpoints under "warm-<j>" keys and report them as
/// pre-scored outcomes (negative ids, outside the run's id space), so the
/// evolution's warm-up window starts from trained parents instead of random
/// architectures — XferNAS-style transfer *across* runs.  Returns how many
/// checkpoints were seeded; degrades gracefully (skips unreadable sources).
std::size_t warm_start_from(const std::filesystem::path& src_dir,
                            const NasRunConfig& cfg, CheckpointStore& store,
                            RegularizedEvolution& strategy) {
  const std::filesystem::path trace_path = src_dir / "trace.csv";
  if (!std::filesystem::exists(trace_path)) {
    log_warn("warm start: no trace.csv in ", src_dir.string(), "; skipping");
    return 0;
  }
  Trace src_trace;
  try {
    src_trace = read_trace_csv(trace_path);
  } catch (const std::exception& e) {
    log_warn("warm start: cannot read ", trace_path.string(), ": ", e.what());
    return 0;
  }
  // Fewer than population_size seeds would leave the strategy's warm-up
  // condition active and the seeds unused; auto means "fill the window".
  const std::size_t k = cfg.warm_start_k > 0
                            ? static_cast<std::size_t>(cfg.warm_start_k)
                            : cfg.evolution.population_size;
  const std::vector<EvalRecord> best = top_k(src_trace, k);
  // The source store is opened read-only in spirit: banked layout is
  // autodetected from the manifests/ directory the bank always creates.
  const std::filesystem::path src_ckpts = src_dir / "ckpts";
  if (!std::filesystem::exists(src_ckpts)) {
    log_warn("warm start: no ckpts/ in ", src_dir.string(), "; skipping");
    return 0;
  }
  BankConfig src_bank;
  src_bank.enabled = std::filesystem::exists(src_ckpts / "manifests");
  CheckpointStore source(CheckpointStore::Backend::kDisk, src_ckpts, PfsCostModel{},
                         cfg.compression, src_bank);
  std::size_t seeded = 0;
  for (const EvalRecord& r : best) {
    if (r.ckpt_key.empty()) continue;
    auto got = source.try_get(r.ckpt_key);
    if (!got.has_value()) continue;  // evicted/corrupt in the source: skip
    const std::string key = "warm-" + std::to_string(seeded);
    store.put(key, got->first);
    // Negative ids keep warm seeds visibly outside the run's eval-id space
    // (resume replay starts real ids at 0).
    strategy.report(Outcome{-static_cast<long>(seeded) - 2, r.arch, r.score, key});
    ++seeded;
  }
  log_info("warm start: seeded ", seeded, " of ", best.size(),
           " candidate checkpoints from ", src_dir.string());
  return seeded;
}

}  // namespace

NasRun run_nas(const AppConfig& app, const NasRunConfig& cfg) {
  NasRun run;
  run.mode = cfg.mode;

  std::unique_ptr<RunJournal> journal;
  if (!cfg.run_dir.empty()) {
    // Durable run: pin the configuration in the manifest before any other
    // write, back checkpoints with the crash-consistent disk store, and
    // journal every trained attempt.
    const std::optional<RunManifest> existing = load_manifest(cfg.run_dir);
    if (cfg.resume && !existing.has_value()) {
      // A run killed before its manifest became durable left nothing to
      // recover; `resume` is idempotent over that window and starts fresh.
      // A journal *without* a manifest, though, is real corruption: its
      // records cannot be validated against any configuration.
      if (std::filesystem::exists(cfg.run_dir / RunJournal::kFileName))
        throw std::runtime_error("run_nas: cannot resume " + cfg.run_dir.string() +
                                 ": journal present but manifest missing — the "
                                 "directory is corrupt");
      log_info("journal: no manifest in ", cfg.run_dir.string(),
               "; nothing durable to recover, starting fresh");
      write_manifest(cfg.run_dir, make_manifest(app.name, cfg));
    } else if (cfg.resume) {
      const std::string want = config_hash(app.name, cfg);
      if (existing->config_hash != want)
        throw std::runtime_error(
            "run_nas: refusing to resume " + cfg.run_dir.string() +
            ": configuration mismatch (manifest config hash " + existing->config_hash +
            ", requested " + want +
            ") — replaying a journal under a different configuration would "
            "silently diverge");
    } else {
      if (existing.has_value() ||
          std::filesystem::exists(cfg.run_dir / RunJournal::kFileName))
        throw std::runtime_error("run_nas: " + cfg.run_dir.string() +
                                 " already holds a journaled run; resume it or use "
                                 "a fresh directory");
      write_manifest(cfg.run_dir, make_manifest(app.name, cfg));
    }
    run.store = std::make_unique<CheckpointStore>(
        CheckpointStore::Backend::kDisk, cfg.run_dir / "ckpts", PfsCostModel{},
        cfg.compression, BankConfig{cfg.bank, cfg.bank_budget_bytes});
    journal = std::make_unique<RunJournal>(cfg.run_dir, cfg.journal_fsync);
    if (cfg.journal_crash_after >= 0) journal->set_crash_after(cfg.journal_crash_after);
    if (cfg.resume && journal->loaded() > 0)
      log_info("journal: resuming ", cfg.run_dir.string(), " with ", journal->loaded(),
               " journaled attempts");
  } else {
    run.store = std::make_unique<CheckpointStore>(
        CheckpointStore::Backend::kMemory, std::filesystem::path{}, PfsCostModel{},
        cfg.compression, BankConfig{cfg.bank, cfg.bank_budget_bytes});
  }

  Evaluator::Config eval_cfg;
  eval_cfg.mode = cfg.mode;
  eval_cfg.train = app.estimation_options();
  if (cfg.estimation_epochs > 0) eval_cfg.train.epochs = cfg.estimation_epochs;
  eval_cfg.train_subset_fraction = cfg.train_subset_fraction;
  eval_cfg.seed = cfg.seed;
  // Only transfer schemes checkpoint candidates: the plain DeepHyper
  // baseline neither writes nor reads checkpoints (Section VI), which is
  // exactly the overhead difference Fig. 10 measures.
  eval_cfg.write_checkpoints = cfg.mode != TransferMode::kNone;
  Evaluator evaluator(app.space, app.data, *run.store, eval_cfg);

  RegularizedEvolution strategy(app.space, cfg.evolution);
  if (!cfg.warm_start_dir.empty()) {
    if (cfg.mode == TransferMode::kNone) {
      log_warn("warm start: requires a transfer mode (weights are fetched via "
               "LP/LCS); ignoring --warm-start-from under mode none");
    } else {
      // Deterministic given the source directory's content, and re-run on
      // resume so a resumed run rebuilds the identical seeded population.
      run.warm_start_seeded = warm_start_from(cfg.warm_start_dir, cfg, *run.store, strategy);
    }
  }
  Rng rng(mix64(cfg.seed, 0x5EA6C4));
  ClusterConfig cluster = cfg.cluster;
  cluster.time_scale = cfg.time_scale > 0.0 ? cfg.time_scale : app.time_scale;
  if (cluster.faults.active() && cluster.faults.seed == 0)
    cluster.faults.seed = mix64(cfg.seed, 0xFA017);
  cluster.journal = journal.get();
  run.trace = run_search(evaluator, strategy, cfg.n_evals, cluster, rng);
  if (journal != nullptr) {
    run.journal_replayed = journal->replayed();
    run.journal_appended = journal->appended();
    run.journal_truncated_tail = journal->truncated_tail();
  }
  // Persist the final trace beside the journal: a later run's
  // --warm-start-from ranks this run's surviving checkpoints by it.
  if (!cfg.run_dir.empty())
    write_trace_csv((cfg.run_dir / "trace.csv").string(), run.trace);
  return run;
}

std::vector<EvalRecord> top_k(const Trace& trace, std::size_t k) {
  std::vector<EvalRecord> sorted = trace.records;
  std::sort(sorted.begin(), sorted.end(),
            [](const EvalRecord& a, const EvalRecord& b) { return a.score > b.score; });
  std::vector<EvalRecord> out;
  std::unordered_set<std::uint64_t> seen;
  for (auto& r : sorted) {
    if (!seen.insert(arch_hash(r.arch)).second) continue;
    out.push_back(r);
    if (out.size() == k) break;
  }
  return out;
}

FullTrainResult full_train(const AppConfig& app, const ArchSeq& arch,
                           const Checkpoint* resume_from, TransferMode mode,
                           const FullTrainConfig& cfg) {
  FullTrainResult result;
  result.arch = arch;

  const auto run_pass = [&](bool early_stop, std::uint64_t salt) {
    Rng rng(mix64(cfg.seed, mix64(arch_hash(arch), salt)));
    NetworkPtr net = app.space.build(arch);
    net->init(rng);
    if (resume_from != nullptr && mode != TransferMode::kNone)
      (void)apply_transfer(*resume_from, *net, mode);
    result.param_count = net->param_count();
    return Trainer::fit(*net, app.data.train, app.data.val,
                        app.full_train_options(early_stop), rng);
  };

  const TrainResult es = run_pass(/*early_stop=*/true, 0xE5);
  result.early_stop_objective = es.final_objective;
  result.early_stop_epochs = es.epochs_run;

  if (cfg.with_full_pass) {
    const TrainResult full = run_pass(/*early_stop=*/false, 0xF0);
    result.full_objective = full.final_objective;
    result.full_epochs = full.epochs_run;
  } else {
    result.full_objective = es.final_objective;
    result.full_epochs = es.epochs_run;
  }
  return result;
}

}  // namespace swt
