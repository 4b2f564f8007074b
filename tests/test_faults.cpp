// Fault-injection subsystem: FaultModel decision streams, the
// FaultInjectingStore retry decorator, graceful degradation in the
// evaluator, and failure-aware scheduling in run_search — including the
// determinism guarantees (same seed + same fault config => bit-identical
// trace) and the fault-free bit-identity with the non-faulty code path.
#include "cluster/faults.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "cluster/virtual_cluster.hpp"
#include "data/generators.hpp"
#include "nas/spaces_zoo.hpp"

namespace swt {
namespace {

// ---------------------------------------------------------------- FaultModel

TEST(FaultModel, DefaultConfigIsInert) {
  const FaultConfig cfg;
  EXPECT_FALSE(cfg.active());
  const FaultModel model(cfg);
  EXPECT_FALSE(model.enabled());
  EXPECT_FALSE(model.crash(3, 0, 10.0).crashed);
  EXPECT_DOUBLE_EQ(model.straggler_factor(3, 0), 1.0);
  EXPECT_FALSE(model.ckpt_read_fails(3, 0, 0));
  EXPECT_FALSE(model.ckpt_write_fails(3, 0, 0));
}

TEST(FaultModel, DecisionsAreDeterministic) {
  FaultConfig cfg;
  cfg.seed = 42;
  cfg.mtbf_seconds = 5.0;
  cfg.straggler_rate = 0.3;
  cfg.ckpt_read_fault_rate = 0.3;
  cfg.ckpt_write_fault_rate = 0.3;
  const FaultModel a(cfg), b(cfg);
  for (long id = 0; id < 200; ++id) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const auto ca = a.crash(id, attempt, 1.0);
      const auto cb = b.crash(id, attempt, 1.0);
      EXPECT_EQ(ca.crashed, cb.crashed);
      EXPECT_DOUBLE_EQ(ca.work_fraction, cb.work_fraction);
      EXPECT_DOUBLE_EQ(a.straggler_factor(id, attempt), b.straggler_factor(id, attempt));
      EXPECT_EQ(a.ckpt_read_fails(id, attempt, 0), b.ckpt_read_fails(id, attempt, 0));
      EXPECT_EQ(a.ckpt_write_fails(id, attempt, 1), b.ckpt_write_fails(id, attempt, 1));
    }
  }
}

TEST(FaultModel, DecisionStreamsAreIndependentPerAttempt) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.straggler_rate = 0.5;
  const FaultModel model(cfg);
  int differs = 0;
  for (long id = 0; id < 100; ++id)
    differs += model.straggler_factor(id, 0) != model.straggler_factor(id, 1);
  EXPECT_GT(differs, 10);  // fresh draw per attempt, not a replay
}

TEST(FaultModel, RatesAreApproximatelyHonoured) {
  FaultConfig cfg;
  cfg.seed = 11;
  cfg.straggler_rate = 0.25;
  cfg.ckpt_read_fault_rate = 0.5;
  const FaultModel model(cfg);
  int stragglers = 0, read_fails = 0;
  const int n = 4000;
  for (long id = 0; id < n; ++id) {
    stragglers += model.straggler_factor(id, 0) > 1.0;
    read_fails += model.ckpt_read_fails(id, 0, 0);
  }
  EXPECT_NEAR(static_cast<double>(stragglers) / n, 0.25, 0.03);
  EXPECT_NEAR(static_cast<double>(read_fails) / n, 0.5, 0.03);
}

TEST(FaultModel, CrashExposureGrowsWithComputeTime) {
  FaultConfig cfg;
  cfg.seed = 13;
  cfg.mtbf_seconds = 10.0;
  const FaultModel model(cfg);
  int short_crashes = 0, long_crashes = 0;
  const int n = 2000;
  for (long id = 0; id < n; ++id) {
    short_crashes += model.crash(id, 0, 0.5).crashed;
    long_crashes += model.crash(id, 0, 20.0).crashed;
  }
  // P = 1 - exp(-d/mtbf): ~4.9% at 0.5 s vs ~86.5% at 20 s.
  EXPECT_NEAR(static_cast<double>(short_crashes) / n, 0.049, 0.02);
  EXPECT_NEAR(static_cast<double>(long_crashes) / n, 0.865, 0.03);
}

TEST(FaultModel, CrashFractionIsMidEvaluation) {
  FaultConfig cfg;
  cfg.seed = 17;
  cfg.mtbf_seconds = 0.1;
  const FaultModel model(cfg);
  for (long id = 0; id < 500; ++id) {
    const auto d = model.crash(id, 0, 10.0);
    if (!d.crashed) continue;
    EXPECT_GE(d.work_fraction, 0.05);
    EXPECT_LE(d.work_fraction, 0.95);
  }
}

TEST(FaultModel, BackoffGrowsExponentially) {
  FaultConfig cfg;
  cfg.retry_backoff_s = 0.1;
  cfg.retry_backoff_multiplier = 2.0;
  const FaultModel model(cfg);
  EXPECT_DOUBLE_EQ(model.backoff_seconds(0), 0.1);
  EXPECT_DOUBLE_EQ(model.backoff_seconds(1), 0.2);
  EXPECT_DOUBLE_EQ(model.backoff_seconds(3), 0.8);
}

TEST(FaultModel, RejectsInvalidConfig) {
  FaultConfig cfg;
  cfg.straggler_rate = 1.5;
  EXPECT_THROW(FaultModel{cfg}, std::invalid_argument);
  cfg = {};
  cfg.straggler_multiplier = 0.5;
  EXPECT_THROW(FaultModel{cfg}, std::invalid_argument);
  cfg = {};
  cfg.max_attempts = 0;
  EXPECT_THROW(FaultModel{cfg}, std::invalid_argument);
  cfg = {};
  cfg.ckpt_read_fault_rate = -0.1;
  EXPECT_THROW(FaultModel{cfg}, std::invalid_argument);
}

// ------------------------------------------------------- FaultInjectingStore

Checkpoint small_checkpoint() {
  Checkpoint ckpt;
  ckpt.arch = {1, 2};
  ckpt.score = 0.5;
  ckpt.tensors.push_back({"d/W", Tensor(Shape{2, 2}, {1, 2, 3, 4})});
  return ckpt;
}

TEST(FaultInjectingStore, NullModelForwardsUntouched) {
  CheckpointStore plain, wrapped_inner;
  FaultInjectingStore wrapped(wrapped_inner, nullptr);
  const Checkpoint ckpt = small_checkpoint();
  const IoStats a = plain.put("k", ckpt);
  const IoStats b = wrapped.put("k", ckpt);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_DOUBLE_EQ(a.cost_seconds, b.cost_seconds);
  EXPECT_EQ(wrapped.last_op().failed_tries, 0);
  EXPECT_DOUBLE_EQ(wrapped.last_op().retry_seconds, 0.0);
  auto got = wrapped.try_get("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->second.cost_seconds, plain.get("k").second.cost_seconds);
}

TEST(FaultInjectingStore, CertainWriteFailureGivesUpAndStoresNothing) {
  FaultConfig cfg;
  cfg.seed = 1;
  cfg.ckpt_write_fault_rate = 1.0;
  cfg.max_io_retries = 2;
  const FaultModel model(cfg);
  CheckpointStore inner;
  FaultInjectingStore store(inner, &model);
  store.set_context(0, 0);
  const IoStats stats = store.put("k", small_checkpoint());
  EXPECT_TRUE(store.last_op().gave_up);
  EXPECT_EQ(store.last_op().failed_tries, 3);  // initial try + 2 retries
  EXPECT_GT(store.last_op().retry_seconds, 0.0);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(inner.count(), 0u);
}

TEST(FaultInjectingStore, CertainReadFailureGivesUp) {
  FaultConfig cfg;
  cfg.seed = 2;
  cfg.ckpt_read_fault_rate = 1.0;
  cfg.max_io_retries = 1;
  const FaultModel model(cfg);
  CheckpointStore inner;
  inner.put("k", small_checkpoint());
  FaultInjectingStore store(inner, &model);
  store.set_context(5, 0);
  EXPECT_FALSE(store.try_get("k").has_value());
  EXPECT_TRUE(store.last_op().gave_up);
  EXPECT_EQ(store.last_op().failed_tries, 2);
  EXPECT_GT(store.last_op().retry_seconds, 0.0);
}

TEST(FaultInjectingStore, MissingKeyFailsFastWithoutRetries) {
  FaultConfig cfg;
  cfg.seed = 3;
  cfg.ckpt_read_fault_rate = 1.0;
  const FaultModel model(cfg);
  CheckpointStore inner;
  FaultInjectingStore store(inner, &model);
  store.set_context(0, 0);
  EXPECT_FALSE(store.try_get("absent").has_value());
  EXPECT_EQ(store.last_op().failed_tries, 0);  // retrying cannot heal a miss
  EXPECT_DOUBLE_EQ(store.last_op().retry_seconds, 0.0);
}

TEST(FaultInjectingStore, PartialFailureRetriesThenSucceeds) {
  FaultConfig cfg;
  cfg.seed = 4;
  cfg.ckpt_read_fault_rate = 0.5;
  cfg.max_io_retries = 8;
  const FaultModel model(cfg);
  CheckpointStore inner;
  inner.put("k", small_checkpoint());
  FaultInjectingStore store(inner, &model);
  bool saw_retry_then_success = false;
  for (long id = 0; id < 64 && !saw_retry_then_success; ++id) {
    store.set_context(id, 0);
    const auto got = store.try_get("k");
    saw_retry_then_success =
        got.has_value() && store.last_op().failed_tries > 0;
  }
  EXPECT_TRUE(saw_retry_then_success);
}

// ------------------------------------------------ evaluator degradation path

class FaultClusterFixture : public ::testing::Test {
 protected:
  FaultClusterFixture()
      : space_(make_mnist_space(8)),
        data_(make_mnist_like({.n_train = 32, .n_val = 16, .seed = 1})) {}

  Evaluator::Config eval_config(TransferMode mode) {
    Evaluator::Config cfg;
    cfg.mode = mode;
    cfg.train.epochs = 1;
    cfg.train.batch_size = 16;
    cfg.train.objective = ObjectiveKind::kAccuracy;
    cfg.seed = 9;
    cfg.write_checkpoints = mode != TransferMode::kNone;
    return cfg;
  }

  Trace run(TransferMode mode, int workers, long n_evals, const FaultConfig& faults) {
    CheckpointStore store;
    Evaluator evaluator(space_, data_, store, eval_config(mode));
    RegularizedEvolution strategy(space_, {.population_size = 6, .sample_size = 3});
    Rng rng(7);
    ClusterConfig cfg;
    cfg.num_workers = workers;
    cfg.fixed_train_seconds = 1.0;
    cfg.faults = faults;
    return run_search(evaluator, strategy, n_evals, cfg, rng);
  }

  SearchSpace space_;
  DatasetPair data_;
};

TEST_F(FaultClusterFixture, CorruptParentOnDiskDegradesToRandomInit) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_fault_eval";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  Evaluator evaluator(space_, data_, store, eval_config(TransferMode::kLCS));
  Rng rng(3);
  const Proposal parent{space_.random_arch(rng), std::nullopt, "", -1};
  const EvalRecord pr = evaluator.evaluate(0, parent);

  // Flip one payload byte of the parent's on-disk checkpoint (CRC breaks).
  const auto path = dir / (pr.ckpt_key + ".swtc");
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Proposal child;
  child.arch = space_.mutate(pr.arch, rng);
  child.parent_arch = pr.arch;
  child.parent_ckpt_key = pr.ckpt_key;
  child.parent_id = pr.id;
  EvalRecord rec;
  // The whole point: a CRC failure must not abort the search.
  ASSERT_NO_THROW(rec = evaluator.evaluate(1, child));
  EXPECT_TRUE(rec.transfer_fallback);
  EXPECT_NE(rec.faults & kFaultParentUnreadable, 0u);
  EXPECT_EQ(rec.tensors_transferred, 0u);
  EXPECT_GE(rec.score, 0.0);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultClusterFixture, ResubmissionAttemptsDrawFreshRngStreams) {
  CheckpointStore store;
  auto cfg = eval_config(TransferMode::kNone);
  cfg.write_checkpoints = true;  // snapshot the trained weights per attempt
  Evaluator evaluator(space_, data_, store, cfg);
  Rng rng(4);
  const Proposal p{space_.random_arch(rng), std::nullopt, "", -1};
  const EvalRecord a0 = evaluator.evaluate(7, p, /*attempt=*/0);
  const Checkpoint ckpt0 = store.get(a0.ckpt_key).first;
  const EvalRecord a1 = evaluator.evaluate(7, p, /*attempt=*/1);
  const Checkpoint ckpt1 = store.get(a1.ckpt_key).first;
  const EvalRecord a1b = evaluator.evaluate(7, p, /*attempt=*/1);
  // A fresh init stream per attempt: the trained weights must differ...
  EXPECT_FALSE(ckpt0.tensors[0].value == ckpt1.tensors[0].value);
  // ...while resubmitted attempts stay fully deterministic.
  EXPECT_DOUBLE_EQ(a1.score, a1b.score);
  EXPECT_EQ(store.get(a1b.ckpt_key).first.tensors[0].value, ckpt1.tensors[0].value);
  EXPECT_EQ(a1.attempt, 1);
}

// ----------------------------------------------- failure-aware run_search

TEST_F(FaultClusterFixture, InertFaultConfigMatchesFaultFreeRunBitForBit) {
  const Trace plain = run(TransferMode::kLCS, 4, 20, FaultConfig{});
  FaultConfig noisy_seed_only;
  noisy_seed_only.seed = 12345;  // seed alone must not change anything
  const Trace with_cfg = run(TransferMode::kLCS, 4, 20, noisy_seed_only);
  ASSERT_EQ(plain.records.size(), with_cfg.records.size());
  EXPECT_DOUBLE_EQ(plain.makespan, with_cfg.makespan);
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    const auto& a = plain.records[i];
    const auto& b = with_cfg.records[i];
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_DOUBLE_EQ(a.score, b.score);
    EXPECT_DOUBLE_EQ(a.virtual_finish, b.virtual_finish);
    EXPECT_EQ(a.faults, 0u);
    EXPECT_EQ(b.faults, 0u);
    EXPECT_EQ(b.retries, 0);
    EXPECT_FALSE(b.transfer_fallback);
  }
  EXPECT_TRUE(with_cfg.crashes.empty());
  EXPECT_EQ(with_cfg.lost_evaluations, 0);
  EXPECT_DOUBLE_EQ(with_cfg.retry_seconds, 0.0);
}

FaultConfig stormy_config() {
  FaultConfig cfg;
  cfg.seed = 99;
  cfg.mtbf_seconds = 8.0;  // ~12% crash probability per 1 s attempt
  cfg.worker_recovery_s = 3.0;
  cfg.straggler_rate = 0.2;
  cfg.straggler_multiplier = 3.0;
  cfg.ckpt_read_fault_rate = 0.2;
  cfg.ckpt_write_fault_rate = 0.2;
  cfg.max_io_retries = 2;
  cfg.max_attempts = 3;
  return cfg;
}

TEST_F(FaultClusterFixture, SeededFaultRunIsBitIdenticalAcrossRepeats) {
  const Trace a = run(TransferMode::kLCS, 4, 30, stormy_config());
  const Trace b = run(TransferMode::kLCS, 4, 30, stormy_config());
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
  EXPECT_EQ(a.resubmissions, b.resubmissions);
  EXPECT_EQ(a.lost_evaluations, b.lost_evaluations);
  EXPECT_DOUBLE_EQ(a.lost_train_seconds, b.lost_train_seconds);
  EXPECT_DOUBLE_EQ(a.retry_seconds, b.retry_seconds);
  EXPECT_EQ(a.transfer_fallbacks, b.transfer_fallbacks);
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.arch, rb.arch);
    EXPECT_DOUBLE_EQ(ra.score, rb.score);
    EXPECT_EQ(ra.attempt, rb.attempt);
    EXPECT_EQ(ra.faults, rb.faults);
    EXPECT_EQ(ra.retries, rb.retries);
    EXPECT_DOUBLE_EQ(ra.retry_seconds, rb.retry_seconds);
    EXPECT_EQ(ra.transfer_fallback, rb.transfer_fallback);
    EXPECT_DOUBLE_EQ(ra.virtual_start, rb.virtual_start);
    EXPECT_DOUBLE_EQ(ra.virtual_finish, rb.virtual_finish);
    EXPECT_EQ(ra.worker, rb.worker);
  }
}

TEST_F(FaultClusterFixture, PerIdFaultDecisionsStableAcrossWorkerCounts) {
  // Crash/straggler/retry decisions derive from (fault seed, id, attempt),
  // never from scheduling, so a candidate with the same id and arch behaves
  // identically whether the cluster has 2 workers or 4.
  FaultConfig cfg;
  cfg.seed = 21;
  cfg.mtbf_seconds = 10.0;
  cfg.straggler_rate = 0.3;
  cfg.straggler_multiplier = 2.0;
  const Trace t2 = run(TransferMode::kNone, 2, 16, cfg);
  const Trace t4 = run(TransferMode::kNone, 4, 16, cfg);
  std::map<long, const EvalRecord*> by_id;
  for (const auto& r : t2.records) by_id[r.id] = &r;
  int compared = 0;
  for (const auto& r : t4.records) {
    const auto it = by_id.find(r.id);
    if (it == by_id.end() || it->second->arch != r.arch) continue;
    EXPECT_DOUBLE_EQ(it->second->score, r.score);
    EXPECT_EQ(it->second->attempt, r.attempt);
    EXPECT_EQ(it->second->faults, r.faults);
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST_F(FaultClusterFixture, NoEvaluationIsSilentlyLost) {
  FaultConfig cfg = stormy_config();
  cfg.mtbf_seconds = 2.0;  // heavy crash pressure, some evals exhaust retries
  cfg.max_attempts = 2;
  const Trace trace = run(TransferMode::kLCS, 4, 40, cfg);
  EXPECT_GT(trace.crashes.size(), 0u);
  EXPECT_EQ(static_cast<long>(trace.crashes.size()),
            trace.resubmissions + trace.lost_evaluations);
  EXPECT_EQ(static_cast<long>(trace.records.size()) + trace.lost_evaluations, 40);
  std::set<long> ids;
  for (const auto& r : trace.records) ids.insert(r.id);
  EXPECT_EQ(ids.size(), trace.records.size());  // one completion per id
}

TEST_F(FaultClusterFixture, SingleWorkerClusterSurvivesCrashes) {
  // With one worker every crash empties the cluster; the scheduler must
  // advance the clock to the recovery point instead of declaring a stall.
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.mtbf_seconds = 3.0;
  cfg.worker_recovery_s = 10.0;
  cfg.max_attempts = 4;
  const Trace trace = run(TransferMode::kNone, 1, 12, cfg);
  EXPECT_GT(trace.crashes.size(), 0u);
  EXPECT_EQ(static_cast<long>(trace.records.size()) + trace.lost_evaluations, 12);
}

TEST_F(FaultClusterFixture, CrashedCheckpointsNeverBecomeProviders) {
  FaultConfig cfg = stormy_config();
  const Trace trace = run(TransferMode::kLCS, 4, 30, cfg);
  // Crashed attempts are never reported to the strategy, so every parent a
  // transfer actually read from must be a *completed* record.
  std::set<long> completed_ids;
  for (const auto& r : trace.records) completed_ids.insert(r.id);
  for (const auto& r : trace.records)
    if (r.tensors_transferred > 0) {
      EXPECT_TRUE(completed_ids.contains(r.parent_id));
      EXPECT_GT(r.ckpt_read_cost, 0.0);
    }
}

TEST_F(FaultClusterFixture, UnreadableParentsFallBackToRandomInit) {
  FaultConfig cfg;
  cfg.seed = 6;
  cfg.ckpt_read_fault_rate = 1.0;  // every read fails past the retry budget
  cfg.max_io_retries = 1;
  const Trace trace = run(TransferMode::kLCS, 4, 24, cfg);
  long parented = 0;
  for (const auto& r : trace.records) {
    if (r.parent_id < 0) continue;
    ++parented;
    EXPECT_TRUE(r.transfer_fallback);
    EXPECT_EQ(r.tensors_transferred, 0u);
    EXPECT_NE(r.faults & kFaultCkptRead, 0u);
    EXPECT_GT(r.retry_seconds, 0.0);
  }
  EXPECT_GT(parented, 0);
  EXPECT_EQ(trace.transfer_fallbacks, parented);
  EXPECT_GT(trace.retry_seconds, 0.0);
}

TEST_F(FaultClusterFixture, GivenUpWritesLeaveChildrenWithoutProviders) {
  FaultConfig cfg;
  cfg.seed = 8;
  cfg.ckpt_write_fault_rate = 1.0;
  cfg.max_io_retries = 1;
  const Trace trace = run(TransferMode::kLCS, 4, 20, cfg);
  for (const auto& r : trace.records) {
    EXPECT_TRUE(r.ckpt_key.empty());  // every write gave up
    EXPECT_EQ(r.ckpt_bytes, 0u);
    if (r.parent_id >= 0) {
      EXPECT_TRUE(r.transfer_fallback);
    }
  }
  EXPECT_GT(trace.retry_seconds, 0.0);
}

TEST_F(FaultClusterFixture, StragglersStretchTheTimeline) {
  FaultConfig cfg;
  cfg.seed = 10;
  cfg.straggler_rate = 0.5;
  cfg.straggler_multiplier = 5.0;
  const Trace slow = run(TransferMode::kNone, 4, 24, cfg);
  const Trace fast = run(TransferMode::kNone, 4, 24, FaultConfig{});
  EXPECT_GT(slow.makespan, fast.makespan);
  long stragglers = 0;
  for (const auto& r : slow.records) {
    if ((r.faults & kFaultStraggler) == 0) continue;
    ++stragglers;
    EXPECT_NEAR(r.virtual_finish - r.virtual_start, 5.0, 1e-9);
  }
  EXPECT_GT(stragglers, 0);
}

TEST_F(FaultClusterFixture, RetryCostIsChargedToTheVirtualClock) {
  FaultConfig cfg;
  cfg.seed = 14;
  cfg.ckpt_read_fault_rate = 0.4;
  cfg.ckpt_write_fault_rate = 0.4;
  cfg.max_io_retries = 3;
  const Trace trace = run(TransferMode::kLCS, 4, 24, cfg);
  double sum = 0.0;
  for (const auto& r : trace.records) {
    sum += r.retry_seconds;
    // Sync checkpointing, no crashes/stragglers: the span decomposes exactly.
    EXPECT_NEAR(r.virtual_finish - r.virtual_start,
                1.0 + r.ckpt_read_cost + r.ckpt_write_charged + r.retry_seconds, 1e-9);
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_DOUBLE_EQ(trace.retry_seconds, sum);
}

}  // namespace
}  // namespace swt
