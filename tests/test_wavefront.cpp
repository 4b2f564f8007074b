// Eval parallelism correctness: with eval_parallelism > 1 every dispatched
// evaluation trains as a future on real threads, joined at its virtual
// completion when its checkpoint costs can be planned and before the clock
// next advances otherwise.  The resulting trace must be *byte-identical* to
// the serial run — same virtual
// timeline, same scores, same CSV down to the last bit.  The oracle rests on
// (a) the kernel determinism contract (bit-identical results at any thread
// count) and (b) fixed_train_seconds replacing measured wall times in the
// records.  Runs under TSan in CI (`sanitize` label + SWT_SANITIZE=thread).
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cluster/virtual_cluster.hpp"
#include "data/generators.hpp"
#include "exp/trace_io.hpp"
#include "nas/spaces_zoo.hpp"
#include "obs/metrics.hpp"

namespace swt {
namespace {

class WavefrontFixture : public ::testing::Test {
 protected:
  WavefrontFixture()
      : space_(make_mnist_space(8)),
        data_(make_mnist_like({.n_train = 32, .n_val = 16, .seed = 1})) {}

  Trace run(int eval_parallelism, TransferMode mode = TransferMode::kLCS,
            int workers = 4, long n_evals = 24, const FaultConfig& faults = {}) {
    CheckpointStore store;
    return run_on(store, eval_parallelism, mode, workers, n_evals, faults);
  }

  Trace run_on(CheckpointStore& store, int eval_parallelism,
               TransferMode mode = TransferMode::kLCS, int workers = 4, long n_evals = 24,
               const FaultConfig& faults = {}, const DatasetPair* data = nullptr) {
    Evaluator::Config ecfg;
    ecfg.mode = mode;
    ecfg.train.epochs = 1;
    ecfg.train.batch_size = 16;
    ecfg.train.objective = ObjectiveKind::kAccuracy;
    ecfg.seed = 9;
    ecfg.write_checkpoints = mode != TransferMode::kNone;
    Evaluator evaluator(space_, data != nullptr ? *data : data_, store, ecfg);
    RegularizedEvolution strategy(space_, {.population_size = 6, .sample_size = 3});
    Rng rng(7);
    ClusterConfig cfg;
    cfg.num_workers = workers;
    cfg.eval_parallelism = eval_parallelism;
    cfg.fixed_train_seconds = 1.0;
    cfg.faults = faults;
    return run_search(evaluator, strategy, n_evals, cfg, rng);
  }

  static std::string csv(const Trace& trace) {
    std::ostringstream os;
    write_trace_csv(os, trace);
    return os.str();
  }

  SearchSpace space_;
  DatasetPair data_;
};

TEST_F(WavefrontFixture, ParallelTraceByteIdenticalToSerial) {
  const std::string serial = csv(run(1));
  const std::string parallel = csv(run(4));
  EXPECT_EQ(serial, parallel);
}

TEST_F(WavefrontFixture, ByteIdenticalAtEveryParallelism) {
  const std::string serial = csv(run(1));
  for (int p : {2, 3, 8}) {
    EXPECT_EQ(serial, csv(run(p))) << "eval_parallelism=" << p;
  }
}

TEST_F(WavefrontFixture, ByteIdenticalWithoutTransfer) {
  EXPECT_EQ(csv(run(1, TransferMode::kNone)), csv(run(4, TransferMode::kNone)));
}

TEST_F(WavefrontFixture, ByteIdenticalUnderFaults) {
  // Crashes, stragglers and flaky checkpoint I/O all flow through the same
  // deterministic FaultModel oracle, so the parallel substrate must
  // reproduce resubmissions and recovery windows exactly.
  FaultConfig faults;
  faults.mtbf_seconds = 15.0;
  faults.straggler_rate = 0.2;
  faults.straggler_multiplier = 3.0;
  faults.ckpt_read_fault_rate = 0.1;
  faults.ckpt_write_fault_rate = 0.1;
  faults.worker_recovery_s = 5.0;
  const Trace a = run(1, TransferMode::kLCS, 4, 24, faults);
  const Trace b = run(4, TransferMode::kLCS, 4, 24, faults);
  EXPECT_EQ(csv(a), csv(b));
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
  EXPECT_EQ(a.resubmissions, b.resubmissions);
  EXPECT_EQ(a.lost_evaluations, b.lost_evaluations);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST_F(WavefrontFixture, ParallelismBeyondWorkerCountIsClamped) {
  // More eval threads than simulated workers cannot change anything: the
  // scheduler never has more than num_workers trainings in flight.
  EXPECT_EQ(csv(run(1)), csv(run(64)));
}

TEST_F(WavefrontFixture, StrategySeesSameLineage) {
  const Trace a = run(1);
  const Trace b = run(4);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].id, b.records[i].id);
    EXPECT_EQ(a.records[i].parent_id, b.records[i].parent_id);
    EXPECT_EQ(a.records[i].arch, b.records[i].arch);
    EXPECT_DOUBLE_EQ(a.records[i].score, b.records[i].score);
  }
}

TEST_F(WavefrontFixture, ByteIdenticalOnEveryFlatStore) {
  // Planned dispatches price their checkpoint I/O before training: the read
  // from the parent blob's stored size, the write from the wire size of the
  // candidate's architecture.  Every codec and both flat backends must land
  // on the bytes the evaluator really moves, or the plan guard throws.
  for (CompressionKind kind : {CompressionKind::kFp16, CompressionKind::kQuant8}) {
    std::string serial;
    for (int p : {1, 4, 8}) {
      CheckpointStore store(CheckpointStore::Backend::kMemory, {}, {}, kind);
      const std::string got = csv(run_on(store, p));
      if (p == 1) serial = got;
      EXPECT_EQ(serial, got) << to_string(kind) << " eval_parallelism=" << p;
    }
  }
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_wavefront_disk";
  std::string serial;
  for (int p : {1, 4, 8}) {
    std::filesystem::remove_all(dir);
    CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
    const std::string got = csv(run_on(store, p));
    if (p == 1) serial = got;
    EXPECT_EQ(serial, got) << "disk eval_parallelism=" << p;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(WavefrontFixture, ThrowingEvaluationPropagatesWithoutHanging) {
  // Three-channel images fed to the one-channel MNIST space: every
  // evaluation throws inside training.  The failure must surface from
  // run_search, and the trainings still queued on the pool must finish
  // without touching the unwound scheduler (ASan/TSan builds check that).
  const DatasetPair wrong = make_cifar_like({.n_train = 32, .n_val = 16, .seed = 1});
  for (int p : {1, 4}) {
    CheckpointStore store;
    EXPECT_ANY_THROW((void)run_on(store, p, TransferMode::kLCS, 4, 24, {}, &wrong))
        << "eval_parallelism=" << p;
  }
}

TEST_F(WavefrontFixture, TrainingsInFlightCountsPendingFutures) {
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  const auto in_flight = [&](int p) {
    metrics().reset();
    (void)run(p);
    return metrics().snapshot().histograms.at("cluster.trainings_in_flight");
  };
  const HistogramSnapshot serial = in_flight(1);
  EXPECT_EQ(serial.count, 24u);
  EXPECT_EQ(serial.min, 1.0);
  EXPECT_EQ(serial.max, 1.0);
  const HistogramSnapshot parallel = in_flight(4);
  EXPECT_EQ(parallel.count, 24u);
  EXPECT_GE(parallel.max, 2.0);
  EXPECT_LE(parallel.max, 4.0);  // one training per virtual worker at most
  EXPECT_GE(metrics().gauge("cluster.join_wait_seconds").value(), 0.0);
  set_metrics_enabled(was_enabled);
}

TEST_F(WavefrontFixture, NonPositiveParallelismThrows) {
  EXPECT_THROW(run(0), std::invalid_argument);
  EXPECT_THROW(run(-3), std::invalid_argument);
}

}  // namespace
}  // namespace swt
