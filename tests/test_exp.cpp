#include <gtest/gtest.h>

#include "exp/pair_study.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

namespace swt {
namespace {

TEST(Apps, AllFourAppsConstruct) {
  for (AppId id : all_apps()) {
    const AppConfig app = make_app(id, 1);
    EXPECT_FALSE(app.name.empty());
    EXPECT_GT(app.space.num_vns(), 0);
    EXPECT_GT(app.data.train.size(), 0);
    EXPECT_GT(app.data.val.size(), 0);
    EXPECT_EQ(app.data.train.num_sources(), app.space.input_shapes.size());
  }
}

TEST(Apps, ObjectivesMatchTableOne) {
  EXPECT_EQ(make_app(AppId::kCifar).objective, ObjectiveKind::kAccuracy);
  EXPECT_EQ(make_app(AppId::kMnist).objective, ObjectiveKind::kAccuracy);
  EXPECT_EQ(make_app(AppId::kNt3).objective, ObjectiveKind::kAccuracy);
  EXPECT_EQ(make_app(AppId::kUno).objective, ObjectiveKind::kR2);
}

TEST(Apps, EarlyStopThresholdsMatchPaper) {
  EXPECT_DOUBLE_EQ(make_app(AppId::kNt3).early_stop_min_delta, 0.005);
  EXPECT_DOUBLE_EQ(make_app(AppId::kMnist).early_stop_min_delta, 0.001);
  EXPECT_DOUBLE_EQ(make_app(AppId::kCifar).early_stop_min_delta, 0.01);
  EXPECT_DOUBLE_EQ(make_app(AppId::kUno).early_stop_min_delta, 0.02);
}

TEST(Apps, TrainOptionWiring) {
  const AppConfig app = make_app(AppId::kCifar);
  const TrainOptions est = app.estimation_options();
  EXPECT_EQ(est.epochs, 1);
  EXPECT_LT(est.early_stop_min_delta, 0.0);  // no early stopping in estimation
  const TrainOptions full = app.full_train_options(true);
  EXPECT_EQ(full.epochs, app.full_train_max_epochs);
  EXPECT_DOUBLE_EQ(full.early_stop_min_delta, app.early_stop_min_delta);
  const TrainOptions no_es = app.full_train_options(false);
  EXPECT_LT(no_es.early_stop_min_delta, 0.0);
}

TEST(Apps, DataScaleShrinksDatasets) {
  const AppConfig full = make_app(AppId::kMnist, 1, {.data_scale = 1.0});
  const AppConfig half = make_app(AppId::kMnist, 1, {.data_scale = 0.5});
  EXPECT_EQ(half.data.train.size(), full.data.train.size() / 2);
}

class RunnerFixture : public ::testing::Test {
 protected:
  NasRunConfig fast_cfg(TransferMode mode, long n = 24) {
    NasRunConfig cfg;
    cfg.mode = mode;
    cfg.n_evals = n;
    cfg.seed = 3;
    cfg.cluster.num_workers = 4;
    cfg.cluster.fixed_train_seconds = 1.0;  // deterministic scheduling
    cfg.evolution = {.population_size = 6, .sample_size = 3};
    return cfg;
  }
};

TEST_F(RunnerFixture, RunNasProducesTraceAndStore) {
  const AppConfig app = make_app(AppId::kMnist, 3, {.data_scale = 0.25});
  const NasRun run = run_nas(app, fast_cfg(TransferMode::kLCS));
  EXPECT_EQ(run.trace.records.size(), 24u);
  EXPECT_EQ(run.store->count(), 24u);
  EXPECT_EQ(run.mode, TransferMode::kLCS);
}

TEST_F(RunnerFixture, BaselineStoreStaysEmpty) {
  const AppConfig app = make_app(AppId::kMnist, 3, {.data_scale = 0.25});
  const NasRun run = run_nas(app, fast_cfg(TransferMode::kNone));
  EXPECT_EQ(run.store->count(), 0u);
}

TEST_F(RunnerFixture, TopKReturnsDistinctSortedArchs) {
  const AppConfig app = make_app(AppId::kMnist, 3, {.data_scale = 0.25});
  const NasRun run = run_nas(app, fast_cfg(TransferMode::kLCS, 30));
  const auto top = top_k(run.trace, 5);
  ASSERT_LE(top.size(), 5u);
  std::set<std::uint64_t> hashes;
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_TRUE(hashes.insert(arch_hash(top[i].arch)).second);
    if (i > 0) EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

TEST_F(RunnerFixture, TopKHandlesKLargerThanTrace) {
  const AppConfig app = make_app(AppId::kMnist, 3, {.data_scale = 0.25});
  const NasRun run = run_nas(app, fast_cfg(TransferMode::kNone, 8));
  EXPECT_LE(top_k(run.trace, 100).size(), 8u);
}

TEST_F(RunnerFixture, FullTrainResumeFromOwnCheckpointIsResume) {
  const AppConfig app = make_app(AppId::kMnist, 3, {.data_scale = 0.25});
  const NasRun run = run_nas(app, fast_cfg(TransferMode::kLCS, 16));
  const auto top = top_k(run.trace, 1);
  ASSERT_FALSE(top.empty());
  const Checkpoint ckpt = run.store->get(top[0].ckpt_key).first;
  const FullTrainResult resumed = full_train(app, top[0].arch, &ckpt, TransferMode::kLCS,
                                             {.seed = 3, .with_full_pass = false});
  const FullTrainResult scratch = full_train(app, top[0].arch, nullptr, TransferMode::kNone,
                                             {.seed = 3, .with_full_pass = false});
  EXPECT_GT(resumed.early_stop_objective, 0.0);
  EXPECT_GT(resumed.param_count, 0);
  EXPECT_GT(scratch.early_stop_epochs, 0);
  EXPECT_LE(resumed.early_stop_epochs, app.full_train_max_epochs);
}

TEST(PairStudy, ShareableFractionWithinBounds) {
  const SearchSpace space = make_uno_space();
  const ShareableStudyResult r = shareable_pairs_study(space, 50, 1);
  EXPECT_EQ(r.pairs, 50);
  EXPECT_GE(r.shareable, 0);
  EXPECT_LE(r.shareable, 50);
  EXPECT_GE(r.fraction(), 0.0);
  EXPECT_LE(r.fraction(), 1.0);
}

TEST(PairStudy, UnoIsHighlyShareable) {
  // All Uno VNs share one choice set, so layer signatures overlap with high
  // probability (paper Fig. 2 reports ~100% for Uno; our downscaled space
  // has fewer repeated widths, landing somewhat lower but still well above
  // the MNIST/NT3 regime).
  const ShareableStudyResult r = shareable_pairs_study(make_uno_space(), 40, 2);
  EXPECT_GT(r.fraction(), 0.6);
}

TEST(PairStudy, OutcomeClassification) {
  PairOutcome o;
  o.lp_layers = 0;
  o.lcs_layers = 3;
  o.score_random = 0.5;
  o.score_lp = 0.9;
  o.score_lcs = 0.6;
  EXPECT_FALSE(o.transferable(TransferMode::kLP));
  EXPECT_TRUE(o.transferable(TransferMode::kLCS));
  EXPECT_FALSE(o.positive(TransferMode::kLP));  // not transferable -> not positive
  EXPECT_TRUE(o.positive(TransferMode::kLCS));
}

TEST(PairStudy, SummaryCountsAreConsistent) {
  std::vector<PairOutcome> outcomes(10);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i].lcs_layers = i % 2;  // half transferable
    outcomes[i].score_random = 0.5;
    outcomes[i].score_lcs = i % 4 == 1 ? 0.6 : 0.4;
  }
  const TransferScopeSummary s = summarize(outcomes, TransferMode::kLCS);
  EXPECT_EQ(s.pairs, 10);
  EXPECT_EQ(s.transferable, 5);
  EXPECT_EQ(s.positive + s.negative, s.transferable);
}

TEST(PairStudy, StratifiedStudyPopulatesDistanceBuckets) {
  AppConfig app = make_app(AppId::kMnist, 5, {.data_scale = 0.1});
  PairStudyConfig cfg;
  cfg.n_pairs = 12;
  cfg.seed = 5;
  cfg.stratify_by_distance = true;
  cfg.max_d = 4;
  const auto outcomes = run_pair_study(app, cfg);
  ASSERT_EQ(outcomes.size(), 12u);
  const auto buckets = summarize_by_distance(outcomes, TransferMode::kLCS);
  EXPECT_GE(buckets.size(), 2u);
  for (const auto& [d, summary] : buckets) {
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 4);
    EXPECT_GT(summary.pairs, 0);
  }
}

TEST(PairStudy, UniformStudyComputesBothModes) {
  AppConfig app = make_app(AppId::kMnist, 6, {.data_scale = 0.1});
  PairStudyConfig cfg;
  cfg.n_pairs = 6;
  cfg.seed = 6;
  const auto outcomes = run_pair_study(app, cfg);
  for (const auto& o : outcomes) {
    EXPECT_GE(o.d, 1);
    EXPECT_LE(o.lp_layers, o.lcs_layers);  // LP subset of LCS
  }
}

TEST(Report, TableFormatsAligned) {
  TableReport table({"a", "long header", "c"});
  table.add_row({"1", "2"});
  table.add_row({"wide cell", "x", "y"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long header"), std::string::npos);
  EXPECT_NE(out.find("wide cell"), std::string::npos);
  EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(Report, CellHelpers) {
  EXPECT_EQ(TableReport::cell(0.8234, 3), "0.823");
  EXPECT_EQ(TableReport::cell(1.5, 1), "1.5");
  EXPECT_EQ(TableReport::cell_pct(0.5), "50.0%");
  EXPECT_EQ(TableReport::cell_pm(0.8, 0.1, 1), "0.8 +- 0.1");
}

}  // namespace
}  // namespace swt
