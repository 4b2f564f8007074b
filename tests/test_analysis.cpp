#include "exp/analysis.hpp"

#include <gtest/gtest.h>

#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "obs/quality.hpp"

namespace swt {
namespace {

EvalRecord record(long id, double score, long parent = -1,
                  std::size_t transferred = 0) {
  EvalRecord r;
  r.id = id;
  r.score = score;
  r.parent_id = parent;
  r.tensors_transferred = transferred;
  return r;
}

TEST(LineageDepth, ScratchModelsAreDepthOne) {
  Trace trace;
  trace.records = {record(0, 0.1), record(1, 0.2)};
  const auto depth = lineage_depths(trace);
  EXPECT_EQ(depth.at(0), 1);
  EXPECT_EQ(depth.at(1), 1);
}

TEST(LineageDepth, ChainsAccumulate) {
  Trace trace;
  trace.records = {record(0, 0.1), record(1, 0.2, 0, 5), record(2, 0.3, 1, 5),
                   record(3, 0.4, 2, 5)};
  const auto depth = lineage_depths(trace);
  EXPECT_EQ(depth.at(0), 1);
  EXPECT_EQ(depth.at(1), 2);
  EXPECT_EQ(depth.at(2), 3);
  EXPECT_EQ(depth.at(3), 4);
}

TEST(LineageDepth, FailedTransferBreaksTheChain) {
  Trace trace;
  // Record 1 had a parent but transferred nothing (no matching layers).
  trace.records = {record(0, 0.1), record(1, 0.2, 0, 0), record(2, 0.3, 1, 3)};
  const auto depth = lineage_depths(trace);
  EXPECT_EQ(depth.at(1), 1);
  EXPECT_EQ(depth.at(2), 2);
}

TEST(LineageDepth, AnalysisQualityAndRegistryAgreeOnWarmSeededChain) {
  // Record 0 inherits from a warm-start seed (negative id, outside the
  // trace) and record 1 from record 0.  The seed counts as depth 1 in every
  // view, so the chain's depths are 2 and 3.
  Trace trace;
  trace.records = {record(0, 0.5, -2, 4), record(1, 0.6, 0, 4)};
  const auto depth = lineage_depths(trace);
  EXPECT_EQ(depth.at(0), 2);
  EXPECT_EQ(depth.at(1), 3);

  const LineageSummary analysis = summarize_lineage(trace);
  QualityTelemetry quality;
  for (const EvalRecord& r : trace.records)
    (void)quality.observe(QualityObservation{r.id, r.parent_id, r.tensors_transferred > 0,
                                             r.transfer_fallback, r.first_epoch_score,
                                             r.score});
  const RunRecord registry = make_run_record("mnist", NasRunConfig{}, trace, 1.0);

  EXPECT_DOUBLE_EQ(analysis.mean_depth, 2.5);
  EXPECT_DOUBLE_EQ(quality.mean_lineage_depth(), analysis.mean_depth);
  EXPECT_DOUBLE_EQ(registry.mean_lineage_depth, analysis.mean_depth);
  EXPECT_EQ(quality.max_lineage_depth(), analysis.max_depth);
  EXPECT_DOUBLE_EQ(quality.transfer_hit_rate(), analysis.transfer_fraction);
  EXPECT_DOUBLE_EQ(registry.transfer_hit_rate, analysis.transfer_fraction);
}

TEST(LineageSummary, ComputesAggregates) {
  Trace trace;
  trace.records = {record(0, 0.1), record(1, 0.2, 0, 5), record(2, 0.3, 1, 5),
                   record(3, 0.1)};
  const LineageSummary s = summarize_lineage(trace);
  EXPECT_DOUBLE_EQ(s.mean_depth, (1 + 2 + 3 + 1) / 4.0);
  EXPECT_EQ(s.max_depth, 3);
  EXPECT_DOUBLE_EQ(s.transfer_fraction, 0.5);
}

TEST(LineageSummary, EmptyTrace) {
  const LineageSummary s = summarize_lineage(Trace{});
  EXPECT_EQ(s.mean_depth, 0.0);
  EXPECT_EQ(s.max_depth, 0);
}

TEST(ParentChild, CountsImprovements) {
  Trace trace;
  trace.records = {record(0, 0.5), record(1, 0.7, 0, 3),  // improved by 0.2
                   record(2, 0.4, 0, 3),                   // regressed by 0.1
                   record(3, 0.9)};                        // no parent
  const ParentChildStats s = parent_child_stats(trace);
  EXPECT_EQ(s.pairs, 2);
  EXPECT_EQ(s.child_improved, 1);
  EXPECT_NEAR(s.mean_delta, (0.2 - 0.1) / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.improved_fraction(), 0.5);
}

TEST(ParentChild, IgnoresNonTransferredChildren) {
  Trace trace;
  trace.records = {record(0, 0.5), record(1, 0.9, 0, 0)};
  EXPECT_EQ(parent_child_stats(trace).pairs, 0);
}

TEST(MeanScoreByDepth, BucketsCorrectly) {
  Trace trace;
  trace.records = {record(0, 0.2), record(1, 0.4), record(2, 0.8, 0, 2)};
  const auto by_depth = mean_score_by_depth(trace);
  EXPECT_NEAR(by_depth.at(1), 0.3, 1e-12);
  EXPECT_NEAR(by_depth.at(2), 0.8, 1e-12);
}

TEST(AnalysisIntegration, LcsRunsAccumulateLineage) {
  // An LCS NAS run must show deeper lineages than depth-1 everywhere, and
  // depth should correlate with score on a learnable app.
  const AppConfig app = make_app(AppId::kMnist, 13, {.data_scale = 0.5});
  NasRunConfig cfg;
  cfg.mode = TransferMode::kLCS;
  cfg.n_evals = 48;
  cfg.seed = 13;
  cfg.cluster.num_workers = 4;
  cfg.evolution = {.population_size = 8, .sample_size = 4};
  const NasRun run = run_nas(app, cfg);

  const LineageSummary s = summarize_lineage(run.trace);
  EXPECT_GT(s.max_depth, 2);
  EXPECT_GT(s.transfer_fraction, 0.4);

  const auto by_depth = mean_score_by_depth(run.trace);
  ASSERT_GE(by_depth.size(), 2u);
  // Depth >= 3 candidates should on average beat depth-1 (scratch) ones.
  if (by_depth.contains(3)) EXPECT_GT(by_depth.at(3), by_depth.at(1) - 0.05);
}

TEST(AnalysisIntegration, BaselineHasNoLineage) {
  const AppConfig app = make_app(AppId::kMnist, 13, {.data_scale = 0.2});
  NasRunConfig cfg;
  cfg.mode = TransferMode::kNone;
  cfg.n_evals = 16;
  cfg.seed = 13;
  cfg.cluster.num_workers = 4;
  const NasRun run = run_nas(app, cfg);
  const LineageSummary s = summarize_lineage(run.trace);
  EXPECT_DOUBLE_EQ(s.mean_depth, 1.0);
  EXPECT_DOUBLE_EQ(s.transfer_fraction, 0.0);
}

}  // namespace
}  // namespace swt
