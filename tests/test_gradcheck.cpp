// Numerical-vs-analytic gradient verification for every layer type, driven
// through real Sequential networks with both loss functions.
#include <gtest/gtest.h>

#include <memory>

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/misc.hpp"
#include "nn/pool.hpp"

namespace swt {
namespace {

/// Runs a gradient check of `net` with cross-entropy loss on random data.
GradCheckResult check_with_ce(Sequential& net, const Shape& sample_shape, int n_classes,
                              std::uint64_t seed) {
  Rng data_rng(seed);
  Tensor x(sample_shape.prepend(4));
  x.randn(data_rng, 1.0f);
  std::vector<int> labels;
  for (int i = 0; i < 4; ++i)
    labels.push_back(static_cast<int>(data_rng.uniform_index(n_classes)));

  Rng init_rng(seed + 1);
  net.init(init_rng);

  // Dropout (if present) must draw identical masks on every forward; we
  // reseed its stream before each evaluation.
  Rng dropout_rng(seed + 2);
  const auto run_forward = [&]() -> Tensor {
    dropout_rng.reseed(seed + 2);
    net.set_train_rng(&dropout_rng);
    return net.forward1(x, /*train=*/true);
  };
  const auto loss_fn = [&]() -> double {
    return softmax_cross_entropy(run_forward(), labels).loss;
  };
  const auto backward_fn = [&] {
    const LossResult lr = softmax_cross_entropy(run_forward(), labels);
    net.backward(lr.grad);
  };
  Rng pick_rng(seed + 3);
  return check_gradients(net, loss_fn, backward_fn, pick_rng);
}

GradCheckResult check_with_mae(Sequential& net, const Shape& sample_shape,
                               std::uint64_t seed) {
  Rng data_rng(seed);
  Tensor x(sample_shape.prepend(4));
  x.randn(data_rng, 1.0f);
  Tensor y(Shape{4, 1});
  y.randn(data_rng, 1.0f);

  Rng init_rng(seed + 1);
  net.init(init_rng);
  const auto loss_fn = [&]() -> double {
    return mae_loss(net.forward1(x, true), y).loss;
  };
  const auto backward_fn = [&] {
    const LossResult lr = mae_loss(net.forward1(x, true), y);
    net.backward(lr.grad);
  };
  Rng pick_rng(seed + 3);
  return check_gradients(net, loss_fn, backward_fn, pick_rng);
}

Sequential make_net(std::vector<LayerPtr> layers) { return Sequential(std::move(layers)); }

TEST(GradCheck, DenseOnly) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("d0", 6, 5));
  layers.push_back(std::make_unique<Dense>("d1", 5, 3));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{6}, 3, 10);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel err " << r.max_rel_err;
}

TEST(GradCheck, DenseWithActivations) {
  for (ActKind act : {ActKind::kRelu, ActKind::kTanh, ActKind::kSigmoid}) {
    std::vector<LayerPtr> layers;
    layers.push_back(std::make_unique<Dense>("d0", 5, 8));
    layers.push_back(std::make_unique<Activation>(act));
    layers.push_back(std::make_unique<Dense>("d1", 8, 3));
    Sequential net = make_net(std::move(layers));
    const auto r = check_with_ce(net, Shape{5}, 3, 20 + static_cast<int>(act));
    EXPECT_TRUE(r.passed) << to_string(act) << ": worst " << r.worst_param << " rel "
                          << r.max_rel_err;
  }
}

TEST(GradCheck, Conv2DStack) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Conv2D>("c0", 3, 2, 3, Padding::kSame));
  layers.push_back(std::make_unique<Activation>(ActKind::kRelu));
  layers.push_back(std::make_unique<Conv2D>("c1", 3, 3, 2, Padding::kValid));
  layers.push_back(std::make_unique<Flatten>());
  layers.push_back(std::make_unique<Dense>("d", 2 * 3 * 3, 3));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{5, 5, 2}, 3, 30);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

TEST(GradCheck, Conv1DStack) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Conv1D>("c0", 3, 1, 4, Padding::kSame));
  layers.push_back(std::make_unique<Activation>(ActKind::kTanh));
  layers.push_back(std::make_unique<Conv1D>("c1", 3, 4, 2, Padding::kValid));
  layers.push_back(std::make_unique<Flatten>());
  layers.push_back(std::make_unique<Dense>("d", 2 * 6, 2));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{8, 1}, 2, 40);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

// Strided convs exercise the patch tables' stride/pad geometry: output taps
// sample non-contiguous input windows and "same" padding is asymmetric.
TEST(GradCheck, Conv2DStride2Same) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Conv2D>("c0", 3, 2, 3, Padding::kSame, 0.0f,
                                            /*stride=*/2));
  layers.push_back(std::make_unique<Activation>(ActKind::kTanh));
  layers.push_back(std::make_unique<Flatten>());
  layers.push_back(std::make_unique<Dense>("d", 3 * 3 * 3, 3));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{5, 5, 2}, 3, 31);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

TEST(GradCheck, Conv2DStride2Valid) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Conv2D>("c0", 3, 1, 3, Padding::kValid, 0.0f,
                                            /*stride=*/2));
  layers.push_back(std::make_unique<Flatten>());
  layers.push_back(std::make_unique<Dense>("d", 3 * 2 * 2, 2));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{6, 6, 1}, 2, 32);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

TEST(GradCheck, Conv1DStride2Padded) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Conv1D>("c0", 3, 1, 4, Padding::kSame, 0.0f,
                                            /*stride=*/2));
  layers.push_back(std::make_unique<Activation>(ActKind::kRelu));
  layers.push_back(std::make_unique<Flatten>());
  layers.push_back(std::make_unique<Dense>("d", 4 * 5, 2));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{9, 1}, 2, 41);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

TEST(GradCheck, MaxPooling2D) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Conv2D>("c0", 3, 1, 2, Padding::kSame));
  layers.push_back(std::make_unique<MaxPool2D>(2, 2));
  layers.push_back(std::make_unique<Flatten>());
  layers.push_back(std::make_unique<Dense>("d", 2 * 3 * 3, 3));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{6, 6, 1}, 3, 50);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

TEST(GradCheck, MaxPooling1D) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Conv1D>("c0", 3, 1, 3, Padding::kSame));
  layers.push_back(std::make_unique<MaxPool1D>(2, 2));
  layers.push_back(std::make_unique<Flatten>());
  layers.push_back(std::make_unique<Dense>("d", 3 * 5, 2));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{10, 1}, 2, 60);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

TEST(GradCheck, BatchNormTrainMode) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("d0", 4, 6));
  layers.push_back(std::make_unique<BatchNorm>("bn", 6));
  layers.push_back(std::make_unique<Activation>(ActKind::kRelu));
  layers.push_back(std::make_unique<Dense>("d1", 6, 3));
  Sequential net = make_net(std::move(layers));
  // Running stats drift across loss_fn invocations is irrelevant to the
  // gradient: train-mode forward uses *batch* statistics only.
  const auto r = check_with_ce(net, Shape{4}, 3, 70);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

TEST(GradCheck, BatchNormOnConvChannels) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Conv2D>("c0", 3, 1, 3, Padding::kSame));
  layers.push_back(std::make_unique<BatchNorm>("bn", 3));
  layers.push_back(std::make_unique<Flatten>());
  layers.push_back(std::make_unique<Dense>("d", 3 * 4 * 4, 2));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{4, 4, 1}, 2, 80);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

TEST(GradCheck, DropoutWithFixedMask) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("d0", 5, 10));
  layers.push_back(std::make_unique<Dropout>(0.3));
  layers.push_back(std::make_unique<Dense>("d1", 10, 3));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{5}, 3, 90);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

TEST(GradCheck, MaeRegressionHead) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("d0", 6, 8));
  layers.push_back(std::make_unique<Activation>(ActKind::kTanh));
  layers.push_back(std::make_unique<Dense>("d1", 8, 1));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_mae(net, Shape{6}, 100);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

TEST(GradCheck, DeepMixedStack) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Conv2D>("c0", 3, 2, 4, Padding::kSame));
  layers.push_back(std::make_unique<BatchNorm>("bn0", 4));
  layers.push_back(std::make_unique<Activation>(ActKind::kRelu));
  layers.push_back(std::make_unique<MaxPool2D>(2, 2));
  layers.push_back(std::make_unique<Conv2D>("c1", 3, 4, 4, Padding::kSame));
  layers.push_back(std::make_unique<Activation>(ActKind::kTanh));
  layers.push_back(std::make_unique<Flatten>());
  layers.push_back(std::make_unique<Dense>("d0", 4 * 3 * 3, 8));
  layers.push_back(std::make_unique<Activation>(ActKind::kSigmoid));
  layers.push_back(std::make_unique<Dense>("d1", 8, 4));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{6, 6, 2}, 4, 110);
  EXPECT_TRUE(r.passed) << "worst " << r.worst_param << " rel " << r.max_rel_err;
}

/// Property sweep: gradcheck passes for a family of dense widths.
class DenseWidthSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DenseWidthSweep, GradientsMatch) {
  const std::int64_t width = GetParam();
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("d0", 4, width));
  layers.push_back(std::make_unique<Activation>(ActKind::kRelu));
  layers.push_back(std::make_unique<Dense>("d1", width, 2));
  Sequential net = make_net(std::move(layers));
  const auto r = check_with_ce(net, Shape{4}, 2,
                               200 + static_cast<std::uint64_t>(width));
  EXPECT_TRUE(r.passed) << "width " << width << " worst " << r.worst_param << " rel "
                        << r.max_rel_err;
}

INSTANTIATE_TEST_SUITE_P(Widths, DenseWidthSweep, ::testing::Values(1, 2, 3, 8, 16, 33));

}  // namespace
}  // namespace swt
