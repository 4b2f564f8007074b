#include "nn/adam.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/misc.hpp"
#include "nn/network.hpp"
#include "tensor/kernels.hpp"

namespace swt {
namespace {

/// A single free parameter with an externally computed gradient.
struct Param {
  Tensor w{Shape{1}};
  Tensor g{Shape{1}};
  std::vector<ParamRef> refs(float wd = 0.0f, bool trainable = true) {
    return {{"w", &w, &g, wd, trainable}};
  }
};

TEST(Adam, FirstStepMagnitudeIsLearningRate) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  Param p;
  p.w[0] = 1.0f;
  p.g[0] = 0.37f;
  Adam adam({.lr = 0.01});
  auto refs = p.refs();
  adam.step(refs);
  EXPECT_NEAR(p.w[0], 1.0f - 0.01f, 1e-4);
}

TEST(Adam, MinimisesQuadratic) {
  // f(w) = (w - 3)^2; grad = 2 (w - 3).
  Param p;
  p.w[0] = -5.0f;
  Adam adam({.lr = 0.05});
  auto refs = p.refs();
  for (int i = 0; i < 2000; ++i) {
    p.g[0] = 2.0f * (p.w[0] - 3.0f);
    adam.step(refs);
  }
  EXPECT_NEAR(p.w[0], 3.0f, 0.05f);
}

TEST(Adam, SkipsNonTrainableParams) {
  Param p;
  p.w[0] = 2.0f;
  p.g[0] = 1.0f;
  Adam adam;
  auto refs = p.refs(0.0f, /*trainable=*/false);
  adam.step(refs);
  EXPECT_EQ(p.w[0], 2.0f);
}

TEST(Adam, NullGradIsSkipped) {
  Tensor w(Shape{1});
  w[0] = 5.0f;
  std::vector<ParamRef> refs = {{"w", &w, nullptr, 0.0f, true}};
  Adam adam;
  adam.step(refs);
  EXPECT_EQ(w[0], 5.0f);
}

TEST(Adam, WeightDecayPullsTowardsZero) {
  // Zero loss gradient, only the L2 term acts: w must shrink.
  Param p;
  p.w[0] = 1.0f;
  p.g[0] = 0.0f;
  Adam adam({.lr = 0.01});
  auto refs = p.refs(/*wd=*/0.1f);
  for (int i = 0; i < 200; ++i) {
    p.g[0] = 0.0f;
    adam.step(refs);
  }
  EXPECT_LT(std::fabs(p.w[0]), 0.5f);
}

TEST(Adam, IterationCounterAdvances) {
  Param p;
  Adam adam;
  auto refs = p.refs();
  EXPECT_EQ(adam.iterations(), 0);
  adam.step(refs);
  adam.step(refs);
  EXPECT_EQ(adam.iterations(), 2);
}

TEST(Adam, ParameterListChangeThrows) {
  Param p;
  Adam adam;
  auto refs = p.refs();
  adam.step(refs);
  Param q;
  auto refs2 = q.refs();
  refs2.push_back(refs[0]);
  EXPECT_THROW(adam.step(refs2), std::logic_error);
}

TEST(Adam, ParameterShapeChangeThrows) {
  // Same list length, but the tensor behind slot 0 grew: its m/v slots hold
  // 2 elements, so stepping it would read and write past them.
  Tensor w(Shape{2}), g(Shape{2});
  std::vector<ParamRef> refs = {{"w", &w, &g, 0.0f, true}};
  Adam adam;
  adam.step(refs);
  Tensor big(Shape{4096}), big_grad(Shape{4096});
  big_grad.fill(1.0f);
  std::vector<ParamRef> swapped = {{"w", &big, &big_grad, 0.0f, true}};
  EXPECT_THROW(adam.step(swapped), std::logic_error);
  EXPECT_EQ(big.sum_squares(), 0.0);
  EXPECT_EQ(adam.iterations(), 1);
}

TEST(Adam, GradientShapeMismatchThrows) {
  Tensor w(Shape{4}), g(Shape{2});
  std::vector<ParamRef> refs = {{"w", &w, &g, 0.0f, true}};
  Adam adam;
  EXPECT_THROW(adam.step(refs), std::logic_error);
  EXPECT_EQ(adam.iterations(), 0);
}

std::unique_ptr<Sequential> small_mlp() {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("d0", 6, 16, /*weight_decay=*/5e-4f));
  layers.push_back(std::make_unique<Activation>(ActKind::kRelu));
  layers.push_back(std::make_unique<Dense>("d1", 16, 3));
  return std::make_unique<Sequential>(std::move(layers));
}

TEST(Adam, DenseNetworkMatchesNaiveLoopBitForBit) {
  // Two identically initialised networks see the same batches; one is
  // stepped by Adam::step, the other by the scalar reference loop with the
  // bias-corrected scalars computed here.  Every parameter must end with
  // the same bytes.
  auto net = small_mlp();
  auto ref = small_mlp();
  Rng init_a(3), init_b(3);
  net->init(init_a);
  ref->init(init_b);
  auto params = net->params();
  auto ref_params = ref->params();
  std::vector<std::vector<float>> m(ref_params.size()), v(ref_params.size());
  for (std::size_t i = 0; i < ref_params.size(); ++i) {
    m[i].assign(static_cast<std::size_t>(ref_params[i].value->numel()), 0.0f);
    v[i] = m[i];
  }
  const AdamConfig cfg;
  Adam adam(cfg);
  const std::vector<int> labels = {0, 2, 1, 1, 0, 2, 2, 0};
  const auto train_step = [&](Network& n, int t) {
    Tensor x(Shape{8, 6});
    Rng batch(100 + static_cast<std::uint64_t>(t));  // same batch for both nets
    x.randn(batch, 1.0f);
    n.zero_grads();
    const Tensor logits = n.forward1(x, /*train=*/true);
    n.backward(softmax_cross_entropy(logits, labels).grad);
  };
  for (int t = 1; t <= 5; ++t) {
    train_step(*net, t);
    adam.step(params);
    train_step(*ref, t);
    kernels::AdamStep step{
        .alpha = cfg.lr * std::sqrt(1.0 - std::pow(cfg.beta2, t)) / (1.0 - std::pow(cfg.beta1, t)),
        .epsilon = cfg.epsilon,
        .beta1 = static_cast<float>(cfg.beta1),
        .beta2 = static_cast<float>(cfg.beta2)};
    for (std::size_t i = 0; i < ref_params.size(); ++i) {
      step.weight_decay = ref_params[i].weight_decay;
      kernels::naive::adam_update(ref_params[i].value->data(), ref_params[i].grad->data(),
                                  m[i].data(), v[i].data(), ref_params[i].value->numel(),
                                  step);
    }
  }
  ASSERT_EQ(params.size(), ref_params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& a = *params[i].value;
    const Tensor& b = *ref_params[i].value;
    ASSERT_EQ(a.numel(), b.numel());
    const auto bytes = static_cast<std::size_t>(a.numel()) * sizeof(float);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), bytes), 0) << params[i].name;
  }
}

TEST(Adam, DefaultsMatchPaperSettings) {
  const AdamConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.lr, 1e-3);
  EXPECT_DOUBLE_EQ(cfg.beta1, 0.9);
  EXPECT_DOUBLE_EQ(cfg.beta2, 0.999);
  EXPECT_DOUBLE_EQ(cfg.epsilon, 1e-7);
}

TEST(Adam, ConvergesOnMultiDimQuadratic) {
  Tensor w(Shape{4}, {10, -10, 5, -5});
  Tensor g(Shape{4});
  std::vector<ParamRef> refs = {{"w", &w, &g, 0.0f, true}};
  Adam adam({.lr = 0.1});
  const float targets[4] = {1, 2, 3, 4};
  for (int i = 0; i < 3000; ++i) {
    for (std::size_t j = 0; j < 4; ++j) g[j] = 2.0f * (w[j] - targets[j]);
    adam.step(refs);
  }
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(w[j], targets[j], 0.1f);
}

class AdamLrSweep : public ::testing::TestWithParam<double> {};

TEST_P(AdamLrSweep, FirstStepScalesWithLr) {
  const double lr = GetParam();
  Param p;
  p.w[0] = 0.0f;
  p.g[0] = 1.0f;
  Adam adam({.lr = lr});
  auto refs = p.refs();
  adam.step(refs);
  EXPECT_NEAR(p.w[0], -lr, lr * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Lrs, AdamLrSweep, ::testing::Values(1e-4, 1e-3, 1e-2, 1e-1));

}  // namespace
}  // namespace swt
