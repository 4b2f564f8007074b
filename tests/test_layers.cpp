#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/misc.hpp"
#include "nn/pool.hpp"
#include "tensor/kernels.hpp"

namespace swt {
namespace {

TEST(Dense, ForwardAffineTransform) {
  Dense layer("d", 2, 3);
  std::vector<ParamRef> params;
  layer.collect_params(params);
  ASSERT_EQ(params.size(), 2u);
  // W = [[1,2,3],[4,5,6]], b = [0.5, -0.5, 1]
  *params[0].value = Tensor(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  *params[1].value = Tensor(Shape{3}, {0.5f, -0.5f, 1.0f});
  Tensor x(Shape{1, 2}, {1, 2});
  Tensor y = layer.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 3}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 9.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 11.5f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 16.0f);
}

TEST(Dense, RejectsBadInput) {
  Dense layer("d", 3, 2);
  Tensor x(Shape{1, 4});
  EXPECT_THROW((void)layer.forward(x, false), std::invalid_argument);
  EXPECT_THROW(Dense("d", 0, 2), std::invalid_argument);
}

TEST(Dense, ParamNamesAndDecay) {
  Dense layer("blk/fc1", 2, 2, 0.01f);
  std::vector<ParamRef> params;
  layer.collect_params(params);
  EXPECT_EQ(params[0].name, "blk/fc1/W");
  EXPECT_EQ(params[1].name, "blk/fc1/b");
  EXPECT_FLOAT_EQ(params[0].weight_decay, 0.01f);
  EXPECT_FLOAT_EQ(params[1].weight_decay, 0.0f);  // bias is not regularised
}

TEST(Dense, InitIsBoundedGlorot) {
  Dense layer("d", 100, 100);
  Rng rng(1);
  layer.init(rng);
  std::vector<ParamRef> params;
  layer.collect_params(params);
  const float limit = std::sqrt(6.0f / 200.0f);
  for (float v : params[0].value->values()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
  for (float v : params[1].value->values()) EXPECT_EQ(v, 0.0f);
}

TEST(ConvOutExtent, SameAndValid) {
  EXPECT_EQ(conv_out_extent(8, 3, Padding::kSame), 8);
  EXPECT_EQ(conv_out_extent(8, 3, Padding::kValid), 6);
  EXPECT_EQ(conv_out_extent(3, 3, Padding::kValid), 1);
  EXPECT_EQ(conv_out_extent(2, 3, Padding::kValid), 0);
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  // 1x1 kernel with weight 1: output == input.
  Conv2D conv("c", 1, 1, 1, Padding::kSame);
  std::vector<ParamRef> params;
  conv.collect_params(params);
  params[0].value->fill(1.0f);
  Tensor x(Shape{1, 2, 2, 1}, {1, 2, 3, 4});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2D, ValidPaddingBoxFilter) {
  // 2x2 all-ones kernel, valid padding: each output = sum of 2x2 window.
  Conv2D conv("c", 2, 1, 1, Padding::kValid);
  std::vector<ParamRef> params;
  conv.collect_params(params);
  params[0].value->fill(1.0f);
  Tensor x(Shape{1, 3, 3, 1}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 2, 2, 1}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 12.0f);  // 1+2+4+5
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 0), 16.0f);  // 2+3+5+6
  EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), 24.0f);  // 4+5+7+8
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 0), 28.0f);  // 5+6+8+9
}

TEST(Conv2D, SamePaddingZeroesOutside) {
  Conv2D conv("c", 3, 1, 1, Padding::kSame);
  std::vector<ParamRef> params;
  conv.collect_params(params);
  params[0].value->fill(1.0f);
  Tensor x(Shape{1, 2, 2, 1}, {1, 1, 1, 1});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
  // Corner sees only the 2x2 in-bounds part of the 3x3 window.
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);
}

TEST(Conv2D, BiasIsAdded) {
  Conv2D conv("c", 1, 1, 2, Padding::kSame);
  std::vector<ParamRef> params;
  conv.collect_params(params);
  params[0].value->zero();
  *params[1].value = Tensor(Shape{2}, {1.5f, -2.0f});
  Tensor x(Shape{1, 1, 1, 1}, {3.0f});
  Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), -2.0f);
}

TEST(Conv1D, ValidBoxFilter) {
  Conv1D conv("c", 2, 1, 1, Padding::kValid);
  std::vector<ParamRef> params;
  conv.collect_params(params);
  params[0].value->fill(1.0f);
  Tensor x(Shape{1, 4, 1}, {1, 2, 3, 4});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 3, 1}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2, 0), 7.0f);
}

TEST(Conv1D, MultiChannelShapes) {
  Conv1D conv("c", 3, 2, 5, Padding::kSame);
  Tensor x(Shape{2, 8, 2});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 8, 5}));
}

TEST(MaxPool2D, PicksWindowMaxima) {
  MaxPool2D pool(2, 2);
  Tensor x(Shape{1, 4, 4, 1},
           {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 2, 2, 1}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 0), 8.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), 14.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 0), 16.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D pool(2, 2);
  Tensor x(Shape{1, 2, 2, 1}, {1, 9, 2, 3});
  Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 9.0f);
  Tensor dy(Shape{1, 1, 1, 1}, {5.0f});
  Tensor dx = pool.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 5.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
  EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(MaxPool1D, StrideAndWindow) {
  MaxPool1D pool(3, 2);
  Tensor x(Shape{1, 7, 1}, {1, 5, 2, 7, 3, 1, 9});
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 3, 1}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0), 7.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2, 0), 9.0f);
}

// Windows with no value above -inf, or with a NaN, must keep their
// gradient inside the window.  Image 1 of each input holds the window under
// test; image 0 is finite, so a gradient leaking to flat index 0 shows.
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

struct PoolWindowCase {
  const char* name;
  float window[4];
  bool nan_out;             // the window's output is NaN
  std::int64_t grad_tap;    // tap of the window that receives its gradient
};

const PoolWindowCase kPoolWindowCases[] = {
    {"all -inf", {-kInf, -kInf, -kInf, -kInf}, false, 0},
    {"all NaN", {kNan, kNan, kNan, kNan}, true, 3},
    {"one NaN", {1.0f, kNan, 3.0f, 2.0f}, true, 1},
};

void expect_window_routing(Layer& pool, const Shape& shape, const PoolWindowCase& c) {
  SCOPED_TRACE(c.name);
  std::vector<float> data = {1, 4, 3, 2};
  data.insert(data.end(), c.window, c.window + 4);
  const Tensor y = pool.forward(Tensor(shape, data), false);
  ASSERT_EQ(y.numel(), 2);
  EXPECT_EQ(y[0], 4.0f);
  if (c.nan_out)
    EXPECT_TRUE(std::isnan(y[1])) << y[1];
  else
    EXPECT_EQ(y[1], -kInf);
  Tensor dy(y.shape(), {1.0f, 100.0f});
  const Tensor dx = pool.backward(dy);
  for (std::int64_t i = 0; i < 8; ++i) {
    const float want = i == 1 ? 1.0f : i == 4 + c.grad_tap ? 100.0f : 0.0f;
    EXPECT_EQ(want, dx[static_cast<std::size_t>(i)]) << "dx[" << i << "]";
  }
}

TEST(MaxPool2D, GradientStaysInsideItsWindow) {
  for (const PoolWindowCase& c : kPoolWindowCases) {
    MaxPool2D pool(2, 2);
    expect_window_routing(pool, Shape{2, 2, 2, 1}, c);
  }
}

TEST(MaxPool1D, GradientStaysInsideItsWindow) {
  for (const PoolWindowCase& c : kPoolWindowCases) {
    MaxPool1D pool(4, 4);
    expect_window_routing(pool, Shape{2, 4, 1}, c);
  }
}

TEST(MaxPool2D, ThrowsWhenWindowTooLarge) {
  MaxPool2D pool(4, 4);
  Tensor x(Shape{1, 2, 2, 1});
  EXPECT_THROW((void)pool.forward(x, false), std::invalid_argument);
}

TEST(BatchNorm, NormalisesBatchStatistics) {
  BatchNorm bn("bn", 2);
  Tensor x(Shape{4, 2}, {1, 10, 2, 20, 3, 30, 4, 40});
  Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1 after normalisation (gamma=1, beta=0).
  for (std::int64_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t i = 0; i < 4; ++i) mean += y.at(i, c);
    mean /= 4.0;
    for (std::int64_t i = 0; i < 4; ++i) var += (y.at(i, c) - mean) * (y.at(i, c) - mean);
    var /= 4.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-2);  // epsilon skews slightly
  }
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  BatchNorm bn("bn", 1);
  // Drive running stats towards the batch stats with many train steps.
  Tensor x(Shape{4, 1}, {2, 4, 6, 8});
  for (int i = 0; i < 400; ++i) (void)bn.forward(x, true);
  Tensor probe(Shape{1, 1}, {5.0f});  // the batch mean
  Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y[0], 0.0f, 0.05f);
}

TEST(BatchNorm, ExposesFourPersistedTensors) {
  BatchNorm bn("bn", 3);
  std::vector<ParamRef> params;
  bn.collect_params(params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_TRUE(params[0].trainable);   // gamma
  EXPECT_TRUE(params[1].trainable);   // beta
  EXPECT_FALSE(params[2].trainable);  // moving_mean
  EXPECT_FALSE(params[3].trainable);  // moving_var
  EXPECT_EQ(params[2].grad, nullptr);
}

TEST(Activation, ReluTanhSigmoidValues) {
  Tensor x(Shape{4}, {-2.0f, -0.5f, 0.0f, 1.5f});
  Activation relu(ActKind::kRelu);
  Tensor yr = relu.forward(x, false);
  EXPECT_FLOAT_EQ(yr[0], 0.0f);
  EXPECT_FLOAT_EQ(yr[3], 1.5f);

  Activation tanh_act(ActKind::kTanh);
  Tensor yt = tanh_act.forward(x, false);
  EXPECT_NEAR(yt[3], std::tanh(1.5f), 1e-6);

  Activation sig(ActKind::kSigmoid);
  Tensor ys = sig.forward(x, false);
  EXPECT_NEAR(ys[2], 0.5f, 1e-6);
  EXPECT_NEAR(ys[0], 1.0f / (1.0f + std::exp(2.0f)), 1e-6);
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout drop(0.5);
  Tensor x(Shape{8}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor y = drop.forward(x, false);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainModeZeroesAndRescales) {
  Dropout drop(0.5);
  Rng rng(1);
  drop.set_train_rng(&rng);
  Tensor x(Shape{10000});
  x.fill(1.0f);
  Tensor y = drop.forward(x, true);
  int zeros = 0;
  double sum = 0.0;
  for (float v : y.values()) {
    if (v == 0.0f) ++zeros;
    else EXPECT_FLOAT_EQ(v, 2.0f);  // survivors scaled by 1/(1-0.5)
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.06);  // expectation preserved
}

// The branch-free ReLU backward and dropout forward against the loops they
// replaced, kept here as references: byte-identical outputs, the same
// draws in the same order.
bool same_bytes(const Tensor& a, const std::vector<float>& b) {
  return a.numel() == static_cast<std::int64_t>(b.size()) &&
         std::memcmp(a.data(), b.data(), b.size() * sizeof(float)) == 0;
}

TEST(Activation, ReluBackwardMatchesBranchingLoop) {
  const float specials[] = {kNan, -kNan, 0.0f, -0.0f, kInf, -kInf, 1.5f, -2.5f, 1e-40f};
  std::vector<float> xs, ds;
  for (const float xv : specials)
    for (const float dv : specials) {
      xs.push_back(xv);
      ds.push_back(dv);
    }
  const Shape shape{static_cast<std::int64_t>(xs.size())};
  Activation relu(ActKind::kRelu);
  (void)relu.forward(Tensor(shape, xs), true);
  const Tensor dx = relu.backward(Tensor(shape, ds));
  std::vector<float> want(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) want[i] = xs[i] > 0.0f ? ds[i] : 0.0f;
  EXPECT_TRUE(same_bytes(dx, want));
}

// The tanh forward runs the lane kernel: its output must be the bytes the
// scalar fdlibm loop gives, specials included.
TEST(Activation, TanhForwardMatchesNaiveLoop) {
  // Beside the specials, one value per expm1f branch: k = 0, -1, <= -2,
  // 2-22, 23-56 and > 56 (k = round(2|x| / ln2)).
  std::vector<float> xs = {kNan, -kNan, 0.0f, -0.0f, kInf, -kInf, 1e-40f, -1e-20f,
                           0.1f, -0.5f, 0.9f, -1.0f, 3.0f, -8.5f, 12.0f, -19.9f,
                           22.0f, -30.0f};
  Rng fill(5);
  while (xs.size() < 1003) xs.push_back(static_cast<float>(fill.uniform(-6.0, 6.0)));
  const Shape shape{static_cast<std::int64_t>(xs.size())};
  Activation act(ActKind::kTanh);
  const Tensor y = act.forward(Tensor(shape, xs), false);
  std::vector<float> want(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) kernels::naive::tanh(&xs[i], &want[i], 1);
  EXPECT_TRUE(same_bytes(y, want));
}

TEST(Dropout, ForwardMatchesBranchingLoop) {
  for (const double rate : {0.3, 0.5}) {
    SCOPED_TRACE(rate);
    const std::int64_t n = 1003;
    Tensor x(Shape{n});
    Rng fill(9);
    for (std::int64_t i = 0; i < n; ++i)
      x[static_cast<std::size_t>(i)] = static_cast<float>(fill.uniform(-3.0, 3.0));
    x[0] = kNan;
    x[1] = -kInf;
    x[2] = -0.0f;
    Dropout drop(rate);
    Rng rng(42);
    drop.set_train_rng(&rng);
    const Tensor y = drop.forward(x, true);
    Tensor dy(Shape{n});
    dy.fill(1.0f);
    const Tensor mask = drop.backward(dy);  // 1 * mask = mask

    Rng ref_rng(42);
    const float keep_scale = 1.0f / static_cast<float>(1.0 - rate);
    std::vector<float> y_want(static_cast<std::size_t>(n), 0.0f);
    std::vector<float> mask_want(static_cast<std::size_t>(n), 0.0f);
    for (std::size_t i = 0; i < y_want.size(); ++i) {
      if (!ref_rng.bernoulli(rate)) {
        mask_want[i] = keep_scale;
        y_want[i] = x[i] * keep_scale;
      }
    }
    EXPECT_TRUE(same_bytes(y, y_want));
    EXPECT_TRUE(same_bytes(mask, mask_want));
    EXPECT_TRUE(rng.state() == ref_rng.state());
  }
}

TEST(Dropout, TrainWithoutRngThrows) {
  Dropout drop(0.3);
  Tensor x(Shape{4});
  EXPECT_THROW((void)drop.forward(x, true), std::logic_error);
}

TEST(Dropout, RejectsBadRate) {
  EXPECT_THROW(Dropout(1.0), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1), std::invalid_argument);
  EXPECT_NO_THROW(Dropout(0.0));
}

TEST(Flatten, RoundTripsThroughBackward) {
  Flatten flat;
  Tensor x(Shape{2, 2, 3, 1});
  Tensor y = flat.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 6}));
  Tensor dy(Shape{2, 6});
  dy.fill(1.0f);
  Tensor dx = flat.backward(dy);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(IdentityLayer, PassThrough) {
  IdentityLayer id;
  Tensor x(Shape{2, 2}, {1, 2, 3, 4});
  Tensor y = id.forward(x, true);
  EXPECT_EQ(y, x);
  EXPECT_EQ(id.backward(x), x);
}

class PoolExtentSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(PoolExtentSweep, MatchesFormula) {
  const auto [in, size, stride] = GetParam();
  const std::int64_t expected = in < size ? 0 : (in - size) / stride + 1;
  EXPECT_EQ(pool_out_extent(in, size, stride), expected);
}

INSTANTIATE_TEST_SUITE_P(Extents, PoolExtentSweep,
                         ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 4, 7, 8),
                                            ::testing::Values<std::int64_t>(2, 3),
                                            ::testing::Values<std::int64_t>(1, 2, 3)));

}  // namespace
}  // namespace swt
