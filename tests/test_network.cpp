#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "nas/spaces_zoo.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/misc.hpp"

namespace swt {
namespace {

std::unique_ptr<Sequential> small_mlp(const std::string& prefix, std::int64_t in,
                                      std::int64_t hidden, std::int64_t out) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>(prefix + "/d0", in, hidden));
  layers.push_back(std::make_unique<Activation>(ActKind::kRelu));
  layers.push_back(std::make_unique<Dense>(prefix + "/d1", hidden, out));
  return std::make_unique<Sequential>(std::move(layers));
}

TEST(Sequential, ForwardChainsLayers) {
  auto net = small_mlp("m", 4, 8, 3);
  Rng rng(1);
  net->init(rng);
  Tensor x(Shape{2, 4});
  x.randn(rng, 1.0f);
  Tensor y = net->forward1(x, false);
  EXPECT_EQ(y.shape(), Shape({2, 3}));
}

TEST(Sequential, RejectsMultipleInputs) {
  auto net = small_mlp("m", 4, 8, 3);
  std::vector<Tensor> inputs(2, Tensor(Shape{1, 4}));
  EXPECT_THROW((void)net->forward(inputs, false), std::invalid_argument);
}

TEST(Sequential, ParamNamesAreUnique) {
  auto net = small_mlp("m", 4, 8, 3);
  std::set<std::string> names;
  for (const auto& p : net->params()) EXPECT_TRUE(names.insert(p.name).second) << p.name;
  EXPECT_EQ(names.size(), 4u);  // two dense layers x (W, b)
}

TEST(Sequential, ParamCount) {
  auto net = small_mlp("m", 4, 8, 3);
  EXPECT_EQ(net->param_count(), 4 * 8 + 8 + 8 * 3 + 3);
}

TEST(Sequential, InitIsDeterministicPerSeed) {
  auto a = small_mlp("m", 4, 8, 3);
  auto b = small_mlp("m", 4, 8, 3);
  Rng ra(7), rb(7);
  a->init(ra);
  b->init(rb);
  const auto pa = a->params();
  const auto pb = b->params();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(*pa[i].value, *pb[i].value) << pa[i].name;
}

TEST(Sequential, ZeroGradsClearsAccumulators) {
  auto net = small_mlp("m", 3, 4, 2);
  Rng rng(2);
  net->init(rng);
  Tensor x(Shape{2, 3});
  x.randn(rng, 1.0f);
  (void)net->forward1(x, true);
  Tensor dy(Shape{2, 2});
  dy.fill(1.0f);
  net->backward(dy);
  bool any_nonzero = false;
  for (const auto& p : net->params())
    if (p.grad != nullptr && p.grad->sum_squares() > 0) any_nonzero = true;
  EXPECT_TRUE(any_nonzero);
  net->zero_grads();
  for (const auto& p : net->params())
    if (p.grad != nullptr) EXPECT_EQ(p.grad->sum_squares(), 0.0);
}

TEST(Sequential, GradAccumulatesAcrossBackwards) {
  auto net = small_mlp("m", 3, 4, 2);
  Rng rng(3);
  net->init(rng);
  Tensor x(Shape{1, 3});
  x.randn(rng, 1.0f);
  Tensor dy(Shape{1, 2});
  dy.fill(1.0f);

  (void)net->forward1(x, true);
  net->backward(dy);
  const double once = net->params()[0].grad->sum_squares();
  (void)net->forward1(x, true);
  net->backward(dy);
  const double twice = net->params()[0].grad->sum_squares();
  EXPECT_NEAR(twice, 4.0 * once, 1e-6 * std::abs(once) + 1e-12);  // grad doubled
}

TEST(Sequential, DescribeListsLayers) {
  auto net = small_mlp("m", 4, 8, 3);
  const std::string desc = net->describe();
  EXPECT_NE(desc.find("Dense(8)"), std::string::npos);
  EXPECT_NE(desc.find("Activation(relu)"), std::string::npos);
}

class MultiTowerFixture : public ::testing::Test {
 protected:
  std::unique_ptr<MultiTowerNet> make(bool extra_raw) {
    std::vector<std::unique_ptr<Sequential>> towers;
    towers.push_back(small_mlp("t0", 2, 4, 3));
    towers.push_back(small_mlp("t1", 3, 4, 2));
    const std::int64_t trunk_in = 3 + 2 + (extra_raw ? 4 : 0);
    auto trunk = small_mlp("trunk", trunk_in, 6, 1);
    return std::make_unique<MultiTowerNet>(std::move(towers), std::move(trunk), extra_raw);
  }
};

TEST_F(MultiTowerFixture, NumInputsAccountsForRawInput) {
  EXPECT_EQ(make(false)->num_inputs(), 2u);
  EXPECT_EQ(make(true)->num_inputs(), 3u);
}

TEST_F(MultiTowerFixture, ForwardProducesTrunkOutput) {
  auto net = make(true);
  Rng rng(4);
  net->init(rng);
  std::vector<Tensor> inputs;
  inputs.emplace_back(Shape{5, 2});
  inputs.emplace_back(Shape{5, 3});
  inputs.emplace_back(Shape{5, 4});
  for (auto& t : inputs) t.randn(rng, 1.0f);
  Tensor y = net->forward(inputs, false);
  EXPECT_EQ(y.shape(), Shape({5, 1}));
}

TEST_F(MultiTowerFixture, WrongInputCountThrows) {
  auto net = make(true);
  std::vector<Tensor> inputs(2, Tensor(Shape{1, 2}));
  EXPECT_THROW((void)net->forward(inputs, false), std::invalid_argument);
}

TEST_F(MultiTowerFixture, ConcatenationMatchesManualComposition) {
  auto net = make(true);
  Rng rng(5);
  net->init(rng);

  // Rebuild the same towers/trunk with identical init order to cross-check.
  std::vector<std::unique_ptr<Sequential>> towers;
  towers.push_back(small_mlp("t0", 2, 4, 3));
  towers.push_back(small_mlp("t1", 3, 4, 2));
  auto trunk = small_mlp("trunk", 9, 6, 1);
  Rng rng2(5);
  towers[0]->init(rng2);
  towers[1]->init(rng2);
  trunk->init(rng2);

  std::vector<Tensor> inputs;
  inputs.emplace_back(Shape{3, 2});
  inputs.emplace_back(Shape{3, 3});
  inputs.emplace_back(Shape{3, 4});
  Rng drng(6);
  for (auto& t : inputs) t.randn(drng, 1.0f);

  const Tensor y = net->forward(inputs, false);

  const Tensor t0 = towers[0]->forward1(inputs[0], false);
  const Tensor t1 = towers[1]->forward1(inputs[1], false);
  Tensor cat(Shape{3, 9});
  for (std::int64_t i = 0; i < 3; ++i) {
    float* dst = cat.data() + i * 9;
    for (std::int64_t j = 0; j < 3; ++j) dst[j] = t0.at(i, j);
    for (std::int64_t j = 0; j < 2; ++j) dst[3 + j] = t1.at(i, j);
    for (std::int64_t j = 0; j < 4; ++j) dst[5 + j] = inputs[2].at(i, j);
  }
  const Tensor expected = trunk->forward1(cat, false);
  EXPECT_LT(max_abs_diff(y, expected), 1e-6f);
}

TEST_F(MultiTowerFixture, ParamsCoverTowersAndTrunk) {
  auto net = make(false);
  const auto params = net->params();
  bool has_t0 = false, has_t1 = false, has_trunk = false;
  for (const auto& p : params) {
    has_t0 |= p.name.starts_with("t0/");
    has_t1 |= p.name.starts_with("t1/");
    has_trunk |= p.name.starts_with("trunk/");
  }
  EXPECT_TRUE(has_t0);
  EXPECT_TRUE(has_t1);
  EXPECT_TRUE(has_trunk);
}

TEST_F(MultiTowerFixture, BackwardPopulatesAllTowerGrads) {
  auto net = make(true);
  Rng rng(7);
  net->init(rng);
  std::vector<Tensor> inputs;
  inputs.emplace_back(Shape{4, 2});
  inputs.emplace_back(Shape{4, 3});
  inputs.emplace_back(Shape{4, 4});
  for (auto& t : inputs) t.randn(rng, 1.0f);
  (void)net->forward(inputs, true);
  Tensor dy(Shape{4, 1});
  dy.fill(1.0f);
  net->backward(dy);
  // At least the first dense kernel of each tower should have gradient mass.
  for (const auto& p : net->params()) {
    if (p.name.ends_with("/d0/W") && p.grad != nullptr)
      EXPECT_GT(p.grad->sum_squares(), 0.0) << p.name;
  }
}

// Network::backward skips the first layer's input gradient (its input is
// data).  That may only remove work: on sampled CIFAR and NT3 architectures
// (first layer Conv2D / Conv1D, then pooling, batch-norm, dense, dropout)
// every parameter gradient must equal, byte for byte, that of a twin network
// run through Sequential::backward_to_input, which computes every dL/d(input).
TEST(Sequential, SkippedInputGradientLeavesParamGradsUnchanged) {
  struct App {
    const char* name;
    SearchSpace space;
    int classes;
  };
  const App apps[] = {{"cifar", make_cifar_space(8), 10}, {"nt3", make_nt3_space(384), 2}};
  constexpr std::int64_t kBatch = 8;
  Rng arch_rng(23);
  for (const App& app : apps) {
    std::vector<std::int64_t> dims{kBatch};
    for (const std::int64_t d : app.space.input_shapes.front().dims()) dims.push_back(d);
    for (int sample = 0; sample < 8; ++sample) {
      const ArchSeq arch = app.space.random_arch(arch_rng);
      NetworkPtr net = app.space.build(arch);
      NetworkPtr twin = app.space.build(arch);
      auto* twin_seq = dynamic_cast<Sequential*>(twin.get());
      ASSERT_NE(twin_seq, nullptr) << app.name;
      Rng init_a(100 + sample), init_b(100 + sample);
      net->init(init_a);
      twin->init(init_b);
      Rng drop_a(200 + sample), drop_b(200 + sample);  // identical dropout masks
      net->set_train_rng(&drop_a);
      twin->set_train_rng(&drop_b);

      Rng data_rng(300 + sample);
      Tensor x{Shape(dims)};
      x.randn(data_rng, 1.0f);
      std::vector<int> labels(kBatch);
      for (int& l : labels) l = static_cast<int>(data_rng.uniform_int(0, app.classes - 1));

      const LossResult loss = softmax_cross_entropy(net->forward1(x, true), labels);
      const LossResult twin_loss = softmax_cross_entropy(twin->forward1(x, true), labels);
      ASSERT_EQ(0, std::memcmp(loss.grad.data(), twin_loss.grad.data(),
                               static_cast<std::size_t>(loss.grad.numel()) * sizeof(float)))
          << app.name << " sample " << sample << ": forward passes differ";
      net->backward(loss.grad);
      (void)twin_seq->backward_to_input(twin_loss.grad);

      const std::vector<ParamRef> got = net->params();
      const std::vector<ParamRef> want = twin->params();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].grad == nullptr) continue;
        ASSERT_EQ(got[i].grad->numel(), want[i].grad->numel());
        EXPECT_EQ(0, std::memcmp(got[i].grad->data(), want[i].grad->data(),
                                 static_cast<std::size_t>(got[i].grad->numel()) *
                                     sizeof(float)))
            << app.name << " sample " << sample << " (" << app.space.describe(arch)
            << "): gradient of " << got[i].name << " differs";
      }
    }
  }
}

TEST(MultiTower, RequiresTowersAndTrunk) {
  std::vector<std::unique_ptr<Sequential>> no_towers;
  EXPECT_THROW(MultiTowerNet(std::move(no_towers), std::make_unique<Sequential>(), false),
               std::invalid_argument);
}

}  // namespace
}  // namespace swt
