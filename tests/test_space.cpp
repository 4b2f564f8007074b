#include "nas/spaces_zoo.hpp"

#include <gtest/gtest.h>

#include <set>

namespace swt {
namespace {

TEST(ArchSeq, ToStringAndHash) {
  EXPECT_EQ(arch_to_string({1, 2, 0, 2}), "[1, 2, 0, 2]");
  EXPECT_EQ(arch_to_string({}), "[]");
  EXPECT_EQ(arch_hash({1, 2}), arch_hash({1, 2}));
  EXPECT_NE(arch_hash({1, 2}), arch_hash({2, 1}));
  EXPECT_NE(arch_hash({0}), arch_hash({0, 0}));
}

TEST(ArchSeq, HammingDistance) {
  EXPECT_EQ(hamming_distance({1, 2, 3}, {0, 2, 3}), 1);  // the paper's example
  EXPECT_EQ(hamming_distance({1, 2, 3}, {1, 2, 3}), 0);
  EXPECT_EQ(hamming_distance({1, 2, 3}, {3, 1, 2}), 3);
  EXPECT_THROW((void)hamming_distance({1}, {1, 2}), std::invalid_argument);
}

TEST(SpacesZoo, VariableNodeCountsMatchPaperStructure) {
  EXPECT_EQ(make_cifar_space().num_vns(), 21);  // 3 blocks x 2 x (conv,pool,bn) + 3 dense
  EXPECT_EQ(make_mnist_space().num_vns(), 11);
  EXPECT_EQ(make_nt3_space().num_vns(), 9);
  EXPECT_EQ(make_uno_space().num_vns(), 13);  // 3 towers x 3 + trunk x 4
}

TEST(SpacesZoo, CardinalitiesAreLarge) {
  EXPECT_GT(make_cifar_space().log10_cardinality(), 9.0);
  EXPECT_GT(make_mnist_space().log10_cardinality(), 5.0);
  EXPECT_GT(make_nt3_space().log10_cardinality(), 4.0);
  EXPECT_GT(make_uno_space().log10_cardinality(), 9.0);
}

TEST(SpacesZoo, UnoUsesOneSharedChoiceSet) {
  // "the variable nodes of Uno choose the same set of operations" — the
  // property behind Uno's flat LCS curve in Fig. 5.
  const SearchSpace space = make_uno_space();
  const auto& first = space.vns.front().choices;
  for (const auto& vn : space.vns) {
    ASSERT_EQ(vn.choices.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
      EXPECT_EQ(vn.choices[i].to_string(), first[i].to_string());
  }
}

TEST(SearchSpaceTest, ValidateRejectsBadSequences) {
  const SearchSpace space = make_mnist_space();
  Rng rng(1);
  ArchSeq arch = space.random_arch(rng);
  EXPECT_NO_THROW(space.validate(arch));
  ArchSeq short_arch(arch.begin(), arch.end() - 1);
  EXPECT_THROW(space.validate(short_arch), std::invalid_argument);
  arch[0] = 1000;
  EXPECT_THROW(space.validate(arch), std::invalid_argument);
  arch[0] = -1;
  EXPECT_THROW(space.validate(arch), std::invalid_argument);
}

TEST(SearchSpaceTest, RandomArchIsAlwaysValid) {
  const SearchSpace space = make_cifar_space();
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_NO_THROW(space.validate(space.random_arch(rng)));
}

TEST(SearchSpaceTest, MutateChangesExactlyOneNode) {
  const SearchSpace space = make_nt3_space();
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const ArchSeq parent = space.random_arch(rng);
    const ArchSeq child = space.mutate(parent, rng);
    EXPECT_EQ(hamming_distance(parent, child), 1);
  }
}

TEST(SearchSpaceTest, MutationReachesAllNodesEventually) {
  const SearchSpace space = make_mnist_space();
  Rng rng(4);
  const ArchSeq base(static_cast<std::size_t>(space.num_vns()), 0);
  std::set<std::size_t> mutated_positions;
  for (int i = 0; i < 500; ++i) {
    const ArchSeq child = space.mutate(base, rng);
    for (std::size_t p = 0; p < child.size(); ++p)
      if (child[p] != base[p]) mutated_positions.insert(p);
  }
  EXPECT_EQ(mutated_positions.size(), static_cast<std::size_t>(space.num_vns()));
}

TEST(SearchSpaceTest, DescribeMentionsEveryVariableNode) {
  const SearchSpace space = make_nt3_space();
  Rng rng(5);
  const std::string desc = space.describe(space.random_arch(rng));
  for (const auto& vn : space.vns) EXPECT_NE(desc.find(vn.name), std::string::npos) << vn.name;
}

TEST(SearchSpaceTest, CardinalityMatchesChoiceProduct) {
  SearchSpace space;
  space.name = "tiny";
  space.vns.push_back({"a", {OpSpec::identity(), OpSpec::dense(4)}});
  space.vns.push_back({"b", {OpSpec::identity(), OpSpec::dense(4), OpSpec::dropout(0.1)}});
  EXPECT_EQ(space.cardinality(), 6u);
}

TEST(OpSpecTest, ToStringCoversAllKinds) {
  EXPECT_EQ(OpSpec::identity().to_string(), "Identity");
  EXPECT_EQ(OpSpec::dense(50).to_string(), "Dense(50)");
  EXPECT_EQ(OpSpec::dense(50, ActKind::kRelu).to_string(), "Dense(50, relu)");
  EXPECT_NE(OpSpec::conv2d(8, 3, Padding::kValid).to_string().find("valid"),
            std::string::npos);
  EXPECT_NE(OpSpec::conv1d(8, 5, Padding::kSame).to_string().find("Conv1D"),
            std::string::npos);
  EXPECT_NE(OpSpec::maxpool2d(2, 2).to_string().find("MaxPool2D"), std::string::npos);
  EXPECT_NE(OpSpec::dropout(0.5).to_string().find("Dropout"), std::string::npos);
  EXPECT_EQ(OpSpec::batchnorm().to_string(), "BatchNorm");
  EXPECT_NE(OpSpec::activation(ActKind::kTanh).to_string().find("tanh"), std::string::npos);
  EXPECT_EQ(OpSpec::flatten().to_string(), "Flatten");
}

TEST(Builder, DenseAutoFlattensImages) {
  Shape shape{4, 4, 2};
  std::vector<LayerPtr> layers;
  instantiate_op(OpSpec::dense(5), "d", shape, layers);
  EXPECT_EQ(shape, Shape({5}));
  ASSERT_EQ(layers.size(), 2u);  // Flatten + Dense
}

TEST(Builder, PoolGuardrailDegradesToIdentity) {
  Shape shape{2, 2, 3};
  std::vector<LayerPtr> layers;
  instantiate_op(OpSpec::maxpool2d(4, 4), "p", shape, layers);
  EXPECT_TRUE(layers.empty());
  EXPECT_EQ(shape, Shape({2, 2, 3}));
}

TEST(Builder, ValidConvGuardrailFallsBackToSame) {
  Shape shape{2, 2, 1};
  std::vector<LayerPtr> layers;
  instantiate_op(OpSpec::conv2d(4, 3, Padding::kValid), "c", shape, layers);
  ASSERT_EQ(layers.size(), 1u);
  EXPECT_EQ(shape, Shape({2, 2, 4}));  // "same" keeps the extent
}

TEST(Builder, ConvOnWrongRankThrows) {
  Shape shape{10};
  std::vector<LayerPtr> layers;
  EXPECT_THROW(instantiate_op(OpSpec::conv2d(4, 3, Padding::kSame), "c", shape, layers),
               std::invalid_argument);
}

struct SpaceCase {
  const char* name;
  SearchSpace (*make)();
};

SearchSpace make_cifar_default() { return make_cifar_space(8); }
SearchSpace make_mnist_default() { return make_mnist_space(8); }
SearchSpace make_nt3_default() { return make_nt3_space(96); }
SearchSpace make_uno_default() { return make_uno_space(); }

class SpaceBuildSweep : public ::testing::TestWithParam<SpaceCase> {};

TEST_P(SpaceBuildSweep, BuildsManyRandomArchitectures) {
  const SearchSpace space = GetParam().make();
  Rng rng(fnv1a(GetParam().name));
  for (int i = 0; i < 40; ++i) {
    const ArchSeq arch = space.random_arch(rng);
    NetworkPtr net;
    ASSERT_NO_THROW(net = space.build(arch)) << arch_to_string(arch);
    ASSERT_NE(net, nullptr);
    EXPECT_GT(net->param_count(), 0);
    // Forward a single sample through to confirm shape consistency.
    std::vector<Tensor> inputs;
    for (std::size_t s = 0; s < net->num_inputs(); ++s)
      inputs.emplace_back(space.input_shapes[s].prepend(2));
    Rng drng(i);
    for (auto& t : inputs) t.randn(drng, 1.0f);
    net->init(drng);
    Tensor y;
    ASSERT_NO_THROW(y = net->forward(inputs, false)) << arch_to_string(arch);
    EXPECT_EQ(y.shape()[0], 2);
  }
}

TEST_P(SpaceBuildSweep, ParamNamesAreUniquePerModel) {
  const SearchSpace space = GetParam().make();
  Rng rng(fnv1a(GetParam().name) + 1);
  for (int i = 0; i < 10; ++i) {
    NetworkPtr net = space.build(space.random_arch(rng));
    std::set<std::string> names;
    for (const auto& p : net->params())
      EXPECT_TRUE(names.insert(p.name).second) << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpaces, SpaceBuildSweep,
    ::testing::Values(SpaceCase{"cifar", &make_cifar_default},
                      SpaceCase{"mnist", &make_mnist_default},
                      SpaceCase{"nt3", &make_nt3_default},
                      SpaceCase{"uno", &make_uno_default}),
    [](const ::testing::TestParamInfo<SpaceCase>& info) { return info.param.name; });

}  // namespace
}  // namespace swt
