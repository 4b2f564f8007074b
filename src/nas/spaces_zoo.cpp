#include "nas/spaces_zoo.hpp"

namespace swt {

namespace {

constexpr float kL2 = 5e-4f;  // the paper's kernel-regularizer weight decay

VariableNode conv2d_vn(const std::string& name, std::int64_t f) {
  // Varies filter count, padding and L2 regularisation (Section VII-A).
  return {name,
          {OpSpec::conv2d(f, 3, Padding::kSame),
           OpSpec::conv2d(f, 3, Padding::kValid),
           OpSpec::conv2d(f, 3, Padding::kSame, kL2),
           OpSpec::conv2d(2 * f, 3, Padding::kSame),
           OpSpec::conv2d(2 * f, 3, Padding::kValid),
           OpSpec::conv2d(2 * f, 3, Padding::kSame, kL2)}};
}

VariableNode pool2d_vn(const std::string& name) {
  return {name,
          {OpSpec::identity(), OpSpec::maxpool2d(2, 2), OpSpec::maxpool2d(3, 2),
           OpSpec::maxpool2d(2, 1)}};
}

VariableNode batchnorm_vn(const std::string& name) {
  return {name, {OpSpec::identity(), OpSpec::batchnorm()}};
}

VariableNode act_vn(const std::string& name) {
  return {name,
          {OpSpec::activation(ActKind::kRelu), OpSpec::activation(ActKind::kTanh),
           OpSpec::activation(ActKind::kSigmoid)}};
}

VariableNode dense_vn(const std::string& name, std::initializer_list<std::int64_t> widths) {
  VariableNode vn{name, {OpSpec::identity()}};
  for (std::int64_t w : widths) vn.choices.push_back(OpSpec::dense(w, ActKind::kRelu));
  return vn;
}

VariableNode dropout_vn(const std::string& name, std::initializer_list<double> rates) {
  VariableNode vn{name, {OpSpec::identity()}};
  for (double r : rates) vn.choices.push_back(OpSpec::dropout(r));
  return vn;
}

int add_vn(SearchSpace& space, VariableNode vn, std::vector<Slot>& slots) {
  const int index = static_cast<int>(space.vns.size());
  space.vns.push_back(std::move(vn));
  slots.push_back(Slot::variable(index));
  return index;
}

}  // namespace

SearchSpace make_cifar_space(std::int64_t hw) {
  SearchSpace space;
  space.name = "CifarLike";
  space.input_shapes = {Shape{hw, hw, 3}};
  space.towers.resize(1);
  auto& slots = space.towers.front();

  const std::int64_t base_filters[3] = {4, 8, 12};
  for (int b = 0; b < 3; ++b) {
    for (int rep = 0; rep < 2; ++rep) {
      const std::string tag = "b" + std::to_string(b) + "r" + std::to_string(rep);
      add_vn(space, conv2d_vn("conv_" + tag, base_filters[b]), slots);
      add_vn(space, pool2d_vn("pool_" + tag), slots);
      add_vn(space, batchnorm_vn("bn_" + tag), slots);
    }
  }
  for (int i = 0; i < 3; ++i)
    add_vn(space, dense_vn("dense_" + std::to_string(i), {16, 32, 64}), slots);

  // Fixed classifier head (10 classes; softmax lives in the loss).
  slots.push_back(Slot::fixed(OpSpec::flatten()));
  slots.push_back(Slot::fixed(OpSpec::dense(10)));
  return space;
}

SearchSpace make_mnist_space(std::int64_t hw) {
  SearchSpace space;
  space.name = "MnistLike";
  space.input_shapes = {Shape{hw, hw, 1}};
  space.towers.resize(1);
  auto& slots = space.towers.front();

  auto conv_vn = [](const std::string& name) {
    return VariableNode{name,
                        {OpSpec::conv2d(4, 3, Padding::kSame),
                         OpSpec::conv2d(4, 3, Padding::kValid),
                         OpSpec::conv2d(8, 3, Padding::kSame),
                         OpSpec::conv2d(8, 3, Padding::kValid),
                         OpSpec::conv2d(4, 5, Padding::kSame),
                         OpSpec::conv2d(8, 5, Padding::kSame)}};
  };

  // LeNet-5-inspired order (Section VII-A).
  add_vn(space, conv_vn("conv0"), slots);
  add_vn(space, act_vn("act0"), slots);
  add_vn(space, pool2d_vn("pool0"), slots);
  add_vn(space, conv_vn("conv1"), slots);
  add_vn(space, act_vn("act1"), slots);
  add_vn(space, pool2d_vn("pool1"), slots);
  add_vn(space, dense_vn("dense0", {16, 32, 64, 128}), slots);
  add_vn(space, act_vn("act2"), slots);
  add_vn(space, dense_vn("dense1", {16, 32, 64, 128}), slots);
  add_vn(space, act_vn("act3"), slots);
  add_vn(space,
         dropout_vn("dropout0", {0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}), slots);

  slots.push_back(Slot::fixed(OpSpec::flatten()));
  slots.push_back(Slot::fixed(OpSpec::dense(10)));
  return space;
}

SearchSpace make_nt3_space(std::int64_t length) {
  SearchSpace space;
  space.name = "Nt3Like";
  space.input_shapes = {Shape{length, 1}};
  space.towers.resize(1);
  auto& slots = space.towers.front();

  VariableNode conv_vn{"conv0",
                       {OpSpec::conv1d(4, 3, Padding::kSame),
                        OpSpec::conv1d(4, 5, Padding::kSame),
                        OpSpec::conv1d(4, 7, Padding::kSame),
                        OpSpec::conv1d(8, 3, Padding::kSame),
                        OpSpec::conv1d(8, 5, Padding::kValid),
                        OpSpec::conv1d(8, 7, Padding::kValid)}};
  VariableNode pool_vn{"pool0",
                       {OpSpec::identity(), OpSpec::maxpool1d(2, 2), OpSpec::maxpool1d(3, 3),
                        OpSpec::maxpool1d(4, 4)}};

  add_vn(space, std::move(conv_vn), slots);
  add_vn(space, act_vn("act0"), slots);
  add_vn(space, std::move(pool_vn), slots);
  add_vn(space, dense_vn("dense0", {16, 32, 64, 128}), slots);
  add_vn(space, act_vn("act1"), slots);
  add_vn(space, dropout_vn("dropout0", {0.1, 0.2, 0.3, 0.4, 0.5}), slots);
  add_vn(space, dense_vn("dense1", {16, 32, 64, 128}), slots);
  add_vn(space, act_vn("act2"), slots);
  add_vn(space, dropout_vn("dropout1", {0.1, 0.2, 0.3, 0.4, 0.5}), slots);

  slots.push_back(Slot::fixed(OpSpec::flatten()));
  slots.push_back(Slot::fixed(OpSpec::dense(2)));
  return space;
}

SearchSpace make_uno_space(std::int64_t gene, std::int64_t drug, std::int64_t extra) {
  SearchSpace space;
  space.name = "UnoLike";
  space.extra_raw_input = true;
  space.input_shapes = {Shape{1}, Shape{gene}, Shape{drug}, Shape{extra}};
  space.towers.resize(3);

  // Every VN draws from the same mixed set, matching the paper's Uno space.
  auto mixed_vn = [](const std::string& name) {
    return VariableNode{name,
                        {OpSpec::identity(), OpSpec::dense(16, ActKind::kRelu),
                         OpSpec::dense(32, ActKind::kRelu), OpSpec::dense(64, ActKind::kRelu),
                         OpSpec::dropout(0.3), OpSpec::dropout(0.4), OpSpec::dropout(0.5)}};
  };

  for (int t = 0; t < 3; ++t)
    for (int i = 0; i < 3; ++i)
      add_vn(space, mixed_vn("t" + std::to_string(t) + "_vn" + std::to_string(i)),
             space.towers[static_cast<std::size_t>(t)]);
  for (int i = 0; i < 4; ++i)
    add_vn(space, mixed_vn("trunk_vn" + std::to_string(i)), space.trunk);

  space.trunk.push_back(Slot::fixed(OpSpec::dense(1)));
  return space;
}

}  // namespace swt
