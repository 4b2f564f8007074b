// Networks: compositions of layers with a uniform multi-input interface.
//
// `Sequential` covers the CIFAR / MNIST / NT3 search spaces (single input,
// linear layer chain).  `MultiTowerNet` covers Uno's topology: three dense
// towers, each fed by its own input source, concatenated together with a
// fourth raw input and followed by a trunk (Section VII-A of the paper).
//
// The order of params() is the *topological parameter order* that defines
// the model's shape sequence for LP/LCS matching.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace swt {

class Network {
 public:
  virtual ~Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Number of input tensors forward() expects.
  [[nodiscard]] virtual std::size_t num_inputs() const noexcept = 0;

  [[nodiscard]] virtual Tensor forward(std::span<const Tensor> inputs, bool train) = 0;

  /// Propagate dL/d(output); parameter gradients accumulate into the refs.
  /// The gradient w.r.t. the network's inputs is not computed.
  virtual void backward(const Tensor& dy) = 0;

  virtual void collect_params(std::vector<ParamRef>& out) = 0;
  virtual void set_train_rng(Rng* rng) = 0;
  /// (Re)initialise every parameter from `rng`.
  virtual void init(Rng& rng) = 0;
  [[nodiscard]] virtual std::string describe() const = 0;

  // -- conveniences built on the virtual interface ------------------------

  [[nodiscard]] std::vector<ParamRef> params();
  void zero_grads();
  /// Total number of persisted parameter elements (Table IV's proxy for
  /// model complexity).
  [[nodiscard]] std::int64_t param_count();
  /// Single-input convenience wrapper.
  [[nodiscard]] Tensor forward1(const Tensor& x, bool train);

 protected:
  Network() = default;
};

using NetworkPtr = std::unique_ptr<Network>;

class Sequential final : public Network {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<LayerPtr> layers) : layers_(std::move(layers)) {}

  void add(LayerPtr layer) { layers_.push_back(std::move(layer)); }
  [[nodiscard]] std::size_t depth() const noexcept { return layers_.size(); }

  [[nodiscard]] std::size_t num_inputs() const noexcept override { return 1; }
  [[nodiscard]] Tensor forward(std::span<const Tensor> inputs, bool train) override;
  void backward(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void set_train_rng(Rng* rng) override;
  void init(Rng& rng) override;
  [[nodiscard]] std::string describe() const override;

  /// Like Network::backward but also computes and returns dL/d(input);
  /// used by MultiTowerNet's trunk.
  [[nodiscard]] Tensor backward_to_input(const Tensor& dy);

 private:
  std::vector<LayerPtr> layers_;
};

class MultiTowerNet final : public Network {
 public:
  /// `towers[i]` consumes inputs[i]; their rank-2 outputs are concatenated
  /// (in tower order) with inputs[towers.size()] if `extra_raw_input`, then
  /// fed to `trunk`.
  MultiTowerNet(std::vector<std::unique_ptr<Sequential>> towers,
                std::unique_ptr<Sequential> trunk, bool extra_raw_input);

  [[nodiscard]] std::size_t num_inputs() const noexcept override {
    return towers_.size() + (extra_raw_input_ ? 1 : 0);
  }
  [[nodiscard]] Tensor forward(std::span<const Tensor> inputs, bool train) override;
  void backward(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void set_train_rng(Rng* rng) override;
  void init(Rng& rng) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::vector<std::unique_ptr<Sequential>> towers_;
  std::unique_ptr<Sequential> trunk_;
  bool extra_raw_input_;
  std::vector<std::int64_t> concat_widths_;  // per concatenated block
};

}  // namespace swt
