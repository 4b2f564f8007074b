// Fully connected layer: y = x W + b, x of shape (N, in), W (in, out).
#pragma once

#include "nn/layer.hpp"

namespace swt {

class Dense final : public Layer {
 public:
  /// `name` prefixes the parameter names ("<name>/W", "<name>/b").
  Dense(std::string name, std::int64_t in_features, std::int64_t out_features,
        float weight_decay = 0.0f);

  void init(Rng& rng) override;
  [[nodiscard]] Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Tensor backward(const Tensor& dy) override;
  void backward_params(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::string name_;
  std::int64_t in_;
  std::int64_t out_;
  float weight_decay_;
  Tensor w_, b_, dw_, db_;
  Tensor cached_x_;
};

}  // namespace swt
