// Adam optimizer with optional decoupled-from-loss L2 (classic L2-into-grad,
// matching Keras kernel_regularizer semantics closely enough for this study).
// Hyperparameters default to the paper's Section VII-A settings.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace swt {

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-7;
};

class Adam {
 public:
  explicit Adam(AdamConfig cfg = {}) : cfg_(cfg) {}

  /// One update over the given parameters.  The slot buffers are keyed by
  /// position, so the same Adam instance must always be stepped with the
  /// same parameter list (one optimizer per model, as usual).  Throws
  /// std::logic_error, before updating anything, when the list's length or
  /// a stepped tensor's shape changed, or a gradient's shape differs from
  /// its parameter's.
  void step(std::vector<ParamRef>& params);

  [[nodiscard]] std::int64_t iterations() const noexcept { return t_; }
  [[nodiscard]] const AdamConfig& config() const noexcept { return cfg_; }
  /// Adjust the learning rate between steps (for schedules).
  void set_lr(double lr) noexcept { cfg_.lr = lr; }

 private:
  AdamConfig cfg_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace swt
