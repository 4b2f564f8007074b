// Max-pooling layers (valid padding).  The search spaces choose pooling
// size/stride per variable node; the layer records argmax positions during
// forward so backward can route gradients.  A window's argmax starts at its
// first tap and a NaN tap wins (the window's last), so NaN propagates and
// every gradient lands inside its own window.  The hot loop only flags a
// NaN; a branch on it per tap made MaxPool2D's forward twice as slow.
#pragma once

#include "nn/layer.hpp"

namespace swt {

/// Output extent of pooling with window `size`, stride `stride`, no padding.
[[nodiscard]] std::int64_t pool_out_extent(std::int64_t in, std::int64_t size,
                                           std::int64_t stride);

class MaxPool2D final : public Layer {
 public:
  MaxPool2D(std::int64_t size, std::int64_t stride);

  [[nodiscard]] Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Tensor backward(const Tensor& dy) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::int64_t size_, stride_;
  Shape in_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

class MaxPool1D final : public Layer {
 public:
  MaxPool1D(std::int64_t size, std::int64_t stride);

  [[nodiscard]] Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Tensor backward(const Tensor& dy) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::int64_t size_, stride_;
  Shape in_shape_;
  std::vector<std::int64_t> argmax_;
};

}  // namespace swt
