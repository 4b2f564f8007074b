#include "nn/misc.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace swt {

const char* to_string(ActKind a) noexcept {
  switch (a) {
    case ActKind::kRelu: return "relu";
    case ActKind::kTanh: return "tanh";
    case ActKind::kSigmoid: return "sigmoid";
  }
  return "?";
}

Tensor Activation::forward(const Tensor& x, bool /*train*/) {
  Tensor y(x.shape());
  const float* px = x.data();
  float* py = y.data();
  const std::int64_t n = x.numel();
  switch (kind_) {
    case ActKind::kRelu:
      for (std::int64_t i = 0; i < n; ++i) py[i] = px[i] > 0.0f ? px[i] : 0.0f;
      cached_ = x;  // derivative needs the input sign
      break;
    case ActKind::kTanh:
      kernels::tanh(px, py, n);
      cached_ = y;  // derivative 1 - y^2
      break;
    case ActKind::kSigmoid:
      for (std::int64_t i = 0; i < n; ++i) py[i] = 1.0f / (1.0f + std::exp(-px[i]));
      cached_ = y;  // derivative y (1 - y)
      break;
  }
  return y;
}

Tensor Activation::backward(const Tensor& dy) {
  Tensor dx(dy.shape());
  const float* pd = dy.data();
  const float* pc = cached_.data();
  float* px = dx.data();
  const std::int64_t n = dy.numel();
  switch (kind_) {
    case ActKind::kRelu:
      // pd[i] is loaded on both arms, so the select compiles without a branch.
      for (std::int64_t i = 0; i < n; ++i) {
        const float d = pd[i];
        px[i] = pc[i] > 0.0f ? d : 0.0f;
      }
      break;
    case ActKind::kTanh:
      for (std::int64_t i = 0; i < n; ++i) px[i] = pd[i] * (1.0f - pc[i] * pc[i]);
      break;
    case ActKind::kSigmoid:
      for (std::int64_t i = 0; i < n; ++i) px[i] = pd[i] * pc[i] * (1.0f - pc[i]);
      break;
  }
  return dx;
}

std::string Activation::describe() const {
  return std::string("Activation(") + to_string(kind_) + ")";
}

Dropout::Dropout(double rate) : rate_(rate) {
  if (rate < 0.0 || rate >= 1.0) throw std::invalid_argument("Dropout: rate must be in [0,1)");
}

Tensor Dropout::forward(const Tensor& x, bool train) {
  if (!train || rate_ == 0.0) {
    mask_.clear();
    return x;
  }
  if (rng_ == nullptr)
    throw std::logic_error("Dropout: training forward without a train RNG set");
  const float keep_scale = 1.0f / static_cast<float>(1.0 - rate_);
  Tensor y(x.shape());
  const auto n = static_cast<std::size_t>(x.numel());
  mask_.resize(n);
  const float* px = x.data();
  float* py = y.data();
  // One draw per element, in order.  `keep` is all ones for a kept element
  // and zero for a dropped one, so and-ing the bits selects the value or
  // +0.0f: a ternary here compiles back into a branch on the draw.
  const auto scale_bits = std::bit_cast<std::uint32_t>(keep_scale);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t keep = 0u - static_cast<std::uint32_t>(!rng_->bernoulli(rate_));
    mask_[i] = std::bit_cast<float>(scale_bits & keep);
    py[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(px[i] * keep_scale) & keep);
  }
  return y;
}

Tensor Dropout::backward(const Tensor& dy) {
  if (mask_.empty()) return dy;  // was inference forward
  Tensor dx(dy.shape());
  for (std::int64_t i = 0; i < dy.numel(); ++i)
    dx[static_cast<std::size_t>(i)] =
        dy[static_cast<std::size_t>(i)] * mask_[static_cast<std::size_t>(i)];
  return dx;
}

std::string Dropout::describe() const {
  return "Dropout(" + std::to_string(rate_).substr(0, 4) + ")";
}

Tensor Flatten::forward(const Tensor& x, bool /*train*/) {
  in_shape_ = x.shape();
  return x.reshaped(Shape{in_shape_[0], x.numel() / in_shape_[0]});
}

Tensor Flatten::backward(const Tensor& dy) { return dy.reshaped(in_shape_); }

}  // namespace swt
