// Convolution layers ("same" or "valid" padding, channels-last), lowered to
// the blocked kernels in tensor/kernels.hpp, whose GEMMs read the input's
// patches through index tables.
//
// Conv2D: input (N, H, W, Cin), kernel (KH, KW, Cin, Cout).
// Conv1D: input (N, L, Cin),    kernel (K, Cin, Cout).
//
// The search spaces in the paper vary filter count, padding and L2
// regularisation of convolutions (Section VII-A); stride is fixed at 1 there
// (spatial reduction is done by pooling variable nodes), but the layers
// accept stride > 1 for strided downsampling outside the paper's spaces.
#pragma once

#include "nn/layer.hpp"
#include "tensor/kernels.hpp"

namespace swt {

enum class Padding { kValid, kSame };

[[nodiscard]] const char* to_string(Padding p) noexcept;

/// Output spatial extent of a convolution.  "same" = ceil(in / stride),
/// "valid" = floor((in - kernel) / stride) + 1.
[[nodiscard]] std::int64_t conv_out_extent(std::int64_t in, std::int64_t kernel,
                                           Padding pad, std::int64_t stride = 1);

class Conv2D final : public Layer {
 public:
  Conv2D(std::string name, std::int64_t kernel, std::int64_t in_channels,
         std::int64_t out_channels, Padding pad, float weight_decay = 0.0f,
         std::int64_t stride = 1);

  void init(Rng& rng) override;
  [[nodiscard]] Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Tensor backward(const Tensor& dy) override;
  void backward_params(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::string name_;
  std::int64_t k_, cin_, cout_, stride_;
  Padding pad_;
  float weight_decay_;
  Tensor w_, b_, dw_, db_;
  Tensor cached_x_;
  kernels::ConvGeom geom_;  // of the cached forward
};

class Conv1D final : public Layer {
 public:
  Conv1D(std::string name, std::int64_t kernel, std::int64_t in_channels,
         std::int64_t out_channels, Padding pad, float weight_decay = 0.0f,
         std::int64_t stride = 1);

  void init(Rng& rng) override;
  [[nodiscard]] Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Tensor backward(const Tensor& dy) override;
  void backward_params(const Tensor& dy) override;
  void collect_params(std::vector<ParamRef>& out) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::string name_;
  std::int64_t k_, cin_, cout_, stride_;
  Padding pad_;
  float weight_decay_;
  Tensor w_, b_, dw_, db_;
  Tensor cached_x_;
  kernels::ConvGeom geom_;  // of the cached forward
};

}  // namespace swt
