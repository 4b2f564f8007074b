#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace swt {

const char* to_string(Padding p) noexcept {
  return p == Padding::kSame ? "same" : "valid";
}

std::int64_t conv_out_extent(std::int64_t in, std::int64_t kernel, Padding pad,
                             std::int64_t stride) {
  if (pad == Padding::kSame) return (in + stride - 1) / stride;
  return (in - kernel) / stride + 1;
}

namespace {
/// He-uniform fan-in init (Keras default for conv is Glorot; He works equally
/// well here and keeps relu stacks healthy at small widths).
void init_conv_kernel(Tensor& w, std::int64_t fan_in, std::int64_t fan_out, Rng& rng) {
  const float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  w.rand_uniform(rng, -limit, limit);
}

/// Leading zero-padding for one axis.  "same" centres the taps so that at
/// stride 1 this reduces to the familiar (k - 1) / 2.
std::int64_t pad_lo_for(std::int64_t in, std::int64_t kernel, std::int64_t out,
                        std::int64_t stride, Padding pad) {
  if (pad != Padding::kSame) return 0;
  return std::max<std::int64_t>(0, (out - 1) * stride + kernel - in) / 2;
}
}  // namespace

// ---------------------------------------------------------------------------
// Conv2D
// ---------------------------------------------------------------------------

Conv2D::Conv2D(std::string name, std::int64_t kernel, std::int64_t in_channels,
               std::int64_t out_channels, Padding pad, float weight_decay,
               std::int64_t stride)
    : name_(std::move(name)),
      k_(kernel),
      cin_(in_channels),
      cout_(out_channels),
      stride_(stride),
      pad_(pad),
      weight_decay_(weight_decay),
      w_(Shape{k_, k_, cin_, cout_}),
      b_(Shape{cout_}),
      dw_(Shape{k_, k_, cin_, cout_}),
      db_(Shape{cout_}) {
  if (k_ <= 0 || cin_ <= 0 || cout_ <= 0 || stride_ <= 0)
    throw std::invalid_argument("Conv2D: non-positive size");
}

void Conv2D::init(Rng& rng) {
  init_conv_kernel(w_, k_ * k_ * cin_, k_ * k_ * cout_, rng);
  b_.zero();
}

Tensor Conv2D::forward(const Tensor& x, bool /*train*/) {
  const auto& s = x.shape();
  if (s.rank() != 4 || s[3] != cin_)
    throw std::invalid_argument("Conv2D " + name_ + ": bad input shape " + s.to_string());
  cached_x_ = x;
  const std::int64_t n = s[0], h = s[1], w = s[2];
  const std::int64_t oh = conv_out_extent(h, k_, pad_, stride_);
  const std::int64_t ow = conv_out_extent(w, k_, pad_, stride_);
  if (oh <= 0 || ow <= 0)
    throw std::invalid_argument("Conv2D " + name_ + ": kernel larger than input");
  Tensor y(Shape{n, oh, ow, cout_});
  geom_ = {n,  h,  w,       cin_,
           k_, k_, cout_,   oh,
           ow, stride_,
           pad_lo_for(h, k_, oh, stride_, pad_),
           pad_lo_for(w, k_, ow, stride_, pad_)};
  kernels::conv_forward(x.data(), w_.data(), b_.data(), y.data(), geom_);
  return y;
}

Tensor Conv2D::backward(const Tensor& dy) {
  Tensor dx(cached_x_.shape());
  kernels::conv_backward(cached_x_.data(), w_.data(), dy.data(), dx.data(), dw_.data(),
                         db_.data(), geom_);
  return dx;
}

void Conv2D::backward_params(const Tensor& dy) {
  kernels::conv_backward(cached_x_.data(), w_.data(), dy.data(), /*dx=*/nullptr,
                         dw_.data(), db_.data(), geom_);
}

void Conv2D::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name_ + "/W", &w_, &dw_, weight_decay_, true});
  out.push_back({name_ + "/b", &b_, &db_, 0.0f, true});
}

std::string Conv2D::describe() const {
  return "Conv2D(" + std::to_string(cout_) + ", k=" + std::to_string(k_) + ", " +
         to_string(pad_) + (stride_ > 1 ? ", s=" + std::to_string(stride_) : "") +
         (weight_decay_ > 0 ? ", l2" : "") + ")";
}

// ---------------------------------------------------------------------------
// Conv1D
// ---------------------------------------------------------------------------

Conv1D::Conv1D(std::string name, std::int64_t kernel, std::int64_t in_channels,
               std::int64_t out_channels, Padding pad, float weight_decay,
               std::int64_t stride)
    : name_(std::move(name)),
      k_(kernel),
      cin_(in_channels),
      cout_(out_channels),
      stride_(stride),
      pad_(pad),
      weight_decay_(weight_decay),
      w_(Shape{k_, cin_, cout_}),
      b_(Shape{cout_}),
      dw_(Shape{k_, cin_, cout_}),
      db_(Shape{cout_}) {
  if (k_ <= 0 || cin_ <= 0 || cout_ <= 0 || stride_ <= 0)
    throw std::invalid_argument("Conv1D: non-positive size");
}

void Conv1D::init(Rng& rng) {
  init_conv_kernel(w_, k_ * cin_, k_ * cout_, rng);
  b_.zero();
}

Tensor Conv1D::forward(const Tensor& x, bool /*train*/) {
  const auto& s = x.shape();
  if (s.rank() != 3 || s[2] != cin_)
    throw std::invalid_argument("Conv1D " + name_ + ": bad input shape " + s.to_string());
  cached_x_ = x;
  const std::int64_t n = s[0], len = s[1];
  const std::int64_t olen = conv_out_extent(len, k_, pad_, stride_);
  if (olen <= 0) throw std::invalid_argument("Conv1D " + name_ + ": kernel larger than input");
  Tensor y(Shape{n, olen, cout_});
  geom_ = kernels::conv1d_geom(n, len, cin_, k_, cout_, olen, stride_,
                               pad_lo_for(len, k_, olen, stride_, pad_));
  kernels::conv_forward(x.data(), w_.data(), b_.data(), y.data(), geom_);
  return y;
}

Tensor Conv1D::backward(const Tensor& dy) {
  Tensor dx(cached_x_.shape());
  kernels::conv_backward(cached_x_.data(), w_.data(), dy.data(), dx.data(), dw_.data(),
                         db_.data(), geom_);
  return dx;
}

void Conv1D::backward_params(const Tensor& dy) {
  kernels::conv_backward(cached_x_.data(), w_.data(), dy.data(), /*dx=*/nullptr,
                         dw_.data(), db_.data(), geom_);
}

void Conv1D::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name_ + "/W", &w_, &dw_, weight_decay_, true});
  out.push_back({name_ + "/b", &b_, &db_, 0.0f, true});
}

std::string Conv1D::describe() const {
  return "Conv1D(" + std::to_string(cout_) + ", k=" + std::to_string(k_) + ", " +
         to_string(pad_) + (stride_ > 1 ? ", s=" + std::to_string(stride_) : "") + ")";
}

}  // namespace swt
