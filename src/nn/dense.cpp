#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace swt {

Dense::Dense(std::string name, std::int64_t in_features, std::int64_t out_features,
             float weight_decay)
    : name_(std::move(name)),
      in_(in_features),
      out_(out_features),
      weight_decay_(weight_decay),
      w_(Shape{in_, out_}),
      b_(Shape{out_}),
      dw_(Shape{in_, out_}),
      db_(Shape{out_}) {
  if (in_ <= 0 || out_ <= 0) throw std::invalid_argument("Dense: non-positive size");
}

void Dense::init(Rng& rng) {
  // Glorot-uniform, the Keras default for Dense.
  const float limit = std::sqrt(6.0f / static_cast<float>(in_ + out_));
  w_.rand_uniform(rng, -limit, limit);
  b_.zero();
}

Tensor Dense::forward(const Tensor& x, bool /*train*/) {
  if (x.shape().rank() != 2 || x.shape()[1] != in_)
    throw std::invalid_argument("Dense " + name_ + ": bad input shape " +
                                x.shape().to_string());
  cached_x_ = x;
  const std::int64_t n = x.shape()[0];
  Tensor y(Shape{n, out_});
  kernels::gemm_nn(x.data(), w_.data(), y.data(), n, out_, in_);
  // Bias after the product, matching matmul(x, w_) + broadcast-add exactly.
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = y.data() + i * out_;
    for (std::int64_t j = 0; j < out_; ++j) row[j] += b_[static_cast<std::size_t>(j)];
  }
  return y;
}

Tensor Dense::backward(const Tensor& dy) {
  backward_params(dy);
  const std::int64_t n = dy.shape()[0];
  Tensor dx(Shape{n, in_});
  kernels::gemm_nt(dy.data(), w_.data(), dx.data(), n, in_, out_);
  return dx;
}

void Dense::backward_params(const Tensor& dy) {
  const std::int64_t n = dy.shape()[0];
  // dw += x^T * dy, accumulated straight into the grad buffer (no temp).
  kernels::gemm_tn(cached_x_.data(), dy.data(), dw_.data(), in_, out_, n,
                   /*accumulate=*/true);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = dy.data() + i * out_;
    for (std::int64_t j = 0; j < out_; ++j) db_[static_cast<std::size_t>(j)] += row[j];
  }
}

void Dense::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name_ + "/W", &w_, &dw_, weight_decay_, true});
  out.push_back({name_ + "/b", &b_, &db_, 0.0f, true});
}

std::string Dense::describe() const {
  return "Dense(" + std::to_string(out_) + ")";
}

}  // namespace swt
