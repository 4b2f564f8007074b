#include "nn/pool.hpp"

#include <cmath>
#include <stdexcept>

namespace swt {

std::int64_t pool_out_extent(std::int64_t in, std::int64_t size, std::int64_t stride) {
  if (in < size) return 0;
  return (in - size) / stride + 1;
}

MaxPool2D::MaxPool2D(std::int64_t size, std::int64_t stride) : size_(size), stride_(stride) {
  if (size <= 0 || stride <= 0) throw std::invalid_argument("MaxPool2D: non-positive size");
}

Tensor MaxPool2D::forward(const Tensor& x, bool /*train*/) {
  const auto& s = x.shape();
  if (s.rank() != 4)
    throw std::invalid_argument("MaxPool2D: expected rank-4 input, got " + s.to_string());
  in_shape_ = s;
  const std::int64_t n = s[0], h = s[1], w = s[2], c = s[3];
  const std::int64_t oh = pool_out_extent(h, size_, stride_);
  const std::int64_t ow = pool_out_extent(w, size_, stride_);
  if (oh <= 0 || ow <= 0)
    throw std::invalid_argument("MaxPool2D: window larger than input " + s.to_string());
  Tensor y(Shape{n, oh, ow, c});
  argmax_.assign(static_cast<std::size_t>(y.numel()), 0);
  std::size_t out_idx = 0;
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t yo = 0; yo < oh; ++yo) {
      for (std::int64_t xo = 0; xo < ow; ++xo) {
        for (std::int64_t ci = 0; ci < c; ++ci, ++out_idx) {
          const std::int64_t first = ((ni * h + yo * stride_) * w + xo * stride_) * c + ci;
          float best = x[static_cast<std::size_t>(first)];
          std::int64_t best_idx = first;
          bool nan = false;
          for (std::int64_t ky = 0; ky < size_; ++ky) {
            for (std::int64_t kx = 0; kx < size_; ++kx) {
              const std::int64_t flat = first + (ky * w + kx) * c;
              const float v = x[static_cast<std::size_t>(flat)];
              nan |= std::isnan(v);
              if (v > best) {
                best = v;
                best_idx = flat;
              }
            }
          }
          if (nan) {
            for (std::int64_t ky = 0; ky < size_; ++ky)
              for (std::int64_t kx = 0; kx < size_; ++kx)
                if (const std::int64_t flat = first + (ky * w + kx) * c;
                    std::isnan(x[static_cast<std::size_t>(flat)]))
                  best_idx = flat;
            best = x[static_cast<std::size_t>(best_idx)];
          }
          y[out_idx] = best;
          argmax_[out_idx] = best_idx;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2D::backward(const Tensor& dy) {
  Tensor dx(in_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    dx[static_cast<std::size_t>(argmax_[i])] += dy[i];
  return dx;
}

std::string MaxPool2D::describe() const {
  return "MaxPool2D(" + std::to_string(size_) + ", s=" + std::to_string(stride_) + ")";
}

MaxPool1D::MaxPool1D(std::int64_t size, std::int64_t stride) : size_(size), stride_(stride) {
  if (size <= 0 || stride <= 0) throw std::invalid_argument("MaxPool1D: non-positive size");
}

Tensor MaxPool1D::forward(const Tensor& x, bool /*train*/) {
  const auto& s = x.shape();
  if (s.rank() != 3)
    throw std::invalid_argument("MaxPool1D: expected rank-3 input, got " + s.to_string());
  in_shape_ = s;
  const std::int64_t n = s[0], len = s[1], c = s[2];
  const std::int64_t olen = pool_out_extent(len, size_, stride_);
  if (olen <= 0)
    throw std::invalid_argument("MaxPool1D: window larger than input " + s.to_string());
  Tensor y(Shape{n, olen, c});
  argmax_.assign(static_cast<std::size_t>(y.numel()), 0);
  std::size_t out_idx = 0;
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t lo = 0; lo < olen; ++lo) {
      for (std::int64_t ci = 0; ci < c; ++ci, ++out_idx) {
        const std::int64_t first = (ni * len + lo * stride_) * c + ci;
        float best = x[static_cast<std::size_t>(first)];
        std::int64_t best_idx = first;
        bool nan = false;
        for (std::int64_t kk = 0; kk < size_; ++kk) {
          const std::int64_t flat = first + kk * c;
          const float v = x[static_cast<std::size_t>(flat)];
          nan |= std::isnan(v);
          if (v > best) {
            best = v;
            best_idx = flat;
          }
        }
        if (nan) {
          for (std::int64_t flat = first; flat < first + size_ * c; flat += c)
            if (std::isnan(x[static_cast<std::size_t>(flat)])) best_idx = flat;
          best = x[static_cast<std::size_t>(best_idx)];
        }
        y[out_idx] = best;
        argmax_[out_idx] = best_idx;
      }
    }
  }
  return y;
}

Tensor MaxPool1D::backward(const Tensor& dy) {
  Tensor dx(in_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    dx[static_cast<std::size_t>(argmax_[i])] += dy[i];
  return dx;
}

std::string MaxPool1D::describe() const {
  return "MaxPool1D(" + std::to_string(size_) + ", s=" + std::to_string(stride_) + ")";
}

}  // namespace swt
