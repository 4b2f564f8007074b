#include "nn/adam.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace swt {

void Adam::step(std::vector<ParamRef>& params) {
  if (m_.empty()) {
    m_.reserve(params.size());
    v_.reserve(params.size());
    for (auto& p : params) {
      m_.emplace_back(p.value->shape());
      v_.emplace_back(p.value->shape());
    }
  }
  if (m_.size() != params.size())
    throw std::logic_error("Adam: parameter list changed between steps");
  // The kernel reads and writes value.numel() elements of every buffer.
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    const ParamRef& p = params[pi];
    if (!p.trainable || p.grad == nullptr) continue;
    const Shape& shape = p.value->shape();
    if (m_[pi].shape() != shape || v_[pi].shape() != shape)
      throw std::logic_error("Adam: shape of parameter '" + p.name +
                             "' changed between steps");
    if (p.grad->shape() != shape)
      throw std::logic_error("Adam: gradient of '" + p.name +
                             "' does not match its parameter's shape");
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
  kernels::AdamStep step{.alpha = cfg_.lr * std::sqrt(bc2) / bc1,
                         .epsilon = cfg_.epsilon,
                         .beta1 = static_cast<float>(cfg_.beta1),
                         .beta2 = static_cast<float>(cfg_.beta2)};

  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    auto& p = params[pi];
    if (!p.trainable || p.grad == nullptr) continue;
    step.weight_decay = p.weight_decay;
    kernels::adam_update(p.value->data(), p.grad->data(), m_[pi].data(), v_[pi].data(),
                         p.value->numel(), step);
  }
}

}  // namespace swt
