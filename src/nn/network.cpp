#include "nn/network.hpp"

#include <sstream>
#include <stdexcept>

namespace swt {

std::vector<ParamRef> Network::params() {
  std::vector<ParamRef> out;
  collect_params(out);
  return out;
}

void Network::zero_grads() {
  for (auto& p : params())
    if (p.grad != nullptr) p.grad->zero();
}

std::int64_t Network::param_count() {
  std::int64_t n = 0;
  for (auto& p : params()) n += p.value->numel();
  return n;
}

Tensor Network::forward1(const Tensor& x, bool train) {
  return forward(std::span<const Tensor>(&x, 1), train);
}

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------

Tensor Sequential::forward(std::span<const Tensor> inputs, bool train) {
  if (inputs.size() != 1)
    throw std::invalid_argument("Sequential: expected exactly one input tensor");
  Tensor h = inputs[0];
  for (auto& layer : layers_) h = layer->forward(h, train);
  return h;
}

void Sequential::backward(const Tensor& dy) {
  if (layers_.empty()) return;
  // The first layer's input is data: its dL/d(input) is never read, so it
  // only accumulates parameter gradients.
  Tensor g = dy;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) g = layers_[i]->backward(g);
  layers_.front()->backward_params(g);
}

Tensor Sequential::backward_to_input(const Tensor& dy) {
  Tensor g = dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::collect_params(std::vector<ParamRef>& out) {
  for (auto& layer : layers_) layer->collect_params(out);
}

void Sequential::set_train_rng(Rng* rng) {
  for (auto& layer : layers_) layer->set_train_rng(rng);
}

void Sequential::init(Rng& rng) {
  for (auto& layer : layers_) layer->init(rng);
}

std::string Sequential::describe() const {
  std::ostringstream os;
  os << "Sequential[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i) os << " -> ";
    os << layers_[i]->describe();
  }
  os << "]";
  return os.str();
}

// ---------------------------------------------------------------------------
// MultiTowerNet
// ---------------------------------------------------------------------------

MultiTowerNet::MultiTowerNet(std::vector<std::unique_ptr<Sequential>> towers,
                             std::unique_ptr<Sequential> trunk, bool extra_raw_input)
    : towers_(std::move(towers)), trunk_(std::move(trunk)), extra_raw_input_(extra_raw_input) {
  if (towers_.empty() || trunk_ == nullptr)
    throw std::invalid_argument("MultiTowerNet: towers and trunk required");
}

Tensor MultiTowerNet::forward(std::span<const Tensor> inputs, bool train) {
  if (inputs.size() != num_inputs())
    throw std::invalid_argument("MultiTowerNet: expected " + std::to_string(num_inputs()) +
                                " inputs, got " + std::to_string(inputs.size()));
  std::vector<Tensor> blocks;
  blocks.reserve(towers_.size() + 1);
  for (std::size_t t = 0; t < towers_.size(); ++t)
    blocks.push_back(towers_[t]->forward(inputs.subspan(t, 1), train));
  if (extra_raw_input_) blocks.push_back(inputs[towers_.size()]);

  const std::int64_t n = blocks.front().shape()[0];
  concat_widths_.clear();
  std::int64_t total = 0;
  for (const auto& b : blocks) {
    if (b.shape().rank() != 2 || b.shape()[0] != n)
      throw std::invalid_argument("MultiTowerNet: tower outputs must be rank-2, same batch");
    concat_widths_.push_back(b.shape()[1]);
    total += b.shape()[1];
  }
  Tensor cat(Shape{n, total});
  for (std::int64_t i = 0; i < n; ++i) {
    float* dst = cat.data() + i * total;
    for (const auto& b : blocks) {
      const std::int64_t w = b.shape()[1];
      const float* src = b.data() + i * w;
      for (std::int64_t j = 0; j < w; ++j) dst[j] = src[j];
      dst += w;
    }
  }
  return trunk_->forward(std::span<const Tensor>(&cat, 1), train);
}

void MultiTowerNet::backward(const Tensor& dy) {
  Tensor dcat = trunk_->backward_to_input(dy);
  const std::int64_t n = dcat.shape()[0];
  const std::int64_t total = dcat.shape()[1];
  std::int64_t offset = 0;
  for (std::size_t t = 0; t < towers_.size(); ++t) {
    const std::int64_t w = concat_widths_[t];
    Tensor dt(Shape{n, w});
    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = dcat.data() + i * total + offset;
      float* dst = dt.data() + i * w;
      for (std::int64_t j = 0; j < w; ++j) dst[j] = src[j];
    }
    towers_[t]->backward(dt);
    offset += w;
  }
  // Gradient w.r.t. the raw fourth input is discarded (inputs are data).
}

void MultiTowerNet::collect_params(std::vector<ParamRef>& out) {
  for (auto& t : towers_) t->collect_params(out);
  trunk_->collect_params(out);
}

void MultiTowerNet::set_train_rng(Rng* rng) {
  for (auto& t : towers_) t->set_train_rng(rng);
  trunk_->set_train_rng(rng);
}

void MultiTowerNet::init(Rng& rng) {
  for (auto& t : towers_) t->init(rng);
  trunk_->init(rng);
}

std::string MultiTowerNet::describe() const {
  std::ostringstream os;
  os << "MultiTower[" << towers_.size() << " towers";
  if (extra_raw_input_) os << " + raw input";
  os << "; trunk " << trunk_->describe() << "]";
  return os.str();
}

}  // namespace swt
