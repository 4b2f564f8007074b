// Symbolic layer descriptions (the "operations" of variable nodes).
//
// A search space is defined over OpSpecs rather than concrete layers because
// a layer's constructor arguments (input channels, flattened width, ...)
// depend on everything upstream of it; the builder in search_space.cpp
// propagates shapes and instantiates concrete layers from these specs.
#pragma once

#include <string>
#include <vector>

#include "nn/conv.hpp"
#include "nn/layer.hpp"
#include "tensor/shape.hpp"

namespace swt {

enum class OpKind {
  kIdentity,
  kDense,
  kConv2D,
  kConv1D,
  kMaxPool2D,
  kMaxPool1D,
  kBatchNorm,
  kDropout,
  kActivation,
  kFlatten,
};

struct OpSpec {
  OpKind kind = OpKind::kIdentity;
  std::int64_t units = 0;       ///< Dense width
  std::int64_t filters = 0;     ///< Conv output channels
  std::int64_t kernel = 3;      ///< Conv kernel extent
  Padding pad = Padding::kSame; ///< Conv padding
  std::int64_t pool = 2;        ///< Pool window
  std::int64_t stride = 2;      ///< Pool stride
  double rate = 0.0;            ///< Dropout rate
  ActKind act = ActKind::kRelu; ///< Activation kind
  bool fused_act = false;       ///< Dense followed by `act` (e.g. Dense(50, relu))
  float l2 = 0.0f;              ///< Conv/Dense kernel L2 coefficient

  // -- concise constructors matching the paper's notation -----------------
  [[nodiscard]] static OpSpec identity() { return {}; }
  [[nodiscard]] static OpSpec dense(std::int64_t units);
  [[nodiscard]] static OpSpec dense(std::int64_t units, ActKind act);
  [[nodiscard]] static OpSpec conv2d(std::int64_t filters, std::int64_t kernel, Padding pad,
                                     float l2 = 0.0f);
  [[nodiscard]] static OpSpec conv1d(std::int64_t filters, std::int64_t kernel, Padding pad);
  [[nodiscard]] static OpSpec maxpool2d(std::int64_t pool, std::int64_t stride);
  [[nodiscard]] static OpSpec maxpool1d(std::int64_t pool, std::int64_t stride);
  [[nodiscard]] static OpSpec batchnorm();
  [[nodiscard]] static OpSpec dropout(double rate);
  [[nodiscard]] static OpSpec activation(ActKind act);
  [[nodiscard]] static OpSpec flatten();

  [[nodiscard]] std::string to_string() const;
};

/// Instantiate `spec` against the current (batch-free) data shape.
///
// Appends zero or more layers to `out` and updates `io_shape`.  `name`
// prefixes parameter names and must be unique per call site.  Guardrails for
// combinations a random search inevitably produces (documented in DESIGN.md):
// a pooling window larger than the input degrades to identity, and a valid
// convolution that would produce a non-positive extent degrades to "same"
// padding.  Dense on a rank>1 shape inserts a Flatten first.
void instantiate_op(const OpSpec& spec, const std::string& name, Shape& io_shape,
                    std::vector<LayerPtr>& out);

}  // namespace swt
