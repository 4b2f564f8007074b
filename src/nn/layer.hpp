// Layer abstraction.
//
// A Layer owns its parameter tensors and the gradient buffers for them, and
// implements forward / backward for batched inputs (dimension 0 is always the
// batch axis).  forward() caches whatever backward() needs, so the usage
// contract is strictly: forward, then at most one backward for that forward.
//
// Parameters are exposed through ParamRef, which is the unit the rest of the
// system operates on: the optimizer steps them, checkpoints serialize them,
// and — centrally for this paper — the LP/LCS matchers compare their shapes
// to decide which tensors transfer between candidate models.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace swt {

/// Non-owning handle to one parameter tensor of a layer.
struct ParamRef {
  std::string name;        ///< e.g. "conv0/W"; unique within a network
  Tensor* value = nullptr; ///< the parameter itself
  Tensor* grad = nullptr;  ///< gradient accumulator, same shape as value
  float weight_decay = 0.0f; ///< L2 coefficient applied by the optimizer
  /// False for persisted-but-not-optimised state (batch-norm running stats).
  /// Such tensors still appear in checkpoints and in shape sequences, exactly
  /// as they do in a Keras HDF5 checkpoint.
  bool trainable = true;
};

enum class ActKind { kRelu, kTanh, kSigmoid };

[[nodiscard]] const char* to_string(ActKind a) noexcept;

class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// (Re)initialise parameters; layers without parameters do nothing.
  virtual void init(Rng& /*rng*/) {}

  /// Compute outputs for a batch.  When `train` is false the layer runs in
  /// inference mode (dropout disabled, batch-norm uses running statistics).
  [[nodiscard]] virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Given dL/d(output), accumulate parameter gradients and return dL/d(input).
  [[nodiscard]] virtual Tensor backward(const Tensor& dy) = 0;

  /// Like backward() for a layer whose input gradient nobody reads (a
  /// network's first layer, fed by data): accumulates exactly the parameter
  /// gradients backward() would.  Layers that can skip computing dL/d(input)
  /// override it; the default computes and discards it.
  virtual void backward_params(const Tensor& dy) { (void)backward(dy); }

  /// Append this layer's parameters (if any) to `out`.
  virtual void collect_params(std::vector<ParamRef>& /*out*/) {}

  /// Human-readable description, e.g. "Dense(64, relu)".
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Dropout layers draw their masks from this stream; set by the trainer.
  virtual void set_train_rng(Rng* /*rng*/) {}

 protected:
  Layer() = default;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace swt
