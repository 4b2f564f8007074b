// The four application search spaces from Section VII-A, downscaled.
//
// Structure (variable-node kinds, their order, which choice sets repeat) is
// preserved exactly; widths/filter counts are scaled to CPU-trainable sizes.
// Classifier / regressor heads are fixed (they are not variable nodes in the
// paper either).
#pragma once

#include "nas/search_space.hpp"

namespace swt {

/// CIFAR-10-like: three VGG blocks of [Conv, Pool, BatchNorm] x 2, then
/// three Dense variable nodes.  21 VNs.  Input (hw, hw, 3), 10 classes.
[[nodiscard]] SearchSpace make_cifar_space(std::int64_t hw = 8);

/// MNIST-like (LeNet-5 order): Conv, Act, Pool, Conv, Act, Pool, Dense,
/// Act, Dense, Act, Dropout.  11 VNs.  Input (hw, hw, 1), 10 classes.
[[nodiscard]] SearchSpace make_mnist_space(std::int64_t hw = 8);

/// NT3-like (1-D): Conv1D, Act, Pool, Dense, Act, Dropout, Dense, Act,
/// Dropout.  9 VNs.  Input (length, 1), 2 classes.
[[nodiscard]] SearchSpace make_nt3_space(std::int64_t length = 96);

/// Uno-like: three towers of 3 VNs (inputs: dose=1, gene, drug) whose
/// outputs concatenate with a raw fourth input (extra), then a 4-VN trunk
/// and a Dense(1) head.  13 VNs; every VN draws from the SAME choice set
/// (identity / dense / dropout), which is what flattens Uno's LCS curve in
/// Fig. 5 of the paper.
[[nodiscard]] SearchSpace make_uno_space(std::int64_t gene = 32, std::int64_t drug = 24,
                                         std::int64_t extra = 16);

}  // namespace swt
