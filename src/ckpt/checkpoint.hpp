// Model checkpoints.
//
// A checkpoint captures everything the weight-transfer path needs from a
// provider model: its architecture sequence, its evaluation score and its
// named parameter tensors in topological order.  The binary codec is our
// stand-in for the paper's HDF5 files: little-endian, versioned, with a
// CRC-32 trailer so corrupted reads fail loudly instead of poisoning a
// receiver model's initialisation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/compress.hpp"
#include "nn/network.hpp"
#include "tensor/tensor.hpp"

namespace swt {

struct NamedTensor {
  std::string name;
  Tensor value;
};

struct Checkpoint {
  std::vector<int> arch;          ///< architecture sequence of the provider
  double score = 0.0;             ///< estimation score at checkpoint time
  std::vector<NamedTensor> tensors;

  /// Snapshot every persisted parameter of `net` (topological order).
  [[nodiscard]] static Checkpoint from_network(Network& net, std::vector<int> arch,
                                               double score);

  /// Total parameter bytes (excluding metadata); Fig. 11's size metric.
  [[nodiscard]] std::size_t payload_bytes() const noexcept;
};

/// CRC-32 (IEEE, reflected) over a byte range.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len) noexcept;

/// Encode to the versioned binary format.  Lossy compression (fp16/quant8)
/// shrinks the payload at a bounded reconstruction error — acceptable for
/// weight transfer, where weights are an initialisation (see compress.hpp).
[[nodiscard]] std::vector<std::byte> serialize(
    const Checkpoint& ckpt, CompressionKind compression = CompressionKind::kNone);

/// Byte length serialize() produces for a checkpoint of `net` taken under an
/// architecture sequence of `arch_length` choices.  A function of parameter
/// names and shapes only (encoded_size depends on element counts alone), so
/// it prices a candidate's checkpoint write before the candidate trains.
[[nodiscard]] std::size_t serialized_size(Network& net, std::size_t arch_length,
                                          CompressionKind compression = CompressionKind::kNone);

/// Decode; throws std::runtime_error on truncation, bad magic, version
/// mismatch, CRC failure or a length or count the stream cannot hold.
[[nodiscard]] Checkpoint deserialize(const std::vector<std::byte>& bytes);

}  // namespace swt
