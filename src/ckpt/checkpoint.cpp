#include "ckpt/checkpoint.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

#include "ckpt/wire.hpp"

namespace swt {

namespace {

constexpr std::uint32_t kMagic = 0x53575443;  // "SWTC"
constexpr std::uint32_t kVersion = 2;

/// Slicing-by-8 tables for the reflected CRC-32 polynomial: tables[0] is the
/// bytewise table, and tables[k][i] is the CRC of byte i followed by k zero
/// bytes, so one step folds eight input bytes with eight lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) noexcept {
  static const CrcTables t = make_crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t x = c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                                 std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    c = t[7][x & 0xFF] ^ t[6][(x >> 8) & 0xFF] ^ t[5][(x >> 16) & 0xFF] ^ t[4][x >> 24] ^
        t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Checkpoint Checkpoint::from_network(Network& net, std::vector<int> arch, double score) {
  Checkpoint ckpt;
  ckpt.arch = std::move(arch);
  ckpt.score = score;
  for (const auto& p : net.params()) ckpt.tensors.push_back({p.name, *p.value});
  return ckpt;
}

std::size_t Checkpoint::payload_bytes() const noexcept {
  std::size_t n = 0;
  for (const auto& t : tensors) n += static_cast<std::size_t>(t.value.numel()) * sizeof(float);
  return n;
}

std::vector<std::byte> serialize(const Checkpoint& ckpt, CompressionKind compression) {
  wire::Writer w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.u32(static_cast<std::uint32_t>(compression));
  w.f64(ckpt.score);
  w.u64(ckpt.arch.size());
  for (int c : ckpt.arch) w.u32(static_cast<std::uint32_t>(c));
  w.u64(ckpt.tensors.size());
  for (const auto& t : ckpt.tensors) {
    w.str(t.name);
    w.u64(t.value.shape().rank());
    for (std::int64_t d : t.value.shape().dims()) w.u64(static_cast<std::uint64_t>(d));
    const auto payload = encode_values(t.value.values(), compression);
    w.raw(payload.data(), payload.size());
  }
  const std::uint32_t crc = crc32(w.bytes().data(), w.bytes().size());
  w.u32(crc);
  return std::move(w.bytes());
}

std::size_t serialized_size(Network& net, std::size_t arch_length,
                            CompressionKind compression) {
  constexpr std::size_t kU32 = sizeof(std::uint32_t);
  constexpr std::size_t kU64 = sizeof(std::uint64_t);
  // magic, version, compression, score, arch length + entries, tensor count.
  std::size_t n = 3 * kU32 + sizeof(double) + kU64 + arch_length * kU32 + kU64;
  for (const ParamRef& p : net.params()) {
    const Shape& shape = p.value->shape();
    n += kU64 + p.name.size() + kU64 + shape.rank() * kU64 +
         encoded_size(compression, static_cast<std::size_t>(shape.numel()));
  }
  return n + kU32;  // CRC trailer
}

Checkpoint deserialize(const std::vector<std::byte>& bytes) {
  if (bytes.size() < sizeof(std::uint32_t) * 3)
    throw std::runtime_error("checkpoint: stream too short");
  // Verify the CRC over everything before the 4-byte trailer.
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored;
  std::memcpy(&stored, bytes.data() + body, sizeof stored);
  if (crc32(bytes.data(), body) != stored)
    throw std::runtime_error("checkpoint: CRC mismatch (corrupted checkpoint)");

  wire::Reader r(bytes.data(), body);
  if (r.u32() != kMagic) throw std::runtime_error("checkpoint: bad magic");
  const std::uint32_t version = r.u32();
  if (version != kVersion)
    throw std::runtime_error("checkpoint: unsupported version " + std::to_string(version));
  const std::uint32_t compression_raw = r.u32();
  if (compression_raw > static_cast<std::uint32_t>(CompressionKind::kQuant8))
    throw std::runtime_error("checkpoint: unknown compression kind");
  const auto compression = static_cast<CompressionKind>(compression_raw);
  Checkpoint ckpt;
  ckpt.score = r.f64();
  const std::uint64_t arch_len = r.count(sizeof(std::uint32_t));
  ckpt.arch.reserve(arch_len);
  for (std::uint64_t i = 0; i < arch_len; ++i) ckpt.arch.push_back(static_cast<int>(r.u32()));
  // Each tensor takes at least its name length and rank fields.
  const std::uint64_t n_tensors = r.count(2 * sizeof(std::uint64_t));
  ckpt.tensors.reserve(n_tensors);
  for (std::uint64_t i = 0; i < n_tensors; ++i) {
    NamedTensor nt;
    nt.name = r.str();
    std::vector<std::int64_t> dims(r.count(sizeof(std::uint64_t)));
    std::uint64_t count = 1;
    for (auto& d : dims) {
      // Every value takes at least one payload byte, so neither a dim nor
      // the running element count may exceed the bytes left.  That also
      // keeps every dim non-negative and numel() from overflowing.
      const std::uint64_t dim = r.u64();
      if (dim > r.remaining() || (dim != 0 && count > r.remaining() / dim))
        throw std::runtime_error("checkpoint: tensor shape exceeds stream");
      count *= dim;
      d = static_cast<std::int64_t>(dim);
    }
    Shape shape(std::move(dims));
    std::vector<std::byte> payload(encoded_size(compression, count));
    r.raw(payload.data(), payload.size());
    nt.value = Tensor(std::move(shape), decode_values(payload, count, compression));
    ckpt.tensors.push_back(std::move(nt));
  }
  if (r.remaining() != 0) throw std::runtime_error("checkpoint: trailing garbage");
  return ckpt;
}

}  // namespace swt
