#include "ckpt/weight_bank.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "ckpt/wire.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace swt {

namespace {

// Frame magics: "SWTK" (chunK) and "SWTM" (Manifest), little-endian u32.
constexpr std::uint32_t kChunkMagic = 0x4B545753;
constexpr std::uint32_t kManifestMagic = 0x4D545753;
constexpr std::uint8_t kBankVersion = 1;

/// One splitmix64-style avalanche step (Steele et al.); both hash lanes use
/// it with distinct odd multipliers so a collision in one lane is
/// independent of the other.
[[nodiscard]] std::uint64_t avalanche(std::uint64_t x, std::uint64_t m1,
                                      std::uint64_t m2) noexcept {
  x ^= x >> 30;
  x *= m1;
  x ^= x >> 27;
  x *= m2;
  x ^= x >> 31;
  return x;
}

struct HashLane {
  std::uint64_t state;
  std::uint64_t m1;
  std::uint64_t m2;
  void feed(std::uint64_t word) noexcept {
    state = avalanche(state ^ word, m1, m2) + 0x9E3779B97F4A7C15ULL;
  }
};

/// CRC-framed chunk payload: the encoded tensor values plus enough metadata
/// (codec kind, value count) to decode them without the manifest.
[[nodiscard]] std::vector<std::byte> encode_chunk_frame(std::span<const float> values,
                                                        CompressionKind kind) {
  wire::Writer w;
  w.u32(kChunkMagic);
  w.u8(kBankVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(values.size());
  w.blob(encode_values(values, kind));
  const std::uint32_t crc = crc32(w.bytes().data(), w.size());
  w.u32(crc);
  return std::move(w.bytes());
}

/// Decode a chunk frame into float values; throws std::runtime_error on any
/// structural or CRC mismatch, and when the value count disagrees with
/// `expected_count` (a chunk swapped under a manifest's nose).
[[nodiscard]] std::vector<float> decode_chunk_frame(const std::vector<std::byte>& frame,
                                                    std::size_t expected_count) {
  if (frame.size() < sizeof(std::uint32_t))
    throw std::runtime_error("weight bank: chunk frame truncated");
  const std::size_t body = frame.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, frame.data() + body, sizeof stored_crc);
  if (crc32(frame.data(), body) != stored_crc)
    throw std::runtime_error("weight bank: chunk CRC mismatch");
  wire::Reader r(frame.data(), body);
  if (r.u32() != kChunkMagic) throw std::runtime_error("weight bank: bad chunk magic");
  if (r.u8() != kBankVersion) throw std::runtime_error("weight bank: chunk version mismatch");
  const auto kind = static_cast<CompressionKind>(r.u8());
  const std::uint64_t count = r.u64();
  if (count != expected_count)
    throw std::runtime_error("weight bank: chunk value count mismatch");
  const std::vector<std::byte> payload = r.blob();
  return decode_values(payload, count, kind);
}

/// Where one of the bank's two blob planes lives: in memory, or `dir`/`plane`.
[[nodiscard]] std::filesystem::path plane_dir(WeightBank::Backend backend,
                                              const std::filesystem::path& dir,
                                              const char* plane) {
  if (backend == WeightBank::Backend::kMemory) return {};
  if (dir.empty()) throw std::invalid_argument("WeightBank: disk backend needs a dir");
  return dir / plane;
}

}  // namespace

std::string ChunkId::hex() const {
  std::array<char, 33> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx%016llx",
                static_cast<unsigned long long>(hi), static_cast<unsigned long long>(lo));
  return std::string(buf.data(), 32);
}

ChunkId chunk_id(const Tensor& value) {
  // Two independent lanes over the same word stream: rank, each dim, the
  // float payload 8 bytes at a time, and finally the byte length (so a
  // zero-padded tail cannot alias a longer tensor).
  HashLane a{0x6A09E667F3BCC909ULL, 0xBF58476D1CE4E5B9ULL, 0x94D049BB133111EBULL};
  HashLane b{0xBB67AE8584CAA73BULL, 0xFF51AFD7ED558CCDULL, 0xC4CEB9FE1A85EC53ULL};
  const std::vector<std::int64_t>& dims = value.shape().dims();
  a.feed(dims.size());
  b.feed(dims.size());
  for (std::int64_t d : dims) {
    a.feed(static_cast<std::uint64_t>(d));
    b.feed(static_cast<std::uint64_t>(d));
  }
  std::span<const float> vals = value.values();
  const auto* bytes = reinterpret_cast<const unsigned char*>(vals.data());
  const std::size_t nbytes = vals.size() * sizeof(float);
  std::size_t i = 0;
  for (; i + 8 <= nbytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, sizeof word);
    a.feed(word);
    b.feed(word);
  }
  if (i < nbytes) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, nbytes - i);
    a.feed(word);
    b.feed(word);
  }
  a.feed(nbytes);
  b.feed(nbytes);
  return ChunkId{a.state, b.state};
}

WeightBank::WeightBank(Backend backend, std::filesystem::path dir,
                       CompressionKind compression, std::size_t byte_budget)
    : compression_(compression),
      byte_budget_(byte_budget),
      chunk_blobs_(plane_dir(backend, dir, "chunks"), ".chk"),
      manifest_blobs_(plane_dir(backend, dir, "manifests"), ".swtm") {
  // Reopen (crash recovery).  Order matters: manifests are the roots, so
  // they are adopted first and chunk refcounts rebuilt from them; only then
  // can a chunk file be classified as live or orphan.  A writer killed
  // between its chunk writes and its manifest write leaves exactly the
  // orphan case — the chunks are garbage-collected and the put never
  // happened, which is the same contract the flat store's tmp+rename gives.
  // Both loops walk copies of the adopted names because they drop entries.
  for (const auto& [key, size] : std::map(manifest_blobs_.sizes())) {
    Manifest m;
    try {
      m = decode_manifest(manifest_blobs_.get(key).value());
    } catch (const std::exception& e) {
      log_warn("weight bank: dropping corrupt manifest ", key, ": ", e.what());
      manifest_blobs_.remove(key);
      continue;
    }
    for (const TensorRef& ref : m.tensors) {
      Chunk& c = chunks_[ref.id];
      ++c.refs;
      c.resident = false;  // confirmed below if the file exists
    }
    manifests_[key] = std::move(m);
  }
  for (const auto& [name, size] : std::map(chunk_blobs_.sizes())) {
    ChunkId id{};
    if (name.size() == 32) {
      id.hi = std::strtoull(name.substr(0, 16).c_str(), nullptr, 16);
      id.lo = std::strtoull(name.substr(16).c_str(), nullptr, 16);
    }
    auto it = chunks_.find(id);
    if (it == chunks_.end() || id.hex() != name) {
      // Orphan: no surviving manifest references this content.
      chunk_blobs_.remove(name);
      continue;
    }
    it->second.resident = true;
    it->second.encoded_bytes = size;
    it->second.last_used = ++tick_;
    resident_bytes_ += size;
  }
  // Seed the traffic meters so dedup_ratio() stays meaningful across a
  // reopen: every adopted resident chunk was written once, and every
  // manifest reference re-counts its chunk logically.
  for (const auto& [id, c] : chunks_)
    if (c.resident) {
      unique_written_ += c.encoded_bytes;
      logical_written_ += c.encoded_bytes * c.refs;
    }
  evict_to_budget_locked();
}

std::vector<std::byte> WeightBank::encode_manifest(const Manifest& m) const {
  wire::Writer w;
  w.u32(kManifestMagic);
  w.u8(kBankVersion);
  w.u8(static_cast<std::uint8_t>(compression_));
  w.u64(m.arch.size());
  for (int v : m.arch) w.i64(v);
  w.f64(m.score);
  w.u64(m.tensors.size());
  for (const TensorRef& ref : m.tensors) {
    w.str(ref.name);
    w.u64(ref.dims.size());
    for (std::int64_t d : ref.dims) w.i64(d);
    w.u64(ref.id.hi);
    w.u64(ref.id.lo);
  }
  const std::uint32_t crc = crc32(w.bytes().data(), w.size());
  w.u32(crc);
  return std::move(w.bytes());
}

WeightBank::Manifest WeightBank::decode_manifest(const std::vector<std::byte>& bytes) {
  if (bytes.size() < sizeof(std::uint32_t))
    throw std::runtime_error("weight bank: manifest truncated");
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body, sizeof stored_crc);
  if (crc32(bytes.data(), body) != stored_crc)
    throw std::runtime_error("weight bank: manifest CRC mismatch");
  wire::Reader r(bytes.data(), body);
  if (r.u32() != kManifestMagic) throw std::runtime_error("weight bank: bad manifest magic");
  if (r.u8() != kBankVersion)
    throw std::runtime_error("weight bank: manifest version mismatch");
  r.u8();  // compression kind at write time; each chunk frame carries its own
  Manifest m;
  const std::uint64_t arch_n = r.count(sizeof(std::int64_t));
  m.arch.reserve(arch_n);
  for (std::uint64_t i = 0; i < arch_n; ++i) m.arch.push_back(static_cast<int>(r.i64()));
  m.score = r.f64();
  // Each tensor takes at least its name length, rank and two hash words.
  const std::uint64_t tensor_n = r.count(4 * sizeof(std::uint64_t));
  m.tensors.reserve(tensor_n);
  for (std::uint64_t i = 0; i < tensor_n; ++i) {
    TensorRef ref;
    ref.name = r.str();
    const std::uint64_t rank = r.count(sizeof(std::int64_t));
    ref.dims.reserve(rank);
    for (std::uint64_t d = 0; d < rank; ++d) ref.dims.push_back(r.i64());
    ref.id.hi = r.u64();
    ref.id.lo = r.u64();
    m.tensors.push_back(std::move(ref));
  }
  return m;
}

BankPutStats WeightBank::put(const std::string& key, const Checkpoint& ckpt) {
  std::scoped_lock lock(mutex_);
  BankPutStats stats;
  Manifest m;
  m.arch = ckpt.arch;
  m.score = ckpt.score;
  m.tensors.reserve(ckpt.tensors.size());

  // Phase 1: resolve every tensor to a chunk, materialising first-seen (or
  // previously evicted) content.  Chunk files land on disk *before* the
  // manifest that roots them — the crash-consistency ordering.
  for (const NamedTensor& t : ckpt.tensors) {
    TensorRef ref{t.name, t.value.shape().dims(), chunk_id(t.value)};
    auto [it, inserted] = chunks_.try_emplace(ref.id);
    Chunk& c = it->second;
    if (inserted || !c.resident) {
      std::vector<std::byte> frame = encode_chunk_frame(t.value.values(), compression_);
      c.encoded_bytes = frame.size();
      c.resident = true;
      resident_bytes_ += c.encoded_bytes;
      stats.new_chunk_bytes += c.encoded_bytes;
      unique_written_ += c.encoded_bytes;
      chunk_blobs_.put(ref.id.hex(), std::move(frame));
    } else {
      ++stats.deduped_chunks;
    }
    c.last_used = ++tick_;
    stats.logical_chunk_bytes += c.encoded_bytes;
    logical_written_ += c.encoded_bytes;
    ++c.refs;  // the new manifest's reference; the old one is released below
    m.tensors.push_back(std::move(ref));
  }

  // Phase 2: root the chunks with the manifest (atomic replace on disk).
  std::vector<std::byte> manifest_bytes = encode_manifest(m);
  stats.manifest_bytes = manifest_bytes.size();
  manifest_blobs_.put(key, std::move(manifest_bytes));

  // Phase 3: swap in the new manifest.  New references were added first, so
  // an overwrite sharing chunks with its predecessor can never drop them to
  // zero refs in between.  A new key releases an empty manifest.
  Manifest& slot = manifests_[key];
  release_manifest_locked(slot);
  slot = std::move(m);

  if (metrics_enabled()) {
    MetricsRegistry& reg = metrics();
    reg.counter("bank.put_total").add();
    reg.counter("bank.dedup_chunks_total").add(
        static_cast<std::int64_t>(stats.deduped_chunks));
    reg.counter("bank.unique_bytes_total").add(
        static_cast<std::int64_t>(stats.new_chunk_bytes));
    reg.counter("bank.logical_bytes_total").add(
        static_cast<std::int64_t>(stats.logical_chunk_bytes));
  }
  evict_to_budget_locked();
  return stats;
}

std::optional<std::vector<float>> WeightBank::load_chunk_locked(const TensorRef& ref) {
  auto it = chunks_.find(ref.id);
  if (it == chunks_.end() || !it->second.resident) return std::nullopt;
  Chunk& c = it->second;
  std::size_t count = 1;
  for (std::int64_t d : ref.dims) count *= static_cast<std::size_t>(d);
  try {
    return decode_chunk_frame(chunk_blobs_.get(ref.id.hex()).value(), count);
  } catch (const std::exception& e) {
    // Corrupt (or unreadable) chunk: de-materialise it so a future re-put of
    // the same content refetches a clean copy, and report a miss — the
    // evaluator's random-init fallback handles the rest.
    log_warn("weight bank: corrupt chunk ", ref.id.hex(), " (", ref.name,
             "): ", e.what());
    ++corrupt_chunks_;
    if (metrics_enabled()) metrics().counter("bank.corrupt_chunks_total").add();
    resident_bytes_ -= c.encoded_bytes;
    c.resident = false;
    chunk_blobs_.remove(ref.id.hex());
    return std::nullopt;
  }
}

std::optional<Checkpoint> WeightBank::try_get(const std::string& key,
                                              std::size_t* manifest_bytes) {
  std::scoped_lock lock(mutex_);
  auto it = manifests_.find(key);
  if (it == manifests_.end()) return std::nullopt;
  const Manifest& m = it->second;
  if (manifest_bytes != nullptr) *manifest_bytes = manifest_blobs_.sizes().at(key);
  Checkpoint ckpt;
  ckpt.arch = m.arch;
  ckpt.score = m.score;
  ckpt.tensors.reserve(m.tensors.size());
  for (const TensorRef& ref : m.tensors) {
    std::optional<std::vector<float>> values = load_chunk_locked(ref);
    if (!values.has_value()) {
      if (metrics_enabled()) metrics().counter("bank.get_miss_total").add();
      return std::nullopt;  // evicted / missing / corrupt chunk
    }
    chunks_[ref.id].last_used = ++tick_;
    ckpt.tensors.push_back(NamedTensor{ref.name, Tensor(Shape(ref.dims), *std::move(values))});
  }
  if (metrics_enabled()) metrics().counter("bank.get_total").add();
  return ckpt;
}

void WeightBank::release_manifest_locked(const Manifest& m) {
  for (const TensorRef& ref : m.tensors) {
    auto it = chunks_.find(ref.id);
    if (it == chunks_.end()) continue;
    if (--it->second.refs == 0) {
      if (it->second.resident) resident_bytes_ -= it->second.encoded_bytes;
      chunk_blobs_.remove(ref.id.hex());
      chunks_.erase(it);
    }
  }
}

bool WeightBank::remove(const std::string& key) {
  std::scoped_lock lock(mutex_);
  auto it = manifests_.find(key);
  if (it == manifests_.end()) return false;
  // The root goes first: a kill before the chunks are released leaves
  // orphans, which reopen collects, never a manifest naming lost chunks.
  manifest_blobs_.remove(key);
  release_manifest_locked(it->second);
  manifests_.erase(it);
  return true;
}

void WeightBank::evict_to_budget_locked() {
  if (byte_budget_ == 0) return;
  while (resident_bytes_ > byte_budget_) {
    // LRU victim with (last_used, id) tie-break: deterministic for a
    // deterministic operation sequence.
    auto victim = chunks_.end();
    for (auto it = chunks_.begin(); it != chunks_.end(); ++it) {
      if (!it->second.resident) continue;
      if (victim == chunks_.end() || it->second.last_used < victim->second.last_used)
        victim = it;
    }
    if (victim == chunks_.end()) break;
    Chunk& c = victim->second;
    resident_bytes_ -= c.encoded_bytes;
    ++evicted_chunks_;
    evicted_bytes_ += c.encoded_bytes;
    if (metrics_enabled()) metrics().counter("bank.evicted_chunks_total").add();
    c.resident = false;  // the entry stays: refcounts must survive eviction
    chunk_blobs_.remove(victim->first.hex());
  }
}

bool WeightBank::contains(const std::string& key) const {
  std::scoped_lock lock(mutex_);
  return manifests_.contains(key);
}

std::size_t WeightBank::count() const {
  std::scoped_lock lock(mutex_);
  return manifests_.size();
}

std::vector<std::string> WeightBank::keys() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(manifests_.size());
  for (const auto& [key, m] : manifests_) out.push_back(key);
  return out;  // std::map iteration order: already sorted
}

BankStats WeightBank::stats() const {
  std::scoped_lock lock(mutex_);
  BankStats s;
  s.chunk_count = chunks_.size();
  s.resident_chunk_bytes = resident_bytes_;
  s.manifest_count = manifests_.size();
  for (const auto& [key, size] : manifest_blobs_.sizes()) s.manifest_bytes += size;
  s.unique_bytes_written = unique_written_;
  s.logical_bytes_written = logical_written_;
  s.evicted_chunks = evicted_chunks_;
  s.evicted_bytes = evicted_bytes_;
  s.corrupt_chunks = corrupt_chunks_;
  return s;
}

}  // namespace swt
