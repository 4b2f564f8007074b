#include "ckpt/weight_bank.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/wire.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace swt {

namespace {

// Frame magics: "SWTK" (chunK), "SWTM" (Manifest) and "SWTP" (Pack index),
// little-endian u32.  Version 2 keeps chunks in packs instead of one file
// each; frames and manifests are laid out as in version 1.
constexpr std::uint32_t kChunkMagic = 0x4B545753;
constexpr std::uint32_t kManifestMagic = 0x4D545753;
constexpr std::uint32_t kPackMagic = 0x50545753;
constexpr std::uint8_t kBankVersion = 2;

// A pack starts with its index: magic, version and entry count, then per
// entry the chunk id (hi, lo), frame offset and frame length as u64s, then a
// CRC-32 of all of that.  The frames follow the index.
constexpr std::size_t kPackHeadBytes = sizeof(std::uint32_t) + 1 + sizeof(std::uint64_t);
constexpr std::size_t kPackEntryBytes = 4 * sizeof(std::uint64_t);

[[nodiscard]] constexpr std::size_t pack_index_bytes(std::size_t entries) noexcept {
  return kPackHeadBytes + entries * kPackEntryBytes + sizeof(std::uint32_t);
}

struct PackEntry {
  ChunkId id;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

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

/// Append one CRC-framed chunk to `w`: the encoded tensor values plus enough
/// metadata (codec kind, value count) to decode them without the manifest.
/// Returns the frame's length.
std::size_t append_chunk_frame(wire::Writer& w, std::span<const float> values,
                               CompressionKind kind) {
  const std::size_t start = w.size();
  w.u32(kChunkMagic);
  w.u8(kBankVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(values.size());
  w.blob(encode_values(values, kind));
  const std::uint32_t crc = crc32(w.bytes().data() + start, w.size() - start);
  w.u32(crc);
  return w.size() - start;
}

/// The length of the body that `bytes`' CRC-32 trailer covers; throws
/// std::runtime_error naming `what` when the trailer is missing or does
/// not match.
[[nodiscard]] std::size_t crc_checked_body(const std::vector<std::byte>& bytes,
                                           const char* what) {
  if (bytes.size() < sizeof(std::uint32_t))
    throw std::runtime_error(std::string("weight bank: ") + what + " truncated");
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body, sizeof stored_crc);
  if (crc32(bytes.data(), body) != stored_crc)
    throw std::runtime_error(std::string("weight bank: ") + what + " CRC mismatch");
  return body;
}

/// Decode a chunk frame into float values; throws std::runtime_error on any
/// structural or CRC mismatch, and when the value count disagrees with
/// `expected_count` (a chunk swapped under a manifest's nose).
[[nodiscard]] std::vector<float> decode_chunk_frame(const std::vector<std::byte>& frame,
                                                    std::size_t expected_count) {
  wire::Reader r(frame.data(), crc_checked_body(frame, "chunk"));
  if (r.u32() != kChunkMagic) throw std::runtime_error("weight bank: bad chunk magic");
  if (r.u8() != kBankVersion) throw std::runtime_error("weight bank: chunk version mismatch");
  const auto kind = static_cast<CompressionKind>(r.u8());
  const std::uint64_t count = r.u64();
  if (count != expected_count)
    throw std::runtime_error("weight bank: chunk value count mismatch");
  const std::vector<std::byte> payload = r.blob();
  return decode_values(payload, count, kind);
}

/// Write the index of `entries` over the pack_index_bytes() placeholder at
/// the front of `pack`.
void write_pack_index(std::vector<std::byte>& pack, const std::vector<PackEntry>& entries) {
  wire::Writer w;
  w.u32(kPackMagic);
  w.u8(kBankVersion);
  w.u64(entries.size());
  for (const PackEntry& e : entries) {
    w.u64(e.id.hi);
    w.u64(e.id.lo);
    w.u64(e.offset);
    w.u64(e.length);
  }
  const std::uint32_t crc = crc32(w.bytes().data(), w.size());
  w.u32(crc);
  std::memcpy(pack.data(), w.bytes().data(), w.size());
}

/// Decode a pack index read from the front of a `pack_size`-byte pack;
/// throws std::runtime_error on any structural or CRC mismatch and on an
/// entry whose frame does not lie inside the pack, behind the index.
[[nodiscard]] std::vector<PackEntry> decode_pack_index(const std::vector<std::byte>& bytes,
                                                       std::size_t pack_size) {
  wire::Reader r(bytes.data(), crc_checked_body(bytes, "pack index"));
  if (r.u32() != kPackMagic) throw std::runtime_error("weight bank: bad pack magic");
  if (r.u8() != kBankVersion) throw std::runtime_error("weight bank: pack version mismatch");
  const std::uint64_t n = r.count(kPackEntryBytes);
  std::vector<PackEntry> entries(n);
  for (PackEntry& e : entries) {
    e.id.hi = r.u64();
    e.id.lo = r.u64();
    e.offset = r.u64();
    e.length = r.u64();
    if (e.offset < bytes.size() || e.offset > pack_size || e.length > pack_size - e.offset)
      throw std::runtime_error("weight bank: pack entry outside the pack");
  }
  return entries;
}

/// Read and decode the index of pack `name` (`size` bytes): the fixed head
/// first, then exactly the index it announces, never more than the file.
[[nodiscard]] std::vector<PackEntry> read_pack_index(const BlobDir& packs,
                                                     const std::string& name,
                                                     std::size_t size) {
  if (size < pack_index_bytes(0)) throw std::runtime_error("weight bank: pack truncated");
  const std::vector<std::byte> head = packs.get(name, 0, kPackHeadBytes).value();
  wire::Reader r(head.data(), head.size());
  r.u32();  // magic and version are checked under the CRC below
  r.u8();
  const std::uint64_t n = r.u64();
  if (n > (size - pack_index_bytes(0)) / kPackEntryBytes)
    throw std::runtime_error("weight bank: pack entry count exceeds the pack");
  return decode_pack_index(packs.get(name, 0, pack_index_bytes(n)).value(), size);
}

/// A pack's blob name: its sequence number as 16 lowercase hex digits, so
/// name order is sequence order.
[[nodiscard]] std::string pack_name(std::uint64_t seq) {
  std::array<char, 17> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx", static_cast<unsigned long long>(seq));
  return std::string(buf.data(), 16);
}

/// The sequence number of a pack name; empty for names the bank never writes.
[[nodiscard]] std::optional<std::uint64_t> parse_pack_name(const std::string& name) {
  if (name.size() != 16 ||
      !std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
      }))
    return std::nullopt;
  return std::strtoull(name.c_str(), nullptr, 16);
}

/// Where one of the bank's two blob planes lives: in memory, or `dir`/`plane`.
[[nodiscard]] std::filesystem::path plane_dir(WeightBank::Backend backend,
                                              const std::filesystem::path& dir,
                                              const char* plane) {
  if (backend == WeightBank::Backend::kMemory) return {};
  if (dir.empty()) throw std::invalid_argument("WeightBank: disk backend needs a dir");
  // Version 1 kept one file per chunk under chunks/.  Its manifests would
  // fail the version check and be deleted one by one, so refuse the whole
  // directory instead.
  if (std::filesystem::exists(dir / "chunks"))
    throw std::runtime_error("weight bank: " + dir.string() +
                             " holds a version-1 chunks/ layout, which this build does not read");
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
      pack_blobs_(plane_dir(backend, dir, "packs"), ".pack"),
      manifest_blobs_(plane_dir(backend, dir, "manifests"), ".swtm") {
  // Reopen (crash recovery).  Order matters: manifests are the roots, so
  // they are adopted first and chunk refcounts rebuilt from them; only then
  // can a pack's frames be classified as live or dead.  A writer killed
  // between its pack and manifest writes leaves a pack of dead frames — it
  // is deleted and the put never happened, which is the same contract the
  // flat store's tmp+rename gives.  Both loops walk copies of the adopted
  // names because they drop entries.
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
      c.resident = false;  // confirmed below if a pack holds its frame
    }
    m.adopted = true;
    manifests_[key] = std::move(m);
  }
  // Packs in sequence order (16-hex names sort numerically), so a chunk
  // framed in two packs — possible only if a kill interrupted a rewrite —
  // resolves to its newest copy.  Packs left holding frames nothing live
  // needs are rewritten below, which restores disk = resident set.
  std::set<std::uint64_t> stale;
  for (const auto& [name, size] : std::map(pack_blobs_.sizes())) {
    const std::optional<std::uint64_t> seq = parse_pack_name(name);
    if (!seq.has_value()) {
      pack_blobs_.remove(name);
      continue;
    }
    next_pack_ = std::max(next_pack_, *seq + 1);
    std::vector<PackEntry> index;
    try {
      index = read_pack_index(pack_blobs_, name, size);
    } catch (const std::exception& e) {
      log_warn("weight bank: dropping pack ", name, " with a corrupt index: ", e.what());
      pack_blobs_.remove(name);
      continue;
    }
    std::vector<ChunkId>& hosted = packs_[*seq];
    for (const PackEntry& e : index) {
      const auto it = chunks_.find(e.id);
      if (it == chunks_.end()) continue;  // no surviving manifest references it
      Chunk& c = it->second;
      if (c.resident) {  // an older copy, or the same id twice in one index
        std::erase(packs_[c.pack], e.id);
        stale.insert(c.pack);
        resident_bytes_ -= c.encoded_bytes;
      }
      c.resident = true;
      c.pack = *seq;
      c.offset = e.offset;
      c.encoded_bytes = e.length;
      c.last_used = ++tick_;
      resident_bytes_ += e.length;
      hosted.push_back(e.id);
    }
    if (hosted.empty() || hosted.size() != index.size()) stale.insert(*seq);
  }
  for (std::uint64_t seq : stale) rewrite_pack_locked(seq);
  evict_to_budget_locked();
  // Seed the traffic meters so dedup_ratio() stays meaningful across a
  // reopen: every adopted resident chunk was written once, and every
  // manifest reference re-counts its chunk logically.  remove() takes an
  // adopted manifest's share back out, which needs the chunks it counts to
  // be the resident ones, so the seed follows the budget's evictions.
  for (const auto& [id, c] : chunks_)
    if (c.resident) {
      unique_written_ += c.encoded_bytes;
      logical_written_ += c.encoded_bytes * c.refs;
    }
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
  wire::Reader r(bytes.data(), crc_checked_body(bytes, "manifest"));
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
  Manifest m;
  m.arch = ckpt.arch;
  m.score = ckpt.score;
  m.tensors.reserve(ckpt.tensors.size());

  // Phase 1: resolve every tensor to a chunk.  Content the bank holds no
  // resident copy of (first seen, evicted or found corrupt) gets one frame
  // in this put's pack, however many of the tensors share it.
  std::vector<std::size_t> fresh;  // index of the first tensor of each new frame
  for (std::size_t i = 0; i < ckpt.tensors.size(); ++i) {
    const Tensor& value = ckpt.tensors[i].value;
    m.tensors.push_back({ckpt.tensors[i].name, value.shape().dims(), chunk_id(value)});
    const ChunkId& id = m.tensors.back().id;
    const auto it = chunks_.find(id);
    if (it != chunks_.end() && it->second.resident) continue;
    if (std::none_of(fresh.begin(), fresh.end(),
                     [&](std::size_t j) { return m.tensors[j].id == id; }))
      fresh.push_back(i);
  }

  // Phase 2: the pack, then the manifest that roots its frames — the
  // crash-consistency ordering.  Nothing in memory has changed yet, so a
  // throw here leaves the bank as it was (minus the pack, removed again).
  std::vector<PackEntry> entries;
  const std::string pack = pack_name(next_pack_);
  if (!fresh.empty()) {
    wire::Writer w;
    w.bytes().resize(pack_index_bytes(fresh.size()));
    for (std::size_t i : fresh) {
      const std::size_t offset = w.size();
      const std::size_t length = append_chunk_frame(w, ckpt.tensors[i].value.values(), compression_);
      entries.push_back({m.tensors[i].id, offset, length});
    }
    write_pack_index(w.bytes(), entries);
    pack_blobs_.put(pack, std::move(w.bytes()));
  }
  BankPutStats stats;
  std::vector<std::byte> manifest_bytes = encode_manifest(m);
  stats.manifest_bytes = manifest_bytes.size();
  try {
    manifest_blobs_.put(key, std::move(manifest_bytes));
  } catch (...) {
    if (!entries.empty()) pack_blobs_.remove(pack);
    throw;
  }

  // Phase 3: commit.  New references are added before the old manifest's
  // are released, so an overwrite sharing chunks with its predecessor can
  // never drop them to zero refs in between.  A new key releases an empty
  // manifest.
  if (!entries.empty()) {
    const std::uint64_t seq = next_pack_++;
    std::vector<ChunkId>& hosted = packs_[seq];
    for (const PackEntry& e : entries) {
      Chunk& c = chunks_[e.id];
      c.resident = true;
      c.pack = seq;
      c.offset = e.offset;
      c.encoded_bytes = e.length;
      resident_bytes_ += e.length;
      stats.new_chunk_bytes += e.length;
      hosted.push_back(e.id);
    }
    unique_written_ += stats.new_chunk_bytes;
  }
  for (const TensorRef& ref : m.tensors) {
    Chunk& c = chunks_.at(ref.id);
    c.last_used = ++tick_;
    ++c.refs;
    stats.logical_chunk_bytes += c.encoded_bytes;
  }
  stats.deduped_chunks = m.tensors.size() - entries.size();
  logical_written_ += stats.logical_chunk_bytes;
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
    return decode_chunk_frame(pack_blobs_.get(pack_name(c.pack), c.offset, c.encoded_bytes).value(),
                              count);
  } catch (const std::exception& e) {
    // Corrupt (or unreadable) chunk: de-materialise it so a future re-put of
    // the same content writes a clean copy, and report a miss — the
    // evaluator's random-init fallback handles the rest.
    log_warn("weight bank: corrupt chunk ", ref.id.hex(), " (", ref.name,
             "): ", e.what());
    ++corrupt_chunks_;
    if (metrics_enabled()) metrics().counter("bank.corrupt_chunks_total").add();
    resident_bytes_ -= c.encoded_bytes;
    c.resident = false;
    drop_frames_locked({{c.pack, {ref.id}}});
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

std::size_t WeightBank::release_manifest_locked(const Manifest& m) {
  FramesByPack gone;
  std::size_t freed = 0;
  for (const TensorRef& ref : m.tensors) {
    auto it = chunks_.find(ref.id);
    if (it == chunks_.end()) continue;
    if (--it->second.refs == 0) {
      if (it->second.resident) {
        freed += it->second.encoded_bytes;
        gone[it->second.pack].push_back(ref.id);
      }
      chunks_.erase(it);
    }
  }
  resident_bytes_ -= freed;
  drop_frames_locked(gone);
  return freed;
}

bool WeightBank::remove(const std::string& key) {
  std::scoped_lock lock(mutex_);
  auto it = manifests_.find(key);
  if (it == manifests_.end()) return false;
  // The root goes first: a kill before the packs are rewritten leaves dead
  // frames, which reopen collects, never a manifest naming lost chunks.
  manifest_blobs_.remove(key);
  const Manifest& m = it->second;
  // An adopted manifest takes back what the reopen seeded the meters with
  // for it: its references to resident chunks, and the chunks it frees.
  if (m.adopted)
    for (const TensorRef& ref : m.tensors)
      if (const Chunk& c = chunks_.at(ref.id); c.resident) logical_written_ -= c.encoded_bytes;
  const std::size_t freed = release_manifest_locked(m);
  if (m.adopted) unique_written_ -= freed;
  manifests_.erase(it);
  return true;
}

void WeightBank::evict_to_budget_locked() {
  if (byte_budget_ == 0) return;
  FramesByPack gone;
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
    gone[c.pack].push_back(victim->first);
  }
  drop_frames_locked(gone);
}

void WeightBank::drop_frames_locked(const FramesByPack& gone) {
  for (const auto& [seq, ids] : gone) {
    std::vector<ChunkId>& hosted = packs_.at(seq);
    for (const ChunkId& id : ids) std::erase(hosted, id);
    rewrite_pack_locked(seq);
  }
}

void WeightBank::rewrite_pack_locked(std::uint64_t seq) {
  const auto it = packs_.find(seq);
  const std::string name = pack_name(seq);
  if (it->second.empty()) {
    pack_blobs_.remove(name);
    packs_.erase(it);
    return;
  }
  try {
    wire::Writer w;
    w.bytes().resize(pack_index_bytes(it->second.size()));
    std::vector<PackEntry> entries;
    for (const ChunkId& id : it->second) {
      const Chunk& c = chunks_.at(id);
      const std::vector<std::byte> frame = pack_blobs_.get(name, c.offset, c.encoded_bytes).value();
      entries.push_back({id, w.size(), frame.size()});
      w.raw(frame.data(), frame.size());
    }
    write_pack_index(w.bytes(), entries);
    pack_blobs_.put(name, std::move(w.bytes()));
    for (const PackEntry& e : entries) chunks_.at(e.id).offset = e.offset;
  } catch (const std::exception& e) {
    log_warn("weight bank: could not rewrite pack ", name, ": ", e.what());
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
