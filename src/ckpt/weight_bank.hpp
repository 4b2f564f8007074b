// Content-addressed weight bank.
//
// The paper writes every scored candidate to the PFS as an independent blob
// and reads the whole parent blob back before scoring a child, so the PFS
// traffic of Fig. 10/11 grows with population x checkpoint size even when
// most tensor content is shared (retried attempts, frozen layers, warm
// starts from a previous run).  The bank replaces the flat blob with two
// content-addressed planes:
//
//   chunks/    one refcounted, optionally compressed (compress.hpp) chunk
//              per *distinct tensor content*, keyed by a 128-bit hash of the
//              tensor's dims + raw float bytes ("<32 hex>.chk");
//   manifests/ one small manifest per checkpoint key listing (name, dims,
//              chunk hash) per tensor plus arch/score ("<key>.swtm").
//
// A put() only writes chunks the bank has never seen, so structurally
// identical tensors across the population dedupe to one stored copy, and
// the modelled PFS cost of a provider lookup is the manifest read — the
// chunks a child needs were just written by its parent's evaluation and are
// treated as cluster-cache hits (DESIGN.md "Weight bank").
//
// Each plane is a BlobDir (blob_dir.hpp), which keeps the bytes in memory or
// as files.  Durability mirrors the journal: every blob is CRC-32-framed
// over the wire codec, every file is written tmp + fsync + rename, and a
// put() writes its chunks *before* its manifest — a process killed mid-put
// leaves at worst orphan chunks, which reopen garbage-collects.
// Eviction under a byte budget is LRU over resident chunk payloads; an
// evicted or CRC-corrupt chunk turns the keys that reference it into read
// misses (the caller falls back to random init, or re-puts the content,
// which re-materialises the chunk).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/blob_dir.hpp"
#include "ckpt/checkpoint.hpp"

namespace swt {

/// 128-bit content address of one tensor (two independent 64-bit mix lanes
/// over the dims and raw float bytes; collisions are vanishingly unlikely
/// and non-adversarial here).
struct ChunkId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend auto operator<=>(const ChunkId&, const ChunkId&) = default;

  /// 32 lowercase hex characters (the chunk's file stem).
  [[nodiscard]] std::string hex() const;
};

/// Content address of `value` — a pure function of dims and float bytes, so
/// it is identical across processes, thread counts and platforms of the
/// same endianness.
[[nodiscard]] ChunkId chunk_id(const Tensor& value);

/// What one put() moved and what it deduplicated.
struct BankPutStats {
  std::size_t manifest_bytes = 0;       ///< serialized manifest size
  std::size_t new_chunk_bytes = 0;      ///< encoded bytes of first-seen chunks
  std::size_t logical_chunk_bytes = 0;  ///< encoded bytes of all referenced chunks
  std::size_t deduped_chunks = 0;       ///< tensors resolved to an existing chunk

  /// Bytes actually sent to the PFS (what the cost model charges).
  [[nodiscard]] std::size_t bytes_moved() const noexcept {
    return manifest_bytes + new_chunk_bytes;
  }
};

struct BankStats {
  std::size_t chunk_count = 0;           ///< chunk entries with live references
  std::size_t resident_chunk_bytes = 0;  ///< encoded bytes currently materialised
  std::size_t manifest_count = 0;
  std::size_t manifest_bytes = 0;
  std::size_t unique_bytes_written = 0;   ///< cumulative first-seen chunk bytes
  std::size_t logical_bytes_written = 0;  ///< cumulative referenced chunk bytes
  std::size_t evicted_chunks = 0;
  std::size_t evicted_bytes = 0;
  std::size_t corrupt_chunks = 0;  ///< CRC failures seen at read time

  /// logical / unique bytes ever written: 1.0 = no sharing, 2.0 = every
  /// chunk stored once but referenced twice, ... (the headline number of
  /// bench_weightbank's dedup study).
  [[nodiscard]] double dedup_ratio() const noexcept {
    if (unique_bytes_written == 0) return 1.0;
    return static_cast<double>(logical_bytes_written) /
           static_cast<double>(unique_bytes_written);
  }
};

class WeightBank {
 public:
  enum class Backend { kMemory, kDisk };

  /// Disk backend persists under `dir`/chunks and `dir`/manifests (created
  /// if missing) and, on reopen, adopts every intact manifest, rebuilds
  /// chunk refcounts from them, sweeps ".tmp" staging debris and
  /// garbage-collects orphan chunks (the artifact of a writer killed
  /// between its chunk and manifest writes).  `byte_budget` bounds resident
  /// encoded chunk bytes (0 = unlimited); `compression` encodes every chunk
  /// payload.
  explicit WeightBank(Backend backend, std::filesystem::path dir = {},
                      CompressionKind compression = CompressionKind::kNone,
                      std::size_t byte_budget = 0);

  /// Store `ckpt` under `key` (overwrites; the old manifest's references
  /// are released).  Chunks are written before the manifest and both are
  /// CRC-framed + atomically renamed, so a kill at any instant leaves
  /// either the old complete checkpoint or the new one, never a torn mix.
  BankPutStats put(const std::string& key, const Checkpoint& ckpt);

  /// Reassemble the checkpoint under `key`; empty when the key is unknown
  /// or any referenced chunk is evicted, missing or CRC-corrupt (corrupt
  /// chunks are dropped so a later re-put heals them).  `manifest_bytes`
  /// (optional) receives the manifest's serialized size — the bytes a
  /// provider lookup actually moves over the PFS.
  [[nodiscard]] std::optional<Checkpoint> try_get(const std::string& key,
                                                  std::size_t* manifest_bytes = nullptr);

  /// Drop `key`: its manifest is deleted and every referenced chunk's
  /// refcount is decremented; zero-ref chunks are erased (and unlinked).
  bool remove(const std::string& key);

  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] std::size_t count() const;
  /// All manifest keys, sorted (the run's surviving chunk roots, recorded
  /// by exp/registry for cross-run warm starts).
  [[nodiscard]] std::vector<std::string> keys() const;

  [[nodiscard]] BankStats stats() const;
  [[nodiscard]] CompressionKind compression() const noexcept { return compression_; }
  [[nodiscard]] std::size_t byte_budget() const noexcept { return byte_budget_; }

 private:
  struct TensorRef {
    std::string name;
    std::vector<std::int64_t> dims;
    ChunkId id;
  };
  struct Manifest {
    std::vector<int> arch;
    double score = 0.0;
    std::vector<TensorRef> tensors;
  };
  struct Chunk {
    std::size_t encoded_bytes = 0;  ///< size whether or not resident
    std::uint64_t refs = 0;         ///< manifests referencing this content
    std::uint64_t last_used = 0;    ///< LRU tick
    bool resident = true;           ///< in chunk_blobs_; false once evicted / found corrupt
  };

  [[nodiscard]] std::vector<std::byte> encode_manifest(const Manifest& m) const;
  /// CRC-checked decode; throws std::runtime_error on any mismatch.
  [[nodiscard]] static Manifest decode_manifest(const std::vector<std::byte>& bytes);
  void release_manifest_locked(const Manifest& m);
  void evict_to_budget_locked();
  /// Fetch + CRC-verify + decode one chunk; empty on eviction or corruption
  /// (the corrupt entry is de-materialised so it can be re-put).
  [[nodiscard]] std::optional<std::vector<float>> load_chunk_locked(const TensorRef& ref);

  CompressionKind compression_;
  std::size_t byte_budget_;

  mutable std::mutex mutex_;
  BlobDir chunk_blobs_;     ///< "<32 hex>.chk" frames of resident chunks
  BlobDir manifest_blobs_;  ///< "<key>.swtm" manifests
  std::map<std::string, Manifest> manifests_;
  std::map<ChunkId, Chunk> chunks_;
  std::uint64_t tick_ = 0;
  std::size_t resident_bytes_ = 0;
  std::size_t unique_written_ = 0;
  std::size_t logical_written_ = 0;
  std::size_t evicted_chunks_ = 0;
  std::size_t evicted_bytes_ = 0;
  std::size_t corrupt_chunks_ = 0;
};

}  // namespace swt
