// Content-addressed weight bank.
//
// The paper writes every scored candidate to the PFS as an independent blob
// and reads the whole parent blob back before scoring a child, so the PFS
// traffic of Fig. 10/11 grows with population x checkpoint size even when
// most tensor content is shared (retried attempts, frozen layers, warm
// starts from a previous run).  The bank replaces the flat blob with
// refcounted chunks, one per *distinct tensor content*, keyed by a 128-bit
// hash of the tensor's dims + raw float bytes and optionally compressed
// (compress.hpp).  They are stored on two planes:
//
//   packs/     one pack per put that met content the bank held no resident
//              copy of ("<16 hex seq>.pack"): a CRC-framed index of
//              (chunk id, offset, length), then the chunks' CRC-framed
//              frames.  A read fetches one frame by its range;
//   manifests/ one small manifest per checkpoint key listing (name, dims,
//              chunk hash) per tensor plus arch/score ("<key>.swtm").
//
// A put() only stores chunks the bank holds no copy of, so structurally
// identical tensors across the population dedupe to one stored copy, and
// the modelled PFS cost of a provider lookup is the manifest read — the
// chunks a child needs were just written by its parent's evaluation and are
// treated as cluster-cache hits (DESIGN.md "Weight bank").  Prices are pure
// functions of content, never of how the bytes are laid out in files.
//
// Each plane is a BlobDir (blob_dir.hpp), which keeps the bytes in memory or
// as files.  Durability mirrors the journal: every frame and index is
// CRC-32-framed over the wire codec, every file is written tmp + fsync +
// rename, and a put() writes its pack *before* its manifest, so it creates
// at most two files whatever its tensor count.  In-memory state changes only
// once both are written: a put that throws leaves the bank as it was.
//
// One invariant ties the planes together: the packs on disk hold exactly the
// frames of chunks that are referenced and resident.  Releasing, evicting
// (LRU over resident chunk bytes, under a byte budget) or finding a
// CRC-corrupt chunk rewrites its pack without that frame, or deletes the
// pack once it hosts nothing.  An evicted or corrupt chunk turns the keys
// that reference it into read misses (the caller falls back to random init,
// or re-puts the content, which re-materialises the chunk in a new pack).
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

  /// 32 lowercase hex characters (how logs name the chunk).
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
  /// Cumulative first-seen and referenced chunk bytes.  A reopened bank
  /// starts them from its adopted manifests: each resident chunk once, and
  /// once per reference.
  std::size_t unique_bytes_written = 0;
  std::size_t logical_bytes_written = 0;
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

  /// Disk backend persists under `dir`/packs and `dir`/manifests (created
  /// if missing).  Reopen adopts every intact manifest and rebuilds chunk
  /// refcounts from them, then adopts pack indexes in sequence order (the
  /// newest copy of a chunk wins), sweeps ".tmp" staging debris and
  /// rewrites or deletes packs holding frames no manifest needs (a writer
  /// killed between its pack and manifest writes leaves such a pack).  A
  /// pack whose index fails its checks is deleted with a warning, so its
  /// chunks read as misses.  A `dir` in the version-1 layout (a chunks/
  /// plane) is refused with std::runtime_error.  `byte_budget` bounds
  /// resident encoded chunk bytes (0 = unlimited); `compression` encodes
  /// every chunk payload.
  explicit WeightBank(Backend backend, std::filesystem::path dir = {},
                      CompressionKind compression = CompressionKind::kNone,
                      std::size_t byte_budget = 0);

  /// Store `ckpt` under `key` (overwrites; the old manifest's references
  /// are released).  The pack is written before the manifest and both are
  /// CRC-framed + atomically renamed, so a kill at any instant leaves
  /// either the old complete checkpoint or the new one, never a torn mix.
  /// Strong exception guarantee: when a write throws, the bank's state and
  /// files are those before the call.
  BankPutStats put(const std::string& key, const Checkpoint& ckpt);

  /// Reassemble the checkpoint under `key`; empty when the key is unknown
  /// or any referenced chunk is evicted, missing or CRC-corrupt (corrupt
  /// chunks are dropped so a later re-put heals them).  `manifest_bytes`
  /// (optional) receives the manifest's serialized size — the bytes a
  /// provider lookup actually moves over the PFS.
  [[nodiscard]] std::optional<Checkpoint> try_get(const std::string& key,
                                                  std::size_t* manifest_bytes = nullptr);

  /// Drop `key`: its manifest is deleted and every referenced chunk's
  /// refcount is decremented; zero-ref chunks are erased and their frames
  /// leave their packs.  A manifest adopted at reopen (not re-put since)
  /// also takes its share back out of the traffic meters the reopen seeded,
  /// so a resumed run that drops its unjournaled checkpoints reports the
  /// meters of the same run uninterrupted.
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
    bool adopted = false;  ///< read at reopen, so counted in the seeded meters
  };
  struct Chunk {
    std::size_t encoded_bytes = 0;  ///< frame length whether or not resident
    std::uint64_t refs = 0;         ///< manifests referencing this content
    std::uint64_t last_used = 0;    ///< LRU tick
    bool resident = true;           ///< false once evicted / found corrupt
    std::uint64_t pack = 0;         ///< sequence number of the pack holding the frame
    std::size_t offset = 0;         ///< the frame's byte offset in that pack
  };
  /// Frames to take out of their packs, by pack sequence number.
  using FramesByPack = std::map<std::uint64_t, std::vector<ChunkId>>;

  [[nodiscard]] std::vector<std::byte> encode_manifest(const Manifest& m) const;
  /// CRC-checked decode; throws std::runtime_error on any mismatch.
  [[nodiscard]] static Manifest decode_manifest(const std::vector<std::byte>& bytes);
  /// Drop `m`'s chunk references; returns the encoded bytes of the resident
  /// chunks that reached zero references and left the bank.
  std::size_t release_manifest_locked(const Manifest& m);
  void evict_to_budget_locked();
  /// Fetch + CRC-verify + decode one chunk; empty on eviction or corruption
  /// (the corrupt entry is de-materialised so it can be re-put).
  [[nodiscard]] std::optional<std::vector<float>> load_chunk_locked(const TensorRef& ref);
  /// Take `gone` out of their packs' hosted lists, then rewrite each pack.
  void drop_frames_locked(const FramesByPack& gone);
  /// Rewrite pack `seq` with exactly its hosted frames, or delete it when it
  /// hosts none.  An I/O failure is logged and leaves the old file, whose
  /// offsets stay valid, for the next reopen to rewrite.
  void rewrite_pack_locked(std::uint64_t seq);

  CompressionKind compression_;
  std::size_t byte_budget_;

  mutable std::mutex mutex_;
  BlobDir pack_blobs_;      ///< "<16 hex seq>.pack" frames of resident chunks
  BlobDir manifest_blobs_;  ///< "<key>.swtm" manifests
  std::map<std::string, Manifest> manifests_;
  std::map<ChunkId, Chunk> chunks_;
  /// The chunks whose frames each pack hosts, in the pack's index order.
  std::map<std::uint64_t, std::vector<ChunkId>> packs_;
  std::uint64_t next_pack_ = 0;  ///< above every sequence number seen on disk
  std::uint64_t tick_ = 0;
  std::size_t resident_bytes_ = 0;
  std::size_t unique_written_ = 0;
  std::size_t logical_written_ = 0;
  std::size_t evicted_chunks_ = 0;
  std::size_t evicted_bytes_ = 0;
  std::size_t corrupt_chunks_ = 0;
};

}  // namespace swt
