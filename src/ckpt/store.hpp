// Checkpoint store with a parametric parallel-file-system cost model.
//
// The paper checkpoints every scored candidate to a PFS in HDF5 and reads the
// parent's checkpoint back before scoring a child (Section VI).  Here a store
// keeps serialized checkpoints either in memory or on disk, and *prices* each
// access with a latency + size/bandwidth model.  The price is returned to the
// caller (and accumulated), so the virtual cluster can charge checkpoint I/O
// to its event clock — which is exactly the overhead Fig. 10/11 studies —
// without the wall-clock noise of a real shared file system.
//
// Two layouts sit behind the one API.  The flat layout keeps one SWTC blob
// per key in a BlobDir (blob_dir.hpp; `<dir>/<key>.swtc` on disk) and
// prices every access at blob size.  The banked layout (weight_bank.hpp)
// keeps its chunks and manifests in two BlobDirs of its own.
#pragma once

#include <cstddef>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/blob_dir.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/weight_bank.hpp"

namespace swt {

/// Simple affine cost model: seconds = latency + bytes / bandwidth.
struct PfsCostModel {
  double write_latency_s = 0.020;
  double write_bandwidth_bps = 25e6;  ///< bytes per second (contended PFS)
  double read_latency_s = 0.020;
  double read_bandwidth_bps = 25e6;

  [[nodiscard]] double write_cost(std::size_t bytes) const noexcept {
    return write_latency_s + static_cast<double>(bytes) / write_bandwidth_bps;
  }
  [[nodiscard]] double read_cost(std::size_t bytes) const noexcept {
    return read_latency_s + static_cast<double>(bytes) / read_bandwidth_bps;
  }
};

struct IoStats {
  std::size_t bytes = 0;
  double cost_seconds = 0.0;  ///< modelled PFS time, not wall time
};

/// Opt-in content-addressed storage behind the store (see weight_bank.hpp).
/// Banked puts only move first-seen chunk bytes plus a small manifest, and
/// banked reads are priced at manifest size — provider lookups become cache
/// hits instead of full-blob PFS reads.
struct BankConfig {
  bool enabled = false;
  std::size_t byte_budget = 0;  ///< resident chunk byte cap, 0 = unlimited
};

class CheckpointStore {
 public:
  enum class Backend { kMemory, kDisk };

  /// Disk backend persists under `dir` (created if missing); memory backend
  /// ignores `dir`.  `compression` applies to every put() (see compress.hpp).
  /// `bank.enabled` swaps the flat blob layout for the content-addressed
  /// weight bank (dedup + manifest-priced reads); the flat layout and its
  /// on-disk format are byte-for-byte unchanged when the bank is off.
  explicit CheckpointStore(Backend backend = Backend::kMemory,
                           std::filesystem::path dir = {}, PfsCostModel model = {},
                           CompressionKind compression = CompressionKind::kNone,
                           BankConfig bank = {});

  /// Serialize and store under `key` (overwrites); returns modelled cost.
  /// Disk puts are crash-consistent: staged to a tmp sibling, fsynced and
  /// renamed into place, so concurrent or killed writers can never leave a
  /// torn blob under the key.
  IoStats put(const std::string& key, const Checkpoint& ckpt);

  /// Delete `key` (and any staging debris a killed writer left beside it).
  /// Returns true when something was removed; unknown keys are a no-op.
  bool remove(const std::string& key);

  /// Load and decode; throws std::out_of_range for unknown keys and
  /// std::runtime_error for corrupted payloads.
  [[nodiscard]] std::pair<Checkpoint, IoStats> get(const std::string& key) const;

  /// Non-throwing lookup with a single lock acquisition (no contains()/get()
  /// TOCTOU window): empty when the key is unknown or the payload cannot be
  /// read or decoded (truncated file, CRC failure, ...).
  [[nodiscard]] std::optional<std::pair<Checkpoint, IoStats>> try_get(
      const std::string& key) const;

  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] std::size_t count() const;

  /// Serialized length of the blob stored under `key` — what a get() of it
  /// moves and is priced at.  Empty for unknown keys and for a banked store,
  /// whose reads are priced at manifest size instead.
  [[nodiscard]] std::optional<std::size_t> blob_size(const std::string& key) const;

  /// Serialized bytes *moved to the PFS* by every put(), in order (Fig. 11).
  /// These are cumulative traffic meters: an overwrite of an existing key
  /// appends again, and remove() does not retract — use live_bytes() for
  /// what the store currently holds.
  [[nodiscard]] std::vector<std::size_t> stored_sizes() const;
  [[nodiscard]] std::size_t total_bytes_written() const;

  /// Bytes the store holds *right now*: payloads of live keys (flat), or
  /// resident chunk + manifest bytes (banked).  Unlike the cumulative
  /// meters above, overwrites replace and removes retract.
  [[nodiscard]] std::size_t live_bytes() const;

  [[nodiscard]] const PfsCostModel& cost_model() const noexcept { return model_; }
  [[nodiscard]] CompressionKind compression() const noexcept { return compression_; }
  /// The content-addressed bank behind this store, or nullptr when flat.
  [[nodiscard]] const WeightBank* bank() const noexcept { return bank_.get(); }

 private:
  PfsCostModel model_;
  CompressionKind compression_;
  /// Non-null iff BankConfig::enabled; the bank is internally synchronised,
  /// so const store methods can route reads through it.
  std::unique_ptr<WeightBank> bank_;
  mutable std::mutex mutex_;
  /// The flat layout's SWTC blobs, guarded by mutex_ (an unused in-memory
  /// BlobDir when banked).
  BlobDir blobs_;
  std::vector<std::size_t> sizes_;
  std::size_t total_written_ = 0;
};

}  // namespace swt
