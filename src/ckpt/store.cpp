#include "ckpt/store.hpp"

#include <stdexcept>

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace swt {

namespace {

/// Store-level I/O telemetry: call counts, byte totals, the modelled PFS
/// cost distributions the virtual cluster charges to its event clock, and
/// one ckpt_read / ckpt_write lifecycle event per operation.
void record_io(const char* op, const std::string& key, const IoStats& stats) {
  const bool write = op[0] == 'w';
  if (metrics_enabled()) {
    MetricsRegistry& m = metrics();
    if (write) {
      m.counter("ckpt.put_total").add();
      m.counter("ckpt.bytes_written_total").add(static_cast<std::int64_t>(stats.bytes));
      m.histogram("ckpt.write_cost_seconds").observe(stats.cost_seconds);
    } else {
      m.counter("ckpt.get_total").add();
      m.counter("ckpt.bytes_read_total").add(static_cast<std::int64_t>(stats.bytes));
      m.histogram("ckpt.read_cost_seconds").observe(stats.cost_seconds);
    }
  }
  EventBus& bus = EventBus::global();
  if (bus.enabled())
    bus.emit(write ? EventType::kCkptWrite : EventType::kCkptRead, -1.0, -1, -1,
             {{"key", event_str(key)},
              {"bytes", std::to_string(stats.bytes)},
              {"cost_s", json_number(stats.cost_seconds)}});
}

}  // namespace

CheckpointStore::CheckpointStore(Backend backend, std::filesystem::path dir,
                                 PfsCostModel model, CompressionKind compression,
                                 BankConfig bank)
    : model_(model),
      compression_(compression),
      blobs_(backend == Backend::kDisk && !bank.enabled ? dir : std::filesystem::path{},
             ".swtc") {
  if (backend == Backend::kDisk && dir.empty())
    throw std::invalid_argument("CheckpointStore: disk backend needs a dir");
  // The bank owns the directory layout (chunks/ + manifests/ under dir) and
  // all synchronisation for the banked path; the flat members stay unused
  // except for the cumulative traffic meters.
  if (bank.enabled)
    bank_ = std::make_unique<WeightBank>(backend == Backend::kMemory
                                             ? WeightBank::Backend::kMemory
                                             : WeightBank::Backend::kDisk,
                                         std::move(dir), compression_, bank.byte_budget);
}

IoStats CheckpointStore::put(const std::string& key, const Checkpoint& ckpt) {
  IoStats stats;
  if (bank_) {
    // Only first-seen chunk bytes plus the manifest travel to the PFS; a
    // put whose tensors all dedupe against resident chunks is priced at
    // manifest cost.  bytes_moved() is a pure function of bank *content*,
    // which evals training concurrently never share (distinct RNG streams
    // + training), so the charge is order-independent and the trace stays
    // bit-reproducible across thread counts.
    stats.bytes = bank_->put(key, ckpt).bytes_moved();
  } else {
    std::vector<std::byte> bytes = serialize(ckpt, compression_);
    stats.bytes = bytes.size();
    // On disk the blob is durable before put() returns — the ordering the
    // run journal relies on (a journaled attempt implies its checkpoint
    // survived).
    std::scoped_lock lock(mutex_);
    blobs_.put(key, std::move(bytes));
  }
  stats.cost_seconds = model_.write_cost(stats.bytes);
  record_io("write", key, stats);
  std::scoped_lock lock(mutex_);
  sizes_.push_back(stats.bytes);
  total_written_ += stats.bytes;
  return stats;
}

bool CheckpointStore::remove(const std::string& key) {
  if (bank_) return bank_->remove(key);
  std::scoped_lock lock(mutex_);
  return blobs_.remove(key);
}

std::pair<Checkpoint, IoStats> CheckpointStore::get(const std::string& key) const {
  if (auto hit = try_get(key)) return *std::move(hit);
  if (!contains(key)) throw std::out_of_range("CheckpointStore: unknown key " + key);
  throw std::runtime_error("CheckpointStore: unreadable checkpoint " + key);
}

std::optional<std::pair<Checkpoint, IoStats>> CheckpointStore::try_get(
    const std::string& key) const {
  std::optional<std::pair<Checkpoint, IoStats>> hit;
  try {
    if (bank_) {
      // A provider lookup is a cache hit: the chunks it needs were resident
      // since the provider's own put, so only the manifest crosses the PFS.
      std::size_t manifest_bytes = 0;
      if (std::optional<Checkpoint> ckpt = bank_->try_get(key, &manifest_bytes))
        hit.emplace(*std::move(ckpt), IoStats{manifest_bytes, model_.read_cost(manifest_bytes)});
    } else {
      std::optional<std::vector<std::byte>> bytes;
      {
        std::scoped_lock lock(mutex_);
        bytes = blobs_.get(key);
      }
      if (bytes.has_value())
        hit.emplace(deserialize(*bytes), IoStats{bytes->size(), model_.read_cost(bytes->size())});
    }
  } catch (const std::exception&) {
    // Unreadable backing file, or a truncated or CRC-corrupt payload.
  }
  if (!hit.has_value()) {
    if (metrics_enabled()) metrics().counter("ckpt.read_miss_total").add();
    return std::nullopt;  // unknown key, unreadable blob, or evicted / corrupt chunk
  }
  record_io("read", key, hit->second);
  return hit;
}

bool CheckpointStore::contains(const std::string& key) const {
  if (bank_) return bank_->contains(key);
  std::scoped_lock lock(mutex_);
  return blobs_.sizes().contains(key);
}

std::optional<std::size_t> CheckpointStore::blob_size(const std::string& key) const {
  if (bank_) return std::nullopt;
  std::scoped_lock lock(mutex_);
  const auto it = blobs_.sizes().find(key);
  if (it == blobs_.sizes().end()) return std::nullopt;
  return it->second;
}

std::size_t CheckpointStore::count() const {
  if (bank_) return bank_->count();
  std::scoped_lock lock(mutex_);
  return blobs_.sizes().size();
}

std::size_t CheckpointStore::live_bytes() const {
  if (bank_) {
    const BankStats s = bank_->stats();
    return s.resident_chunk_bytes + s.manifest_bytes;
  }
  std::scoped_lock lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, size] : blobs_.sizes()) total += size;
  return total;
}

std::vector<std::size_t> CheckpointStore::stored_sizes() const {
  std::scoped_lock lock(mutex_);
  return sizes_;
}

std::size_t CheckpointStore::total_bytes_written() const {
  std::scoped_lock lock(mutex_);
  return total_written_;
}

}  // namespace swt
