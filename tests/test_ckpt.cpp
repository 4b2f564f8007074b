#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "ckpt/store.hpp"
#include "nas/spaces_zoo.hpp"
#include "nn/dense.hpp"
#include "nn/misc.hpp"
#include "nn/network.hpp"

namespace swt {
namespace {

Checkpoint sample_checkpoint() {
  Checkpoint ckpt;
  ckpt.arch = {1, 0, 2};
  ckpt.score = 0.875;
  ckpt.tensors.push_back({"d0/W", Tensor(Shape{2, 3}, {1, 2, 3, 4, 5, 6})});
  ckpt.tensors.push_back({"d0/b", Tensor(Shape{3}, {-1, 0, 1})});
  return ckpt;
}

TEST(Checkpoint, SerializeDeserializeRoundTrip) {
  const Checkpoint original = sample_checkpoint();
  const auto bytes = serialize(original);
  const Checkpoint restored = deserialize(bytes);
  EXPECT_EQ(restored.arch, original.arch);
  EXPECT_DOUBLE_EQ(restored.score, original.score);
  ASSERT_EQ(restored.tensors.size(), 2u);
  EXPECT_EQ(restored.tensors[0].name, "d0/W");
  EXPECT_EQ(restored.tensors[0].value, original.tensors[0].value);
  EXPECT_EQ(restored.tensors[1].value, original.tensors[1].value);
}

TEST(Checkpoint, EmptyCheckpointRoundTrips) {
  Checkpoint empty;
  const Checkpoint restored = deserialize(serialize(empty));
  EXPECT_TRUE(restored.arch.empty());
  EXPECT_TRUE(restored.tensors.empty());
}

TEST(Checkpoint, CorruptionIsDetected) {
  auto bytes = serialize(sample_checkpoint());
  // Flip one payload byte somewhere in the middle.
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW((void)deserialize(bytes), std::runtime_error);
}

TEST(Checkpoint, TruncationIsDetected) {
  auto bytes = serialize(sample_checkpoint());
  bytes.resize(bytes.size() - 5);
  EXPECT_THROW((void)deserialize(bytes), std::runtime_error);
}

TEST(Checkpoint, BadMagicIsDetected) {
  auto bytes = serialize(sample_checkpoint());
  bytes[0] = std::byte{0x00};
  EXPECT_THROW((void)deserialize(bytes), std::runtime_error);
}

// Overwrites the u64 at `offset` of sample_checkpoint()'s encoding with
// `value` and recomputes the CRC trailer, so the decoder gets past the
// checksum and has to judge the field itself.
std::vector<std::byte> resealed_with(std::size_t offset, std::uint64_t value) {
  auto bytes = serialize(sample_checkpoint());
  std::memcpy(bytes.data() + offset, &value, sizeof value);
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = crc32(bytes.data(), body);
  std::memcpy(bytes.data() + body, &crc, sizeof crc);
  return bytes;
}

TEST(Checkpoint, LengthsTheStreamCannotHoldThrowRuntimeError) {
  // Layout: magic, version and codec (u32 each), score (f64), the arch
  // length at 20 and three u32 choices, the tensor count at 40, then
  // "d0/W": name length at 48, 4 name bytes, rank at 60, dims at 68 and 76.
  // Each patched field would size an allocation before any read fails, so
  // an unchecked decoder throws std::length_error or std::bad_alloc.
  struct Field {
    std::size_t offset;
    std::uint64_t original;
    std::uint64_t patched;
  };
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 61;
  const Field fields[] = {{20, 3, kHuge},                 // arch length
                          {40, 2, kHuge},                 // tensor count
                          {60, 2, kHuge},                 // rank
                          {48, 4, ~std::uint64_t{0}},     // name length
                          {68, 2, std::uint64_t{1} << 62}};  // first dim
  const auto original = serialize(sample_checkpoint());
  for (const Field& f : fields) {
    std::uint64_t was = 0;
    std::memcpy(&was, original.data() + f.offset, sizeof was);
    ASSERT_EQ(was, f.original) << "layout moved at offset " << f.offset;
    EXPECT_THROW((void)deserialize(resealed_with(f.offset, f.patched)), std::runtime_error)
        << "offset " << f.offset;
  }
}

TEST(Checkpoint, PayloadBytesCountsFloats) {
  const Checkpoint ckpt = sample_checkpoint();
  EXPECT_EQ(ckpt.payload_bytes(), (6 + 3) * sizeof(float));
}

TEST(Checkpoint, FromNetworkSnapshotsParamsInOrder) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("a", 2, 3));
  layers.push_back(std::make_unique<Dense>("b", 3, 1));
  Sequential net(std::move(layers));
  Rng rng(1);
  net.init(rng);
  const Checkpoint ckpt = Checkpoint::from_network(net, {0, 1}, 0.5);
  ASSERT_EQ(ckpt.tensors.size(), 4u);
  EXPECT_EQ(ckpt.tensors[0].name, "a/W");
  EXPECT_EQ(ckpt.tensors[1].name, "a/b");
  EXPECT_EQ(ckpt.tensors[2].name, "b/W");
  EXPECT_EQ(ckpt.tensors[3].name, "b/b");
  // Snapshot is a copy, not a view.
  net.params()[0].value->fill(0.0f);
  EXPECT_NE(ckpt.tensors[0].value.sum_squares(), 0.0);
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char data[] = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Bit-at-a-time CRC-32 over the same reflected polynomial.
  const auto reference = [](const unsigned char* p, std::size_t len) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
      c ^= p[i];
      for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  Rng rng(17);
  std::vector<unsigned char> buf(208);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t offset = 0; offset <= 8; ++offset)
    for (std::size_t len = 0; len <= 200; ++len)
      ASSERT_EQ(crc32(buf.data() + offset, len), reference(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
}

TEST(Store, MemoryPutGetRoundTrip) {
  CheckpointStore store;
  const Checkpoint ckpt = sample_checkpoint();
  const IoStats put_stats = store.put("k1", ckpt);
  EXPECT_GT(put_stats.bytes, 0u);
  EXPECT_GT(put_stats.cost_seconds, 0.0);
  auto [restored, get_stats] = store.get("k1");
  EXPECT_EQ(restored.arch, ckpt.arch);
  EXPECT_EQ(get_stats.bytes, put_stats.bytes);
  EXPECT_TRUE(store.contains("k1"));
  EXPECT_FALSE(store.contains("k2"));
  EXPECT_EQ(store.count(), 1u);
}

TEST(Store, UnknownKeyThrows) {
  CheckpointStore store;
  EXPECT_THROW((void)store.get("nope"), std::out_of_range);
}

TEST(Store, OverwriteReplacesPayload) {
  CheckpointStore store;
  Checkpoint a = sample_checkpoint();
  store.put("k", a);
  a.score = 0.1;
  store.put("k", a);
  EXPECT_EQ(store.count(), 1u);
  EXPECT_DOUBLE_EQ(store.get("k").first.score, 0.1);
  EXPECT_EQ(store.stored_sizes().size(), 2u);  // both puts accounted
}

TEST(Store, DiskBackendPersistsToFiles) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_test";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  const Checkpoint ckpt = sample_checkpoint();
  store.put("model-1", ckpt);
  EXPECT_TRUE(std::filesystem::exists(dir / "model-1.swtc"));
  auto [restored, stats] = store.get("model-1");
  EXPECT_EQ(restored.tensors[0].value, ckpt.tensors[0].value);
  std::filesystem::remove_all(dir);
}

TEST(Store, TryGetMatchesGetOnHitAndIsEmptyOnMiss) {
  CheckpointStore store;
  const Checkpoint ckpt = sample_checkpoint();
  store.put("k", ckpt);
  const auto hit = store.try_get("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first.arch, ckpt.arch);
  EXPECT_EQ(hit->second.bytes, store.get("k").second.bytes);
  EXPECT_FALSE(store.try_get("absent").has_value());
}

TEST(Store, DiskTruncationMakesGetThrowAndTryGetEmpty) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_trunc";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  store.put("victim", sample_checkpoint());
  const auto path = dir / "victim.swtc";
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
  EXPECT_TRUE(store.contains("victim"));  // the file still exists...
  EXPECT_THROW((void)store.get("victim"), std::runtime_error);
  EXPECT_FALSE(store.try_get("victim").has_value());  // ...but is unreadable
  std::filesystem::remove_all(dir);
}

TEST(Store, DiskBitFlipMakesGetThrowAndTryGetEmpty) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_flip";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  store.put("victim", sample_checkpoint());
  const auto path = dir / "victim.swtc";
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)store.get("victim"), std::runtime_error);
  EXPECT_FALSE(store.try_get("victim").has_value());
  std::filesystem::remove_all(dir);
}

TEST(Store, DiskBackendRequiresDirectory) {
  EXPECT_THROW(CheckpointStore(CheckpointStore::Backend::kDisk, {}),
               std::invalid_argument);
}

TEST(Store, CostModelIsAffineInSize) {
  PfsCostModel model{.write_latency_s = 0.1,
                     .write_bandwidth_bps = 1000.0,
                     .read_latency_s = 0.2,
                     .read_bandwidth_bps = 500.0};
  EXPECT_DOUBLE_EQ(model.write_cost(0), 0.1);
  EXPECT_DOUBLE_EQ(model.write_cost(2000), 0.1 + 2.0);
  EXPECT_DOUBLE_EQ(model.read_cost(1000), 0.2 + 2.0);
}

TEST(Store, TotalBytesWrittenAccumulates) {
  CheckpointStore store;
  const Checkpoint ckpt = sample_checkpoint();
  const auto s1 = store.put("a", ckpt);
  const auto s2 = store.put("b", ckpt);
  EXPECT_EQ(store.total_bytes_written(), s1.bytes + s2.bytes);
}

TEST(Store, OverwriteDoesNotDoubleCountLiveBytes) {
  // Regression: put() on an existing key used to grow the live footprint as
  // if both payloads were still stored.  The cumulative traffic meters keep
  // counting every put; live_bytes() must track only what is held now.
  CheckpointStore store;
  const Checkpoint ckpt = sample_checkpoint();
  const auto s1 = store.put("k", ckpt);
  const auto s2 = store.put("k", ckpt);
  EXPECT_EQ(store.total_bytes_written(), s1.bytes + s2.bytes);  // cumulative
  EXPECT_EQ(store.live_bytes(), s2.bytes);                      // one payload
  EXPECT_TRUE(store.remove("k"));
  EXPECT_EQ(store.live_bytes(), 0u);
  EXPECT_EQ(store.total_bytes_written(), s1.bytes + s2.bytes);  // not retracted
}

TEST(Store, DiskLiveBytesTracksOverwriteAndRemove) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_live";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  const auto s1 = store.put("k", sample_checkpoint());
  store.put("other", sample_checkpoint());
  const auto s2 = store.put("k", sample_checkpoint());
  EXPECT_EQ(store.live_bytes(), s1.bytes + s2.bytes);  // two live keys
  store.remove("other");
  EXPECT_EQ(store.live_bytes(), s2.bytes);
  std::filesystem::remove_all(dir);
}

TEST(Store, NetworkRoundTripThroughStore) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("d", 4, 2));
  Sequential net(std::move(layers));
  Rng rng(5);
  net.init(rng);
  CheckpointStore store;
  store.put("net", Checkpoint::from_network(net, {1}, 0.9));
  const Checkpoint back = store.get("net").first;
  EXPECT_EQ(back.tensors[0].value, *net.params()[0].value);
  EXPECT_DOUBLE_EQ(back.score, 0.9);
}

class CorruptionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CorruptionSweep, AnySingleByteFlipIsCaught) {
  auto bytes = serialize(sample_checkpoint());
  const std::size_t pos = GetParam() % bytes.size();
  bytes[pos] ^= std::byte{0xFF};
  EXPECT_THROW((void)deserialize(bytes), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Positions, CorruptionSweep,
                         ::testing::Values(0, 1, 4, 9, 17, 33, 64, 101, 1000));

// Crash-consistent disk-store behaviour (DESIGN.md "Durability contract").

TEST(Store, DiskReopenAdoptsExistingBlobs) {
  // A resumed run re-creates the store over the same directory; blobs the
  // crashed process persisted must be visible without re-putting them.
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_reopen";
  std::filesystem::remove_all(dir);
  const Checkpoint ckpt = sample_checkpoint();
  {
    CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
    store.put("survivor-1", ckpt);
    store.put("survivor-2", ckpt);
  }
  CheckpointStore reopened(CheckpointStore::Backend::kDisk, dir);
  EXPECT_EQ(reopened.count(), 2u);
  EXPECT_TRUE(reopened.contains("survivor-1"));
  EXPECT_EQ(reopened.get("survivor-2").first.arch, ckpt.arch);
  std::filesystem::remove_all(dir);
}

TEST(Store, DiskReopenSweepsTmpDebris) {
  // A writer killed mid-put leaves only the ".tmp" staging sibling; reopen
  // deletes it and does not surface a phantom key.
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_debris";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
    store.put("good", sample_checkpoint());
  }
  {
    std::ofstream out(dir / "torn.swtc.tmp", std::ios::binary);
    out << "half-written blob";
  }
  CheckpointStore reopened(CheckpointStore::Backend::kDisk, dir);
  EXPECT_EQ(reopened.count(), 1u);
  EXPECT_FALSE(reopened.contains("torn"));
  EXPECT_FALSE(std::filesystem::exists(dir / "torn.swtc.tmp"));
  std::filesystem::remove_all(dir);
}

TEST(Store, DiskPutLeavesNoStagingFileBehind) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_atomic";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  store.put("k", sample_checkpoint());
  store.put("k", sample_checkpoint());  // overwrite goes through the same path
  EXPECT_TRUE(std::filesystem::exists(dir / "k.swtc"));
  EXPECT_FALSE(std::filesystem::exists(dir / "k.swtc.tmp"));
  std::filesystem::remove_all(dir);
}

TEST(Store, RemoveDeletesBlobAndToleratesDebris) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_remove";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  store.put("k", sample_checkpoint());
  {
    std::ofstream out(dir / "k.swtc.tmp", std::ios::binary);
    out << "leftover";
  }
  EXPECT_TRUE(store.remove("k"));
  EXPECT_FALSE(store.contains("k"));
  EXPECT_FALSE(std::filesystem::exists(dir / "k.swtc"));
  EXPECT_FALSE(std::filesystem::exists(dir / "k.swtc.tmp"));
  EXPECT_FALSE(store.remove("k"));  // second remove: nothing left
  std::filesystem::remove_all(dir);
}

// The scheduler prices a candidate's checkpoint write from serialized_size
// before the candidate trains; any drift from the real encoder would move
// the virtual clock.  Checked on sampled architectures of every app's space
// under every codec.
TEST(Checkpoint, SerializedSizeMatchesSerializeForEveryAppAndCodec) {
  const std::vector<std::pair<const char*, SearchSpace>> spaces = {
      {"cifar", make_cifar_space()},
      {"nt3", make_nt3_space()},
      {"uno", make_uno_space()},
      {"mnist", make_mnist_space()}};
  Rng rng(17);
  for (const auto& [app, space] : spaces) {
    for (int sample = 0; sample < 3; ++sample) {
      const ArchSeq arch = space.random_arch(rng);
      NetworkPtr net = space.build(arch);
      net->init(rng);
      const Checkpoint ckpt = Checkpoint::from_network(*net, arch, 0.5);
      for (CompressionKind kind :
           {CompressionKind::kNone, CompressionKind::kFp16, CompressionKind::kQuant8}) {
        EXPECT_EQ(serialized_size(*net, arch.size(), kind), serialize(ckpt, kind).size())
            << app << " sample " << sample << " codec " << to_string(kind);
      }
    }
  }
}

TEST(Store, BlobSizeIsTheSizeAGetIsPricedAt) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_blob_size";
  std::filesystem::remove_all(dir);
  CheckpointStore memory(CheckpointStore::Backend::kMemory, {}, {}, CompressionKind::kFp16);
  CheckpointStore disk(CheckpointStore::Backend::kDisk, dir);
  for (CheckpointStore* store : {&memory, &disk}) {
    EXPECT_FALSE(store->blob_size("k").has_value());
    store->put("k", sample_checkpoint());
    ASSERT_TRUE(store->blob_size("k").has_value());
    EXPECT_EQ(*store->blob_size("k"), store->get("k").second.bytes);
  }
  CheckpointStore banked(CheckpointStore::Backend::kMemory, {}, {}, CompressionKind::kNone,
                         BankConfig{.enabled = true});
  banked.put("k", sample_checkpoint());
  EXPECT_FALSE(banked.blob_size("k").has_value());
  std::filesystem::remove_all(dir);
}

// BlobDir: the byte layer under both checkpoint layouts.

TEST(BlobDir, MemoryAndDiskBehaveAlike) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_blob_dir";
  std::filesystem::remove_all(dir);
  BlobDir memory({}, ".blob");
  BlobDir disk(dir, ".blob");
  const std::vector<std::byte> bytes = {std::byte{1}, std::byte{2}, std::byte{3}};
  for (BlobDir* blobs : {&memory, &disk}) {
    EXPECT_FALSE(blobs->get("a").has_value());
    blobs->put("a", bytes);
    blobs->put("b", {std::byte{9}});
    EXPECT_EQ(blobs->get("a"), bytes);
    // Ranged reads: the bank fetches one frame of a pack this way.
    EXPECT_EQ(blobs->get("a", 1, 2), (std::vector<std::byte>{std::byte{2}, std::byte{3}}));
    EXPECT_EQ(blobs->get("a", 3, 0), std::vector<std::byte>{});
    EXPECT_THROW((void)blobs->get("a", 2, 2), std::runtime_error);
    EXPECT_THROW((void)blobs->get("a", 4, 0), std::runtime_error);
    EXPECT_FALSE(blobs->get("absent", 0, 1).has_value());
    EXPECT_EQ(blobs->sizes(), (std::map<std::string, std::size_t>{{"a", 3}, {"b", 1}}));
    EXPECT_TRUE(blobs->remove("b"));
    EXPECT_FALSE(blobs->remove("b"));
    EXPECT_FALSE(blobs->get("b").has_value());
  }
  EXPECT_TRUE(std::filesystem::exists(dir / "a.blob"));
  EXPECT_FALSE(std::filesystem::exists(dir / "b.blob"));
  std::filesystem::remove_all(dir);
}

TEST(BlobDir, ReopenAdoptsItsExtensionAndSweepsDebris) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_blob_dir_reopen";
  std::filesystem::remove_all(dir);
  const std::vector<std::byte> bytes = {std::byte{7}, std::byte{8}};
  BlobDir(dir, ".blob").put("kept", bytes);
  for (const char* name : {"torn.blob.tmp", "foreign.txt"}) {
    std::ofstream out(dir / name, std::ios::binary);
    out << "x";
  }
  BlobDir reopened(dir, ".blob");
  EXPECT_EQ(reopened.sizes(), (std::map<std::string, std::size_t>{{"kept", 2}}));
  EXPECT_EQ(reopened.get("kept"), bytes);
  EXPECT_FALSE(std::filesystem::exists(dir / "torn.blob.tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir / "foreign.txt"));  // not its extension
  std::filesystem::remove_all(dir);
}

TEST(Store, MemoryRemoveRoundTrip) {
  CheckpointStore store;
  store.put("k", sample_checkpoint());
  EXPECT_TRUE(store.remove("k"));
  EXPECT_FALSE(store.contains("k"));
  EXPECT_FALSE(store.remove("absent"));
}

}  // namespace
}  // namespace swt
