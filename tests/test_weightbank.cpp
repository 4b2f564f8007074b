// Content-addressed weight bank (DESIGN.md "Weight bank"): chunk hashing,
// dedup accounting, LRU eviction, refcounts across remove, corrupt-chunk
// fallback, disk reopen/GC, the banked CheckpointStore routing, and the
// cross-run warm-start path through run_nas.
#include "ckpt/weight_bank.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "ckpt/store.hpp"
#include "common/fsio.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "exp/trace_io.hpp"
#include "tensor/kernels.hpp"

namespace swt {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    dir_ = fs::temp_directory_path() /
           (std::string("swt_weightbank_test_") + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

[[nodiscard]] Tensor tensor_of(std::vector<std::int64_t> dims, float seed) {
  std::vector<std::int64_t> d = dims;
  std::int64_t n = 1;
  for (auto x : d) n *= x;
  std::vector<float> v(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = seed + 0.25f * static_cast<float>(i);
  return Tensor(Shape(d), std::move(v));
}

[[nodiscard]] Checkpoint ckpt_with(std::vector<std::pair<std::string, Tensor>> tensors,
                                   double score = 0.5) {
  Checkpoint c;
  c.arch = {1, 2, 3};
  c.score = score;
  for (auto& [name, t] : tensors) c.tensors.push_back({name, t});
  return c;
}

// ---------------------------------------------------------------------------
// chunk_id

TEST(ChunkId, IsAPureFunctionOfContent) {
  const Tensor a = tensor_of({2, 3}, 1.0f);
  const Tensor b = tensor_of({2, 3}, 1.0f);
  EXPECT_EQ(chunk_id(a), chunk_id(b));
  EXPECT_EQ(chunk_id(a).hex(), chunk_id(b).hex());
}

TEST(ChunkId, DistinguishesValuesAndShape) {
  const Tensor a = tensor_of({2, 3}, 1.0f);
  const Tensor different_values = tensor_of({2, 3}, 2.0f);
  const Tensor different_shape = tensor_of({3, 2}, 1.0f);  // same float bytes
  EXPECT_NE(chunk_id(a), chunk_id(different_values));
  EXPECT_NE(chunk_id(a), chunk_id(different_shape));
}

TEST(ChunkId, HexIs32LowercaseChars) {
  const auto hex = chunk_id(tensor_of({4}, 0.0f)).hex();
  ASSERT_EQ(hex.size(), 32u);
  for (char c : hex)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
}

// ---------------------------------------------------------------------------
// put/get + dedup accounting

TEST(WeightBank, PutGetRoundTrip) {
  WeightBank bank(WeightBank::Backend::kMemory);
  const Checkpoint c = ckpt_with({{"d0/W", tensor_of({2, 3}, 1.0f)},
                                  {"d0/b", tensor_of({3}, -1.0f)}},
                                 0.875);
  const BankPutStats put = bank.put("k1", c);
  EXPECT_GT(put.manifest_bytes, 0u);
  EXPECT_GT(put.new_chunk_bytes, 0u);
  EXPECT_EQ(put.deduped_chunks, 0u);

  std::size_t manifest_bytes = 0;
  const auto got = bank.try_get("k1", &manifest_bytes);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(manifest_bytes, put.manifest_bytes);
  EXPECT_EQ(got->arch, c.arch);
  EXPECT_DOUBLE_EQ(got->score, c.score);
  ASSERT_EQ(got->tensors.size(), 2u);
  EXPECT_EQ(got->tensors[0].name, "d0/W");
  EXPECT_EQ(got->tensors[0].value, c.tensors[0].value);
  EXPECT_EQ(got->tensors[1].value, c.tensors[1].value);
}

TEST(WeightBank, IdenticalContentDedupesToOneChunk) {
  WeightBank bank(WeightBank::Backend::kMemory);
  const Tensor shared = tensor_of({8, 8}, 3.0f);
  bank.put("a", ckpt_with({{"l/W", shared}}));
  const BankPutStats second = bank.put("b", ckpt_with({{"l/W", shared}}));
  // The second put moves only its manifest: the chunk already exists.
  EXPECT_EQ(second.new_chunk_bytes, 0u);
  EXPECT_EQ(second.deduped_chunks, 1u);
  EXPECT_EQ(second.bytes_moved(), second.manifest_bytes);

  const BankStats s = bank.stats();
  EXPECT_EQ(s.chunk_count, 1u);
  EXPECT_EQ(s.manifest_count, 2u);
  EXPECT_GT(s.dedup_ratio(), 1.9);  // two references, one stored copy
}

TEST(WeightBank, PopulationWithSharedLayersDedupes) {
  // A population whose members share frozen early layers but differ in the
  // head: unique bytes grow with distinct heads, logical bytes with members.
  WeightBank bank(WeightBank::Backend::kMemory);
  const Tensor frozen0 = tensor_of({16, 16}, 1.0f);
  const Tensor frozen1 = tensor_of({16, 16}, 2.0f);
  for (int i = 0; i < 6; ++i) {
    bank.put("eval-" + std::to_string(i),
             ckpt_with({{"t0/W", frozen0},
                        {"t1/W", frozen1},
                        {"head/W", tensor_of({16, 4}, 10.0f + static_cast<float>(i))}}));
  }
  const BankStats s = bank.stats();
  EXPECT_EQ(s.manifest_count, 6u);
  EXPECT_EQ(s.chunk_count, 2u + 6u);  // 2 shared + 6 distinct heads
  EXPECT_GT(s.dedup_ratio(), 1.5);
  EXPECT_LT(s.unique_bytes_written, s.logical_bytes_written);
  // Every member still reassembles exactly.
  for (int i = 0; i < 6; ++i) {
    const auto got = bank.try_get("eval-" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(got->tensors[0].value, frozen0);
  }
}

TEST(WeightBank, OverwriteReleasesOldReferences) {
  WeightBank bank(WeightBank::Backend::kMemory);
  bank.put("k", ckpt_with({{"l/W", tensor_of({4}, 1.0f)}}));
  bank.put("k", ckpt_with({{"l/W", tensor_of({4}, 2.0f)}}));
  // The old content has no referencing manifest left; the entry is gone.
  EXPECT_EQ(bank.stats().chunk_count, 1u);
  const auto got = bank.try_get("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tensors[0].value, tensor_of({4}, 2.0f));
}

TEST(WeightBank, OverwriteWithSameContentKeepsChunkAlive) {
  // Regression guard for the add-refs-before-release ordering: re-putting
  // the same content must not transiently drop the shared chunk to 0 refs.
  WeightBank bank(WeightBank::Backend::kMemory);
  const Checkpoint c = ckpt_with({{"l/W", tensor_of({4}, 1.0f)}});
  bank.put("k", c);
  const BankPutStats again = bank.put("k", c);
  EXPECT_EQ(again.new_chunk_bytes, 0u);  // chunk survived the overwrite
  EXPECT_EQ(bank.stats().chunk_count, 1u);
  EXPECT_TRUE(bank.try_get("k").has_value());
}

// ---------------------------------------------------------------------------
// refcounts across remove

TEST(WeightBank, SharedChunkSurvivesRemovingOneReference) {
  WeightBank bank(WeightBank::Backend::kMemory);
  const Tensor shared = tensor_of({8}, 5.0f);
  bank.put("a", ckpt_with({{"l/W", shared}}));
  bank.put("b", ckpt_with({{"l/W", shared}}));
  EXPECT_TRUE(bank.remove("a"));
  EXPECT_EQ(bank.count(), 1u);
  EXPECT_EQ(bank.stats().chunk_count, 1u);  // still referenced by "b"
  const auto got = bank.try_get("b");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tensors[0].value, shared);
  // Dropping the last reference erases the chunk too.
  EXPECT_TRUE(bank.remove("b"));
  EXPECT_EQ(bank.count(), 0u);
  EXPECT_EQ(bank.stats().chunk_count, 0u);
  EXPECT_FALSE(bank.remove("b"));
}

TEST(WeightBank, DiskRemoveUnlinksChunkAtZeroRefs) {
  TempDir dir("remove");
  WeightBank bank(WeightBank::Backend::kDisk, dir.path());
  const Tensor shared = tensor_of({8}, 5.0f);
  bank.put("a", ckpt_with({{"l/W", shared}}));
  bank.put("b", ckpt_with({{"l/W", shared}}));
  const auto chunk_file =
      dir.path() / "chunks" / (chunk_id(shared).hex() + ".chk");
  ASSERT_TRUE(fs::exists(chunk_file));
  EXPECT_TRUE(bank.remove("a"));
  EXPECT_TRUE(fs::exists(chunk_file));  // "b" still references it
  EXPECT_FALSE(fs::exists(dir.path() / "manifests" / "a.swtm"));
  EXPECT_TRUE(bank.remove("b"));
  EXPECT_FALSE(fs::exists(chunk_file));
}

// ---------------------------------------------------------------------------
// LRU eviction

TEST(WeightBank, EvictsLeastRecentlyUsedUnderBudget) {
  // Budget fits roughly one chunk; the older chunk is de-materialised.
  const Tensor t1 = tensor_of({64}, 1.0f);
  const Tensor t2 = tensor_of({64}, 2.0f);
  const std::size_t one_chunk =
      [&] {
        WeightBank probe(WeightBank::Backend::kMemory);
        return probe.put("p", ckpt_with({{"l/W", t1}})).new_chunk_bytes;
      }();
  WeightBank bank(WeightBank::Backend::kMemory, {}, CompressionKind::kNone,
                  one_chunk + one_chunk / 2);
  bank.put("old", ckpt_with({{"l/W", t1}}));
  bank.put("new", ckpt_with({{"l/W", t2}}));
  const BankStats s = bank.stats();
  EXPECT_EQ(s.evicted_chunks, 1u);
  EXPECT_LE(s.resident_chunk_bytes, bank.byte_budget());
  // The evicted key reads as a miss; the resident one still round-trips.
  EXPECT_TRUE(bank.contains("old"));
  EXPECT_FALSE(bank.try_get("old").has_value());
  ASSERT_TRUE(bank.try_get("new").has_value());
  // Re-putting the evicted content re-materialises it (and evicts "new").
  bank.put("old", ckpt_with({{"l/W", t1}}));
  EXPECT_TRUE(bank.try_get("old").has_value());
}

TEST(WeightBank, DiskEvictionUnlinksChunkAndRePutHeals) {
  // On disk the budget bounds stored chunk bytes, so eviction unlinks the
  // file: the evicted key reads as a miss until its content is re-put.
  const Tensor t1 = tensor_of({64}, 1.0f);
  const Tensor t2 = tensor_of({64}, 2.0f);
  TempDir dir("evict");
  const std::size_t one_chunk =
      [&] {
        WeightBank probe(WeightBank::Backend::kMemory);
        return probe.put("p", ckpt_with({{"l/W", t1}})).new_chunk_bytes;
      }();
  WeightBank bank(WeightBank::Backend::kDisk, dir.path(), CompressionKind::kNone,
                  one_chunk + one_chunk / 2);
  bank.put("old", ckpt_with({{"l/W", t1}}));
  bank.put("new", ckpt_with({{"l/W", t2}}));
  EXPECT_EQ(bank.stats().evicted_chunks, 1u);
  EXPECT_FALSE(fs::exists(dir.path() / "chunks" / (chunk_id(t1).hex() + ".chk")));
  EXPECT_FALSE(bank.try_get("old").has_value());
  bank.put("old", ckpt_with({{"l/W", t1}}));
  const auto got = bank.try_get("old");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tensors[0].value, t1);
}

// ---------------------------------------------------------------------------
// corruption fallback

TEST(WeightBank, CorruptChunkReadsAsMissAndHealsOnRePut) {
  TempDir dir("corrupt");
  WeightBank bank(WeightBank::Backend::kDisk, dir.path());
  const Checkpoint c = ckpt_with({{"l/W", tensor_of({16}, 7.0f)}});
  bank.put("victim", c);
  const auto chunk_file =
      dir.path() / "chunks" / (chunk_id(c.tensors[0].value).hex() + ".chk");
  ASSERT_TRUE(fs::exists(chunk_file));
  {
    std::fstream f(chunk_file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(chunk_file) / 2));
    f.put('\x5a');
  }
  // CRC catches the flip: the read is a miss, the stat counts it, and the
  // poisoned file is dropped so it cannot satisfy future reads.
  EXPECT_FALSE(bank.try_get("victim").has_value());
  EXPECT_EQ(bank.stats().corrupt_chunks, 1u);
  EXPECT_FALSE(fs::exists(chunk_file));
  // A later re-put of the same content heals the key.
  bank.put("victim", c);
  const auto got = bank.try_get("victim");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tensors[0].value, c.tensors[0].value);
}

TEST(WeightBank, CorruptManifestIsSkippedOnReopen) {
  TempDir dir("badmanifest");
  {
    WeightBank bank(WeightBank::Backend::kDisk, dir.path());
    bank.put("good", ckpt_with({{"l/W", tensor_of({4}, 1.0f)}}));
    bank.put("bad", ckpt_with({{"l/W", tensor_of({4}, 2.0f)}}));
    bank.put("inflated", ckpt_with({{"l/W", tensor_of({4}, 3.0f)}}));
  }
  const auto bad = dir.path() / "manifests" / "bad.swtm";
  {
    std::fstream f(bad, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(bad) / 2));
    f.put('\x5a');
  }
  // An arch count of 2^61 behind a valid CRC: the decoder must refuse it
  // against the bytes left instead of reserving for it.  The count is the
  // u64 after the magic, version and codec bytes.
  const auto inflated = dir.path() / "manifests" / "inflated.swtm";
  {
    std::vector<std::byte> bytes = fsio::read_file(inflated);
    const std::uint64_t count = std::uint64_t{1} << 61;
    std::memcpy(bytes.data() + 6, &count, sizeof count);
    const std::size_t body = bytes.size() - sizeof(std::uint32_t);
    const std::uint32_t crc = crc32(bytes.data(), body);
    std::memcpy(bytes.data() + body, &crc, sizeof crc);
    fsio::atomic_write_file(inflated, bytes.data(), bytes.size());
  }
  WeightBank reopened(WeightBank::Backend::kDisk, dir.path());
  EXPECT_EQ(reopened.count(), 1u);
  EXPECT_TRUE(reopened.contains("good"));
  EXPECT_FALSE(reopened.contains("bad"));
  EXPECT_FALSE(reopened.contains("inflated"));
  EXPECT_FALSE(fs::exists(bad));  // corrupt manifests deleted, not adopted
  EXPECT_FALSE(fs::exists(inflated));
}

// ---------------------------------------------------------------------------
// disk reopen: adoption, refcount rebuild, orphan GC, tmp sweep

TEST(WeightBank, DiskReopenAdoptsManifestsAndRebuildsRefcounts) {
  TempDir dir("reopen");
  const Tensor shared = tensor_of({8}, 5.0f);
  {
    WeightBank bank(WeightBank::Backend::kDisk, dir.path());
    bank.put("a", ckpt_with({{"l/W", shared}}));
    bank.put("b", ckpt_with({{"l/W", shared}, {"h/W", tensor_of({4}, 9.0f)}}));
  }
  WeightBank reopened(WeightBank::Backend::kDisk, dir.path());
  EXPECT_EQ(reopened.count(), 2u);
  EXPECT_EQ(reopened.stats().chunk_count, 2u);
  ASSERT_TRUE(reopened.try_get("a").has_value());
  ASSERT_TRUE(reopened.try_get("b").has_value());
  // Refcounts were rebuilt: removing "a" must not strand "b"'s shared chunk.
  EXPECT_TRUE(reopened.remove("a"));
  const auto got = reopened.try_get("b");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tensors[0].value, shared);
}

TEST(WeightBank, DiskReopenCollectsOrphanChunksAndTmpDebris) {
  TempDir dir("gc");
  {
    WeightBank bank(WeightBank::Backend::kDisk, dir.path());
    bank.put("kept", ckpt_with({{"l/W", tensor_of({4}, 1.0f)}}));
  }
  // An orphan chunk (writer killed between chunk and manifest writes) and
  // staging debris from torn atomic writes.
  const Tensor orphan = tensor_of({4}, 42.0f);
  const auto orphan_file =
      dir.path() / "chunks" / (chunk_id(orphan).hex() + ".chk");
  {
    std::ofstream out(orphan_file, std::ios::binary);
    out << "orphan chunk payload";
  }
  {
    std::ofstream out(dir.path() / "chunks" / "feed.chk.tmp", std::ios::binary);
    out << "torn";
  }
  {
    std::ofstream out(dir.path() / "manifests" / "torn.swtm.tmp", std::ios::binary);
    out << "torn";
  }
  WeightBank reopened(WeightBank::Backend::kDisk, dir.path());
  EXPECT_EQ(reopened.count(), 1u);
  EXPECT_FALSE(fs::exists(orphan_file));
  EXPECT_FALSE(fs::exists(dir.path() / "chunks" / "feed.chk.tmp"));
  EXPECT_FALSE(fs::exists(dir.path() / "manifests" / "torn.swtm.tmp"));
  ASSERT_TRUE(reopened.try_get("kept").has_value());
}

// ---------------------------------------------------------------------------
// compressed chunks

TEST(WeightBank, Fp16ChunksRoundTripWithinCodecError) {
  WeightBank bank(WeightBank::Backend::kMemory, {}, CompressionKind::kFp16);
  const Tensor t = tensor_of({32}, 0.125f);
  bank.put("k", ckpt_with({{"l/W", t}}));
  const auto got = bank.try_get("k");
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->tensors[0].value.shape(), t.shape());
  const auto orig = t.values();
  const auto back = got->tensors[0].value.values();
  for (std::size_t i = 0; i < orig.size(); ++i)
    EXPECT_NEAR(back[i], orig[i], 0.01f) << i;
  // Encoded chunks are smaller than raw float payloads.
  EXPECT_LT(bank.stats().unique_bytes_written, 32 * sizeof(float));
}

// ---------------------------------------------------------------------------
// banked CheckpointStore routing

TEST(BankedStore, PutGetRoundTripAndExceptionContract) {
  CheckpointStore store(CheckpointStore::Backend::kMemory, {}, {},
                        CompressionKind::kNone, BankConfig{.enabled = true});
  ASSERT_NE(store.bank(), nullptr);
  Checkpoint c = ckpt_with({{"d/W", tensor_of({2, 3}, 1.0f)}}, 0.875);
  store.put("k", c);
  EXPECT_TRUE(store.contains("k"));
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.get("k").first.tensors[0].value, c.tensors[0].value);
  EXPECT_THROW((void)store.get("absent"), std::out_of_range);
  EXPECT_FALSE(store.try_get("absent").has_value());
  EXPECT_TRUE(store.remove("k"));
  EXPECT_FALSE(store.remove("k"));
}

TEST(BankedStore, DedupedPutIsChargedAtManifestCost) {
  CheckpointStore store(CheckpointStore::Backend::kMemory, {}, {},
                        CompressionKind::kNone, BankConfig{.enabled = true});
  const Checkpoint c = ckpt_with({{"d/W", tensor_of({64, 64}, 1.0f)}});
  const IoStats first = store.put("a", c);
  const IoStats second = store.put("b", c);
  // First put moves manifest + chunk; the dedup'd second moves manifest only.
  EXPECT_GT(first.bytes, c.payload_bytes());
  EXPECT_LT(second.bytes, c.payload_bytes() / 4);
  EXPECT_LT(second.cost_seconds, first.cost_seconds);
  // Reads are provider lookups: priced at manifest size, not blob size.
  const auto [restored, read] = store.get("a");
  EXPECT_EQ(restored.tensors[0].value, c.tensors[0].value);
  EXPECT_LT(read.bytes, c.payload_bytes() / 4);
  // Traffic meters stay cumulative, like the flat store's.
  EXPECT_EQ(store.stored_sizes().size(), 2u);
  EXPECT_EQ(store.total_bytes_written(), first.bytes + second.bytes);
}

TEST(BankedStore, LiveBytesTracksResidentState) {
  CheckpointStore store(CheckpointStore::Backend::kMemory, {}, {},
                        CompressionKind::kNone, BankConfig{.enabled = true});
  EXPECT_EQ(store.live_bytes(), 0u);
  store.put("k", ckpt_with({{"d/W", tensor_of({8, 8}, 1.0f)}}));
  const std::size_t live = store.live_bytes();
  EXPECT_GT(live, 0u);
  store.put("k2", ckpt_with({{"d/W", tensor_of({8, 8}, 1.0f)}}));
  // Same content: live grows by a manifest, not by another chunk.
  EXPECT_LT(store.live_bytes() - live, live / 2);
  store.remove("k");
  store.remove("k2");
  EXPECT_EQ(store.live_bytes(), 0u);
}

TEST(BankedStore, DiskBackendPersistsAcrossReopen) {
  TempDir dir("store");
  const Checkpoint c = ckpt_with({{"d/W", tensor_of({2, 3}, 1.0f)}});
  {
    CheckpointStore store(CheckpointStore::Backend::kDisk, dir.path(), {},
                          CompressionKind::kNone, BankConfig{.enabled = true});
    store.put("survivor", c);
    EXPECT_TRUE(fs::exists(dir.path() / "manifests" / "survivor.swtm"));
  }
  CheckpointStore reopened(CheckpointStore::Backend::kDisk, dir.path(), {},
                           CompressionKind::kNone, BankConfig{.enabled = true});
  EXPECT_EQ(reopened.count(), 1u);
  EXPECT_EQ(reopened.get("survivor").first.tensors[0].value,
            c.tensors[0].value);
}

// ---------------------------------------------------------------------------
// registry: bank snapshot round-trip

TEST(RegistryBank, RecordRoundTripsBankFields) {
  RunRecord rec;
  rec.run_id = "r1";
  rec.app = "mnist";
  rec.mode = "LCS";
  rec.bank_enabled = true;
  rec.bank_dedup_ratio = 2.25;
  rec.bank_chunks = 17;
  rec.bank_unique_bytes = 123456789012345ull;
  rec.bank_logical_bytes = 987654321098765ull;
  rec.bank_evictions = 3;
  rec.bank_roots = {"eval-5", "eval-9"};
  const RunRecord back = parse_run_record(run_record_to_json(rec));
  EXPECT_TRUE(back.bank_enabled);
  EXPECT_DOUBLE_EQ(back.bank_dedup_ratio, 2.25);
  EXPECT_EQ(back.bank_chunks, 17);
  EXPECT_EQ(back.bank_unique_bytes, 123456789012345ull);
  EXPECT_EQ(back.bank_logical_bytes, 987654321098765ull);
  EXPECT_EQ(back.bank_evictions, 3);
  EXPECT_EQ(back.bank_roots, (std::vector<std::string>{"eval-5", "eval-9"}));
}

TEST(RegistryBank, FlatRecordOmitsBankFields) {
  RunRecord rec;
  rec.run_id = "r1";
  const std::string json = run_record_to_json(rec);
  EXPECT_EQ(json.find("bank"), std::string::npos);
  const RunRecord back = parse_run_record(json);
  EXPECT_FALSE(back.bank_enabled);
  EXPECT_DOUBLE_EQ(back.bank_dedup_ratio, 1.0);
}

TEST(RegistryBank, ConfigHashFoldsBankKnobsOnlyWhenEnabled) {
  NasRunConfig off;
  NasRunConfig off_with_budget = off;
  off_with_budget.bank_budget_bytes = 1 << 20;  // dead knob while bank=false
  EXPECT_EQ(config_hash("app", off), config_hash("app", off_with_budget));
  NasRunConfig on = off;
  on.bank = true;
  EXPECT_NE(config_hash("app", off), config_hash("app", on));
  NasRunConfig warm = off;
  warm.warm_start_dir = "/some/run";
  EXPECT_NE(config_hash("app", off), config_hash("app", warm));
}

// ---------------------------------------------------------------------------
// end-to-end: banked runs and cross-run warm starts

class WarmStartFixture : public ::testing::Test {
 protected:
  WarmStartFixture() : app_(make_app(AppId::kMnist, 31, {.data_scale = 0.2})) {
    kernels::set_compute_threads(1);
    root_ = fs::temp_directory_path() /
            ("swt_weightbank_e2e_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~WarmStartFixture() override { fs::remove_all(root_); }

  NasRunConfig cfg(long n_evals = 12) const {
    NasRunConfig c;
    c.mode = TransferMode::kLCS;
    c.n_evals = n_evals;
    c.seed = 31;
    c.cluster.num_workers = 4;
    c.cluster.fixed_train_seconds = 1.0;
    c.evolution = {.population_size = 4, .sample_size = 2};
    return c;
  }

  static std::string csv(const Trace& trace) {
    std::ostringstream os;
    write_trace_csv(os, trace);
    return os.str();
  }

  AppConfig app_;
  fs::path root_;
};

TEST_F(WarmStartFixture, BankedRunIsDeterministicAcrossEvalParallelism) {
  NasRunConfig base = cfg();
  base.bank = true;
  NasRunConfig wide = base;
  wide.cluster.eval_parallelism = 2;
  const std::string narrow_csv = csv(run_nas(app_, base).trace);
  const std::string wide_csv = csv(run_nas(app_, wide).trace);
  EXPECT_EQ(narrow_csv, wide_csv);
}

TEST_F(WarmStartFixture, BankedRunDedupesPopulationCheckpoints) {
  NasRunConfig c = cfg();
  c.bank = true;
  const NasRun run = run_nas(app_, c);
  ASSERT_NE(run.store->bank(), nullptr);
  const BankStats s = run.store->bank()->stats();
  EXPECT_GT(s.manifest_count, 0u);
  EXPECT_GE(s.dedup_ratio(), 1.0);
  // The record captures the snapshot for the registry.
  const RunRecord rec = make_run_record("mnist", c, run.trace, 1.0,
                                        run.store.get());
  EXPECT_TRUE(rec.bank_enabled);
  EXPECT_DOUBLE_EQ(rec.bank_dedup_ratio, s.dedup_ratio());
  EXPECT_FALSE(rec.bank_roots.empty());
}

TEST_F(WarmStartFixture, WarmStartSeedsFromPreviousRunDirectory) {
  // Run A writes a durable run directory; run B warm-starts from it.
  NasRunConfig a = cfg();
  a.run_dir = root_ / "run_a";
  a.bank = true;
  const NasRun first = run_nas(app_, a);
  ASSERT_FALSE(first.trace.records.empty());

  NasRunConfig b = cfg();
  b.seed = 77;
  b.warm_start_dir = root_ / "run_a";
  const NasRun warmed = run_nas(app_, b);
  EXPECT_GT(warmed.warm_start_seeded, 0u);
  EXPECT_LE(warmed.warm_start_seeded,
            static_cast<std::size_t>(b.evolution.population_size));
  // The seeded parents are real providers: early children transfer from them.
  bool early_transfer = false;
  for (const auto& r : warmed.trace.records)
    if (r.tensors_transferred > 0) early_transfer = true;
  EXPECT_TRUE(early_transfer);
  // Warm start changes the search: different from the cold run of seed 77.
  NasRunConfig cold = cfg();
  cold.seed = 77;
  EXPECT_NE(csv(run_nas(app_, cold).trace), csv(warmed.trace));
}

TEST_F(WarmStartFixture, WarmStartUnderTransferModeNoneIsIgnored) {
  NasRunConfig a = cfg();
  a.run_dir = root_ / "run_none";
  (void)run_nas(app_, a);
  NasRunConfig b = cfg();
  b.mode = TransferMode::kNone;
  b.warm_start_dir = root_ / "run_none";
  const NasRun run = run_nas(app_, b);
  EXPECT_EQ(run.warm_start_seeded, 0u);
}

TEST_F(WarmStartFixture, WarmStartFromMissingDirectorySeedsNothing) {
  NasRunConfig c = cfg();
  c.warm_start_dir = root_ / "does_not_exist";
  const NasRun run = run_nas(app_, c);
  EXPECT_EQ(run.warm_start_seeded, 0u);
  ASSERT_FALSE(run.trace.records.empty());
}

}  // namespace
}  // namespace swt
