// Run journal, run manifest and crash-consistent fsio primitives
// (DESIGN.md "Durability contract").  The fork/SIGKILL end-to-end harness
// lives in test_crash_recovery.cpp; this file covers the units underneath:
// record framing + CRC detection, RNG-state hex round-trips, manifest
// serialization and refusal paths (an older manifest version included),
// torn-tail truncation on open, and the atomic-write/durable-append
// building blocks.
#include "exp/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "common/fsio.hpp"
#include "exp/registry.hpp"
#include "exp/trace_io.hpp"

namespace swt {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    dir_ = fs::temp_directory_path() /
           (std::string("swt_journal_test_") + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

[[nodiscard]] std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

[[nodiscard]] EvalRecord sample_record() {
  EvalRecord rec;
  rec.id = 17;
  rec.attempt = 2;
  rec.arch = {3, 1, 4, 1, 5};
  rec.score = 0.87312549;
  rec.first_epoch_score = 0.5000000000000007;
  rec.parent_id = 9;
  rec.ckpt_key = "eval-9";
  rec.param_count = 123456;
  rec.tensors_transferred = 7;
  rec.values_transferred = 4242;
  rec.train_seconds = 1.25;
  rec.transfer_seconds = 0.03125;
  rec.ckpt_read_cost = 0.5;
  rec.ckpt_write_cost = 0.75;
  rec.ckpt_bytes = 8192;
  rec.ckpt_write_charged = 0.002;
  rec.ckpt_read_wait = 1.0 / 3.0;
  rec.ckpt_available_at = 14.5;
  rec.virtual_start = 10.0 / 3.0;
  rec.virtual_finish = 13.75;
  rec.worker = 3;
  rec.faults = 5u;
  rec.retries = 3;
  rec.retry_seconds = 0.875;
  rec.transfer_fallback = true;
  return rec;
}

[[nodiscard]] Rng::State sample_state() {
  Rng rng(123);
  (void)rng.gaussian();  // populate the cached-gaussian half of the state
  return rng.state();
}

// ---------------------------------------------------------------------------
// RNG-state hex codec

TEST(RngStateHex, RoundTripsPlainState) {
  Rng rng(99);
  for (int i = 0; i < 5; ++i) (void)rng.uniform();
  const Rng::State st = rng.state();
  const std::string hex = rng_state_to_hex(st);
  EXPECT_EQ(hex.size(), 81u);
  EXPECT_EQ(rng_state_from_hex(hex), st);
}

TEST(RngStateHex, RoundTripsGaussianCache) {
  const Rng::State st = sample_state();
  ASSERT_TRUE(st.has_gauss);
  const Rng::State back = rng_state_from_hex(rng_state_to_hex(st));
  EXPECT_EQ(back, st);
  EXPECT_EQ(back.cached_gauss, st.cached_gauss);
}

TEST(RngStateHex, RejectsWrongLengthAndBadDigits) {
  const std::string good = rng_state_to_hex(sample_state());
  EXPECT_THROW((void)rng_state_from_hex(good.substr(1)), std::runtime_error);
  EXPECT_THROW((void)rng_state_from_hex(good + "0"), std::runtime_error);
  std::string bad = good;
  bad[3] = 'z';
  EXPECT_THROW((void)rng_state_from_hex(bad), std::runtime_error);
  bad = good;
  bad.back() = '7';  // flag must be '0' or '1'
  EXPECT_THROW((void)rng_state_from_hex(bad), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Journal line framing

TEST(JournalLine, RoundTripsEveryField) {
  const EvalRecord rec = sample_record();
  const Rng::State st = sample_state();
  const std::string line = record_to_journal_line(rec, st);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  const auto [back, back_st] = journal_line_to_record(line);
  EXPECT_EQ(back.id, rec.id);
  EXPECT_EQ(back.attempt, rec.attempt);
  EXPECT_EQ(back.arch, rec.arch);
  EXPECT_EQ(back.score, rec.score);
  EXPECT_EQ(back.first_epoch_score, rec.first_epoch_score);
  EXPECT_EQ(back.parent_id, rec.parent_id);
  EXPECT_EQ(back.ckpt_key, rec.ckpt_key);
  EXPECT_EQ(back.param_count, rec.param_count);
  EXPECT_EQ(back.tensors_transferred, rec.tensors_transferred);
  EXPECT_EQ(back.values_transferred, rec.values_transferred);
  EXPECT_EQ(back.train_seconds, rec.train_seconds);
  EXPECT_EQ(back.transfer_seconds, rec.transfer_seconds);
  EXPECT_EQ(back.ckpt_read_cost, rec.ckpt_read_cost);
  EXPECT_EQ(back.ckpt_write_cost, rec.ckpt_write_cost);
  EXPECT_EQ(back.ckpt_bytes, rec.ckpt_bytes);
  EXPECT_EQ(back.ckpt_write_charged, rec.ckpt_write_charged);
  EXPECT_EQ(back.ckpt_read_wait, rec.ckpt_read_wait);
  EXPECT_EQ(back.ckpt_available_at, rec.ckpt_available_at);
  EXPECT_EQ(back.virtual_start, rec.virtual_start);
  EXPECT_EQ(back.virtual_finish, rec.virtual_finish);
  EXPECT_EQ(back.worker, rec.worker);
  EXPECT_EQ(back.faults, rec.faults);
  EXPECT_EQ(back.retries, rec.retries);
  EXPECT_EQ(back.retry_seconds, rec.retry_seconds);
  EXPECT_EQ(back.transfer_fallback, rec.transfer_fallback);
  EXPECT_EQ(back_st, st);
}

TEST(JournalLine, AnyPayloadByteFlipIsCaughtByCrc) {
  const std::string line = record_to_journal_line(sample_record(), sample_state());
  // Flip one bit in every payload byte: past the 8 CRC digits and their
  // comma, before the newline.
  for (std::size_t pos = 9; pos + 1 < line.size(); ++pos) {
    std::string bad = line;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    EXPECT_THROW((void)journal_line_to_record(bad), std::runtime_error)
        << "undetected flip at byte " << pos;
  }
}

TEST(JournalLine, RejectsBrokenFraming) {
  const std::string line = record_to_journal_line(sample_record(), sample_state());
  EXPECT_THROW((void)journal_line_to_record(""), std::runtime_error);
  EXPECT_THROW((void)journal_line_to_record("{}"), std::runtime_error);
  EXPECT_THROW((void)journal_line_to_record(line.substr(0, line.size() / 2)),
               std::runtime_error);
  std::string bad = line;
  bad[8] = ';';
  EXPECT_THROW((void)journal_line_to_record(bad), std::runtime_error);
  // A correctly sealed payload whose row lacks a column is still refused.
  const auto seal = [](const std::string& row) {
    const std::string payload = rng_state_to_hex(sample_state()) + ',' + row;
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x", crc32(payload.data(), payload.size()));
    return std::string(crc) + ',' + payload + '\n';
  };
  std::string row = trace_row(sample_record());
  EXPECT_EQ(seal(row), line);
  row.erase(row.rfind(','));
  EXPECT_THROW((void)journal_line_to_record(seal(row)), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Manifest

[[nodiscard]] NasRunConfig sample_cfg() {
  NasRunConfig cfg;
  cfg.mode = TransferMode::kLCS;
  cfg.n_evals = 20;
  cfg.seed = 0xdeadbeefcafef00dULL;  // needs full uint64 round-trip
  cfg.cluster.num_workers = 4;
  cfg.cluster.eval_parallelism = 2;
  cfg.cluster.fixed_train_seconds = 1.0;
  cfg.cluster.faults.mtbf_seconds = 40.0;
  cfg.cluster.faults.ckpt_read_fault_rate = 0.125;
  cfg.compression = CompressionKind::kFp16;
  cfg.train_subset_fraction = 0.5;
  cfg.estimation_epochs = 2;
  cfg.evolution = {.population_size = 6, .sample_size = 3};
  return cfg;
}

TEST(Manifest, RoundTripsThroughJson) {
  const NasRunConfig cfg = sample_cfg();
  const RunManifest m = make_manifest("mnist", cfg);
  EXPECT_EQ(m.config_hash, config_hash("mnist", cfg));

  const RunManifest back = parse_manifest(manifest_to_json(m));
  EXPECT_EQ(back.version, 2);
  EXPECT_EQ(back.app, "mnist");
  EXPECT_EQ(back.config_hash, m.config_hash);
  EXPECT_EQ(back.cfg.mode, cfg.mode);
  EXPECT_EQ(back.cfg.n_evals, cfg.n_evals);
  EXPECT_EQ(back.cfg.seed, cfg.seed);
  EXPECT_EQ(back.cfg.cluster.num_workers, cfg.cluster.num_workers);
  EXPECT_EQ(back.cfg.cluster.eval_parallelism, cfg.cluster.eval_parallelism);
  EXPECT_EQ(back.cfg.cluster.fixed_train_seconds, cfg.cluster.fixed_train_seconds);
  EXPECT_EQ(back.cfg.cluster.faults.mtbf_seconds, cfg.cluster.faults.mtbf_seconds);
  EXPECT_EQ(back.cfg.cluster.faults.ckpt_read_fault_rate, cfg.cluster.faults.ckpt_read_fault_rate);
  EXPECT_EQ(back.cfg.compression, cfg.compression);
  EXPECT_EQ(back.cfg.train_subset_fraction, cfg.train_subset_fraction);
  EXPECT_EQ(back.cfg.estimation_epochs, cfg.estimation_epochs);
  EXPECT_EQ(back.cfg.evolution.population_size, cfg.evolution.population_size);
  EXPECT_EQ(back.cfg.evolution.sample_size, cfg.evolution.sample_size);
  // The reconstructed configuration must hash identically — that is the
  // whole resume-compatibility check.
  EXPECT_EQ(config_hash(back.app, back.cfg), m.config_hash);
}

TEST(Manifest, ParseRejectsGarbage) {
  EXPECT_THROW((void)parse_manifest(""), std::runtime_error);
  EXPECT_THROW((void)parse_manifest("{}"), std::runtime_error);
  const std::string good = manifest_to_json(make_manifest("mnist", sample_cfg()));
  std::string bad = good;
  const auto pos = bad.find("\"mnist\"");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 7, "\"nonapp\"");
  EXPECT_THROW((void)parse_manifest(bad), std::runtime_error);
}

TEST(Manifest, RefusesAnOlderVersionByName) {
  // A version-1 run directory journals JSON evaluator records; resuming it
  // must fail on the manifest, not on the first journal line.
  std::string old = manifest_to_json(make_manifest("mnist", sample_cfg()));
  const auto pos = old.find("\"version\":2");
  ASSERT_NE(pos, std::string::npos);
  old.replace(pos, 11, "\"version\":1");
  try {
    (void)parse_manifest(old);
    FAIL() << "expected parse_manifest to refuse version 1";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"), std::string::npos)
        << e.what();
  }
}

TEST(Manifest, WriteThenLoad) {
  TempDir dir("manifest");
  EXPECT_FALSE(load_manifest(dir.path()).has_value());
  const RunManifest m = make_manifest("uno", sample_cfg());
  write_manifest(dir.path(), m);
  const auto back = load_manifest(dir.path());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->app, "uno");
  EXPECT_EQ(back->config_hash, m.config_hash);
  // No tmp-sibling debris after the atomic rename.
  EXPECT_FALSE(fs::exists(fsio::tmp_sibling(dir.path() / "manifest.json")));
}

// ---------------------------------------------------------------------------
// RunJournal open/append/lookup semantics

TEST(RunJournal, AppendReloadAndLookup) {
  TempDir dir("reload");
  const EvalRecord rec = sample_record();
  Rng rng(7);
  const Rng::State sel = rng.state();
  {
    RunJournal j(dir.path());
    EXPECT_EQ(j.loaded(), 0u);
    j.append(rec, sel);
    EXPECT_EQ(j.appended(), 1u);
  }
  RunJournal j(dir.path());
  EXPECT_EQ(j.loaded(), 1u);
  EXPECT_FALSE(j.truncated_tail());

  const EvalRecord* hit = j.lookup(rec.id, rec.attempt, rec.arch, rng);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->score, rec.score);
  EXPECT_EQ(j.replayed(), 1u);
  EXPECT_EQ(j.lookup(rec.id + 1, 0, rec.arch, rng), nullptr);

  // A hit whose journaled architecture or selection-time RNG state disagrees
  // with the live replay is divergence, not a cache miss.
  ArchSeq other = rec.arch;
  other.back() += 1;
  EXPECT_THROW((void)j.lookup(rec.id, rec.attempt, other, rng), std::runtime_error);
  Rng drifted(7);
  (void)drifted.uniform();
  EXPECT_THROW((void)j.lookup(rec.id, rec.attempt, rec.arch, drifted),
               std::runtime_error);
}

TEST(RunJournal, TornFinalLineIsTruncatedOnOpen) {
  TempDir dir("torn");
  const std::string l0 = record_to_journal_line(sample_record(), sample_state());
  EvalRecord second = sample_record();
  second.id = 18;
  const std::string l1 = record_to_journal_line(second, sample_state());
  const fs::path file = dir.path() / RunJournal::kFileName;
  {
    std::ofstream out(file, std::ios::binary);
    out << l0 << l1.substr(0, l1.size() / 2);  // kill mid-append
  }
  RunJournal j(dir.path());
  EXPECT_EQ(j.loaded(), 1u);
  EXPECT_TRUE(j.truncated_tail());
  EXPECT_EQ(slurp(file), l0);  // the torn bytes are gone from disk
}

TEST(RunJournal, InteriorCorruptionThrows) {
  TempDir dir("interior");
  const std::string l0 = record_to_journal_line(sample_record(), sample_state());
  EvalRecord second = sample_record();
  second.id = 18;
  const std::string l1 = record_to_journal_line(second, sample_state());
  std::string corrupt = l0;
  corrupt[30] = static_cast<char>(corrupt[30] ^ 0x40);
  {
    std::ofstream out(dir.path() / RunJournal::kFileName, std::ios::binary);
    out << corrupt << l1;
  }
  EXPECT_THROW((RunJournal(dir.path())), std::runtime_error);
}

// ---------------------------------------------------------------------------
// fsio primitives

TEST(Fsio, AtomicWriteCreatesAndReplaces) {
  TempDir dir("atomic");
  const fs::path file = dir.path() / "blob.bin";
  fsio::atomic_write_file(file, std::string("first"));
  EXPECT_EQ(slurp(file), "first");
  fsio::atomic_write_file(file, std::string("second, longer payload"));
  EXPECT_EQ(slurp(file), "second, longer payload");
  EXPECT_FALSE(fs::exists(fsio::tmp_sibling(file)));
}

TEST(Fsio, TmpSiblingNaming) {
  EXPECT_EQ(fsio::tmp_sibling("/a/b/c.swtc"), fs::path("/a/b/c.swtc.tmp"));
}

TEST(Fsio, AtomicWriteFailsLoudlyOnMissingParent) {
  TempDir dir("noparent");
  EXPECT_THROW(
      fsio::atomic_write_file(dir.path() / "nope" / "x.bin", std::string("x")),
      std::runtime_error);
}

TEST(Fsio, DurableAppenderAppendsAcrossInstances) {
  TempDir dir("append");
  const fs::path file = dir.path() / "log.ndjson";
  {
    fsio::DurableAppender a(file, /*sync_each_append=*/true);
    a.append("one\n");
    a.append("two\n");
  }
  {
    fsio::DurableAppender b(file, /*sync_each_append=*/false);
    b.append("three\n");
    b.sync();
  }
  EXPECT_EQ(slurp(file), "one\ntwo\nthree\n");
}

}  // namespace
}  // namespace swt
