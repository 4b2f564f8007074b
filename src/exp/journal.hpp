// Write-ahead run journal and run manifest — the durable half of crash
// recovery (DESIGN.md "Durability contract").
//
// A journaled run writes one CRC32-framed line per *trained* evaluation
// attempt: the strategy-RNG state at selection time and the attempt's
// booked trace.csv row (virtual times, worker, fault bits, a crash
// included), fsynced when the scheduler books the attempt, before the
// strategy can see its result.  After a kill, `nas_cli --resume` re-executes
// the whole search from the same seed: the scheduler replays
// deterministically, and every attempt found in the journal skips training
// — so the resumed run's trace and journal are byte-identical to an
// uninterrupted one's.  Every attempt that trained but was not yet
// journaled when the process died trains again: at most one per training
// in flight, so one at eval parallelism 1.
//
// The manifest (`manifest.json`, written atomically at run start) pins the
// run's full behaviour-relevant configuration and its registry config hash;
// resume refuses a run directory whose manifest hash disagrees with the
// requested configuration, because replaying a journal against a different
// configuration would diverge silently.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "common/fsio.hpp"
#include "exp/runner.hpp"

namespace swt {

/// Hex round-trip for the strategy-RNG state carried by journal records
/// (4x16 hex digits of xoshiro state, 16 of the gaussian-cache bit pattern,
/// one '0'/'1' cache flag — 81 characters).  Parsing throws
/// std::runtime_error on malformed input.
[[nodiscard]] std::string rng_state_to_hex(const Rng::State& st);
[[nodiscard]] Rng::State rng_state_from_hex(std::string_view hex);

/// Everything needed to reconstruct a run's configuration from its
/// directory: the app plus every NasRunConfig knob that changes behaviour,
/// and the registry config hash over them (the resume compatibility check).
struct RunManifest {
  /// 2 since journal lines carry booked trace rows; a version-1 directory
  /// holds JSON evaluator records, which this build refuses to replay.
  int version = 2;
  std::string app;          ///< canonical app name (to_string(AppId))
  NasRunConfig cfg;
  std::string config_hash;  ///< registry config_hash(app, cfg)
};

[[nodiscard]] RunManifest make_manifest(std::string_view app_name,
                                        const NasRunConfig& cfg);
[[nodiscard]] std::string manifest_to_json(const RunManifest& m);
/// Throws std::runtime_error on malformed JSON, unknown app/mode/compression
/// names or an unsupported manifest version.
[[nodiscard]] RunManifest parse_manifest(std::string_view json);

/// Atomically write `<run_dir>/manifest.json` (tmp + fsync + rename).
void write_manifest(const std::filesystem::path& run_dir, const RunManifest& m);
/// Empty when the manifest does not exist; throws on a malformed one (a run
/// directory with a corrupt manifest must not be silently re-initialised).
[[nodiscard]] std::optional<RunManifest> load_manifest(
    const std::filesystem::path& run_dir);

/// The concrete EvalJournal: `<run_dir>/journal.ndjson`, one line per
/// trained attempt, framed as "<crc>,<rng>,<row>": the CRC32 in 8 hex digits
/// covers the exact bytes after its comma, <rng> is the selection-time
/// strategy-RNG state in rng_state_to_hex form and <row> the booked record
/// in trace_row form.  Appends go through one O_APPEND write(2) plus (by
/// default) an fsync, so a kill can tear at most the final record — which
/// open() detects and truncates away.
class RunJournal final : public EvalJournal {
 public:
  static constexpr const char* kFileName = "journal.ndjson";
  /// Exit code used by the deterministic in-process crash hook.
  static constexpr int kCrashExitCode = 42;

  /// Opens (creating if missing) the journal in `run_dir`, loading the valid
  /// record prefix.  A torn *final* line (the expected SIGKILL artifact) is
  /// truncated off with a warning; a corrupt *interior* line throws — that
  /// is real corruption, not a crash artifact.  `sync_each_append = false`
  /// drops the per-record fsync (bench comparisons only; a crash may then
  /// lose trailing records, costing re-training but never correctness).
  explicit RunJournal(const std::filesystem::path& run_dir,
                      bool sync_each_append = true);

  /// EvalJournal: record for (id, attempt) trained by a previous process,
  /// or nullptr.  Throws std::runtime_error when the journaled architecture
  /// or selection-time RNG state disagrees with the live replay (the journal
  /// belongs to a different configuration or code version).
  [[nodiscard]] const EvalRecord* lookup(long id, int attempt, const ArchSeq& arch,
                                         const Rng& strategy_rng) override;

  /// EvalJournal: durably append one freshly trained attempt's booked record.
  void append(const EvalRecord& rec, const Rng::State& selection_state) override;

  /// Crash hook for tests: `_exit(kCrashExitCode)` the instant the process
  /// is about to journal its (n+1)-th fresh record, so the journal holds
  /// exactly `n` records more than it was opened with.  Negative = never.
  void set_crash_after(long n) noexcept { crash_after_ = n; }

  /// Checkpoint keys of the journaled attempts that did not crash: the only
  /// checkpoints of a previous process that a resumed search reads without
  /// training their attempt again.
  [[nodiscard]] std::set<std::string> completed_ckpt_keys() const;

  /// Records recovered from disk at open time.
  [[nodiscard]] std::size_t loaded() const noexcept { return loaded_; }
  /// lookup() hits — attempts whose training was skipped this process.
  [[nodiscard]] std::size_t replayed() const noexcept { return replayed_; }
  /// Fresh records appended by this process.
  [[nodiscard]] std::size_t appended() const noexcept { return appended_; }
  /// True when open() found and discarded a torn final record.
  [[nodiscard]] bool truncated_tail() const noexcept { return truncated_tail_; }

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  struct Entry {
    EvalRecord rec;
    Rng::State sel_state;
  };

  std::filesystem::path path_;
  std::map<std::pair<long, int>, Entry> entries_;  ///< by (id, attempt)
  std::unique_ptr<fsio::DurableAppender> appender_;
  std::size_t loaded_ = 0;
  std::size_t replayed_ = 0;
  std::size_t appended_ = 0;
  long crash_after_ = -1;
  bool truncated_tail_ = false;
};

/// One journal line <-> (record, selection state).  Exposed for tests and
/// offline inspection; journal_line_to_record throws on framing, CRC or
/// field errors.
[[nodiscard]] std::string record_to_journal_line(const EvalRecord& rec,
                                                 const Rng::State& sel_state);
[[nodiscard]] std::pair<EvalRecord, Rng::State> journal_line_to_record(
    std::string_view line);

}  // namespace swt
