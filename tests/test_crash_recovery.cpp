// Kill-resume recovery, end to end (DESIGN.md "Durability contract").
//
// The harness forks the search and kills the child — either deterministically
// via the in-process crash hook (`journal_crash_after` = the CLI's
// --crash-after-evals) or asynchronously with SIGKILL at staggered wall-clock
// points — then resumes in the parent and asserts the recovered trace is
// *byte-identical* to an uninterrupted run's CSV: same scores, same virtual
// timeline, same fault history, down to the last bit.  Kernels are pinned to
// one compute thread so fork never races a live thread pool.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "exp/trace_io.hpp"
#include "tensor/kernels.hpp"

namespace swt {
namespace {

namespace fs = std::filesystem;

class CrashRecoveryFixture : public ::testing::Test {
 protected:
  CrashRecoveryFixture() : app_(make_app(AppId::kMnist, 31, {.data_scale = 0.2})) {
    kernels::set_compute_threads(1);  // keep kernels inline: fork must not see worker threads
    root_ = fs::temp_directory_path() /
            ("swt_crash_recovery_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~CrashRecoveryFixture() override { fs::remove_all(root_); }

  NasRunConfig cfg(long n_evals = 18) const {
    NasRunConfig c;
    c.mode = TransferMode::kLCS;
    c.n_evals = n_evals;
    c.seed = 31;
    c.cluster.num_workers = 4;
    c.cluster.fixed_train_seconds = 1.0;
    c.evolution = {.population_size = 6, .sample_size = 3};
    return c;
  }

  fs::path fresh_dir(const std::string& tag) const { return root_ / tag; }

  static std::string csv(const Trace& trace) {
    std::ostringstream os;
    write_trace_csv(os, trace);
    return os.str();
  }

  static std::string journal_bytes(const fs::path& run_dir) {
    std::ifstream in(run_dir / RunJournal::kFileName, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  /// run_nas in a forked child; returns the child's exit status (or the
  /// signal number negated when it died to one).
  static int run_in_child(const AppConfig& app, const NasRunConfig& c) {
    const pid_t pid = fork();
    if (pid == 0) {
      int code = 0;
      try {
        (void)run_nas(app, c);
      } catch (...) {
        code = 99;
      }
      ::_exit(code);  // never unwind into the parent's gtest state
    }
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    if (WIFSIGNALED(status)) return -WTERMSIG(status);
    return WEXITSTATUS(status);
  }

  AppConfig app_;
  fs::path root_;
};

TEST_F(CrashRecoveryFixture, JournalingDoesNotChangeTheTrace) {
  const std::string plain = csv(run_nas(app_, cfg()).trace);

  NasRunConfig jcfg = cfg();
  jcfg.run_dir = fresh_dir("plain_vs_journaled");
  const NasRun run = run_nas(app_, jcfg);
  EXPECT_EQ(csv(run.trace), plain);
  EXPECT_EQ(run.journal_appended, run.trace.records.size());
  EXPECT_EQ(run.journal_replayed, 0u);
  EXPECT_TRUE(fs::exists(jcfg.run_dir / "manifest.json"));
  EXPECT_TRUE(fs::exists(jcfg.run_dir / RunJournal::kFileName));
}

TEST_F(CrashRecoveryFixture, CrashAfterEvalsResumesByteIdentical) {
  // Flat and banked stores alike: resume reopens the flat blobs, or the
  // bank's manifests and chunks, that the killed run left behind.  A child
  // whose parent checkpoint was lost would fall back to random init and
  // move the trace.
  for (const bool bank : {false, true}) {
    NasRunConfig base = cfg();
    base.bank = bank;
    const std::string reference = csv(run_nas(app_, base).trace);

    // First, second, middle and last attempt.
    for (long crash_at : {0L, 1L, base.n_evals / 2, base.n_evals - 1}) {
      const std::string where =
          std::string(bank ? "bank" : "flat") + " crash_at=" + std::to_string(crash_at);
      NasRunConfig crash = base;
      crash.run_dir = fresh_dir(std::string(bank ? "bank_" : "flat_") + "crash_after_" +
                                std::to_string(crash_at));
      crash.journal_crash_after = crash_at;
      EXPECT_EQ(run_in_child(app_, crash), RunJournal::kCrashExitCode) << where;

      NasRunConfig res = base;
      res.run_dir = crash.run_dir;
      res.resume = true;
      const NasRun resumed = run_nas(app_, res);
      EXPECT_EQ(csv(resumed.trace), reference) << where;
      EXPECT_EQ(resumed.journal_replayed, static_cast<std::size_t>(crash_at)) << where;
      EXPECT_EQ(resumed.journal_appended,
                resumed.trace.records.size() - static_cast<std::size_t>(crash_at))
          << where;
    }
  }
}

TEST_F(CrashRecoveryFixture, SigkillAtStaggeredPointsResumesByteIdentical) {
  // Asynchronous kills: the child is SIGKILLed at five staggered wall-clock
  // offsets, anywhere inside training, journal appends or checkpoint
  // renames.  Whatever prefix survived, resume must reconstruct the exact
  // uninterrupted trace.  (A child that finishes before its kill fires is a
  // full-journal replay — still a valid point on the recovery spectrum.)
  NasRunConfig base = cfg(48);
  const std::string reference = csv(run_nas(app_, base).trace);

  int point = 0;
  for (const useconds_t delay_us : {2000u, 10000u, 30000u, 80000u, 160000u}) {
    NasRunConfig crash = base;
    crash.run_dir = fresh_dir("sigkill_" + std::to_string(point++));

    const pid_t pid = fork();
    if (pid == 0) {
      try {
        (void)run_nas(app_, crash);
      } catch (...) {
        ::_exit(99);
      }
      ::_exit(0);
    }
    ::usleep(delay_us);
    ::kill(pid, SIGKILL);  // no-op if the child already finished
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE((WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) ||
                (WIFEXITED(status) && WEXITSTATUS(status) == 0));

    NasRunConfig res = base;
    res.run_dir = crash.run_dir;
    res.resume = true;
    const NasRun resumed = run_nas(app_, res);
    EXPECT_EQ(csv(resumed.trace), reference) << "delay_us=" << delay_us;
  }
}

TEST_F(CrashRecoveryFixture, ResumeWithEvalParallelismIsByteIdentical) {
  // eval_parallelism is outside the config hash (it cannot change the
  // trace), so a serial run killed mid-flight may be resumed on a parallel
  // evaluator — the replay interleaves differently but the journal, the
  // selection-time RNG states and the final CSV must not move.
  const NasRunConfig base = cfg();
  const std::string reference = csv(run_nas(app_, base).trace);

  NasRunConfig crash = base;
  crash.run_dir = fresh_dir("cross_parallelism");
  crash.journal_crash_after = base.n_evals / 2;
  ASSERT_EQ(run_in_child(app_, crash), RunJournal::kCrashExitCode);

  NasRunConfig res = base;
  res.run_dir = crash.run_dir;
  res.resume = true;
  res.cluster.eval_parallelism = 4;
  const NasRun resumed = run_nas(app_, res);
  EXPECT_EQ(csv(resumed.trace), reference);
}

TEST_F(CrashRecoveryFixture, FaultedRunResumesByteIdentical) {
  // Injected worker crashes, stragglers and flaky checkpoint I/O are all
  // deterministic from the fault seed, and crashed attempts are journaled
  // too (their training happened), crash bit set — so recovery composes
  // with the fault model bit-for-bit.
  NasRunConfig base = cfg();
  base.cluster.faults.mtbf_seconds = 5.0;
  base.cluster.faults.ckpt_read_fault_rate = 0.3;
  base.cluster.faults.ckpt_write_fault_rate = 0.3;
  base.cluster.faults.straggler_rate = 0.3;
  const NasRun plain = run_nas(app_, base);
  const std::string reference = csv(plain.trace);
  ASSERT_GT(plain.trace.crashes.size(), 0u)
      << "fault rates too low to exercise anything";

  NasRunConfig crash = base;
  crash.run_dir = fresh_dir("faulted");
  crash.journal_crash_after = 7;
  ASSERT_EQ(run_in_child(app_, crash), RunJournal::kCrashExitCode);

  NasRunConfig res = base;
  res.run_dir = crash.run_dir;
  res.resume = true;
  const NasRun resumed = run_nas(app_, res);
  EXPECT_EQ(csv(resumed.trace), reference);
}

TEST_F(CrashRecoveryFixture, BankedResumeAtEachResubmissionIsByteIdentical) {
  // A resubmission re-puts its crashed attempt's checkpoint key.  Killed
  // just before the resubmission is journaled, the run leaves the journaled
  // crashed attempt beside the resubmission's banked checkpoint.  A crashed
  // record must not root that checkpoint: the resubmission trains again on
  // resume, and a re-put deduped against the leftover would be priced at
  // manifest cost instead of its new-chunk bytes.
  NasRunConfig base = cfg();
  base.bank = true;
  base.cluster.faults.mtbf_seconds = 5.0;
  NasRunConfig ref = base;
  ref.run_dir = fresh_dir("bank_resubmit_ref");
  const std::string reference = csv(run_nas(app_, ref).trace);

  std::vector<long> resubmitted;  // journal positions of attempts >= 1
  std::istringstream journal(journal_bytes(ref.run_dir));
  long pos = 0;
  for (std::string line; std::getline(journal, line); ++pos)
    if (journal_line_to_record(line).first.attempt > 0) resubmitted.push_back(pos);
  ASSERT_FALSE(resubmitted.empty()) << "no resubmission to kill the run at";

  for (const long n : resubmitted) {
    NasRunConfig crash = base;
    crash.run_dir = fresh_dir("bank_resubmit_" + std::to_string(n));
    crash.journal_crash_after = n;
    EXPECT_EQ(run_in_child(app_, crash), RunJournal::kCrashExitCode) << n;

    NasRunConfig res = base;
    res.run_dir = crash.run_dir;
    res.resume = true;
    EXPECT_EQ(csv(run_nas(app_, res).trace), reference) << "killed at journal record " << n;
  }
}

TEST_F(CrashRecoveryFixture, FixedTimeJournalIsByteIdentical) {
  // A journal line is the attempt's booked trace row, so a fixed-time
  // journal is as reproducible as the trace: across repeats, across eval
  // parallelism, and through a kill and resume.  Crashed attempts are
  // journaled too.
  NasRunConfig base = cfg();
  base.cluster.faults.mtbf_seconds = 5.0;
  const auto journal_of = [&](const std::string& tag, int parallelism) {
    NasRunConfig c = base;
    c.run_dir = fresh_dir(tag);
    c.cluster.eval_parallelism = parallelism;
    (void)run_nas(app_, c);
    return journal_bytes(c.run_dir);
  };
  const std::string reference = journal_of("journal_ref", 1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(journal_of("journal_repeat", 1), reference);
  EXPECT_EQ(journal_of("journal_par4", 4), reference);

  NasRunConfig crash = base;
  crash.run_dir = fresh_dir("journal_resumed");
  crash.journal_crash_after = base.n_evals / 2;
  ASSERT_EQ(run_in_child(app_, crash), RunJournal::kCrashExitCode);
  NasRunConfig res = base;
  res.run_dir = crash.run_dir;
  res.resume = true;
  (void)run_nas(app_, res);
  EXPECT_EQ(journal_bytes(res.run_dir), reference);
}

TEST_F(CrashRecoveryFixture, TornJournalTailIsDiscardedAndRetrained) {
  // Deterministic version of the SIGKILL-mid-append artifact: complete a
  // journaled run, rip bytes off the final record, resume.  Exactly one
  // attempt retrains and the trace does not move.
  NasRunConfig jcfg = cfg();
  jcfg.run_dir = fresh_dir("torn_tail");
  const NasRun full = run_nas(app_, jcfg);
  const std::string reference = csv(full.trace);

  const fs::path journal = jcfg.run_dir / RunJournal::kFileName;
  const auto size = fs::file_size(journal);
  ASSERT_GT(size, 10u);
  fs::resize_file(journal, size - 10);  // tear the last record

  NasRunConfig res = cfg();
  res.run_dir = jcfg.run_dir;
  res.resume = true;
  const NasRun resumed = run_nas(app_, res);
  EXPECT_TRUE(resumed.journal_truncated_tail);
  EXPECT_EQ(resumed.journal_appended, 1u);
  EXPECT_EQ(resumed.journal_replayed, full.journal_appended - 1);
  EXPECT_EQ(csv(resumed.trace), reference);
}

TEST_F(CrashRecoveryFixture, CorruptCheckpointsFallBackInsteadOfAborting) {
  // Flip one byte in every checkpoint blob the crashed run left behind.
  // Replayed attempts never touch them; retrained attempts detect the CRC
  // mismatch, degrade to random initialisation (transfer_fallback) and the
  // search completes — corruption costs quality, never the run.
  NasRunConfig crash = cfg();
  crash.run_dir = fresh_dir("corrupt_ckpts");
  crash.journal_crash_after = crash.n_evals / 2;
  ASSERT_EQ(run_in_child(app_, crash), RunJournal::kCrashExitCode);

  std::size_t corrupted = 0;
  for (const auto& entry : fs::directory_iterator(crash.run_dir / "ckpts")) {
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(12);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(12);
    f.write(&byte, 1);
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  NasRunConfig res = cfg();
  res.run_dir = crash.run_dir;
  res.resume = true;
  const NasRun resumed = run_nas(app_, res);
  EXPECT_EQ(resumed.trace.records.size(), static_cast<std::size_t>(cfg().n_evals));
  long fallbacks = 0;
  for (const auto& rec : resumed.trace.records)
    if (rec.transfer_fallback) ++fallbacks;
  EXPECT_GT(fallbacks, 0) << "no retrained attempt exercised the CRC fallback";
}

TEST_F(CrashRecoveryFixture, ResumeRefusesConfigurationMismatch) {
  NasRunConfig jcfg = cfg();
  jcfg.run_dir = fresh_dir("mismatch");
  jcfg.journal_crash_after = 4;
  ASSERT_EQ(run_in_child(app_, jcfg), RunJournal::kCrashExitCode);

  NasRunConfig res = cfg();
  res.run_dir = jcfg.run_dir;
  res.resume = true;
  res.n_evals += 4;  // behaviour-relevant knob changed -> different hash
  EXPECT_THROW((void)run_nas(app_, res), std::runtime_error);

  // The worker recovery time moves every post-crash dispatch, so it is
  // behaviour too, although the hash folds it in only off its default.
  NasRunConfig recovery = cfg();
  recovery.run_dir = jcfg.run_dir;
  recovery.resume = true;
  recovery.cluster.faults.worker_recovery_s = 5.0;
  EXPECT_THROW((void)run_nas(app_, recovery), std::runtime_error);

  // Journal-only knobs are outside the hash: the same change that refuses
  // above must be accepted when it is merely operational.
  NasRunConfig ok = cfg();
  ok.run_dir = jcfg.run_dir;
  ok.resume = true;
  ok.journal_fsync = false;
  EXPECT_NO_THROW((void)run_nas(app_, ok));
}

TEST_F(CrashRecoveryFixture, FreshRunRefusesDirtyRunDirectory) {
  NasRunConfig jcfg = cfg();
  jcfg.run_dir = fresh_dir("dirty");
  (void)run_nas(app_, jcfg);
  // Same directory, no --resume: refusing beats silently clobbering a
  // journaled run.
  EXPECT_THROW((void)run_nas(app_, jcfg), std::runtime_error);

  NasRunConfig res = jcfg;
  res.resume = true;
  EXPECT_NO_THROW((void)run_nas(app_, res));
}

TEST_F(CrashRecoveryFixture, ResumeBeforeAnythingDurableStartsFresh) {
  // A run killed before its manifest landed left nothing to recover;
  // `resume` is idempotent over that window and behaves like a fresh start
  // (this is what a SIGKILL a couple of milliseconds in produces).
  NasRunConfig res = cfg();
  res.run_dir = fresh_dir("no_manifest");
  fs::create_directories(res.run_dir);
  res.resume = true;
  const NasRun run = run_nas(app_, res);
  EXPECT_EQ(run.trace.records.size(), static_cast<std::size_t>(res.n_evals));
  EXPECT_EQ(run.journal_replayed, 0u);
  EXPECT_TRUE(fs::exists(res.run_dir / "manifest.json"));
}

TEST_F(CrashRecoveryFixture, ResumeRefusesJournalWithoutManifest) {
  // The inverse state — journal records with no manifest to validate them
  // against — cannot arise from any kill point (the manifest is written
  // before the journal is opened) and is refused as corruption.
  NasRunConfig res = cfg();
  res.run_dir = fresh_dir("orphan_journal");
  fs::create_directories(res.run_dir);
  { std::ofstream out(res.run_dir / RunJournal::kFileName); }
  res.resume = true;
  EXPECT_THROW((void)run_nas(app_, res), std::runtime_error);
}

}  // namespace
}  // namespace swt
