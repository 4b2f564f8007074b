// End-to-end search benchmark: whole NAS searches timed on four fixed
// workloads, their outputs checked, and one evaluation's wall time
// attributed to the program's layers.  README.md beside this file defines
// every metric and the comparison protocol.
//
//   bench_e2e [--workload NAME] [--seed N] [--seconds S | --quick]
//             [--trace 0|1] [--out FILE]
//
// Without --workload, every workload runs in a child process of its own
// (this binary re-executed with --workload), so peak RSS and thread-pool
// state belong to one workload; the merged report goes to --out (default
// BENCH_e2e.json).  With --workload the run happens in this process, --out
// (if given) receives that workload's report, and the last stdout line is
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics that
// every workload produces (--trace 1).  Exit code 1 means an output check
// failed, 2 a usage error.
//
// The benchmark drives the program only through its public calls and adds
// no tracing inside it: per-layer numbers come from the program's own
// counters (searches rerun with metrics on) and from timing each layer's
// entry point while replaying those searches' traces.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ckpt/store.hpp"
#include "cluster/evaluator.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/transfer.hpp"
#include "exp/apps.hpp"
#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "exp/trace_io.hpp"
#include "nas/strategy.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "tensor/kernels.hpp"

extern char** environ;

namespace {

using namespace swt;
namespace fs = std::filesystem;

// Every search is closed-loop batch work: the strategy proposes only when
// one of the virtual workers frees.  Each evaluation is charged a fixed
// virtual duration, so a trace is bit-reproducible while the real training
// runs in full.
constexpr int kVirtualWorkers = 8;
constexpr double kFixedTrainSeconds = 2.0;
constexpr RegularizedEvolution::Config kEvolution{.population_size = 16, .sample_size = 8};
constexpr int kSetupSamples = 15;
constexpr int kQuickSearches = 2;
constexpr double kLedgerWarnShare = 0.10;

/// A workload is a stream of independent short searches of one
/// configuration, each on its own dataset.  Where a long search converges,
/// and on which data, decides which architectures it trains, so a single
/// search's cost depends on its seed; a run averages over as many searches
/// as fit in its time budget instead.
struct Workload {
  const char* name;
  AppId app;
  TransferMode mode;
  long evals_per_search;
  int eval_parallelism;
  /// Banked checkpoints on disk inside a durable, journaled run directory.
  bool durable_bank;
  /// Searches rerun with metrics on and replayed for the per-layer ledger.
  int traced_searches;
  // Outputs of search 0 at --seed 1; every build must reproduce them.
  double ref_best_score;
  double ref_mean_score;
  double ref_makespan_s;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"cifar_lcs_serial", AppId::kCifar, TransferMode::kLCS, 40, 1, false, 6,
     0.38541666666666669, 0.1736979166666667, 10.175362160000001},
    {"cifar_lcs_par4", AppId::kCifar, TransferMode::kLCS, 40, 4, false, 6,
     0.38541666666666669, 0.1736979166666667, 10.175362160000001},
    {"nt3_lcs_bank_disk", AppId::kNt3, TransferMode::kLCS, 32, 1, true, 4,
     0.75, 0.58789062500000011, 8.1685443199999987},
    {"uno_none_par4", AppId::kUno, TransferMode::kNone, 200, 4, false, 4,
     0.72495685280425093, 0.34081323175356282, 50.0},
};

// The summary-line metric sets, which BENCHMARK.json lists (the smoke test
// cross-checks them).  failed_eval_ratio travels as the line's
// attempted/failed counts instead.  Only the full report carries
// peak_rss_mb, whose seed-to-seed spread is wider than any bound could
// hold (README.md), and the per-layer metrics some workload or host cannot
// produce: pool.busy_share, for one, needs a thread pool, which a serial
// workload lacks when kernels run on one thread (SWT_THREADS=1, one core).
const std::vector<std::string> kEndToEndLine = {"evals_per_s", "cpu_s_per_eval", "setup_s"};
const std::vector<std::string> kLayerLine = {
    "cluster.eval_ms.p50",   "cluster.eval_ms.p95",   "cluster.overlap",
    "cluster.wavefront_width.mean", "nas.propose_us.p50",
    "nas.report_us.p50",     "nas.build_init_ms.p50", "nn.forward_s",
    "nn.backward_s",         "nn.optimizer_s",        "nn.validate_s",
    "data.batch_gather_s",   "tensor.gemm_s",         "tensor.gemm_gflops",
    "trace.overhead",        "host.probe_ms",         "ledger.unattributed_share"};

struct Options {
  std::string workload;  ///< empty: every workload, each in a child process
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< search wall time to measure (at least traced_searches)
  bool quick = false;     ///< exactly kQuickSearches timed searches instead
  bool trace = true;
  std::string out;
};

/// Scratch space for run directories, stores and child reports, relative to
/// the working directory; every run removes what it puts there.
const fs::path kWorkDir = ".bench_build/e2e-work";

// ---------------------------------------------------------------------------
// Statistics and small utilities
// ---------------------------------------------------------------------------

/// Median and quartiles by the method of Python's
/// statistics.quantiles(xs, n=4) ("exclusive"), so the numbers printed here
/// equal those a comparison script computes from the same samples.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

Summary summarize(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  Summary s;
  s.n = xs.size();
  if (s.n == 1) {
    s.median = s.q1 = s.q3 = xs[0];
    return s;
  }
  const long n = static_cast<long>(s.n);
  const auto cut = [&](long i) {
    const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
    const long delta = i * (n + 1) - j * 4;
    return (xs[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.median = cut(2);
  s.q3 = cut(3);
  return s;
}

/// Linear-interpolation percentile, p in [0, 1].
double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& xs) {
  double t = 0.0;
  for (double x : xs) t += x;
  return t;
}

std::vector<double> scaled(std::vector<double> xs, double factor) {
  for (double& x : xs) x *= factor;
  return xs;
}

template <typename Fn>
double time_s(Fn&& fn) {
  const WallTimer timer;
  fn();
  return timer.seconds();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// A fixed single-thread integer chain with no memory traffic: its time
/// moves only with the host's clock speed and contention, which is what a
/// reviewer needs to tell host drift from a code change.
double host_probe_ms() {
  volatile std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
  std::uint64_t x = seed;
  const WallTimer timer;
  for (int i = 0; i < (1 << 22); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = timer.seconds() * 1e3;
  seed = x;
  return ms;
}

/// Wall seconds of one cold set-up: make_app in a freshly forked child, as
/// a process starting a search pays it.  Separate processes, because how
/// fast one process sets up depends on where the host places it, which
/// repeating inside one process cannot average out.
double cold_setup_seconds(AppId app, std::uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("set-up probe: pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("set-up probe: fork failed");
  if (pid == 0) {
    close(fds[0]);
    const double s = time_s([&] { (void)make_app(app, seed); });
    const bool sent = write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double s = 0.0;
  const bool got = read(fds[0], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up probe: child failed");
  return s;
}

std::string trace_digest(const Trace& trace) {
  std::ostringstream os;
  write_trace_csv(os, trace);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fnv1a(os.str())));
  return buf;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string compiler_id() {
#if defined(__clang__)
  return "clang " __VERSION__;
#elif defined(__GNUC__)
  return "g++ " __VERSION__;
#else
  return "unknown";
#endif
}

std::string git_describe() {
  const char* v = std::getenv("SWTNAS_GIT_DESCRIBE");
  return v != nullptr && *v != '\0' ? v : "unknown";
}

// ---------------------------------------------------------------------------
// Report: named metrics, each measured or absent with a reason
// ---------------------------------------------------------------------------

struct Metric {
  std::string unit;
  Summary s;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> absent;

  void add(const std::string& name, const std::string& unit, std::vector<double> samples) {
    metrics[name] = Metric{unit, summarize(std::move(samples))};
  }
  /// One derived value; `n` is the number of samples it summarizes.
  void add(const std::string& name, const std::string& unit, double value,
           std::size_t n = 1) {
    metrics[name] = Metric{unit, Summary{value, value, value, n}};
  }
  void skip(const std::string& name, const std::string& reason) { absent[name] = reason; }
};

// ---------------------------------------------------------------------------
// Searches
// ---------------------------------------------------------------------------

/// Seed of search k of a run, for both its dataset and its search.
std::uint64_t search_seed(std::uint64_t seed, long k) {
  return mix64(seed, 0x5EA2C4 + static_cast<std::uint64_t>(k));
}
constexpr long kWarmupSearch = -1;

NasRunConfig search_config(const Workload& w, std::uint64_t seed, const fs::path& run_dir) {
  NasRunConfig cfg;
  cfg.mode = w.mode;
  cfg.n_evals = w.evals_per_search;
  cfg.seed = seed;
  cfg.cluster.num_workers = kVirtualWorkers;
  cfg.cluster.eval_parallelism = w.eval_parallelism;
  cfg.cluster.fixed_train_seconds = kFixedTrainSeconds;
  cfg.evolution = kEvolution;
  cfg.bank = w.durable_bank;
  if (w.durable_bank) cfg.run_dir = run_dir;
  return cfg;
}

struct Outputs {
  double best_score = 0.0;
  double mean_score = 0.0;
  double makespan_s = 0.0;
};

Outputs outputs_of(const Trace& trace) {
  Outputs o;
  o.makespan_s = trace.makespan;
  if (trace.records.empty()) return o;
  o.best_score = trace.records.front().score;
  double total = 0.0;
  for (const EvalRecord& r : trace.records) {
    o.best_score = std::max(o.best_score, r.score);
    total += r.score;
  }
  o.mean_score = total / static_cast<double>(trace.records.size());
  return o;
}

bool matches_reference(const Workload& w, const Outputs& o) {
  const auto close = [](double got, double want) {
    return std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want));
  };
  return close(o.best_score, w.ref_best_score) && close(o.mean_score, w.ref_mean_score) &&
         close(o.makespan_s, w.ref_makespan_s);
}

/// Fresh checkpoint store of the kind the workload's search uses: the flat
/// in-memory store, or the weight bank on disk.
std::unique_ptr<CheckpointStore> fresh_store(const Workload& w, const fs::path& dir) {
  if (!w.durable_bank) return std::make_unique<CheckpointStore>();
  fs::remove_all(dir);
  return std::make_unique<CheckpointStore>(CheckpointStore::Backend::kDisk, dir,
                                           PfsCostModel{}, CompressionKind::kNone,
                                           BankConfig{.enabled = true});
}

Proposal proposal_for(const EvalRecord& rec,
                      const std::unordered_map<long, const EvalRecord*>& by_id) {
  Proposal p;
  p.arch = rec.arch;
  p.parent_id = rec.parent_id;
  if (const auto it = by_id.find(rec.parent_id); it != by_id.end()) {
    p.parent_arch = it->second->arch;
    p.parent_ckpt_key = it->second->ckpt_key;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Replay: a search's trace through each layer's entry point
// ---------------------------------------------------------------------------

struct ReplayTimes {
  std::vector<double> eval;        ///< Evaluator::evaluate, per record
  long mismatches = 0;             ///< records whose replayed result differs
  std::vector<double> propose;     ///< RegularizedEvolution::propose
  std::vector<double> report;      ///< RegularizedEvolution::report
  std::vector<double> build_init;  ///< SearchSpace::build + Network::init
  std::vector<double> get;         ///< CheckpointStore::try_get of the parent
  std::vector<double> transfer;    ///< apply_transfer
  std::vector<double> snapshot;    ///< Checkpoint::from_network
  std::vector<double> serialize;   ///< serialize
  std::vector<double> put;         ///< CheckpointStore::put (encodes again, then stores)
  std::vector<double> journal;     ///< RunJournal::append
  long transfer_hits = 0;
  long with_parent = 0;
};

/// Re-evaluate every record of `trace` in completion order on a fresh store
/// (a parent always completes before its child is proposed, so its
/// checkpoint is in place), then time the component calls one per record.
/// The program's counters run during the evaluations only, so the training
/// breakdown they give covers exactly the evaluate calls timed here, while
/// the component calls are timed uninstrumented.
void replay(const Workload& w, const AppConfig& app, std::uint64_t seed, const Trace& trace,
            const fs::path& scratch, ReplayTimes& t) {
  std::unordered_map<long, const EvalRecord*> by_id;
  for (const EvalRecord& r : trace.records) by_id.emplace(r.id, &r);

  // The evaluator configured as run_nas configures it.
  Evaluator::Config eval_cfg;
  eval_cfg.mode = w.mode;
  eval_cfg.train = app.estimation_options();
  eval_cfg.seed = seed;
  eval_cfg.write_checkpoints = w.mode != TransferMode::kNone;
  const std::unique_ptr<CheckpointStore> store = fresh_store(w, scratch / "replay-store");
  {
    Evaluator evaluator(app.space, app.data, *store, eval_cfg);
    // Parallel searches train each evaluation with serial kernels.
    std::optional<kernels::ScopedSerialKernels> serial;
    if (w.eval_parallelism > 1) serial.emplace();
    set_metrics_enabled(true);
    for (const EvalRecord& rec : trace.records) {
      const Proposal p = proposal_for(rec, by_id);
      EvalRecord got;
      t.eval.push_back(time_s([&] { got = evaluator.evaluate(rec.id, p, rec.attempt); }));
      const bool same = same_bits(got.score, rec.score) &&
                        same_bits(got.first_epoch_score, rec.first_epoch_score) &&
                        got.param_count == rec.param_count &&
                        got.tensors_transferred == rec.tensors_transferred &&
                        got.values_transferred == rec.values_transferred &&
                        got.transfer_fallback == rec.transfer_fallback;
      if (!same) ++t.mismatches;
    }
    set_metrics_enabled(false);
  }

  const bool checkpoints = w.mode != TransferMode::kNone;
  const std::unique_ptr<CheckpointStore> put_store =
      checkpoints ? fresh_store(w, scratch / "component-store") : nullptr;
  std::unique_ptr<RunJournal> journal;
  if (w.durable_bank) {
    fs::remove_all(scratch / "component-journal");
    journal = std::make_unique<RunJournal>(scratch / "component-journal");
  }
  RegularizedEvolution strategy(app.space, kEvolution);
  Rng strategy_rng(mix64(seed, 0xBE7C4));
  for (const EvalRecord& rec : trace.records) {
    const Outcome outcome{rec.id, rec.arch, rec.score, rec.ckpt_key};
    t.report.push_back(time_s([&] { strategy.report(outcome); }));
    t.propose.push_back(time_s([&] { (void)strategy.propose(strategy_rng); }));

    Rng init_rng(mix64(seed, static_cast<std::uint64_t>(rec.id)));
    NetworkPtr net;
    t.build_init.push_back(time_s([&] {
      net = app.space.build(rec.arch);
      net->init(init_rng);
    }));
    if (checkpoints) {
      if (const auto parent = by_id.find(rec.parent_id); parent != by_id.end()) {
        ++t.with_parent;
        std::optional<std::pair<Checkpoint, IoStats>> got;
        t.get.push_back(time_s([&] { got = store->try_get(parent->second->ckpt_key); }));
        if (got.has_value()) {
          TransferStats ts;
          t.transfer.push_back(
              time_s([&] { ts = apply_transfer(got->first, *net, w.mode); }));
          if (ts.any()) ++t.transfer_hits;
        }
      }
      // Encode and store the record's own trained checkpoint, as the search
      // did; the snapshot step is timed on the freshly built network.
      const auto own = store->try_get(rec.ckpt_key);
      if (own.has_value()) {
        t.snapshot.push_back(time_s([&] {
          (void)Checkpoint::from_network(*net, rec.arch, rec.score);
        }));
        t.serialize.push_back(time_s([&] { (void)serialize(own->first); }));
        t.put.push_back(time_s([&] { (void)put_store->put(rec.ckpt_key, own->first); }));
      }
    }
    if (journal != nullptr)
      t.journal.push_back(time_s([&] { journal->append(rec, strategy_rng.state()); }));
  }
}

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

struct WorkloadResult {
  Report report;
  Outputs outputs;           ///< of search 0
  std::string trace_digest;  ///< of search 0
  long attempted = 0;
  long failed = 0;
  int searches = 0;
  bool rerun_identical = true;
  bool traced_identical = true;
  bool replay_match = true;
  std::string reference = "skipped";  ///< "match", "mismatch" or "skipped"

  [[nodiscard]] bool correct() const {
    return failed == 0 && rerun_identical && traced_identical && replay_match &&
           reference != "mismatch";
  }
};

double hist_sum(const MetricsSnapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}
double gauge(const MetricsSnapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}
double counter(const MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// Traced pass: searches 0..traced-1 rerun with the program's counters on,
/// then replayed one public call at a time.
void traced_pass(const Workload& w, const Options& opt,
                 const std::vector<std::string>& digests, const std::vector<double>& walls,
                 const fs::path& scratch, WorkloadResult& res) {
  Report& rep = res.report;
  const long n = w.evals_per_search;
  const std::size_t traced =
      std::min(static_cast<std::size_t>(w.traced_searches), walls.size());
  const double untraced_wall =
      sum(std::vector<double>(walls.begin(), walls.begin() + static_cast<long>(traced)));

  metrics().reset();
  set_metrics_enabled(true);
  std::vector<Trace> traces;
  double traced_wall = 0.0;
  double logical_bytes = 0.0;
  double unique_bytes = 0.0;
  const fs::path run_dir = scratch / "traced";
  std::vector<AppConfig> apps;
  for (std::size_t k = 0; k < traced; ++k) {
    const std::uint64_t seed = search_seed(opt.seed, static_cast<long>(k));
    fs::remove_all(run_dir);
    apps.push_back(make_app(w.app, seed));
    const WallTimer timer;
    NasRun run = run_nas(apps.back(), search_config(w, seed, run_dir));
    traced_wall += timer.seconds();
    res.attempted += n;
    res.failed += run.trace.lost_evaluations + run.trace.transfer_fallbacks;
    if (trace_digest(run.trace) != digests[k]) {
      res.traced_identical = false;
      res.failed += n;
    }
    if (const WeightBank* bank = run.store->bank(); bank != nullptr) {
      logical_bytes += static_cast<double>(bank->stats().logical_bytes_written);
      unique_bytes += static_cast<double>(bank->stats().unique_bytes_written);
    }
    traces.push_back(std::move(run.trace));
  }
  fs::remove_all(run_dir);
  set_metrics_enabled(false);
  const MetricsSnapshot search_snap = metrics().snapshot();
  rep.add("trace.overhead", "ratio", traced_wall / untraced_wall - 1.0);

  const double busy = gauge(search_snap, "pool.busy_seconds");
  const double idle = gauge(search_snap, "pool.idle_seconds");
  if (busy + idle > 0.0)
    rep.add("pool.busy_share", "ratio", busy / (busy + idle));
  else
    rep.skip("pool.busy_share", "no thread pool ran a task");
  const bool checkpoints = w.mode != TransferMode::kNone;
  if (checkpoints)
    rep.add("ckpt.bytes_written", "bytes", counter(search_snap, "ckpt.bytes_written_total"));
  else
    rep.skip("ckpt.bytes_written", "baseline mode writes no checkpoints");
  if (unique_bytes > 0.0)
    rep.add("bank.dedup_ratio", "ratio", logical_bytes / unique_bytes);
  else
    rep.skip("bank.dedup_ratio", "flat checkpoint store, no weight bank");

  metrics().reset();
  double records = 0.0;
  double wavefronts = 0.0;
  double values_copied = 0.0;
  ReplayTimes t;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    std::set<double> starts;
    for (const EvalRecord& r : traces[k].records) {
      starts.insert(r.virtual_start);
      values_copied += static_cast<double>(r.values_transferred);
    }
    records += static_cast<double>(traces[k].records.size());
    wavefronts += static_cast<double>(starts.size());
    replay(w, apps[k], search_seed(opt.seed, static_cast<long>(k)), traces[k], scratch, t);
  }
  rep.add("cluster.wavefront_width.mean", "evals", records / wavefronts);
  if (t.mismatches > 0) {
    res.replay_match = false;
    res.failed += static_cast<long>(t.eval.size());
  }
  const MetricsSnapshot snap = metrics().snapshot();

  const double fwd = hist_sum(snap, "train.forward_seconds");
  const double bwd = hist_sum(snap, "train.backward_seconds");
  const double opt_s = hist_sum(snap, "train.step_seconds");
  const double epochs = hist_sum(snap, "train.epoch_seconds");
  const double fit = hist_sum(snap, "eval.train_seconds");
  rep.add("nn.forward_s", "s", fwd);
  rep.add("nn.backward_s", "s", bwd);
  rep.add("nn.optimizer_s", "s", opt_s);
  rep.add("nn.validate_s", "s", fit - epochs);
  rep.add("nn.batches", "count", counter(snap, "train.batches_total"));
  rep.add("data.batch_gather_s", "s", epochs - fwd - bwd - opt_s);

  const double gemm_s = gauge(snap, "tensor.matmul_seconds");
  const double conv_s = gauge(snap, "tensor.conv_seconds");
  rep.add("tensor.gemm_s", "s", gemm_s);
  rep.add("tensor.gemm_gflops", "GFLOP/s",
          counter(snap, "tensor.matmul_flops_total") / gemm_s / 1e9);
  if (counter(snap, "tensor.conv_total") > 0) {
    rep.add("tensor.conv_s", "s", conv_s);
    rep.add("tensor.conv_gflops", "GFLOP/s",
            counter(snap, "tensor.conv_flops_total") / conv_s / 1e9);
    // A conv's inner GEMMs are timed under both gemm_s and conv_s, so the
    // kernels' total wall is unknown without timers inside the program.
    rep.skip("nn.non_kernel_s", "GEMMs inside conv count in both gemm_s and conv_s");
  } else {
    rep.skip("tensor.conv_s", "no convolution in this search space");
    rep.skip("tensor.conv_gflops", "no convolution in this search space");
    // Validation passes run kernels too, so they join forward and backward.
    rep.add("nn.non_kernel_s", "s", fwd + bwd + (fit - epochs) - gemm_s);
  }

  // Both sides of this ratio ran with the counters on.
  const double eval_total = sum(t.eval);
  rep.add("cluster.eval_ms.p50", "ms", scaled(t.eval, 1e3));
  rep.add("cluster.eval_ms.p95", "ms", percentile(scaled(t.eval, 1e3), 0.95), t.eval.size());
  rep.add("cluster.overlap", "ratio", eval_total / traced_wall);
  if (w.eval_parallelism == 1)
    rep.add("cluster.outside_eval_share", "ratio", 1.0 - eval_total / traced_wall);
  else
    rep.skip("cluster.outside_eval_share",
             "evaluations overlap, so the time outside them is not a share");
  rep.add("nas.propose_us.p50", "us", scaled(t.propose, 1e6));
  rep.add("nas.report_us.p50", "us", scaled(t.report, 1e6));
  rep.add("nas.build_init_ms.p50", "ms", scaled(t.build_init, 1e3));

  const auto add_ms = [&](const std::string& name, const std::vector<double>& xs,
                          const std::string& why_absent) {
    if (xs.empty())
      rep.skip(name, why_absent);
    else
      rep.add(name, "ms", scaled(xs, 1e3));
  };
  const std::string no_ckpt = "baseline mode reads and writes no checkpoints";
  add_ms("ckpt.serialize_ms.p50", t.serialize, no_ckpt);
  add_ms("ckpt.put_ms.p50", t.put, no_ckpt);
  add_ms("ckpt.get_ms.p50", t.get, no_ckpt);
  add_ms("core.transfer_ms.p50", t.transfer, "baseline mode transfers no weights");
  add_ms("exp.journal_append_ms.p50", t.journal,
         "the search keeps no journal (no run directory)");
  if (checkpoints && t.with_parent > 0) {
    rep.add("core.values_copied", "count", values_copied);
    rep.add("core.transfer_hit_ratio", "ratio",
            static_cast<double>(t.transfer_hits) / static_cast<double>(t.with_parent));
  } else {
    const std::string why = checkpoints ? "no evaluation had a parent"
                                        : "baseline mode transfers no weights";
    rep.skip("core.values_copied", why);
    rep.skip("core.transfer_hit_ratio", why);
  }

  // How much of the replayed evaluation wall the named layers explain.  put
  // encodes internally, so the checkpoint write counts snapshot plus put,
  // not serialize.
  const double attributed = fit + sum(t.build_init) + sum(t.get) + sum(t.transfer) +
                            sum(t.snapshot) + sum(t.put);
  rep.add("ledger.unattributed_share", "ratio", 1.0 - attributed / eval_total);
}

WorkloadResult run_workload(const Workload& w, const Options& opt) {
  WorkloadResult res;
  Report& rep = res.report;
  const long n = w.evals_per_search;
  const fs::path scratch =
      kWorkDir / (std::string(w.name) + "-" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  set_metrics_enabled(false);

  // Set-up: building an app generates its datasets and search space.
  std::vector<double> setup;
  for (int i = 0; i < kSetupSamples; ++i)
    setup.push_back(cold_setup_seconds(w.app, search_seed(opt.seed, 0)));
  rep.add("setup_s", "s", setup);

  // A durable search refuses a run directory that already holds one, so
  // each is removed after use, outside the timed region.
  const fs::path run_dir = scratch / "search";
  const auto search = [&](const AppConfig& app, long k) {
    NasRun run = run_nas(app, search_config(w, search_seed(opt.seed, k), run_dir));
    res.attempted += n;
    res.failed += run.trace.lost_evaluations + run.trace.transfer_fallbacks;
    return run;
  };
  const auto app_for = [&](long k) { return make_app(w.app, search_seed(opt.seed, k)); };
  // Untimed warm-up: allocator growth, thread-pool start, page faults.
  (void)run_nas(app_for(kWarmupSearch),
                search_config(w, search_seed(opt.seed, kWarmupSearch), run_dir));
  fs::remove_all(run_dir);

  std::vector<std::string> digests;
  std::vector<double> walls, rates, cpus, probes;
  const auto more = [&] {
    const auto k = static_cast<int>(walls.size());
    if (opt.quick) return k < kQuickSearches;
    return k < w.traced_searches || sum(walls) < opt.seconds;
  };
  while (more()) {
    const auto k = static_cast<long>(walls.size());
    probes.push_back(host_probe_ms());
    {
      const AppConfig app = app_for(k);
      const double cpu0 = cpu_seconds();
      const WallTimer timer;
      const NasRun run = search(app, k);
      const double wall = timer.seconds();
      walls.push_back(wall);
      rates.push_back(static_cast<double>(n) / wall);
      cpus.push_back((cpu_seconds() - cpu0) / static_cast<double>(n));
      digests.push_back(trace_digest(run.trace));
      if (k == 0) res.outputs = outputs_of(run.trace);
    }
    fs::remove_all(run_dir);
  }
  res.searches = static_cast<int>(walls.size());
  res.trace_digest = digests.front();
  rep.add("evals_per_s", "evals/s", rates);
  rep.add("cpu_s_per_eval", "s", cpus);
  rep.add("peak_rss_mb", "MiB", peak_rss_mib());
  rep.add("host.probe_ms", "ms", probes);

  // The same search twice must give the same trace, byte for byte.
  if (trace_digest(search(app_for(0), 0).trace) != digests.front()) {
    res.rerun_identical = false;
    res.failed += n;
  }
  if (opt.seed == 1) res.reference = matches_reference(w, res.outputs) ? "match" : "mismatch";
  fs::remove_all(run_dir);

  if (opt.trace) traced_pass(w, opt, digests, walls, scratch, res);
  if (res.reference == "mismatch") res.failed = res.attempted;
  rep.add("failed_eval_ratio", "ratio",
          static_cast<double>(res.failed) / static_cast<double>(res.attempted));
  fs::remove_all(scratch);
  return res;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void print_header(const Options& opt) {
  std::cout << "# bench_e2e  nproc=" << std::thread::hardware_concurrency()
            << "  compute_threads=" << kernels::compute_threads()
            << "  compiler=" << compiler_id() << "  git=" << git_describe()
            << "  seed=" << opt.seed << "  "
            << (opt.quick ? "quick" : "seconds=" + json_number(opt.seconds))
            << "  trace=" << (opt.trace ? 1 : 0) << "\n";
}

void print_lines(const Workload& w, const WorkloadResult& res) {
  char line[256];
  for (const auto& [name, m] : res.report.metrics) {
    std::snprintf(line, sizeof line,
                  "%-18s %-30s median=%-12.6g q1=%-12.6g q3=%-12.6g n=%-5zu %s\n", w.name,
                  name.c_str(), m.s.median, m.s.q1, m.s.q3, m.s.n, m.unit.c_str());
    std::cout << line;
  }
  for (const auto& [name, why] : res.report.absent) {
    std::snprintf(line, sizeof line, "%-18s %-30s absent: ", w.name, name.c_str());
    std::cout << line << why << "\n";
  }
  if (const auto it = res.report.metrics.find("ledger.unattributed_share");
      it != res.report.metrics.end() && it->second.s.median > kLedgerWarnShare)
    std::cout << "WARN " << w.name << ": the ledger leaves " << it->second.s.median * 100.0
              << "% of evaluation wall time unattributed (limit "
              << kLedgerWarnShare * 100.0 << "%)\n";
  std::cout << w.name << " search 0: best_score=" << json_number(res.outputs.best_score)
            << " mean_score=" << json_number(res.outputs.mean_score)
            << " virtual_makespan_s=" << json_number(res.outputs.makespan_s)
            << " | checks: rerun_identical=" << res.rerun_identical
            << " traced_identical=" << res.traced_identical
            << " replay_match=" << res.replay_match << " reference=" << res.reference
            << " | searches=" << res.searches << " attempted=" << res.attempted
            << " failed=" << res.failed << "\n";
}

const char* json_bool(bool b) { return b ? "true" : "false"; }

std::string workload_json(const Workload& w, const WorkloadResult& res, const Options& opt) {
  std::ostringstream os;
  os << "{\"workload\":\"" << w.name << "\",\"app\":\"" << to_string(w.app)
     << "\",\"mode\":\"" << to_string(w.mode)
     << "\",\"evals_per_search\":" << w.evals_per_search
     << ",\"eval_parallelism\":" << w.eval_parallelism
     << ",\"durable_bank\":" << json_bool(w.durable_bank) << ",\"seed\":" << opt.seed
     << ",\"searches\":" << res.searches << ",\"correct\":" << json_bool(res.correct())
     << ",\"attempted\":" << res.attempted << ",\"failed\":" << res.failed
     << ",\"trace_digest\":\"" << res.trace_digest
     << "\",\"checks\":{\"rerun_identical\":" << json_bool(res.rerun_identical)
     << ",\"traced_identical\":" << json_bool(res.traced_identical)
     << ",\"replay_match\":" << json_bool(res.replay_match) << ",\"reference\":\""
     << res.reference << "\"},\"outputs\":{\"best_score\":"
     << json_number(res.outputs.best_score)
     << ",\"mean_score\":" << json_number(res.outputs.mean_score)
     << ",\"virtual_makespan_s\":" << json_number(res.outputs.makespan_s)
     << "},\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, m] : res.report.metrics) {
    os << sep << '"' << name << "\":{\"median\":" << json_number(m.s.median)
       << ",\"q1\":" << json_number(m.s.q1) << ",\"q3\":" << json_number(m.s.q3)
       << ",\"n\":" << m.s.n << ",\"unit\":\"" << m.unit << "\"}";
    sep = ",";
  }
  os << "},\"absent\":{";
  sep = "";
  for (const auto& [name, why] : res.report.absent) {
    os << sep << '"' << name << "\":\"" << json_escape(why) << '"';
    sep = ",";
  }
  os << "}}";
  return os.str();
}

/// The one-object summary line (see the file comment).  A metric of the
/// requested set that this run did not produce is an error, not a gap.
std::string summary_line(const WorkloadResult& res, bool trace) {
  std::ostringstream os;
  os << "{\"correct\": " << json_bool(res.correct()) << ", \"attempted\": " << res.attempted
     << ", \"failed\": " << res.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const std::string& name : trace ? kLayerLine : kEndToEndLine) {
    const auto it = res.report.metrics.find(name);
    if (it == res.report.metrics.end())
      throw std::logic_error("summary metric " + name + " was not measured");
    os << sep << '"' << name << "\": {\"value\": " << json_number(it->second.s.median)
       << ", \"unit\": \"" << it->second.unit << "\"}";
    sep = ", ";
  }
  os << "}}";
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

int run_one(const Workload& w, const Options& opt) {
  const WorkloadResult res = run_workload(w, opt);
  print_lines(w, res);
  if (!opt.out.empty()) write_file(opt.out, workload_json(w, res, opt));
  std::cout << summary_line(res, opt.trace) << std::endl;
  return res.correct() ? 0 : 1;
}

/// Run this binary with `args` and wait for it; returns its exit status, or
/// -1 when it could not be started or did not exit normally.
int run_child(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0)
    return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int run_all(const Options& opt) {
  fs::create_directories(kWorkDir);
  bool ok = true;
  std::map<std::string, std::string> digests;
  std::string workloads_json;
  for (const Workload& w : kWorkloads) {
    const fs::path child_out = kWorkDir / ("result-" + std::string(w.name) + ".json");
    fs::remove(child_out);
    std::vector<std::string> args = {"bench_e2e", "--workload", w.name,
                                     "--seed", std::to_string(opt.seed),
                                     "--trace", opt.trace ? "1" : "0",
                                     "--out", child_out.string()};
    if (opt.quick)
      args.emplace_back("--quick");
    else
      args.insert(args.end(), {"--seconds", json_number(opt.seconds)});
    std::cout.flush();
    const int status = run_child(args);
    std::ifstream in(child_out);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    in.close();
    fs::remove(child_out);
    if (status != 0) {
      std::cout << "FAIL " << w.name << ": exit status " << status << "\n";
      ok = false;
    }
    if (text.empty()) continue;
    digests[w.name] = parse_json(text).string_or("trace_digest", "");
    workloads_json += (workloads_json.empty() ? "" : ",") + text.substr(0, text.find('\n'));
  }
  // Evaluation parallelism must not change a single byte of the trace.
  const bool par_equal = digests.count("cifar_lcs_serial") != 0 &&
                         digests["cifar_lcs_serial"] == digests["cifar_lcs_par4"];
  std::cout << "check cifar_lcs_par4 search 0 trace == cifar_lcs_serial search 0 trace: "
            << (par_equal ? "ok" : "FAIL") << "\n";
  ok = ok && par_equal;

  std::ostringstream doc;
  doc << "{\"bench\":\"e2e\",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"compiler\":\"" << json_escape(compiler_id()) << "\",\"git\":\""
      << json_escape(git_describe()) << "\"},\"seed\":" << opt.seed
      << ",\"checks\":{\"cifar_par4_trace_equals_serial\":" << json_bool(par_equal)
      << "},\"workloads\":[" << workloads_json << "]}";
  const std::string out = opt.out.empty() ? "BENCH_e2e.json" : opt.out;
  write_file(out, doc.str());
  std::cout << "results written to " << out << (ok ? "" : " (with failures)") << "\n";
  return ok ? 0 : 1;
}

[[noreturn]] void usage(const char* argv0, const std::string& error) {
  std::cerr << "error: " << error << "\nusage: " << argv0
            << " [--workload NAME] [--seed N] [--seconds S | --quick]\n"
               "       [--trace 0|1] [--out FILE]\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = next();
      if (find_workload(opt.workload) == nullptr)
        usage(argv[0], "unknown workload '" + opt.workload + "'");
    } else if (arg == "--seed") {
      const auto v = parse_u64(next());
      if (!v.has_value()) usage(argv[0], "--seed expects a non-negative integer");
      opt.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = parse_double(next());
      if (!v.has_value() || !(*v > 0.0)) usage(argv[0], "--seconds expects a number > 0");
      opt.seconds = *v;
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage(argv[0], "--trace expects 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--out") {
      opt.out = next();
    } else {
      usage(argv[0], "unknown argument '" + arg + "'");
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opt = parse_options(argc, argv);
  print_header(opt);
  if (opt.workload.empty()) return run_all(opt);
  return run_one(*find_workload(opt.workload), opt);
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
