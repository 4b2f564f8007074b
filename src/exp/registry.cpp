#include "exp/registry.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/fsio.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exp/analysis.hpp"
#include "obs/json.hpp"

namespace swt {

namespace {

/// Fold a string into a mix64 chain (FNV-1a step per byte, then mixed).
std::uint64_t hash_str(std::uint64_t h, std::string_view s) {
  std::uint64_t f = 1469598103934665603ULL;
  for (const char c : s) {
    f ^= static_cast<unsigned char>(c);
    f *= 1099511628211ULL;
  }
  return mix64(h, f);
}

std::uint64_t hash_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return mix64(h, bits);
}

std::string hex64(std::uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<std::size_t>(i)] = kHex[v & 0xF];
  return out;
}

std::filesystem::path registry_file(const std::string& dir) {
  return std::filesystem::path(dir) / "registry.ndjson";
}

void append_number_array(std::string& out, const std::vector<double>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += json_number(xs[i]);
  }
  out += ']';
}

}  // namespace

std::string config_hash(std::string_view app_name, const NasRunConfig& cfg) {
  std::uint64_t h = 0x5EA6C4;
  h = hash_str(h, app_name);
  h = hash_str(h, to_string(cfg.mode));
  h = mix64(h, static_cast<std::uint64_t>(cfg.n_evals));
  h = mix64(h, cfg.seed);
  h = mix64(h, static_cast<std::uint64_t>(cfg.cluster.num_workers));
  h = mix64(h, cfg.cluster.async_checkpointing ? 1 : 0);
  h = mix64(h, static_cast<std::uint64_t>(cfg.compression));
  h = mix64(h, static_cast<std::uint64_t>(cfg.estimation_epochs));
  h = mix64(h, static_cast<std::uint64_t>(cfg.evolution.population_size));
  h = mix64(h, static_cast<std::uint64_t>(cfg.evolution.sample_size));
  h = hash_double(h, cfg.time_scale);
  h = hash_double(h, cfg.train_subset_fraction);
  h = hash_double(h, cfg.cluster.fixed_train_seconds);
  const FaultConfig& f = cfg.cluster.faults;
  h = hash_double(h, f.mtbf_seconds);
  h = hash_double(h, f.straggler_rate);
  h = hash_double(h, f.straggler_multiplier);
  h = hash_double(h, f.ckpt_write_fault_rate);
  h = hash_double(h, f.ckpt_read_fault_rate);
  h = mix64(h, static_cast<std::uint64_t>(f.max_attempts));
  // Bank and warm-start knobs fold in only when enabled: every pre-bank
  // configuration keeps its historical hash, so committed CI baselines and
  // resumable run directories stay valid.
  if (cfg.bank) {
    h = hash_str(h, "bank");
    h = mix64(h, static_cast<std::uint64_t>(cfg.bank_budget_bytes));
  }
  if (!cfg.warm_start_dir.empty()) {
    h = hash_str(h, "warm:" + cfg.warm_start_dir.string());
    h = mix64(h, static_cast<std::uint64_t>(cfg.warm_start_k));
  }
  return hex64(h);
}

RunRecord make_run_record(std::string_view app_name, const NasRunConfig& cfg,
                          const Trace& trace, double wall_seconds,
                          const CheckpointStore* store) {
  RunRecord rec;
  rec.app = app_name;
  rec.mode = to_string(cfg.mode);
  rec.seed = cfg.seed;
  rec.n_evals = cfg.n_evals;
  rec.workers = cfg.cluster.num_workers;
  rec.config_hash = config_hash(app_name, cfg);
  const char* git = std::getenv("SWTNAS_GIT_DESCRIBE");
  rec.git_describe = (git != nullptr && *git != '\0') ? git : "unknown";

  const auto now = std::chrono::system_clock::now();
  const auto millis =
      std::chrono::duration_cast<std::chrono::milliseconds>(now.time_since_epoch()).count();
  const std::time_t t = std::chrono::system_clock::to_time_t(now);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char iso[32];
  std::strftime(iso, sizeof(iso), "%Y-%m-%dT%H:%M:%SZ", &tm);
  rec.timestamp = iso;
  // Millisecond timestamps alone collide when two runs start in the same
  // millisecond (bench sweeps launch dozens back to back), and a colliding
  // run_id silently corrupts compare_runs baselines.  The config hash
  // separates concurrent runs of different configurations, and a
  // process-local counter separates same-config repeats within a process.
  static std::atomic<long> run_counter{0};
  rec.run_id = rec.app + "-" + rec.mode + "-s" + std::to_string(rec.seed) + "-" +
               std::to_string(millis) + "-" + rec.config_hash + "-" +
               std::to_string(run_counter.fetch_add(1, std::memory_order_relaxed));

  for (const EvalRecord& r : top_k(trace, 5)) rec.top_scores.push_back(r.score);
  rec.best_score = rec.top_scores.empty() ? 0.0 : rec.top_scores.front();
  rec.makespan = trace.makespan;
  rec.ckpt_overhead_s = trace.total_ckpt_overhead();
  rec.wall_seconds = wall_seconds;
  rec.evals_completed = static_cast<long>(trace.records.size());
  rec.crashed_attempts = trace.crashed_attempts;
  rec.resubmissions = trace.resubmissions;
  rec.lost_evaluations = trace.lost_evaluations;
  rec.transfer_fallbacks = trace.transfer_fallbacks;

  const LineageSummary lineage = summarize_lineage(trace);
  rec.transfer_hit_rate = lineage.transfer_fraction;
  rec.mean_lineage_depth = lineage.mean_depth;
  if (trace.records.size() >= 2) {
    std::vector<double> early, final_;
    for (const EvalRecord& r : trace.records) {
      early.push_back(r.first_epoch_score);
      final_.push_back(r.score);
    }
    rec.kendall_tau_early_final = kendall_tau(early, final_);
  }

  if (store != nullptr && store->bank() != nullptr) {
    const BankStats bank = store->bank()->stats();
    rec.bank_enabled = true;
    rec.bank_dedup_ratio = bank.dedup_ratio();
    rec.bank_chunks = static_cast<long>(bank.chunk_count);
    rec.bank_unique_bytes = bank.unique_bytes_written;
    rec.bank_logical_bytes = bank.logical_bytes_written;
    rec.bank_evictions = static_cast<long>(bank.evicted_chunks);
    rec.bank_roots = store->bank()->keys();
    // The roots exist for warm-start discovery, not as a full key dump.
    if (rec.bank_roots.size() > 64) rec.bank_roots.resize(64);
  }
  return rec;
}

std::string run_record_to_json(const RunRecord& rec) {
  std::string out = "{";
  const auto str = [&out](const char* key, const std::string& v, bool first = false) {
    if (!first) out += ',';
    out += '"';
    out += key;
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  };
  const auto num = [&out](const char* key, const std::string& v) {
    out += ",\"";
    out += key;
    out += "\":";
    out += v;
  };
  str("run_id", rec.run_id, /*first=*/true);
  str("timestamp", rec.timestamp);
  str("git", rec.git_describe);
  str("app", rec.app);
  str("mode", rec.mode);
  num("seed", std::to_string(rec.seed));
  num("n_evals", std::to_string(rec.n_evals));
  num("workers", std::to_string(rec.workers));
  str("config_hash", rec.config_hash);
  num("best_score", json_number(rec.best_score));
  out += ",\"top_scores\":";
  append_number_array(out, rec.top_scores);
  num("makespan", json_number(rec.makespan));
  num("ckpt_overhead_s", json_number(rec.ckpt_overhead_s));
  num("wall_seconds", json_number(rec.wall_seconds));
  num("evals_completed", std::to_string(rec.evals_completed));
  num("crashed_attempts", std::to_string(rec.crashed_attempts));
  num("resubmissions", std::to_string(rec.resubmissions));
  num("lost_evaluations", std::to_string(rec.lost_evaluations));
  num("transfer_fallbacks", std::to_string(rec.transfer_fallbacks));
  num("transfer_hit_rate", json_number(rec.transfer_hit_rate));
  num("kendall_tau_early_final", json_number(rec.kendall_tau_early_final));
  num("mean_lineage_depth", json_number(rec.mean_lineage_depth));
  if (rec.bank_enabled) {
    // Bank fields only appear for banked runs, keeping flat-run records
    // byte-identical to the pre-bank format.
    num("bank", "true");
    num("bank_dedup_ratio", json_number(rec.bank_dedup_ratio));
    num("bank_chunks", std::to_string(rec.bank_chunks));
    // Byte meters as strings: a JSON double cannot represent every uint64.
    str("bank_unique_bytes", std::to_string(rec.bank_unique_bytes));
    str("bank_logical_bytes", std::to_string(rec.bank_logical_bytes));
    num("bank_evictions", std::to_string(rec.bank_evictions));
    out += ",\"bank_roots\":[";
    for (std::size_t i = 0; i < rec.bank_roots.size(); ++i) {
      if (i) out += ',';
      out += '"';
      out += json_escape(rec.bank_roots[i]);
      out += '"';
    }
    out += ']';
  }
  out += '}';
  return out;
}

RunRecord parse_run_record(std::string_view json) {
  const JsonValue v = parse_json(json);
  if (!v.is_object()) throw std::runtime_error("parse_run_record: not a JSON object");
  RunRecord rec;
  rec.run_id = v.string_or("run_id", "");
  rec.timestamp = v.string_or("timestamp", "");
  rec.git_describe = v.string_or("git", "unknown");
  rec.app = v.string_or("app", "");
  rec.mode = v.string_or("mode", "");
  rec.seed = static_cast<std::uint64_t>(v.number_or("seed", 0));
  rec.n_evals = static_cast<long>(v.number_or("n_evals", 0));
  rec.workers = static_cast<int>(v.number_or("workers", 0));
  rec.config_hash = v.string_or("config_hash", "");
  rec.best_score = v.number_or("best_score", 0.0);
  if (v.contains("top_scores"))
    for (const JsonValue& s : v.at("top_scores").array) rec.top_scores.push_back(s.number);
  rec.makespan = v.number_or("makespan", 0.0);
  rec.ckpt_overhead_s = v.number_or("ckpt_overhead_s", 0.0);
  rec.wall_seconds = v.number_or("wall_seconds", 0.0);
  rec.evals_completed = static_cast<long>(v.number_or("evals_completed", 0));
  rec.crashed_attempts = static_cast<long>(v.number_or("crashed_attempts", 0));
  rec.resubmissions = static_cast<long>(v.number_or("resubmissions", 0));
  rec.lost_evaluations = static_cast<long>(v.number_or("lost_evaluations", 0));
  rec.transfer_fallbacks = static_cast<long>(v.number_or("transfer_fallbacks", 0));
  rec.transfer_hit_rate = v.number_or("transfer_hit_rate", 0.0);
  rec.kendall_tau_early_final = v.number_or("kendall_tau_early_final", 0.0);
  rec.mean_lineage_depth = v.number_or("mean_lineage_depth", 0.0);
  rec.bank_enabled = v.contains("bank") && v.at("bank").boolean;
  rec.bank_dedup_ratio = v.number_or("bank_dedup_ratio", 1.0);
  rec.bank_chunks = static_cast<long>(v.number_or("bank_chunks", 0));
  rec.bank_unique_bytes = parse_u64(v.string_or("bank_unique_bytes", "0")).value_or(0);
  rec.bank_logical_bytes = parse_u64(v.string_or("bank_logical_bytes", "0")).value_or(0);
  rec.bank_evictions = static_cast<long>(v.number_or("bank_evictions", 0));
  if (v.contains("bank_roots"))
    for (const JsonValue& s : v.at("bank_roots").array) rec.bank_roots.push_back(s.string);
  return rec;
}

void append_run_record(const std::string& dir, const RunRecord& rec) {
  std::filesystem::create_directories(dir);
  // One O_APPEND write(2) plus an fsync per record: concurrent runs cannot
  // interleave bytes inside a line, and a kill or power cut can tear at
  // most the final record — which read_registry knows to skip.
  fsio::DurableAppender appender(registry_file(dir), /*sync_each_append=*/true);
  appender.append(run_record_to_json(rec) + '\n');
}

std::vector<RunRecord> read_registry(const std::string& dir, std::size_t* warnings) {
  if (warnings != nullptr) *warnings = 0;
  std::vector<RunRecord> out;
  std::ifstream in(registry_file(dir));
  if (!in) return out;  // no registry yet
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      out.push_back(parse_run_record(line));
    } catch (const std::exception& e) {
      // A torn *final* line is the expected leftover of an appender killed
      // mid-record; skip it with a warning.  Damage followed by intact
      // records is real corruption and stays loud.
      const bool has_more = [&in] {
        std::string rest;
        while (std::getline(in, rest))
          if (!rest.empty()) return true;
        return false;
      }();
      if (has_more || warnings == nullptr)
        throw std::runtime_error("read_registry: " + registry_file(dir).string() + ":" +
                                 std::to_string(line_no) + ": " + e.what());
      ++*warnings;
      log_warn("read_registry: skipping torn final record at ",
               registry_file(dir).string(), ":", line_no, " (", e.what(), ")");
      break;
    }
  }
  return out;
}

std::vector<Regression> compare_records(const RunRecord& baseline,
                                        const RunRecord& candidate,
                                        const RegressionThresholds& thr) {
  std::vector<Regression> out;
  const auto flag = [&out](std::string metric, double base, double cand,
                           std::string detail) {
    out.push_back(Regression{std::move(metric), base, cand, std::move(detail)});
  };

  if (thr.score_drop >= 0.0) {
    if (candidate.best_score < baseline.best_score - thr.score_drop)
      flag("best_score", baseline.best_score, candidate.best_score,
           "dropped more than " + json_number(thr.score_drop));
    const auto mean_of = [](const std::vector<double>& xs) {
      if (xs.empty()) return 0.0;
      double s = 0.0;
      for (const double x : xs) s += x;
      return s / static_cast<double>(xs.size());
    };
    if (!baseline.top_scores.empty() && !candidate.top_scores.empty() &&
        mean_of(candidate.top_scores) < mean_of(baseline.top_scores) - thr.score_drop)
      flag("mean_top_k_score", mean_of(baseline.top_scores), mean_of(candidate.top_scores),
           "dropped more than " + json_number(thr.score_drop));
  }
  if (thr.makespan_slack >= 0.0 && baseline.makespan > 0.0 &&
      candidate.makespan > baseline.makespan * (1.0 + thr.makespan_slack))
    flag("makespan", baseline.makespan, candidate.makespan,
         "more than " + json_number(thr.makespan_slack * 100.0) + "% slower");
  if (thr.overhead_slack >= 0.0 && baseline.ckpt_overhead_s > 0.0 &&
      candidate.ckpt_overhead_s > baseline.ckpt_overhead_s * (1.0 + thr.overhead_slack))
    flag("ckpt_overhead_s", baseline.ckpt_overhead_s, candidate.ckpt_overhead_s,
         "more than " + json_number(thr.overhead_slack * 100.0) + "% higher");
  if (candidate.crashed_attempts > baseline.crashed_attempts + thr.extra_crashes)
    flag("crashed_attempts", static_cast<double>(baseline.crashed_attempts),
         static_cast<double>(candidate.crashed_attempts),
         "more crashed attempts than baseline allows");
  if (candidate.lost_evaluations > baseline.lost_evaluations + thr.extra_lost)
    flag("lost_evaluations", static_cast<double>(baseline.lost_evaluations),
         static_cast<double>(candidate.lost_evaluations),
         "more lost evaluations than baseline allows");
  if (candidate.evals_completed < baseline.evals_completed)
    flag("evals_completed", static_cast<double>(baseline.evals_completed),
         static_cast<double>(candidate.evals_completed),
         "fewer evaluations completed than baseline");
  return out;
}

}  // namespace swt
