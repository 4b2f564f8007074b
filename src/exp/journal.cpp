#include "exp/journal.hpp"

#include <unistd.h>

#include <charconv>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "ckpt/checkpoint.hpp"
#include "common/log.hpp"
#include "exp/registry.hpp"
#include "exp/trace_io.hpp"
#include "obs/json.hpp"

namespace swt {

namespace {

// A line is "<crc32 of the payload, 8 hex>,<payload>\n" with the payload
// "<selection-RNG state, 81 hex>,<the attempt's trace.csv row>".
constexpr std::size_t kCrcHex = 8;
constexpr std::size_t kRngHex = 81;
constexpr std::size_t kRowOffset = kCrcHex + 1 + kRngHex + 1;

/// The low `digits` hex digits of `v`, most significant first.
std::string hex_digits(std::uint64_t v, std::size_t digits) {
  static const char* kHex = "0123456789abcdef";
  std::string out(digits, '0');
  for (std::size_t i = digits; i-- > 0; v >>= 4) out[i] = kHex[v & 0xF];
  return out;
}

std::uint64_t parse_hex_u64(std::string_view hex) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(hex.data(), hex.data() + hex.size(), v, 16);
  if (ec != std::errc{} || ptr != hex.data() + hex.size())
    throw std::runtime_error("journal: malformed hex field");
  return v;
}

TransferMode parse_mode(const std::string& name) {
  if (name == "baseline") return TransferMode::kNone;
  if (name == "LP") return TransferMode::kLP;
  if (name == "LCS") return TransferMode::kLCS;
  throw std::runtime_error("manifest: unknown transfer mode '" + name + "'");
}

CompressionKind parse_compression(const std::string& name) {
  if (name == "none") return CompressionKind::kNone;
  if (name == "fp16") return CompressionKind::kFp16;
  if (name == "quant8") return CompressionKind::kQuant8;
  throw std::runtime_error("manifest: unknown compression '" + name + "'");
}

std::uint64_t parse_u64_string(const std::string& s, const char* what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw std::runtime_error(std::string("manifest: malformed ") + what);
  return v;
}

std::filesystem::path manifest_file(const std::filesystem::path& run_dir) {
  return run_dir / "manifest.json";
}

}  // namespace

std::string rng_state_to_hex(const Rng::State& st) {
  std::string out;
  out.reserve(kRngHex);
  for (const std::uint64_t s : st.s) out += hex_digits(s, 16);
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(st.cached_gauss));
  std::memcpy(&bits, &st.cached_gauss, sizeof(bits));
  out += hex_digits(bits, 16);
  out += st.has_gauss ? '1' : '0';
  return out;
}

Rng::State rng_state_from_hex(std::string_view hex) {
  if (hex.size() != kRngHex)
    throw std::runtime_error("rng_state_from_hex: expected 81 characters, got " +
                             std::to_string(hex.size()));
  Rng::State st;
  for (std::size_t i = 0; i < 4; ++i) st.s[i] = parse_hex_u64(hex.substr(i * 16, 16));
  const std::uint64_t bits = parse_hex_u64(hex.substr(64, 16));
  std::memcpy(&st.cached_gauss, &bits, sizeof(bits));
  if (hex[80] != '0' && hex[80] != '1')
    throw std::runtime_error("rng_state_from_hex: malformed cache flag");
  st.has_gauss = hex[80] == '1';
  return st;
}

std::string record_to_journal_line(const EvalRecord& rec, const Rng::State& sel_state) {
  const std::string payload = rng_state_to_hex(sel_state) + ',' + trace_row(rec);
  return hex_digits(crc32(payload.data(), payload.size()), kCrcHex) + ',' + payload + '\n';
}

std::pair<EvalRecord, Rng::State> journal_line_to_record(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.remove_suffix(1);
  if (line.size() < kRowOffset || line[kCrcHex] != ',' || line[kRowOffset - 1] != ',')
    throw std::runtime_error("journal: malformed record framing");
  const std::string_view payload = line.substr(kCrcHex + 1);
  if (crc32(payload.data(), payload.size()) != parse_hex_u64(line.substr(0, kCrcHex)))
    throw std::runtime_error("journal: CRC mismatch");
  return {parse_trace_row(std::string(line.substr(kRowOffset))),
          rng_state_from_hex(payload.substr(0, kRngHex))};
}

RunManifest make_manifest(std::string_view app_name, const NasRunConfig& cfg) {
  RunManifest m;
  m.app = app_name;
  m.cfg = cfg;
  m.config_hash = config_hash(app_name, cfg);
  return m;
}

std::string manifest_to_json(const RunManifest& m) {
  const NasRunConfig& c = m.cfg;
  const FaultConfig& f = c.cluster.faults;
  std::string out = "{";
  const auto num = [&out](const char* key, const std::string& v, bool first = false) {
    if (!first) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += v;
  };
  const auto str = [&out](const char* key, const std::string& v) {
    out += ",\"";
    out += key;
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  };
  num("version", std::to_string(m.version), /*first=*/true);
  str("app", m.app);
  str("mode", to_string(c.mode));
  num("n_evals", std::to_string(c.n_evals));
  // 64-bit seeds are strings: a JSON double cannot represent every uint64.
  str("seed", std::to_string(c.seed));
  num("time_scale", json_number(c.time_scale));
  str("compression", to_string(c.compression));
  num("train_subset_fraction", json_number(c.train_subset_fraction));
  num("estimation_epochs", std::to_string(c.estimation_epochs));
  num("population_size", std::to_string(c.evolution.population_size));
  num("sample_size", std::to_string(c.evolution.sample_size));
  num("num_workers", std::to_string(c.cluster.num_workers));
  num("eval_parallelism", std::to_string(c.cluster.eval_parallelism));
  num("cluster_time_scale", json_number(c.cluster.time_scale));
  num("fixed_train_seconds", json_number(c.cluster.fixed_train_seconds));
  num("async_checkpointing", c.cluster.async_checkpointing ? "true" : "false");
  num("async_enqueue_latency_s", json_number(c.cluster.async_enqueue_latency_s));
  str("fault_seed", std::to_string(f.seed));
  num("mtbf_seconds", json_number(f.mtbf_seconds));
  num("worker_recovery_s", json_number(f.worker_recovery_s));
  num("max_attempts", std::to_string(f.max_attempts));
  num("straggler_rate", json_number(f.straggler_rate));
  num("straggler_multiplier", json_number(f.straggler_multiplier));
  num("ckpt_write_fault_rate", json_number(f.ckpt_write_fault_rate));
  num("ckpt_read_fault_rate", json_number(f.ckpt_read_fault_rate));
  num("max_io_retries", std::to_string(f.max_io_retries));
  num("retry_backoff_s", json_number(f.retry_backoff_s));
  num("retry_backoff_multiplier", json_number(f.retry_backoff_multiplier));
  num("bank", c.bank ? "true" : "false");
  // Byte sizes share the uint64-as-string convention of the seeds above.
  str("bank_budget_bytes", std::to_string(c.bank_budget_bytes));
  str("warm_start_dir", c.warm_start_dir.string());
  num("warm_start_k", std::to_string(c.warm_start_k));
  str("journal", RunJournal::kFileName);
  str("config_hash", m.config_hash);
  out += "}\n";
  return out;
}

RunManifest parse_manifest(std::string_view json) {
  const JsonValue v = parse_json(json);
  if (!v.is_object()) throw std::runtime_error("manifest: not a JSON object");
  RunManifest m;
  m.version = static_cast<int>(v.number_or("version", 0));
  if (m.version != RunManifest{}.version)
    throw std::runtime_error("manifest: unsupported version " + std::to_string(m.version) +
                             " (this build resumes version " +
                             std::to_string(RunManifest{}.version) +
                             " run directories only: an older build's journal holds "
                             "records it cannot replay)");
  m.app = v.string_or("app", "");
  if (!parse_app_id(m.app).has_value())
    throw std::runtime_error("manifest: unknown app '" + m.app + "'");
  NasRunConfig& c = m.cfg;
  FaultConfig& f = c.cluster.faults;
  c.mode = parse_mode(v.string_or("mode", ""));
  c.n_evals = static_cast<long>(v.number_or("n_evals", 0));
  c.seed = parse_u64_string(v.string_or("seed", ""), "seed");
  c.time_scale = v.number_or("time_scale", 0.0);
  c.compression = parse_compression(v.string_or("compression", ""));
  c.train_subset_fraction = v.number_or("train_subset_fraction", 1.0);
  c.estimation_epochs = static_cast<int>(v.number_or("estimation_epochs", 0));
  c.evolution.population_size = static_cast<int>(v.number_or("population_size", 16));
  c.evolution.sample_size = static_cast<int>(v.number_or("sample_size", 8));
  c.cluster.num_workers = static_cast<int>(v.number_or("num_workers", 8));
  c.cluster.eval_parallelism = static_cast<int>(v.number_or("eval_parallelism", 1));
  c.cluster.time_scale = v.number_or("cluster_time_scale", 1.0);
  c.cluster.fixed_train_seconds = v.number_or("fixed_train_seconds", -1.0);
  c.cluster.async_checkpointing =
      v.contains("async_checkpointing") && v.at("async_checkpointing").boolean;
  c.cluster.async_enqueue_latency_s = v.number_or("async_enqueue_latency_s", 0.002);
  f.seed = parse_u64_string(v.string_or("fault_seed", "0"), "fault_seed");
  f.mtbf_seconds = v.number_or("mtbf_seconds", 0.0);
  f.worker_recovery_s = v.number_or("worker_recovery_s", 30.0);
  f.max_attempts = static_cast<int>(v.number_or("max_attempts", 3));
  f.straggler_rate = v.number_or("straggler_rate", 0.0);
  f.straggler_multiplier = v.number_or("straggler_multiplier", 4.0);
  f.ckpt_write_fault_rate = v.number_or("ckpt_write_fault_rate", 0.0);
  f.ckpt_read_fault_rate = v.number_or("ckpt_read_fault_rate", 0.0);
  f.max_io_retries = static_cast<int>(v.number_or("max_io_retries", 3));
  f.retry_backoff_s = v.number_or("retry_backoff_s", 0.050);
  f.retry_backoff_multiplier = v.number_or("retry_backoff_multiplier", 2.0);
  c.bank = v.contains("bank") && v.at("bank").boolean;
  c.bank_budget_bytes = static_cast<std::size_t>(
      parse_u64_string(v.string_or("bank_budget_bytes", "0"), "bank_budget_bytes"));
  c.warm_start_dir = v.string_or("warm_start_dir", "");
  c.warm_start_k = static_cast<int>(v.number_or("warm_start_k", 0));
  m.config_hash = v.string_or("config_hash", "");
  if (m.config_hash.empty()) throw std::runtime_error("manifest: missing config_hash");
  return m;
}

void write_manifest(const std::filesystem::path& run_dir, const RunManifest& m) {
  std::filesystem::create_directories(run_dir);
  fsio::atomic_write_file(manifest_file(run_dir), manifest_to_json(m));
}

std::optional<RunManifest> load_manifest(const std::filesystem::path& run_dir) {
  std::ifstream in(manifest_file(run_dir), std::ios::binary);
  if (!in) return std::nullopt;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  try {
    return parse_manifest(text);
  } catch (const std::exception& e) {
    throw std::runtime_error("load_manifest: " + manifest_file(run_dir).string() +
                             ": " + e.what());
  }
}

RunJournal::RunJournal(const std::filesystem::path& run_dir, bool sync_each_append) {
  std::filesystem::create_directories(run_dir);
  path_ = run_dir / kFileName;

  std::ifstream in(path_, std::ios::binary);
  if (in) {
    const std::string content((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    in.close();
    std::size_t pos = 0;      // scan cursor
    std::size_t valid = 0;    // end of the intact record prefix
    std::size_t line_no = 0;
    while (pos < content.size()) {
      ++line_no;
      const std::size_t nl = content.find('\n', pos);
      if (nl == std::string::npos) break;  // final record torn mid-write
      const std::string_view line(content.data() + pos, nl - pos);
      try {
        auto [rec, sel] = journal_line_to_record(line);
        entries_.insert_or_assign({rec.id, rec.attempt},
                                  Entry{std::move(rec), sel});
        ++loaded_;
      } catch (const std::exception& e) {
        // A damaged *final* record is the expected artifact of a kill or
        // power cut and is safely discarded (its attempt just retrains).
        // Damage with intact records after it cannot come from an append
        // crash — that is real corruption and must be loud.
        if (content.find_first_not_of(" \t\r\n", nl + 1) != std::string::npos)
          throw std::runtime_error("RunJournal: " + path_.string() + ":" +
                                   std::to_string(line_no) +
                                   ": corrupt interior record: " + e.what());
        break;
      }
      pos = nl + 1;
      valid = pos;
    }
    if (valid < content.size()) {
      truncated_tail_ = true;
      log_warn("journal: discarding torn final record in ", path_.string(), " (",
               content.size() - valid, " bytes after ", loaded_, " intact records)");
      std::filesystem::resize_file(path_, valid);
    }
  }

  appender_ = std::make_unique<fsio::DurableAppender>(path_, sync_each_append);
}

std::set<std::string> RunJournal::completed_ckpt_keys() const {
  std::set<std::string> keys;
  for (const auto& [id_attempt, e] : entries_)
    if ((e.rec.faults & kFaultCrash) == 0 && !e.rec.ckpt_key.empty())
      keys.insert(e.rec.ckpt_key);
  return keys;
}

const EvalRecord* RunJournal::lookup(long id, int attempt, const ArchSeq& arch,
                                     const Rng& strategy_rng) {
  const auto it = entries_.find({id, attempt});
  if (it == entries_.end()) return nullptr;
  const Entry& e = it->second;
  if (e.rec.arch != arch)
    throw std::runtime_error(
        "RunJournal: replay divergence at eval " + std::to_string(id) + " attempt " +
        std::to_string(attempt) +
        ": journaled architecture differs from the live proposal (the journal was "
        "written under a different configuration or code version)");
  if (!(e.sel_state == strategy_rng.state()))
    throw std::runtime_error(
        "RunJournal: replay divergence at eval " + std::to_string(id) + " attempt " +
        std::to_string(attempt) +
        ": strategy RNG state differs from the journaled selection state");
  ++replayed_;
  return &e.rec;
}

void RunJournal::append(const EvalRecord& rec, const Rng::State& selection_state) {
  if (crash_after_ >= 0 && appended_ >= static_cast<std::size_t>(crash_after_)) {
    // Deterministic in-process "kill": die exactly when the (n+1)-th fresh
    // record would be journaled.  _exit skips every destructor and flush,
    // modelling SIGKILL as closely as possible from inside the process.
    ::_exit(kCrashExitCode);
  }
  appender_->append(record_to_journal_line(rec, selection_state));
  ++appended_;
}

}  // namespace swt
