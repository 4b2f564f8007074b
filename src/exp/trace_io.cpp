#include "exp/trace_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace swt {

namespace {

constexpr const char* kHeader =
    "id,arch,score,parent_id,ckpt_key,param_count,tensors_transferred,"
    "values_transferred,train_seconds,transfer_seconds,ckpt_read_cost,"
    "ckpt_write_cost,ckpt_bytes,ckpt_write_charged,ckpt_read_wait,"
    "ckpt_available_at,virtual_start,virtual_finish,worker,"
    "attempt,faults,retries,retry_seconds,transfer_fallback,first_epoch_score";

constexpr std::size_t kColumns = 25;

/// Crashed attempts trail the rows as comment lines, so a fault-free trace
/// keeps its bytes: "# crash,id,attempt,worker,start,crash_at,recovered_at".
constexpr const char* kCrashTag = "# crash";
constexpr std::size_t kCrashColumns = 7;

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

/// Sequential typed access to one CSV row.  Every conversion failure is
/// reported with the column name and the offending cell text (the caller
/// adds the line) — a malformed trace should say *where* it is broken, not
/// surface as a bare std::invalid_argument from std::stod.
class RowReader {
 public:
  explicit RowReader(const std::vector<std::string>& cells) : cells_(&cells) {}

  [[nodiscard]] const std::string& next_raw(const char* col) {
    if (idx_ >= cells_->size()) throw error(col, "<missing>", "missing cell");
    ++idx_;
    return (*cells_)[idx_ - 1];
  }
  [[nodiscard]] long next_long(const char* col) {
    return parse<long>(col, [](const std::string& s, std::size_t* pos) {
      return std::stol(s, pos);
    });
  }
  [[nodiscard]] int next_int(const char* col) {
    return parse<int>(col, [](const std::string& s, std::size_t* pos) {
      return std::stoi(s, pos);
    });
  }
  [[nodiscard]] std::int64_t next_i64(const char* col) {
    return parse<std::int64_t>(col, [](const std::string& s, std::size_t* pos) {
      return std::stoll(s, pos);
    });
  }
  [[nodiscard]] std::uint64_t next_u64(const char* col) {
    return parse<std::uint64_t>(col, [](const std::string& s, std::size_t* pos) {
      return std::stoull(s, pos);
    });
  }
  [[nodiscard]] unsigned next_unsigned(const char* col) {
    return parse<unsigned>(col, [](const std::string& s, std::size_t* pos) {
      return static_cast<unsigned>(std::stoul(s, pos));
    });
  }
  [[nodiscard]] double next_double(const char* col) {
    return parse<double>(col, [](const std::string& s, std::size_t* pos) {
      return std::stod(s, pos);
    });
  }

  [[nodiscard]] std::runtime_error error(const char* col, const std::string& cell,
                                         const char* why) const {
    return std::runtime_error(std::string("column '") + col + "': " + why + " \"" + cell +
                              "\"");
  }

 private:
  template <typename T, typename Fn>
  [[nodiscard]] T parse(const char* col, Fn convert) {
    const std::string& cell = next_raw(col);
    try {
      std::size_t pos = 0;
      const T v = convert(cell, &pos);
      if (pos != cell.size()) throw std::invalid_argument("trailing characters");
      return v;
    } catch (const std::exception&) {
      throw error(col, cell, "invalid value");
    }
  }

  const std::vector<std::string>* cells_;
  std::size_t idx_ = 0;
};

ArchSeq decode_arch(const std::string& text, const RowReader& row) {
  ArchSeq arch;
  if (text.empty()) return arch;
  std::istringstream is(text);
  std::string token;
  while (std::getline(is, token, '|')) {
    try {
      std::size_t pos = 0;
      arch.push_back(std::stoi(token, &pos));
      if (pos != token.size()) throw std::invalid_argument("trailing characters");
    } catch (const std::exception&) {
      throw row.error("arch", text, "invalid op id in");
    }
  }
  return arch;
}

EvalRecord record_from_cells(const std::vector<std::string>& cells) {
  if (cells.size() != kColumns)
    throw std::runtime_error("expected " + std::to_string(kColumns) + " columns, got " +
                             std::to_string(cells.size()));
  RowReader row(cells);
  EvalRecord r;
  r.id = row.next_long("id");
  r.arch = decode_arch(row.next_raw("arch"), row);
  r.score = row.next_double("score");
  r.parent_id = row.next_long("parent_id");
  r.ckpt_key = row.next_raw("ckpt_key");
  r.param_count = row.next_i64("param_count");
  r.tensors_transferred = row.next_u64("tensors_transferred");
  r.values_transferred = row.next_u64("values_transferred");
  r.train_seconds = row.next_double("train_seconds");
  r.transfer_seconds = row.next_double("transfer_seconds");
  r.ckpt_read_cost = row.next_double("ckpt_read_cost");
  r.ckpt_write_cost = row.next_double("ckpt_write_cost");
  r.ckpt_bytes = row.next_u64("ckpt_bytes");
  r.ckpt_write_charged = row.next_double("ckpt_write_charged");
  r.ckpt_read_wait = row.next_double("ckpt_read_wait");
  r.ckpt_available_at = row.next_double("ckpt_available_at");
  r.virtual_start = row.next_double("virtual_start");
  r.virtual_finish = row.next_double("virtual_finish");
  r.worker = row.next_int("worker");
  r.attempt = row.next_int("attempt");
  r.faults = row.next_unsigned("faults");
  r.retries = row.next_int("retries");
  r.retry_seconds = row.next_double("retry_seconds");
  r.transfer_fallback = row.next_raw("transfer_fallback") != "0";
  r.first_epoch_score = row.next_double("first_epoch_score");
  return r;
}

}  // namespace

std::string trace_row(const EvalRecord& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.id << ',';
  for (std::size_t i = 0; i < r.arch.size(); ++i) os << (i ? "|" : "") << r.arch[i];
  os << ',' << r.score << ',' << r.parent_id << ',' << r.ckpt_key << ',' << r.param_count
     << ',' << r.tensors_transferred << ',' << r.values_transferred << ',' << r.train_seconds
     << ',' << r.transfer_seconds << ',' << r.ckpt_read_cost << ',' << r.ckpt_write_cost
     << ',' << r.ckpt_bytes << ',' << r.ckpt_write_charged << ',' << r.ckpt_read_wait << ','
     << r.ckpt_available_at << ',' << r.virtual_start << ',' << r.virtual_finish << ','
     << r.worker << ',' << r.attempt << ',' << r.faults << ',' << r.retries << ','
     << r.retry_seconds << ',' << (r.transfer_fallback ? 1 : 0) << ','
     << r.first_epoch_score;
  return os.str();
}

EvalRecord parse_trace_row(const std::string& row) {
  return record_from_cells(split_csv_line(row));
}

void write_trace_csv(std::ostream& os, const Trace& trace) {
  os.precision(17);
  os << "# swtnas trace, num_workers=" << trace.num_workers
     << ", makespan=" << trace.makespan
     << ", crashed_attempts=" << trace.crashes.size()
     << ", resubmissions=" << trace.resubmissions
     << ", lost_evaluations=" << trace.lost_evaluations
     << ", lost_train_seconds=" << trace.lost_train_seconds
     << ", retry_seconds=" << trace.retry_seconds
     << ", transfer_fallbacks=" << trace.transfer_fallbacks << '\n';
  os << kHeader << '\n';
  for (const auto& r : trace.records) os << trace_row(r) << '\n';
  for (const CrashRecord& c : trace.crashes)
    os << kCrashTag << ',' << c.id << ',' << c.attempt << ',' << c.worker << ','
       << c.start << ',' << c.crash_at << ',' << c.recovered_at << '\n';
}

void write_trace_csv(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_trace_csv: cannot open " + path);
  write_trace_csv(out, trace);
  if (!out) throw std::runtime_error("write_trace_csv: write failed for " + path);
}

Trace read_trace_csv(std::istream& is) {
  Trace trace;
  std::string line;
  if (!std::getline(is, line) || !line.starts_with("# swtnas trace"))
    throw std::runtime_error("read_trace_csv: missing trace preamble");
  {
    // crashed_attempts is not read back: the crash lines carry the count.
    std::istringstream meta(line);
    std::string token;
    while (std::getline(meta, token, ',')) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      try {
        if (key.ends_with("num_workers")) trace.num_workers = std::stoi(value);
        if (key.ends_with("makespan")) trace.makespan = std::stod(value);
        if (key.ends_with("resubmissions")) trace.resubmissions = std::stol(value);
        if (key.ends_with("lost_evaluations")) trace.lost_evaluations = std::stol(value);
        if (key.ends_with("lost_train_seconds")) trace.lost_train_seconds = std::stod(value);
        if (key.ends_with("retry_seconds")) trace.retry_seconds = std::stod(value);
        if (key.ends_with("transfer_fallbacks")) trace.transfer_fallbacks = std::stol(value);
      } catch (const std::exception&) {
        throw std::runtime_error("read_trace_csv: line 1, preamble key '" + key +
                                 "': invalid value \"" + value + "\"");
      }
    }
  }
  if (!std::getline(is, line) || line != kHeader)
    throw std::runtime_error("read_trace_csv: unexpected header");
  std::size_t line_no = 2;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = split_csv_line(line);
    const bool crash = cells.front() == kCrashTag;
    try {
      if (!crash) {
        if (!trace.crashes.empty())
          throw std::runtime_error("record row after the crash lines");
        trace.records.push_back(record_from_cells(cells));
        continue;
      }
      if (cells.size() != kCrashColumns)
        throw std::runtime_error("expected " + std::to_string(kCrashColumns) +
                                 " columns, got " + std::to_string(cells.size()));
      RowReader row(cells);
      (void)row.next_raw("tag");
      CrashRecord& c = trace.crashes.emplace_back();
      c.id = row.next_long("id");
      c.attempt = row.next_int("attempt");
      c.worker = row.next_int("worker");
      c.start = row.next_double("start");
      c.crash_at = row.next_double("crash_at");
      c.recovered_at = row.next_double("recovered_at");
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("read_trace_csv: line " + std::to_string(line_no) + ": " +
                               e.what());
    }
  }
  return trace;
}

Trace read_trace_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_trace_csv: cannot open " + path);
  return read_trace_csv(in);
}

}  // namespace swt
