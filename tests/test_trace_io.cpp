#include "exp/trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace swt {
namespace {

Trace sample_trace() {
  const AppConfig app = make_app(AppId::kMnist, 9, {.data_scale = 0.2});
  NasRunConfig cfg;
  cfg.mode = TransferMode::kLCS;
  cfg.n_evals = 12;
  cfg.seed = 9;
  cfg.cluster.num_workers = 3;
  cfg.cluster.fixed_train_seconds = 1.0;
  cfg.evolution = {.population_size = 4, .sample_size = 2};
  return run_nas(app, cfg).trace;
}

TEST(TraceIo, RoundTripsThroughStream) {
  const Trace original = sample_trace();
  std::stringstream ss;
  write_trace_csv(ss, original);
  const Trace restored = read_trace_csv(ss);

  EXPECT_EQ(restored.num_workers, original.num_workers);
  EXPECT_NEAR(restored.makespan, original.makespan, 1e-9);
  ASSERT_EQ(restored.records.size(), original.records.size());
  for (std::size_t i = 0; i < original.records.size(); ++i) {
    const auto& a = original.records[i];
    const auto& b = restored.records[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_DOUBLE_EQ(a.score, b.score);
    EXPECT_EQ(a.parent_id, b.parent_id);
    EXPECT_EQ(a.ckpt_key, b.ckpt_key);
    EXPECT_EQ(a.param_count, b.param_count);
    EXPECT_EQ(a.tensors_transferred, b.tensors_transferred);
    EXPECT_EQ(a.values_transferred, b.values_transferred);
    EXPECT_DOUBLE_EQ(a.train_seconds, b.train_seconds);
    EXPECT_DOUBLE_EQ(a.ckpt_read_cost, b.ckpt_read_cost);
    EXPECT_DOUBLE_EQ(a.ckpt_write_cost, b.ckpt_write_cost);
    EXPECT_EQ(a.ckpt_bytes, b.ckpt_bytes);
    EXPECT_DOUBLE_EQ(a.virtual_start, b.virtual_start);
    EXPECT_DOUBLE_EQ(a.virtual_finish, b.virtual_finish);
    EXPECT_EQ(a.worker, b.worker);
  }
}

TEST(TraceIo, RoundTripsThroughFile) {
  const Trace original = sample_trace();
  const auto path =
      (std::filesystem::temp_directory_path() / "swtnas_trace_test.csv").string();
  write_trace_csv(path, original);
  const Trace restored = read_trace_csv(path);
  EXPECT_EQ(restored.records.size(), original.records.size());
  std::filesystem::remove(path);
}

TEST(TraceIo, TopKWorksOnRestoredTrace) {
  const Trace original = sample_trace();
  std::stringstream ss;
  write_trace_csv(ss, original);
  const Trace restored = read_trace_csv(ss);
  const auto top_orig = top_k(original, 3);
  const auto top_rest = top_k(restored, 3);
  ASSERT_EQ(top_orig.size(), top_rest.size());
  for (std::size_t i = 0; i < top_orig.size(); ++i) {
    EXPECT_EQ(top_orig[i].arch, top_rest[i].arch);
    EXPECT_DOUBLE_EQ(top_orig[i].score, top_rest[i].score);
  }
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  Trace empty;
  empty.num_workers = 5;
  std::stringstream ss;
  write_trace_csv(ss, empty);
  const Trace restored = read_trace_csv(ss);
  EXPECT_TRUE(restored.records.empty());
  EXPECT_EQ(restored.num_workers, 5);
}

TEST(TraceIo, FaultFieldsAndCountersRoundTrip) {
  Trace original;
  original.num_workers = 2;
  original.makespan = 42.5;
  original.resubmissions = 2;
  original.lost_evaluations = 1;
  original.lost_train_seconds = 1.75;
  original.retry_seconds = 0.375;
  original.transfer_fallbacks = 4;
  EvalRecord r;
  r.id = 7;
  r.arch = {1, 2, 3};
  r.score = 0.5;
  r.parent_id = 2;
  r.attempt = 2;
  r.faults = kFaultStraggler | kFaultCkptRead | kFaultParentUnreadable;
  r.retries = 5;
  r.retry_seconds = 0.25;
  r.transfer_fallback = true;
  original.records.push_back(r);
  original.crashes.push_back({7, 0, 1, 0.5, 1.0 / 3.0, 5.0 + 1.0 / 3.0});
  original.crashes.push_back({7, 1, 0, 6.0, 6.25, 11.25});

  std::stringstream ss;
  write_trace_csv(ss, original);
  // The preamble still names the crash count; the reader counts crash lines.
  EXPECT_NE(ss.str().find(", crashed_attempts=2,"), std::string::npos);
  const Trace restored = read_trace_csv(ss);
  ASSERT_EQ(restored.crashes.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const CrashRecord& a = original.crashes[i];
    const CrashRecord& b = restored.crashes[i];
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.attempt, a.attempt);
    EXPECT_EQ(b.worker, a.worker);
    EXPECT_EQ(b.start, a.start);
    EXPECT_EQ(b.crash_at, a.crash_at);
    EXPECT_EQ(b.recovered_at, a.recovered_at);
  }
  EXPECT_EQ(restored.resubmissions, 2);
  EXPECT_EQ(restored.lost_evaluations, 1);
  EXPECT_DOUBLE_EQ(restored.lost_train_seconds, 1.75);
  EXPECT_DOUBLE_EQ(restored.retry_seconds, 0.375);
  EXPECT_EQ(restored.transfer_fallbacks, 4);
  ASSERT_EQ(restored.records.size(), 1u);
  const auto& b = restored.records[0];
  EXPECT_EQ(b.attempt, 2);
  EXPECT_EQ(b.faults, r.faults);
  EXPECT_EQ(b.retries, 5);
  EXPECT_DOUBLE_EQ(b.retry_seconds, 0.25);
  EXPECT_TRUE(b.transfer_fallback);
}

TEST(TraceIo, FirstEpochScoreRoundTrips) {
  Trace original;
  original.num_workers = 1;
  EvalRecord r;
  r.id = 1;
  r.score = 0.75;
  r.first_epoch_score = 0.25;
  original.records.push_back(r);
  std::stringstream ss;
  write_trace_csv(ss, original);
  const Trace restored = read_trace_csv(ss);
  ASSERT_EQ(restored.records.size(), 1u);
  EXPECT_DOUBLE_EQ(restored.records[0].first_epoch_score, 0.25);
}

// A corrupt cell must be reported with its file line and column name, not
// as a bare std::invalid_argument out of std::stod.
TEST(TraceIo, CorruptCellReportsLineAndColumn) {
  std::stringstream out;
  Trace t;
  EvalRecord r;
  r.id = 3;
  t.records.push_back(r);
  write_trace_csv(out, t);
  std::string text = out.str();
  const auto pos = text.find("3,,0");  // id,arch,score of the only data row
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "3,,xy");  // score becomes "xy"
  std::stringstream in(text);
  try {
    (void)read_trace_csv(in);
    FAIL() << "expected read_trace_csv to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("column 'score'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("\"xy\""), std::string::npos) << msg;
  }
}

TEST(TraceIo, TrailingGarbageInNumericCellIsRejected) {
  struct Case {
    std::size_t column;
    const char* name;
    const char* cell;
  };
  const Case cases[] = {
      {0, "id", "3x"},                   // stol would accept the prefix
      {12, "ckpt_bytes", "-30552"},      // stoull wraps it to 2^64 - 30552
      {20, "faults", "4294967296"},      // UINT_MAX + 1 would truncate to 0
  };
  for (const Case& c : cases) {
    std::stringstream out;
    Trace t;
    EvalRecord r;
    r.id = 3;
    t.records.push_back(r);
    write_trace_csv(out, t);
    std::string text = out.str();
    // The row is the third line; replace its cell number `c.column`.
    std::size_t begin = text.find("\n3,") + 1;
    for (std::size_t col = 0; col < c.column; ++col) begin = text.find(',', begin) + 1;
    text.replace(begin, text.find(',', begin) - begin, c.cell);
    std::stringstream in(text);
    try {
      (void)read_trace_csv(in);
      ADD_FAILURE() << "expected read_trace_csv to reject " << c.name << " = " << c.cell;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::string("column '") + c.name + "'"), std::string::npos) << msg;
    }
  }
}

TEST(TraceIo, CorruptArchOpReportsArchColumn) {
  std::stringstream out;
  Trace t;
  EvalRecord r;
  r.arch = {1, 2, 3};
  t.records.push_back(r);
  write_trace_csv(out, t);
  std::string text = out.str();
  const auto pos = text.find("1|2|3");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "1|oops|3");
  std::stringstream in(text);
  try {
    (void)read_trace_csv(in);
    FAIL() << "expected read_trace_csv to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("column 'arch'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
}

TEST(TraceIo, CorruptPreambleValueReportsKey) {
  // "8x" is a number with trailing garbage, which stoi alone would accept.
  for (const std::string value : {"two", "8x"}) {
    std::stringstream in("# swtnas trace, num_workers=" + value + ", makespan=0\n");
    try {
      (void)read_trace_csv(in);
      ADD_FAILURE() << "expected read_trace_csv to reject num_workers=" << value;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("num_workers"), std::string::npos) << msg;
      EXPECT_NE(msg.find("\"" + value + "\""), std::string::npos) << msg;
    }
  }
}

TEST(TraceIo, RejectsMissingPreamble) {
  std::stringstream ss("id,arch\n1,2\n");
  EXPECT_THROW((void)read_trace_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsWrongHeader) {
  std::stringstream ss("# swtnas trace, num_workers=1, makespan=0\nwrong,header\n");
  EXPECT_THROW((void)read_trace_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsShortRows) {
  std::stringstream out;
  write_trace_csv(out, Trace{});
  std::string text = out.str();
  text += "1,2,3\n";
  std::stringstream in(text);
  EXPECT_THROW((void)read_trace_csv(in), std::runtime_error);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW((void)read_trace_csv(std::string("/nonexistent/trace.csv")),
               std::runtime_error);
}

TEST(TraceIo, RecordRowAfterCrashLinesIsRejected) {
  Trace t;
  t.records.emplace_back();
  t.crashes.push_back({0, 0, 0, 0.0, 1.0, 2.0});
  std::stringstream out;
  write_trace_csv(out, t);
  std::vector<std::string> lines;
  for (std::string line; std::getline(out, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // preamble, header, record row, crash line
  std::stringstream in(lines[0] + '\n' + lines[1] + '\n' + lines[3] + '\n' + lines[2] + '\n');
  EXPECT_THROW((void)read_trace_csv(in), std::runtime_error);
}

TEST(TraceIo, TruncationToleranceStillThrowsWithoutTheFlag) {
  // A torn final row (a writer killed mid-line) is malformed input like any
  // other: the reader has no tolerant mode.
  const Trace original = sample_trace();
  std::ostringstream out;
  write_trace_csv(out, original);
  std::string text = out.str();
  text.resize(text.size() - 25);
  std::istringstream in(text);
  EXPECT_THROW((void)read_trace_csv(in), std::runtime_error);
}

}  // namespace
}  // namespace swt
