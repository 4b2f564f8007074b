// Regression gate over the run registry (the CI half of the observatory).
//
//   $ ./compare_runs --registry-dir runs/                 # latest vs previous
//   $ ./compare_runs --registry-dir runs/ --baseline-file ci/baseline.json
//
// Diffs a candidate run record against a baseline with configurable
// tolerances and exits non-zero when the candidate regressed, so a CI job
// can gate on search quality, makespan, checkpoint overhead and fault
// counters the same way it gates on unit tests.
//
// Exit codes: 0 = no regression, 1 = regression detected, 2 = usage/IO error.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "common/parse.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"

namespace {

using namespace swt;

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --registry-dir DIR [--baseline RUN_ID] [--candidate RUN_ID]\n"
               "       [--baseline-file FILE] [--score-drop X] [--makespan-slack X]\n"
               "       [--overhead-slack X] [--extra-crashes N] [--extra-lost N]\n"
               "\n"
               "Compares two run records from DIR/registry.ndjson (default: the\n"
               "newest record against the one before it).  --baseline-file reads the\n"
               "baseline record from a standalone JSON file instead — use this to\n"
               "pin a committed golden record in CI.  Negative slack disables that\n"
               "check.  Exits 1 when the candidate regressed beyond the thresholds.\n";
  std::exit(2);
}

std::optional<RunRecord> find_record(const std::vector<RunRecord>& records,
                                     const std::string& run_id) {
  for (auto it = records.rbegin(); it != records.rend(); ++it)
    if (it->run_id == run_id) return *it;
  return std::nullopt;
}

RunRecord read_record_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) return parse_run_record(line);
  throw std::runtime_error("no record found in " + path);
}

void print_record(std::ostream& os, const char* role, const RunRecord& rec) {
  os << role << ": " << rec.run_id << " (" << rec.timestamp << ", git "
     << rec.git_describe << ", config " << rec.config_hash << ")\n";
}

}  // namespace

int main(int argc, char** argv) try {
  std::string registry_dir;
  std::string baseline_id;
  std::string candidate_id;
  std::string baseline_file;
  RegressionThresholds thr;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // A threshold that is not one whole number is a usage error.
    const auto number = [&](const auto& parsed) {
      if (!parsed) usage(argv[0]);
      return *parsed;
    };
    if (arg == "--registry-dir") registry_dir = next();
    else if (arg == "--baseline") baseline_id = next();
    else if (arg == "--candidate") candidate_id = next();
    else if (arg == "--baseline-file") baseline_file = next();
    else if (arg == "--score-drop") thr.score_drop = number(parse_double(next()));
    else if (arg == "--makespan-slack") thr.makespan_slack = number(parse_double(next()));
    else if (arg == "--overhead-slack") thr.overhead_slack = number(parse_double(next()));
    else if (arg == "--extra-crashes") thr.extra_crashes = number(parse_long(next()));
    else if (arg == "--extra-lost") thr.extra_lost = number(parse_long(next()));
    else usage(argv[0]);
  }
  if (registry_dir.empty()) usage(argv[0]);
  if (!baseline_id.empty() && !baseline_file.empty()) usage(argv[0]);

  const std::vector<RunRecord> records = read_registry(registry_dir);
  if (records.empty()) {
    std::cerr << "error: registry " << registry_dir << "/registry.ndjson is empty\n";
    return 2;
  }

  RunRecord candidate = records.back();
  if (!candidate_id.empty()) {
    const auto found = find_record(records, candidate_id);
    if (!found) {
      std::cerr << "error: candidate run '" << candidate_id << "' not in registry\n";
      return 2;
    }
    candidate = *found;
  }

  RunRecord baseline;
  if (!baseline_file.empty()) {
    baseline = read_record_file(baseline_file);
  } else if (!baseline_id.empty()) {
    const auto found = find_record(records, baseline_id);
    if (!found) {
      std::cerr << "error: baseline run '" << baseline_id << "' not in registry\n";
      return 2;
    }
    baseline = *found;
  } else {
    // Default: previous record in the registry (skipping the candidate itself).
    std::optional<RunRecord> prev;
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->run_id == candidate.run_id) continue;
      prev = *it;
      break;
    }
    if (!prev) {
      std::cerr << "error: registry holds only the candidate run; nothing to "
                   "compare against (seed a baseline first)\n";
      return 2;
    }
    baseline = *prev;
  }

  print_record(std::cout, "baseline ", baseline);
  print_record(std::cout, "candidate", candidate);
  if (baseline.config_hash != candidate.config_hash)
    std::cout << "warning: config hashes differ — comparing apples to oranges\n";

  TableReport table({"metric", "baseline", "candidate"});
  table.add_row({"best_score", TableReport::cell(baseline.best_score),
                 TableReport::cell(candidate.best_score)});
  table.add_row({"makespan", TableReport::cell(baseline.makespan, 2),
                 TableReport::cell(candidate.makespan, 2)});
  table.add_row({"ckpt_overhead_s", TableReport::cell(baseline.ckpt_overhead_s, 2),
                 TableReport::cell(candidate.ckpt_overhead_s, 2)});
  table.add_row({"evals_completed", std::to_string(baseline.evals_completed),
                 std::to_string(candidate.evals_completed)});
  table.add_row({"crashed_attempts", std::to_string(baseline.crashed_attempts),
                 std::to_string(candidate.crashed_attempts)});
  table.add_row({"lost_evaluations", std::to_string(baseline.lost_evaluations),
                 std::to_string(candidate.lost_evaluations)});
  table.add_row({"transfer_hit_rate", TableReport::cell(baseline.transfer_hit_rate),
                 TableReport::cell(candidate.transfer_hit_rate)});
  table.print(std::cout);

  const std::vector<Regression> regressions = compare_records(baseline, candidate, thr);
  if (regressions.empty()) {
    std::cout << "\nOK: no regression beyond thresholds\n";
    return 0;
  }
  std::cout << "\nREGRESSION: " << regressions.size() << " metric(s) degraded\n";
  for (const auto& r : regressions)
    std::cout << "  " << r.metric << ": baseline " << TableReport::cell(r.baseline)
              << " -> candidate " << TableReport::cell(r.candidate) << "  (" << r.detail
              << ")\n";
  return 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
