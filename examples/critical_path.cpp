// Critical-path analysis of a search run: *why* is the makespan what it is?
//
// Reads a span trace (nas_cli --trace-out spans.json) and/or a candidate
// trace CSV (nas_cli --out trace.csv), reconstructs the virtual-timeline
// dispatch DAG, and reports:
//   - per-phase worker-second shares (train / transfer / ckpt / stall /
//     fault / idle) — the live-run form of the paper's Fig. 10/11,
//   - the critical path (binding predecessor chain ending at the last
//     evaluation) with its scheduler-wait gaps,
//   - the top-k blocking evaluations on that path,
//   - what-if speedup estimates (zero-cost checkpointing, free transfer,
//     no faults, perfect scheduling) — lower bounds by construction.
//
//   $ ./nas_cli --app mnist --mode lcs --evals 80 --out trace.csv
//               --trace-out spans.json
//   $ ./critical_path spans.json trace.csv   # one report per file
//   $ ./critical_path trace.csv --json       # machine-readable report
//
// Both files of one run give the same report: the spans carry the values
// the CSV rows and crash lines convert to (exp/analysis.hpp).  Without a
// file the example runs a small LCS search itself.  The process exits
// non-zero unless every report has a non-empty path whose phase shares sum
// to 100% +- 1%, in text and --json mode alike; CI gates on it.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/analysis.hpp"
#include "exp/apps.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/trace_io.hpp"
#include "obs/prof/critical_path.hpp"
#include "obs/span_tracer.hpp"

namespace {

using namespace swt;

prof::CriticalPathInput load_input(const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    return prof::critical_path_input_from_events(read_trace_json(in));
  }
  return critical_path_input(read_trace_csv(path));
}

}  // namespace

int main(int argc, char** argv) try {
  bool json_out = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") json_out = true;
    else paths.push_back(arg);
  }

  std::vector<std::pair<std::string, prof::CriticalPathReport>> reports;
  if (paths.empty()) {
    std::cout << "No trace given; running an 80-candidate LCS search on MNIST...\n";
    const AppConfig app = make_app(AppId::kMnist, 23);
    NasRunConfig cfg;
    cfg.mode = TransferMode::kLCS;
    cfg.n_evals = 80;
    cfg.seed = 23;
    cfg.cluster.num_workers = 8;
    const NasRun run = run_nas(app, cfg);
    reports.emplace_back("in-memory run",
                         prof::analyze_critical_path(critical_path_input(run.trace)));
  } else {
    for (const std::string& path : paths)
      reports.emplace_back(path, prof::analyze_critical_path(load_input(path)));
  }

  // Machine mode emits only the JSON report(s), one per line.
  bool all_ok = true;
  for (const auto& [label, report] : reports) {
    if (json_out) std::cout << prof::critical_path_json(report) << "\n";
    else print_critical_path(std::cout, label, report);
    all_ok = all_ok && prof::passes_share_gate(report);
  }
  return all_ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
