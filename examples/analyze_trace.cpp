// Offline trace analysis: read a CSV trace produced by nas_cli (or any
// bench) and explain the weight-transfer dynamics — lineage depths,
// parent-child score deltas, per-depth score means and checkpoint traffic.
// JSON inputs are the observability layer's files instead: a span trace
// (--trace-out) prints the critical_path example's report (phase shares,
// critical path, what-ifs), a metrics snapshot (--metrics-out) prints its
// counters and histogram aggregates.  Collapsed CPU profiles (--profile-out
// or GET /profile) print their top-10 hottest stacks.
//
//   $ ./nas_cli --app cifar --mode lcs --evals 100 --out trace.csv
//               --trace-out spans.json --metrics-out metrics.json
//               --profile-out prof.collapsed
//   $ ./analyze_trace trace.csv
//   $ ./analyze_trace spans.json
//   $ ./analyze_trace metrics.json
//   $ ./analyze_trace prof.collapsed
//
// Without an argument the example runs a small NAS itself and analyses it.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/stats.hpp"
#include "exp/analysis.hpp"
#include "exp/apps.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/trace_io.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/critical_path.hpp"
#include "obs/prof/sampler.hpp"
#include "obs/series.hpp"
#include "obs/span_tracer.hpp"

namespace {

using namespace swt;

/// Collapsed CPU profile (nas_cli --profile-out / GET /profile): the top-10
/// hottest stacks by sample count, leaf frame first — "where did the wall
/// clock actually go?" at a glance, without leaving the terminal.
void analyze_collapsed(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  const prof::SymbolizedProfile prof = prof::parse_collapsed(in);
  if (prof.stacks.empty()) {
    std::cout << "No samples in " << path << ".\n";
    return;
  }
  std::uint64_t total = 0;
  for (const auto& [frames, count] : prof.stacks) total += count;

  print_banner(std::cout, "top-10 hottest stacks (" + std::to_string(total) +
                              " samples)");
  std::vector<std::pair<std::vector<std::string>, std::uint64_t>> stacks = prof.stacks;
  std::stable_sort(stacks.begin(), stacks.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  if (stacks.size() > 10) stacks.resize(10);
  const auto shorten = [](std::string s) {
    // Strip template/argument noise so the table stays one line per stack.
    const auto paren = s.find('(');
    if (paren != std::string::npos) s.resize(paren);
    const auto angle = s.find('<');
    if (angle != std::string::npos) s.resize(angle);
    if (s.size() > 56) s = s.substr(0, 53) + "...";
    return s;
  };
  TableReport table({"samples", "share", "depth", "leaf frame"});
  for (const auto& [frames, count] : stacks)
    table.add_row({std::to_string(count),
                   TableReport::cell_pct(static_cast<double>(count) /
                                         static_cast<double>(total)),
                   std::to_string(frames.size()),
                   frames.empty() ? "?" : shorten(frames.back())});
  table.print(std::cout);
  std::cout << "\nReading: kernel frames (swt::kernels::*) dominating is healthy —\n"
               "the simulator is compute-bound; allocator or checkpoint frames at\n"
               "the top are the optimization targets.  Feed the same file to\n"
               "flamegraph.pl or speedscope.app for the interactive view.\n";
}

void analyze_metrics_json(const JsonValue& doc) {
  MetricsSnapshot snap;
  for (const auto& [name, v] : doc.at("counters").object)
    snap.counters[name] = static_cast<std::int64_t>(v.number);
  for (const auto& [name, v] : doc.at("gauges").object) snap.gauges[name] = v.number;
  for (const auto& [name, v] : doc.at("histograms").object) {
    HistogramSnapshot h;
    h.count = static_cast<std::uint64_t>(v.number_or("count", 0.0));
    h.sum = v.number_or("sum", 0.0);
    h.min = v.number_or("min", 0.0);
    h.max = v.number_or("max", 0.0);
    h.p50 = v.number_or("p50", 0.0);
    h.p90 = v.number_or("p90", 0.0);
    h.p99 = v.number_or("p99", 0.0);
    snap.histograms[name] = std::move(h);
  }
  print_metrics_snapshot(std::cout, snap);
}

/// Unicode sparkline of `pts`, downsampled to `width` buckets (mean per
/// bucket).  Flat series render as a mid-level bar, not noise.
std::string sparkline(const std::vector<SeriesPoint>& pts, std::size_t width = 48) {
  static const char* kBars[] = {"▁", "▂", "▃", "▄",
                                "▅", "▆", "▇", "█"};
  if (pts.empty()) return "";
  double lo = pts.front().value, hi = pts.front().value;
  for (const SeriesPoint& p : pts) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  const std::size_t buckets = std::min(width, pts.size());
  std::string out;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t begin = b * pts.size() / buckets;
    const std::size_t end = std::max(begin + 1, (b + 1) * pts.size() / buckets);
    double mean = 0.0;
    for (std::size_t i = begin; i < end; ++i) mean += pts[i].value;
    mean /= static_cast<double>(end - begin);
    const int level =
        hi > lo ? std::clamp(static_cast<int>((mean - lo) / (hi - lo) * 7.999), 0, 7)
                : 3;
    out += kBars[level];
  }
  return out;
}

/// Live-telemetry series CSV (nas_cli --series-out / GET /series?format=csv):
/// one sparkline row per series over wall time, with best-score progress
/// called out first — the "did the search keep improving while it burned
/// wall-clock?" question the time-series plane exists to answer.
void analyze_series_csv(const std::string& path) {
  TimeSeriesStore store;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  read_series_csv(in, store);
  const auto names = store.names();
  if (names.empty()) {
    std::cout << "No series in " << path << ".\n";
    return;
  }

  const std::vector<SeriesPoint> best = store.points("quality.best_score");
  if (!best.empty()) {
    print_banner(std::cout, "best score over wall time");
    std::cout << "  " << sparkline(best) << "\n  "
              << TableReport::cell(best.front().value) << " @ "
              << TableReport::cell(best.front().wall_s, 1) << "s  ->  "
              << TableReport::cell(best.back().value) << " @ "
              << TableReport::cell(best.back().wall_s, 1) << "s wall ("
              << best.size() << " samples)\n";
  }

  print_banner(std::cout, "sampled series");
  TableReport table({"series", "n", "first", "last", "trend"});
  for (const std::string& name : names) {
    const auto pts = store.points(name);
    if (pts.empty()) continue;
    table.add_row({name, std::to_string(pts.size()),
                   TableReport::cell(pts.front().value),
                   TableReport::cell(pts.back().value), sparkline(pts, 32)});
  }
  table.print(std::cout);
  std::cout << "\nReading: best_score should climb early and plateau; a flat\n"
               "evals_completed_total alongside advancing wall time is the stall\n"
               "signature the health watchdog turns into a 503.\n";
}

/// Dispatch a .json input on its content: span traces carry "traceEvents",
/// metrics snapshots carry "counters".
void analyze_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = parse_json(buffer.str());
  if (doc.contains("traceEvents")) {
    std::vector<TraceEvent> events;
    {
      std::istringstream replay(buffer.str());
      events = read_trace_json(replay);
    }
    std::cout << "Loaded " << events.size() << " trace events from " << path << "\n";
    print_critical_path(
        std::cout, path,
        prof::analyze_critical_path(prof::critical_path_input_from_events(events)));
  } else if (doc.contains("counters")) {
    std::cout << "Loaded metrics snapshot from " << path << "\n";
    analyze_metrics_json(doc);
  } else {
    throw std::runtime_error(path + ": neither a span trace nor a metrics snapshot");
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace swt;

  Trace trace;
  if (argc > 1) {
    const std::string path = argv[1];
    if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
      analyze_json(path);
      return 0;
    }
    // Non-JSON dispatch by content: the telemetry sampler's series files
    // start with "series,wall_s,...", candidate traces with "id,..." (after
    // a '#' summary line), collapsed CPU profiles with the "# swtnas cpu
    // profile" header (or, for external files, a ".collapsed" suffix).
    {
      std::ifstream sniff(path);
      std::string header;
      const bool have_header = sniff && !!std::getline(sniff, header);
      if (have_header && header.rfind("series,", 0) == 0) {
        analyze_series_csv(path);
        return 0;
      }
      const bool collapsed_ext =
          path.size() >= 10 && path.compare(path.size() - 10, 10, ".collapsed") == 0;
      if (collapsed_ext ||
          (have_header && header.rfind("# swtnas cpu profile", 0) == 0)) {
        analyze_collapsed(path);
        return 0;
      }
    }
    trace = read_trace_csv(path);
    std::cout << "Loaded " << trace.records.size() << " records from " << argv[1] << "\n";
  } else {
    std::cout << "No trace given; running a 60-candidate LCS search on CIFAR...\n";
    const AppConfig app = make_app(AppId::kCifar, 17);
    NasRunConfig cfg;
    cfg.mode = TransferMode::kLCS;
    cfg.n_evals = 60;
    cfg.seed = 17;
    cfg.cluster.num_workers = 8;
    trace = run_nas(app, cfg).trace;
  }

  const LineageSummary lineage = summarize_lineage(trace);
  print_banner(std::cout, "lineage (accumulated training across transfer chains)");
  std::cout << "mean lineage depth : " << TableReport::cell(lineage.mean_depth, 2) << "\n"
            << "max lineage depth  : " << lineage.max_depth << "\n"
            << "transfer fraction  : " << TableReport::cell_pct(lineage.transfer_fraction)
            << " of evaluations inherited weights\n";

  print_banner(std::cout, "mean score by lineage depth");
  TableReport depth_table({"depth (effective epochs)", "candidates", "mean score"});
  const auto depths = lineage_depths(trace);
  std::map<int, RunningStats> buckets;
  for (const auto& r : trace.records) buckets[depths.at(r.id)].add(r.score);
  for (const auto& [d, stats] : buckets)
    depth_table.add_row({std::to_string(d), std::to_string(stats.count()),
                         TableReport::cell(stats.mean())});
  depth_table.print(std::cout);

  const ParentChildStats pc = parent_child_stats(trace);
  print_banner(std::cout, "parent -> child transfer outcomes");
  std::cout << "transferred children       : " << pc.pairs << "\n"
            << "child beat its provider    : " << TableReport::cell_pct(pc.improved_fraction())
            << "\n"
            << "mean score delta (child-p) : " << TableReport::cell(pc.mean_delta) << "\n";

  double read_cost = 0.0, write_cost = 0.0;
  std::size_t bytes = 0;
  for (const auto& r : trace.records) {
    read_cost += r.ckpt_read_cost + r.ckpt_read_wait;
    write_cost += r.ckpt_write_charged;
    bytes += r.ckpt_bytes;
  }
  print_banner(std::cout, "checkpoint traffic");
  std::cout << "bytes written        : " << bytes / 1024 << " KiB\n"
            << "worker read cost     : " << TableReport::cell(read_cost, 2) << " virtual s\n"
            << "worker write cost    : " << TableReport::cell(write_cost, 2) << " virtual s\n"
            << "makespan             : " << TableReport::cell(trace.makespan, 2)
            << " virtual s on " << trace.num_workers << " workers\n";
  std::cout << "\nReading: rising score-by-depth means confirm the paper's Section III\n"
               "mechanism — transferred children effectively resume their lineage's\n"
               "training, so deeper lineages behave like longer-trained models.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
