#include "exp/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace swt {

TableReport::TableReport(std::vector<std::string> header) : header_(std::move(header)) {}

void TableReport::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string TableReport::cell(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TableReport::cell_pct(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v * 100.0 << "%";
  return os.str();
}

std::string TableReport::cell_pm(double mean, double sd, int precision) {
  return cell(mean, precision) + " +- " + cell(sd, precision);
}

void TableReport::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  const auto print_row = [&](const std::vector<std::string>& row) {
    os << "| ";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& v = c < row.size() ? row[c] : std::string{};
      os << std::left << std::setw(static_cast<int>(widths[c])) << v << " | ";
    }
    os << '\n';
  };
  print_row(header_);
  os << "|";
  for (std::size_t c = 0; c < widths.size(); ++c)
    os << std::string(widths[c] + 2, '-') << "|";
  os << '\n';
  for (const auto& row : rows_) print_row(row);
  ReportCapture::global().add_table(header_, rows_);
}

void print_banner(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n";
  ReportCapture::global().begin_section(title);
}

ReportCapture& ReportCapture::global() {
  static ReportCapture capture;
  return capture;
}

void ReportCapture::begin_section(std::string title) {
  if (!enabled_) return;
  section_ = std::move(title);
}

void ReportCapture::add_table(const std::vector<std::string>& header,
                              const std::vector<std::vector<std::string>>& rows) {
  if (!enabled_) return;
  tables_.push_back({section_, header, rows});
}

void ReportCapture::clear() {
  section_.clear();
  tables_.clear();
}

void print_failure_summary(std::ostream& os, const Trace& trace) {
  const bool clean = trace.crashes.empty() && trace.lost_evaluations == 0 &&
                     trace.retry_seconds == 0.0 && trace.transfer_fallbacks == 0;
  if (clean) {
    os << "faults              : none (clean run)\n";
    return;
  }
  os << "crashed attempts    : " << trace.crashes.size() << " ("
     << trace.resubmissions << " resubmitted, " << trace.lost_evaluations
     << " lost after max attempts)\n"
     << "lost train time     : " << TableReport::cell(trace.lost_train_seconds, 2)
     << " virtual s\n"
     << "ckpt retry time     : " << TableReport::cell(trace.retry_seconds, 2)
     << " virtual s\n"
     << "random-init fallback: " << trace.transfer_fallbacks << " of "
     << trace.records.size() << " evaluations\n";
}

void print_critical_path(std::ostream& os, const std::string& label,
                         const prof::CriticalPathReport& r) {
  print_banner(os, "critical path: " + label);
  if (r.path.empty()) {
    os << "no completed evaluations found.\n";
    return;
  }
  os << r.workers << " workers, " << TableReport::cell(r.makespan - r.t0, 2)
     << " virtual s makespan, " << TableReport::cell(r.worker_seconds, 2)
     << " worker-seconds\n\n";

  TableReport phases({"phase", "worker s", "share"});
  for (const char* phase :
       {"train", "transfer", "checkpoint", "checkpoint stall", "fault", "idle"}) {
    const auto it = r.phase_seconds.find(phase);
    if (it == r.phase_seconds.end() || it->second <= 0.0) continue;
    phases.add_row({phase, TableReport::cell(it->second, 2),
                    TableReport::cell_pct(it->second / r.worker_seconds)});
  }
  phases.print(os);
  os << "share sum: " << TableReport::cell(r.share_sum * 100.0, 2) << "% ("
     << (prof::passes_share_gate(r) ? "PASS" : "FAIL") << ": must be 100% +- 1%)\n";

  os << "\ncritical path: " << r.path.size() << " nodes, "
     << TableReport::cell(r.path_seconds, 2) << " s end-to-end, "
     << TableReport::cell(r.path_wait_seconds, 2)
     << " s of scheduler wait between nodes\n";
  TableReport blocking({"blocking eval", "busy s", "share of path"});
  for (const auto& [id, busy] : r.top_blocking)
    blocking.add_row({std::to_string(id), TableReport::cell(busy, 2),
                      TableReport::cell_pct(r.path_seconds > 0.0 ? busy / r.path_seconds
                                                                 : 0.0)});
  blocking.print(os);

  os << '\n';
  TableReport what_if({"what-if", "removes", "est. makespan", "est. speedup"});
  for (const prof::WhatIf& w : r.what_ifs)
    what_if.add_row({w.name, TableReport::cell(w.removed_seconds, 2) + " s",
                     TableReport::cell(w.est_makespan, 2) + " s",
                     TableReport::cell(w.est_speedup, 3) + "x"});
  what_if.print(os);
  os << "\nReading: \"bound_by parent\" hops mean transfer lineage gates the\n"
        "schedule (the paper's selective-transfer cost); a large\n"
        "zero_cost_checkpointing speedup reproduces the Fig. 10/11 claim\n"
        "that checkpoint I/O, not training, limits scaling.  Estimates are\n"
        "lower bounds: removing a cost never re-orders the schedule here.\n";
}

void print_metrics_snapshot(std::ostream& os, const MetricsSnapshot& snap) {
  if (snap.empty()) return;
  print_banner(os, "metrics snapshot");
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    TableReport scalars({"metric", "kind", "value"});
    for (const auto& [name, v] : snap.counters)
      scalars.add_row({name, "counter", std::to_string(v)});
    for (const auto& [name, v] : snap.gauges)
      scalars.add_row({name, "gauge", TableReport::cell(v, 3)});
    scalars.print(os);
  }
  if (!snap.histograms.empty()) {
    os << '\n';
    TableReport hist({"histogram", "count", "mean", "p50", "p90", "p99", "max"});
    for (const auto& [name, h] : snap.histograms) {
      const double mean = h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count);
      hist.add_row({name, std::to_string(h.count), TableReport::cell(mean, 6),
                    TableReport::cell(h.p50, 6), TableReport::cell(h.p90, 6),
                    TableReport::cell(h.p99, 6), TableReport::cell(h.max, 6)});
    }
    hist.print(os);
  }
}

}  // namespace swt
