// Fixed-width table formatting for the bench binaries' paper-style output.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/virtual_cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/critical_path.hpp"

namespace swt {

/// Accumulates rows of string cells and prints an aligned ASCII table.
class TableReport {
 public:
  explicit TableReport(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// e.g. report.cell(0.8234, 3) -> "0.823"
  [[nodiscard]] static std::string cell(double v, int precision = 3);
  [[nodiscard]] static std::string cell_pct(double v, int precision = 1);
  [[nodiscard]] static std::string cell_pm(double mean, double sd, int precision = 3);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Section banner used by every bench binary, e.g.
/// "=== Fig. 8: full-training speedup (paper: LCS 1.5x, LP 1.4x) ===".
void print_banner(std::ostream& os, const std::string& title);

/// Process-wide capture of the banners/tables a binary prints, so bench
/// binaries can additionally persist their results machine-readably
/// (BENCH_<name>.json) without reshaping every experiment loop: enable the
/// capture, print as usual, then serialize `tables()`.  Off by default and
/// deliberately not thread-safe — reporting is a main-thread affair.
class ReportCapture {
 public:
  struct Table {
    std::string section;  ///< most recent print_banner title ("" before any)
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
  };

  static ReportCapture& global();

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void begin_section(std::string title);
  void add_table(const std::vector<std::string>& header,
                 const std::vector<std::vector<std::string>>& rows);

  [[nodiscard]] const std::vector<Table>& tables() const noexcept { return tables_; }
  void clear();

 private:
  bool enabled_ = false;
  std::string section_;
  std::vector<Table> tables_;
};

/// Print a trace's failure accounting (crashes, resubmissions, lost work,
/// I/O retries, random-init fallbacks).  Prints a single "no faults" line
/// when the run was clean.
void print_failure_summary(std::ostream& os, const Trace& trace);

/// Print a critical-path report: phase shares with the share-sum gate's
/// verdict, the path's blocking evaluations and the what-if table.
void print_critical_path(std::ostream& os, const std::string& label,
                         const prof::CriticalPathReport& r);

/// Print a metrics snapshot as two tables: counters/gauges, then histogram
/// aggregates (count, mean, p50/p90/p99, max).  Prints nothing for an empty
/// snapshot, so uninstrumented runs stay quiet.
void print_metrics_snapshot(std::ostream& os, const MetricsSnapshot& snap);

}  // namespace swt
