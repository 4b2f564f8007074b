// Trace persistence: CSV export/import of NAS traces.
//
// DeepHyper persists its search history as CSV results files that downstream
// analysis notebooks consume; these helpers play the same role — every bench
// can dump its traces for offline plotting, and the pair/τ studies and the
// critical path can be recomputed from a stored trace without rerunning the
// search.
//
// Format: a "# swtnas trace" preamble with the failure counters, the
// 25-column header, one row per record, then one "# crash,..." line per
// crashed attempt (none on a fault-free run).  The run journal frames each
// booked attempt with the same row codec.
#pragma once

#include <iosfwd>
#include <string>

#include "cluster/virtual_cluster.hpp"

namespace swt {

/// One record as its trace.csv row, without the newline: every EvalRecord
/// field, doubles at 17 significant digits so that parse_trace_row gives
/// each one back bit for bit.
[[nodiscard]] std::string trace_row(const EvalRecord& r);
/// Parse one row written by trace_row.  Throws std::runtime_error naming the
/// column on any other input.
[[nodiscard]] EvalRecord parse_trace_row(const std::string& row);

/// Write the preamble, the header, one row per record (completion order)
/// and the crash lines.
void write_trace_csv(std::ostream& os, const Trace& trace);
void write_trace_csv(const std::string& path, const Trace& trace);

/// Parse a trace written by write_trace_csv: every EvalRecord field, the
/// crash lines and the preamble counters (the crash count is the number of
/// crash lines).  Throws std::runtime_error, with line and column, on any
/// other input.
[[nodiscard]] Trace read_trace_csv(std::istream& is);
[[nodiscard]] Trace read_trace_csv(const std::string& path);

}  // namespace swt
