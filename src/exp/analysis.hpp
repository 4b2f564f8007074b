// Trace analyses that explain *why* weight transfer works.
//
// Section III's argument: a child initialised from its parent's weights
// effectively resumes the lineage's training, so candidates accumulate
// training across generations.  These helpers quantify that on a trace:
// lineage depth (accumulated estimation epochs along the transfer chain),
// parent-child score deltas, and per-generation positive-transfer rates.
#pragma once

#include <map>
#include <vector>

#include "cluster/virtual_cluster.hpp"
#include "obs/prof/critical_path.hpp"

namespace swt {

/// Effective training depth of each record: 1 for models trained from
/// scratch; 1 + depth(parent) when weights were actually transferred
/// (tensors_transferred > 0), where a provider outside the trace (a
/// warm-start seed) counts as depth 1.  QualityTelemetry applies the same
/// rule live.  Keyed by evaluation id.
[[nodiscard]] std::map<long, int> lineage_depths(const Trace& trace);

struct LineageSummary {
  double mean_depth = 0.0;
  int max_depth = 0;
  /// Fraction of evaluations that inherited weights from a provider.
  double transfer_fraction = 0.0;
};

[[nodiscard]] LineageSummary summarize_lineage(const Trace& trace);

struct ParentChildStats {
  int pairs = 0;             ///< children with a known evaluated parent
  int child_improved = 0;    ///< child score > parent score
  double mean_delta = 0.0;   ///< mean(child - parent)

  [[nodiscard]] double improved_fraction() const noexcept {
    return pairs ? static_cast<double>(child_improved) / pairs : 0.0;
  }
};

/// Score deltas between each transferred child and its provider.
[[nodiscard]] ParentChildStats parent_child_stats(const Trace& trace);

/// Mean score of records bucketed by lineage depth (depth -> mean score);
/// rising means confirm the accumulated-training explanation.
[[nodiscard]] std::map<int, double> mean_score_by_depth(const Trace& trace);

/// Critical-path input rebuilt from a trace (CSV or in-memory).  Each
/// record's phases come from eval_phases, the split the virtual cluster's
/// span emission uses; per-fault intervals are not recorded in the CSV
/// schema, so the faults list is empty here — read a span trace instead
/// when fault attribution matters.
[[nodiscard]] prof::CriticalPathInput critical_path_input(const Trace& trace);

}  // namespace swt
