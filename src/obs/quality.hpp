// Online search-quality telemetry, updated incrementally inside run_search.
//
// Underwood et al. (PAPERS.md) argue that the evolution dynamics of a NAS
// population — lineage depth, weight reuse, score drift — are themselves
// the signal worth monitoring.  This module maintains those statistics
// *while the search runs* and publishes them as gauges/histograms in the
// process MetricsRegistry, so a live run exposes:
//
//   quality.best_score              rolling best estimation score
//   quality.transfer_hit_rate       fraction of evals that reused weights
//   quality.transfer_fallback_rate  fraction degraded to random init
//   quality.mean_lineage_depth      mean provider-chain depth (+ histogram
//   quality.lineage_depth           of per-eval depths)
//   quality.score_dispersion        stddev of the last-N completed scores
//   quality.kendall_tau_early_final incremental Kendall's tau between each
//                                   candidate's first-epoch and final
//                                   estimation score (the paper's Fig. 9
//                                   estimation-quality metric, live)
//
// The layer sits below everything else, so it speaks plain values rather
// than EvalRecord; run_search forwards the fields it needs.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

namespace swt {

/// Incrementally maintained Kendall's tau-a over a growing set of (x, y)
/// pairs: add() compares the new pair against every stored one (O(n)), so a
/// live tau after n points costs the same total work as one batch
/// computation, amortised across the run.  Ties contribute to neither count,
/// matching swt::kendall_tau in common/stats.
class IncrementalKendall {
 public:
  /// Points beyond `max_points` are ignored (keeps the per-eval update cost
  /// bounded on very long searches); 0 = unbounded.
  explicit IncrementalKendall(std::size_t max_points = 4096) : max_points_(max_points) {}

  void add(double x, double y);

  /// Tau over the points seen so far; 0.0 with fewer than two points
  /// (batch kendall_tau throws instead — online code wants a total value).
  [[nodiscard]] double tau() const noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return points_.size(); }

 private:
  std::size_t max_points_;
  std::vector<std::pair<double, double>> points_;
  long long concordant_ = 0;
  long long discordant_ = 0;
};

/// One completed evaluation, as the quality layer sees it.
struct QualityObservation {
  long eval_id = -1;
  long parent_id = -1;
  bool transferred = false;        ///< weights actually copied from a provider
  bool transfer_fallback = false;  ///< provider wanted but unreadable
  double first_epoch_score = 0.0;  ///< validation objective after epoch 1
  double score = 0.0;              ///< final estimation score
};

class QualityTelemetry {
 public:
  /// Window (completed evals) for the population score-dispersion gauge,
  /// roughly one evolution population.
  static constexpr std::size_t kDispersionWindow = 32;
  /// Points the early-vs-final Kendall tau keeps.
  static constexpr std::size_t kKendallMaxPoints = 4096;

  /// Fold one completed evaluation in and refresh the quality.* gauges.
  /// Returns true when this evaluation improved the rolling best score
  /// (the caller emits best_score_improved with its timeline context).
  bool observe(const QualityObservation& obs);

  [[nodiscard]] std::size_t evals_seen() const noexcept { return evals_; }
  [[nodiscard]] double best_score() const noexcept { return best_score_; }
  [[nodiscard]] double transfer_hit_rate() const noexcept;
  [[nodiscard]] double transfer_fallback_rate() const noexcept;
  [[nodiscard]] double mean_lineage_depth() const noexcept;
  [[nodiscard]] int max_lineage_depth() const noexcept { return max_depth_; }
  [[nodiscard]] double score_dispersion() const noexcept;
  [[nodiscard]] double early_final_tau() const noexcept { return kendall_.tau(); }
  /// Lineage-depth histogram (depth -> evaluation count).
  [[nodiscard]] const std::map<int, long>& lineage_histogram() const noexcept {
    return lineage_hist_;
  }

 private:
  void publish_gauges() const;

  std::size_t evals_ = 0;
  std::size_t transfer_hits_ = 0;
  std::size_t transfer_fallbacks_ = 0;
  bool has_best_ = false;
  double best_score_ = 0.0;
  std::unordered_map<long, int> depth_by_id_;
  std::map<int, long> lineage_hist_;
  long depth_sum_ = 0;
  int max_depth_ = 0;
  std::deque<double> window_;
  IncrementalKendall kendall_{kKendallMaxPoints};
};

}  // namespace swt
