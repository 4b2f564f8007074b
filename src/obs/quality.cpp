#include "obs/quality.hpp"

#include <cmath>

#include "obs/metrics.hpp"

namespace swt {

void IncrementalKendall::add(double x, double y) {
  if (max_points_ != 0 && points_.size() >= max_points_) return;
  for (const auto& [px, py] : points_) {
    const double dx = x - px;
    const double dy = y - py;
    if (dx == 0.0 || dy == 0.0) continue;  // ties count for neither
    if ((dx > 0.0) == (dy > 0.0))
      ++concordant_;
    else
      ++discordant_;
  }
  points_.emplace_back(x, y);
}

double IncrementalKendall::tau() const noexcept {
  const auto n = static_cast<long long>(points_.size());
  if (n < 2) return 0.0;
  const auto pairs = n * (n - 1) / 2;
  return static_cast<double>(concordant_ - discordant_) / static_cast<double>(pairs);
}

bool QualityTelemetry::observe(const QualityObservation& obs) {
  ++evals_;
  if (obs.transferred) ++transfer_hits_;
  if (obs.transfer_fallback) ++transfer_fallbacks_;

  // Lineage depth: 1 from scratch, 1 + depth(parent) when weights actually
  // moved, an unseen parent (a warm-start seed) counting as 1 — the rule of
  // the post-hoc lineage_depths in exp/analysis.
  int depth = 1;
  if (obs.transferred) {
    const auto it = depth_by_id_.find(obs.parent_id);
    depth = (it != depth_by_id_.end() ? it->second : 1) + 1;
  }
  depth_by_id_.emplace(obs.eval_id, depth);
  ++lineage_hist_[depth];
  depth_sum_ += depth;
  max_depth_ = std::max(max_depth_, depth);

  window_.push_back(obs.score);
  if (window_.size() > kDispersionWindow) window_.pop_front();

  kendall_.add(obs.first_epoch_score, obs.score);

  const bool improved = !has_best_ || obs.score > best_score_;
  if (improved) {
    has_best_ = true;
    best_score_ = obs.score;
  }
  publish_gauges();
  if (metrics_enabled())
    metrics().histogram("quality.lineage_depth", {1, 2, 3, 5, 8, 13, 21, 34})
        .observe(static_cast<double>(depth));
  return improved;
}

double QualityTelemetry::transfer_hit_rate() const noexcept {
  return evals_ == 0 ? 0.0 : static_cast<double>(transfer_hits_) / static_cast<double>(evals_);
}

double QualityTelemetry::transfer_fallback_rate() const noexcept {
  return evals_ == 0 ? 0.0
                     : static_cast<double>(transfer_fallbacks_) / static_cast<double>(evals_);
}

double QualityTelemetry::mean_lineage_depth() const noexcept {
  return evals_ == 0 ? 0.0 : static_cast<double>(depth_sum_) / static_cast<double>(evals_);
}

double QualityTelemetry::score_dispersion() const noexcept {
  const std::size_t n = window_.size();
  if (n < 2) return 0.0;
  double mean = 0.0;
  for (const double s : window_) mean += s;
  mean /= static_cast<double>(n);
  double m2 = 0.0;
  for (const double s : window_) m2 += (s - mean) * (s - mean);
  return std::sqrt(m2 / static_cast<double>(n - 1));
}

void QualityTelemetry::publish_gauges() const {
  if (!metrics_enabled()) return;
  MetricsRegistry& m = metrics();
  m.gauge("quality.best_score").set(best_score_);
  m.gauge("quality.transfer_hit_rate").set(transfer_hit_rate());
  m.gauge("quality.transfer_fallback_rate").set(transfer_fallback_rate());
  m.gauge("quality.mean_lineage_depth").set(mean_lineage_depth());
  m.gauge("quality.score_dispersion").set(score_dispersion());
  m.gauge("quality.kendall_tau_early_final").set(kendall_.tau());
}

}  // namespace swt
