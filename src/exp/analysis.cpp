#include "exp/analysis.hpp"

#include <algorithm>

#include "common/stats.hpp"

namespace swt {

std::map<long, int> lineage_depths(const Trace& trace) {
  std::map<long, int> depth;
  // Records are in completion order, so a parent in the trace is always
  // processed before any child that transferred from it.
  for (const auto& r : trace.records) {
    int d = 1;
    if (r.tensors_transferred > 0) {
      const auto it = depth.find(r.parent_id);
      d = (it != depth.end() ? it->second : 1) + 1;
    }
    depth.emplace(r.id, d);
  }
  return depth;
}

LineageSummary summarize_lineage(const Trace& trace) {
  LineageSummary s;
  if (trace.records.empty()) return s;
  const auto depth = lineage_depths(trace);
  double sum = 0.0;
  int transferred = 0;
  for (const auto& r : trace.records) {
    const int d = depth.at(r.id);
    sum += d;
    s.max_depth = std::max(s.max_depth, d);
    transferred += r.tensors_transferred > 0;
  }
  s.mean_depth = sum / static_cast<double>(trace.records.size());
  s.transfer_fraction =
      static_cast<double>(transferred) / static_cast<double>(trace.records.size());
  return s;
}

ParentChildStats parent_child_stats(const Trace& trace) {
  ParentChildStats s;
  std::map<long, double> score_by_id;
  for (const auto& r : trace.records) score_by_id[r.id] = r.score;
  double delta_sum = 0.0;
  for (const auto& r : trace.records) {
    if (r.tensors_transferred == 0 || r.parent_id < 0) continue;
    const auto it = score_by_id.find(r.parent_id);
    if (it == score_by_id.end()) continue;
    ++s.pairs;
    const double delta = r.score - it->second;
    delta_sum += delta;
    if (delta > 0) ++s.child_improved;
  }
  if (s.pairs > 0) s.mean_delta = delta_sum / s.pairs;
  return s;
}

std::map<int, double> mean_score_by_depth(const Trace& trace) {
  const auto depth = lineage_depths(trace);
  std::map<int, RunningStats> buckets;
  for (const auto& r : trace.records) buckets[depth.at(r.id)].add(r.score);
  std::map<int, double> out;
  for (const auto& [d, stats] : buckets) out[d] = stats.mean();
  return out;
}

prof::CriticalPathInput critical_path_input(const Trace& trace) {
  prof::CriticalPathInput in;
  in.workers = trace.num_workers;
  in.evals.reserve(trace.records.size());
  for (const EvalRecord& r : trace.records) in.evals.push_back(eval_span(r));
  for (const CrashRecord& c : trace.crashes) {
    in.faults.push_back({c.worker, c.start, c.crash_at});
    in.faults.push_back({c.worker, c.crash_at, c.recovered_at});
  }
  return in;
}

}  // namespace swt
