// Virtual-timeline critical-path analysis.
//
// The virtual cluster's schedule is a dispatch DAG: every evaluation is
// bound either by the previous item on its worker (the worker was busy) or
// by its provider parent (the transfer source had to finish and drain its
// checkpoint first).  Walking binding predecessors backwards from the last
// evaluation yields the critical path; summing each phase along it says
// *why* the makespan is what it is (the explanatory form of the paper's
// Fig. 10/11 time shares) and what an optimisation could buy (what-if
// estimates are lower bounds: removing a cost can re-shape the schedule,
// never lengthen it).
//
// Layering: this header is obs-only.  It consumes a neutral
// `CriticalPathInput`.  The cluster layer converts each trace record with
// `eval_span` (cluster/evaluator.hpp) and each crashed attempt into two
// fault blocks; `critical_path_input` (exp/analysis.hpp) maps a `Trace`,
// and `run_search` draws the same values with `emit_eval_span` /
// `emit_fault_span`, whose args `critical_path_input_from_events` decodes.
// A span trace and the trace CSV of one run therefore give one reading.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/span_tracer.hpp"

namespace swt::prof {

/// One completed evaluation with its per-phase decomposition (seconds):
/// stall + ckpt_read + transfer + train + ckpt_write + ckpt_retry ==
/// finish - start by construction.
struct EvalSpan {
  long id = -1;
  long parent_id = -1;  ///< provider whose weights it took; -1 = none
  int worker = -1;
  double start = 0.0;
  double finish = 0.0;
  double ready_at = 0.0;  ///< when children may read the checkpoint (>= finish)
  double stall = 0.0;     ///< waiting for the parent checkpoint drain
  double ckpt_read = 0.0;
  double transfer = 0.0;
  double train = 0.0;
  double ckpt_write = 0.0;
  double ckpt_retry = 0.0;
};

/// Worker-occupying fault time (crash work destroyed + recovery hole).
struct FaultSpan {
  int worker = -1;
  double start = 0.0;
  double finish = 0.0;
};

struct CriticalPathInput {
  std::vector<EvalSpan> evals;
  std::vector<FaultSpan> faults;
  int workers = 0;
};

/// One node on the critical path, in schedule order.
struct PathNode {
  long id = -1;  ///< evaluation id, or -1 for a fault block
  int worker = -1;
  double start = 0.0;
  double finish = 0.0;
  double wait_before = 0.0;    ///< gap after the binding predecessor finished
  std::string bound_by;        ///< "worker" | "parent" | "origin"
  long pred_id = -1;
};

struct WhatIf {
  std::string name;
  double removed_seconds = 0.0;  ///< cost removed along the critical path
  double est_makespan = 0.0;     ///< lower-bound estimate
  double est_speedup = 1.0;
};

struct CriticalPathReport {
  int workers = 0;
  double t0 = 0.0;
  double makespan = 0.0;        ///< finish of the last evaluation
  double worker_seconds = 0.0;  ///< workers x observed window
  /// Keys: train / transfer / checkpoint / "checkpoint stall" / fault / idle.
  std::map<std::string, double> phase_seconds;
  double share_sum = 0.0;  ///< sum of phase shares; ~1.0 by construction

  std::vector<PathNode> path;  ///< origin -> last evaluation
  double path_seconds = 0.0;
  double path_wait_seconds = 0.0;
  /// Evaluation id -> busy seconds on the path, largest first.
  std::vector<std::pair<long, double>> top_blocking;
  std::vector<WhatIf> what_ifs;
};

/// Draw `s` on worker track `s.worker` of the virtual timeline: one "eval"
/// span whose args carry every EvalSpan field (times in seconds, exact to
/// the bit) plus one child span per non-empty phase for Perfetto.
/// `display` args ride along for viewers; nothing reads them back.
void emit_eval_span(SpanTracer& tracer, const EvalSpan& s, std::string name,
                    std::vector<std::pair<std::string, std::string>> display);
/// Draw a fault block the same way, as one "fault" span.
void emit_fault_span(SpanTracer& tracer, const FaultSpan& f, std::string name,
                     std::vector<std::pair<std::string, std::string>> display = {});

/// Rebuild the input from a span trace (nas_cli --trace-out, the live
/// tracer) by decoding the args of the spans above.  Workers are the
/// virtual-timeline tracks.  Throws std::runtime_error on an eval or fault
/// span without them.
CriticalPathInput critical_path_input_from_events(const std::vector<TraceEvent>& events);

CriticalPathReport analyze_critical_path(const CriticalPathInput& in, int top_k = 5);

/// The acceptance gate: a non-empty path whose phase shares sum to
/// 100% +- 1%.
[[nodiscard]] bool passes_share_gate(const CriticalPathReport& r) noexcept;

/// Machine-readable form (GET /criticalpath, criticalpath.json artifacts).
std::string critical_path_json(const CriticalPathReport& r);

}  // namespace swt::prof
