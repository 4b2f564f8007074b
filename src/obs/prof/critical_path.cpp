#include "obs/prof/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/json.hpp"

namespace swt::prof {

namespace {

constexpr double kEps = 1e-9;
constexpr double kUsPerS = 1e6;

/// The number behind `key` in a span written by emit_eval_span or
/// emit_fault_span; json_number's %.17g makes it the emitted double exactly.
double number_arg(const TraceEvent& ev, const char* key) {
  for (const auto& [k, v] : ev.args) {
    if (k == key) return std::strtod(v.c_str(), nullptr);
  }
  throw std::runtime_error("critical path: " + ev.cat + " span \"" + ev.name +
                           "\" has no \"" + key + "\" arg");
}

/// A schedule item: either an evaluation (eval index >= 0) or a fault block.
struct Item {
  int worker = -1;
  double start = 0.0;
  double finish = 0.0;
  int eval_index = -1;   // into CriticalPathInput::evals
  int fault_index = -1;  // into CriticalPathInput::faults
};

}  // namespace

void emit_eval_span(SpanTracer& tracer, const EvalSpan& s, std::string name,
                    std::vector<std::pair<std::string, std::string>> display) {
  std::vector<std::pair<std::string, std::string>> args = {
      {"id", std::to_string(s.id)},
      {"parent_id", std::to_string(s.parent_id)},
      {"start_s", json_number(s.start)},
      {"finish_s", json_number(s.finish)},
      {"ready_at_s", json_number(s.ready_at)},
      {"stall_s", json_number(s.stall)},
      {"ckpt_read_s", json_number(s.ckpt_read)},
      {"transfer_s", json_number(s.transfer)},
      {"train_s", json_number(s.train)},
      {"ckpt_write_s", json_number(s.ckpt_write)},
      {"ckpt_retry_s", json_number(s.ckpt_retry)}};
  args.insert(args.end(), display.begin(), display.end());
  tracer.complete(std::move(name), "eval", kTraceVirtualPid, s.worker, s.start * kUsPerS,
                  (s.finish - s.start) * kUsPerS, std::move(args));
  double t = s.start;
  const auto child = [&](const char* child_name, const char* cat, double seconds) {
    if (seconds <= 0.0) return;
    tracer.complete(child_name, cat, kTraceVirtualPid, s.worker, t * kUsPerS,
                    seconds * kUsPerS);
    t += seconds;
  };
  child("ckpt stall", "idle", s.stall);
  child("ckpt read", "checkpoint", s.ckpt_read);
  child("transfer", "transfer", s.transfer);
  child("train", "train", s.train);
  child("ckpt write", "checkpoint", s.ckpt_write);
  child("ckpt retry", "checkpoint", s.ckpt_retry);
}

void emit_fault_span(SpanTracer& tracer, const FaultSpan& f, std::string name,
                     std::vector<std::pair<std::string, std::string>> display) {
  display.insert(display.begin(),
                 {{"start_s", json_number(f.start)}, {"finish_s", json_number(f.finish)}});
  tracer.complete(std::move(name), "fault", kTraceVirtualPid, f.worker, f.start * kUsPerS,
                  (f.finish - f.start) * kUsPerS, std::move(display));
}

CriticalPathInput critical_path_input_from_events(
    const std::vector<TraceEvent>& events) {
  CriticalPathInput in;
  std::set<int> workers;
  for (const TraceEvent& ev : events) {
    if (ev.pid != kTraceVirtualPid) continue;
    if (ev.ph == 'M' && ev.name == "thread_name") workers.insert(ev.tid);
    if (ev.ph != 'X') continue;
    workers.insert(ev.tid);
    if (ev.cat == "eval") {
      EvalSpan s;
      s.id = std::lround(number_arg(ev, "id"));
      s.parent_id = std::lround(number_arg(ev, "parent_id"));
      s.worker = ev.tid;
      s.start = number_arg(ev, "start_s");
      s.finish = number_arg(ev, "finish_s");
      s.ready_at = number_arg(ev, "ready_at_s");
      s.stall = number_arg(ev, "stall_s");
      s.ckpt_read = number_arg(ev, "ckpt_read_s");
      s.transfer = number_arg(ev, "transfer_s");
      s.train = number_arg(ev, "train_s");
      s.ckpt_write = number_arg(ev, "ckpt_write_s");
      s.ckpt_retry = number_arg(ev, "ckpt_retry_s");
      in.evals.push_back(s);
    } else if (ev.cat == "fault") {
      in.faults.push_back(
          {ev.tid, number_arg(ev, "start_s"), number_arg(ev, "finish_s")});
    }
  }
  in.workers = static_cast<int>(workers.size());
  return in;
}

CriticalPathReport analyze_critical_path(const CriticalPathInput& in, int top_k) {
  CriticalPathReport r;
  r.workers = in.workers > 0
                  ? in.workers
                  : [&] {
                      int w = 0;
                      for (const EvalSpan& e : in.evals) w = std::max(w, e.worker + 1);
                      return w;
                    }();
  if (in.evals.empty()) return r;

  // Observed window and phase totals.
  double t0 = in.evals.front().start, t_end = in.evals.front().finish;
  double busy = 0.0;
  for (const EvalSpan& e : in.evals) {
    t0 = std::min(t0, e.start);
    t_end = std::max(t_end, e.finish);
    r.makespan = std::max(r.makespan, e.finish);
    busy += e.finish - e.start;
    r.phase_seconds["train"] += e.train;
    r.phase_seconds["transfer"] += e.transfer;
    r.phase_seconds["checkpoint"] += e.ckpt_read + e.ckpt_write + e.ckpt_retry;
    r.phase_seconds["checkpoint stall"] += e.stall;
  }
  for (const FaultSpan& f : in.faults) {
    t0 = std::min(t0, f.start);
    t_end = std::max(t_end, f.finish);
    busy += f.finish - f.start;
    r.phase_seconds["fault"] += f.finish - f.start;
  }
  r.t0 = t0;
  r.worker_seconds = static_cast<double>(std::max(1, r.workers)) * (t_end - t0);
  r.phase_seconds["idle"] = std::max(0.0, r.worker_seconds - busy);
  // The envelope identity (phases sum to each eval's duration) makes the
  // shares sum to 1 up to clamping noise; report the actual sum so callers
  // can gate on it.
  double share_sum = 0.0;
  for (const auto& [_, seconds] : r.phase_seconds)
    share_sum += r.worker_seconds > 0.0 ? seconds / r.worker_seconds : 0.0;
  r.share_sum = share_sum;

  // Per-worker schedule, sorted by start time.
  std::unordered_map<int, std::vector<Item>> by_worker;
  std::unordered_map<long, Item> eval_items;
  for (std::size_t i = 0; i < in.evals.size(); ++i) {
    const EvalSpan& e = in.evals[i];
    const Item item{e.worker, e.start, e.finish, static_cast<int>(i), -1};
    by_worker[e.worker].push_back(item);
    eval_items[e.id] = item;
  }
  for (std::size_t i = 0; i < in.faults.size(); ++i) {
    const FaultSpan& f = in.faults[i];
    by_worker[f.worker].push_back(
        {f.worker, f.start, f.finish, -1, static_cast<int>(i)});
  }
  for (auto& [_, items] : by_worker)
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.start < b.start; });

  // Walk binding predecessors backwards from the last-finishing evaluation.
  const auto last_it =
      std::max_element(in.evals.begin(), in.evals.end(),
                       [](const EvalSpan& a, const EvalSpan& b) {
                         return a.finish < b.finish;
                       });
  Item cur = eval_items[last_it->id];
  std::vector<PathNode> path;
  const std::size_t max_nodes = in.evals.size() + in.faults.size() + 1;
  while (path.size() < max_nodes) {
    PathNode node;
    node.worker = cur.worker;
    node.start = cur.start;
    node.finish = cur.finish;
    node.id = cur.eval_index >= 0 ? in.evals[static_cast<std::size_t>(cur.eval_index)].id
                                  : -1;

    // Candidate 1: the closest same-worker item that finished before start.
    const Item* worker_pred = nullptr;
    for (const Item& item : by_worker[cur.worker]) {
      if (item.start >= cur.start - kEps) continue;  // not strictly earlier
      if (item.finish > cur.start + kEps) continue;  // overlaps: not a pred
      if (worker_pred == nullptr || item.finish > worker_pred->finish)
        worker_pred = &item;
    }

    // Candidate 2: the provider parent (its checkpoint gates the transfer).
    const Item* parent_pred = nullptr;
    double parent_ready = 0.0;
    if (cur.eval_index >= 0) {
      const EvalSpan& e = in.evals[static_cast<std::size_t>(cur.eval_index)];
      if (e.parent_id >= 0) {
        const auto pit = eval_items.find(e.parent_id);
        if (pit != eval_items.end() && pit->second.finish <= cur.start + kEps) {
          parent_pred = &pit->second;
          parent_ready =
              in.evals[static_cast<std::size_t>(pit->second.eval_index)].ready_at;
        }
      }
    }

    const double worker_bind = worker_pred != nullptr ? worker_pred->finish : -1.0;
    const double parent_bind =
        parent_pred != nullptr ? std::max(parent_pred->finish, parent_ready) : -1.0;
    const Item* binding = nullptr;
    double bind_time = 0.0;
    if (parent_pred != nullptr && parent_bind >= worker_bind) {
      binding = parent_pred;
      bind_time = parent_bind;
      node.bound_by = "parent";
    } else if (worker_pred != nullptr) {
      binding = worker_pred;
      bind_time = worker_bind;
      node.bound_by = "worker";
    }

    if (binding == nullptr) {
      node.bound_by = "origin";
      node.wait_before = std::max(0.0, cur.start - t0);
      path.push_back(node);
      break;
    }
    node.wait_before = std::max(0.0, cur.start - bind_time);
    node.pred_id =
        binding->eval_index >= 0
            ? in.evals[static_cast<std::size_t>(binding->eval_index)].id
            : -1;
    path.push_back(node);
    cur = *binding;
  }
  std::reverse(path.begin(), path.end());
  r.path = std::move(path);
  r.path_seconds = r.makespan - t0;
  for (const PathNode& n : r.path) r.path_wait_seconds += n.wait_before;

  // Top blocking evaluations: longest busy stretches on the path.
  std::vector<std::pair<long, double>> blocking;
  for (const PathNode& n : r.path) {
    if (n.id >= 0) blocking.emplace_back(n.id, n.finish - n.start);
  }
  std::sort(blocking.begin(), blocking.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (static_cast<int>(blocking.size()) > top_k)
    blocking.resize(static_cast<std::size_t>(top_k));
  r.top_blocking = std::move(blocking);

  // What-if estimates: remove a cost component everywhere along the path.
  std::unordered_map<long, const EvalSpan*> span_by_id;
  for (const EvalSpan& e : in.evals) span_by_id[e.id] = &e;
  double ckpt_on_path = 0.0, transfer_on_path = 0.0, fault_on_path = 0.0;
  for (const PathNode& n : r.path) {
    if (n.id >= 0) {
      const EvalSpan& e = *span_by_id[n.id];
      ckpt_on_path += e.stall + e.ckpt_read + e.ckpt_write + e.ckpt_retry;
      transfer_on_path += e.transfer;
    } else {
      fault_on_path += n.finish - n.start;
    }
  }
  const auto what_if = [&](const char* name, double removed) {
    WhatIf w;
    w.name = name;
    w.removed_seconds = removed;
    w.est_makespan = std::max(kEps, r.path_seconds - removed);
    w.est_speedup = r.path_seconds > 0.0 ? r.path_seconds / w.est_makespan : 1.0;
    r.what_ifs.push_back(std::move(w));
  };
  what_if("zero_cost_checkpointing", ckpt_on_path);
  what_if("zero_cost_transfer", transfer_on_path);
  what_if("no_faults", fault_on_path);
  what_if("perfect_scheduling", r.path_wait_seconds);
  return r;
}

bool passes_share_gate(const CriticalPathReport& r) noexcept {
  return !r.path.empty() && std::abs(r.share_sum - 1.0) <= 0.01;
}

std::string critical_path_json(const CriticalPathReport& r) {
  std::ostringstream out;
  out << "{\"workers\":" << r.workers << ",\"t0_s\":" << json_number(r.t0)
      << ",\"makespan_s\":" << json_number(r.makespan)
      << ",\"worker_seconds\":" << json_number(r.worker_seconds)
      << ",\"share_sum\":" << json_number(r.share_sum) << ",\"phases\":{";
  bool first = true;
  for (const auto& [phase, seconds] : r.phase_seconds) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(phase) << "\":{\"seconds\":" << json_number(seconds)
        << ",\"share\":"
        << json_number(r.worker_seconds > 0.0 ? seconds / r.worker_seconds : 0.0)
        << '}';
  }
  out << "},\"critical_path\":{\"length_s\":" << json_number(r.path_seconds)
      << ",\"wait_s\":" << json_number(r.path_wait_seconds) << ",\"nodes\":[";
  for (std::size_t i = 0; i < r.path.size(); ++i) {
    const PathNode& n = r.path[i];
    if (i != 0) out << ',';
    out << "{\"id\":" << n.id << ",\"worker\":" << n.worker
        << ",\"start_s\":" << json_number(n.start)
        << ",\"finish_s\":" << json_number(n.finish)
        << ",\"wait_before_s\":" << json_number(n.wait_before) << ",\"bound_by\":\""
        << json_escape(n.bound_by) << "\",\"pred_id\":" << n.pred_id << '}';
  }
  out << "]},\"top_blocking\":[";
  for (std::size_t i = 0; i < r.top_blocking.size(); ++i) {
    if (i != 0) out << ',';
    out << "{\"id\":" << r.top_blocking[i].first
        << ",\"busy_s\":" << json_number(r.top_blocking[i].second) << '}';
  }
  out << "],\"what_if\":[";
  for (std::size_t i = 0; i < r.what_ifs.size(); ++i) {
    const WhatIf& w = r.what_ifs[i];
    if (i != 0) out << ',';
    out << "{\"name\":\"" << json_escape(w.name)
        << "\",\"removed_s\":" << json_number(w.removed_seconds)
        << ",\"est_makespan_s\":" << json_number(w.est_makespan)
        << ",\"est_speedup\":" << json_number(w.est_speedup) << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace swt::prof
