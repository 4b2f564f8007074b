#include "obs/health.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace swt {

HealthWatchdog::HealthWatchdog(Config cfg) : cfg_(cfg) {
  if (cfg_.stall_after_s <= 0.0)
    throw std::invalid_argument("HealthWatchdog: stall_after_s must be positive");
}

HealthWatchdog::HealthWatchdog() : HealthWatchdog(Config()) {}

HealthWatchdog::~HealthWatchdog() { detach(); }

void HealthWatchdog::attach(EventBus& bus) {
  detach();
  // Registered outside mutex_: EventBus::emit calls on_event (which takes
  // mutex_) under the bus lock, so taking the bus lock under mutex_ here
  // would invert that order.
  const int id = bus.add_listener([this](const Event& ev) { on_event(ev); });
  std::scoped_lock lock(mutex_);
  bus_ = &bus;
  listener_id_ = id;
}

void HealthWatchdog::detach() {
  EventBus* bus = nullptr;
  int id = 0;
  {
    std::scoped_lock lock(mutex_);
    bus = bus_;
    id = listener_id_;
    bus_ = nullptr;
    listener_id_ = 0;
  }
  if (bus != nullptr && id != 0) bus->remove_listener(id);
}

void HealthWatchdog::on_event(const Event& ev) {
  std::scoped_lock lock(mutex_);
  const auto worker_slot = [this](int w) -> WorkerInfo* {
    if (w < 0) return nullptr;
    if (static_cast<std::size_t>(w) >= workers_.size())
      workers_.resize(static_cast<std::size_t>(w) + 1);
    WorkerInfo& info = workers_[static_cast<std::size_t>(w)];
    info.worker = w;
    return &info;
  };
  WorkerInfo* info = worker_slot(ev.worker);
  if (info != nullptr) info->last_event_wall_s = ev.wall_s;
  switch (ev.type) {
    case EventType::kRunStarted:
      run_seen_ = true;
      run_active_ = true;
      last_progress_wall_s_ = ev.wall_s;
      ckpt_retries_since_progress_ = 0;
      evals_finished_ = 0;
      workers_.clear();
      break;
    case EventType::kRunFinished:
      run_active_ = false;
      break;
    case EventType::kEvalStarted:
      if (info != nullptr) info->busy = true;
      break;
    case EventType::kEvalFinished:
      last_progress_wall_s_ = ev.wall_s;
      ckpt_retries_since_progress_ = 0;
      ++evals_finished_;
      if (info != nullptr) {
        info->busy = false;
        ++info->evals_finished;
      }
      break;
    case EventType::kWorkerCrashed:
      if (info != nullptr) {
        info->busy = false;
        ++info->crashes;
      }
      break;
    case EventType::kCkptRetry:
      ++ckpt_retries_since_progress_;
      break;
    default:
      break;  // other lifecycle events carry no health signal
  }
}

HealthWatchdog::State HealthWatchdog::evaluate(double now_wall_s,
                                               std::string* why) const {
  if (!run_seen_ || !run_active_) return State::kIdle;
  if (ckpt_retries_since_progress_ > cfg_.ckpt_retry_limit) {
    *why = "checkpoint I/O degraded: " + std::to_string(ckpt_retries_since_progress_) +
           " retries since the last completed evaluation (limit " +
           std::to_string(cfg_.ckpt_retry_limit) + ")";
    return State::kCkptDegraded;
  }
  const double since = now_wall_s - last_progress_wall_s_;
  if (since > cfg_.stall_after_s) {
    *why = "stalled: no evaluation completed for " + std::to_string(since) +
           " s (threshold " + std::to_string(cfg_.stall_after_s) + " s)";
    return State::kStalled;
  }
  return State::kOk;
}

HealthWatchdog::State HealthWatchdog::poll() {
  const double now = SpanTracer::wall_now_us() / 1e6;
  State prev, next;
  std::string why;
  double since = -1.0;
  long busy = 0;
  long retries = 0;
  EventBus* bus = nullptr;
  {
    std::scoped_lock lock(mutex_);
    prev = state_;
    next = evaluate(now, &why);
    state_ = next;
    reason_ = why;
    if (run_seen_) since = now - last_progress_wall_s_;
    busy = std::count_if(workers_.begin(), workers_.end(),
                         [](const WorkerInfo& w) { return w.busy; });
    retries = ckpt_retries_since_progress_;
    bus = bus_;
  }
  if (metrics_enabled()) {
    MetricsRegistry& m = metrics();
    m.gauge("health.state").set(static_cast<double>(static_cast<int>(next)));
    m.gauge("health.seconds_since_progress").set(since);
    m.gauge("health.workers_busy").set(static_cast<double>(busy));
    m.gauge("health.ckpt_retries_since_progress").set(static_cast<double>(retries));
  }
  // The bus lock is not held here (poll() is never called from a listener),
  // so emitting the transition back onto the bus is safe.
  if (next != prev && bus != nullptr)
    bus->emit(EventType::kHealthChanged, -1.0, -1, -1,
              {{"state", event_str(to_string(next))},
               {"prev", event_str(to_string(prev))},
               {"reason", event_str(why)},
               {"seconds_since_progress", json_number(since)}});
  return next;
}

HealthWatchdog::State HealthWatchdog::state() const {
  std::scoped_lock lock(mutex_);
  return state_;
}

std::string HealthWatchdog::reason() const {
  std::scoped_lock lock(mutex_);
  return reason_;
}

bool HealthWatchdog::run_active() const {
  std::scoped_lock lock(mutex_);
  return run_active_;
}

double HealthWatchdog::seconds_since_progress() const {
  std::scoped_lock lock(mutex_);
  if (!run_seen_) return -1.0;
  return SpanTracer::wall_now_us() / 1e6 - last_progress_wall_s_;
}

std::vector<HealthWatchdog::WorkerInfo> HealthWatchdog::workers() const {
  std::scoped_lock lock(mutex_);
  std::vector<WorkerInfo> out;
  out.reserve(workers_.size());
  for (const WorkerInfo& w : workers_)
    if (w.worker >= 0) out.push_back(w);
  return out;
}

const char* HealthWatchdog::to_string(State s) noexcept {
  switch (s) {
    case State::kIdle: return "idle";
    case State::kOk: return "ok";
    case State::kStalled: return "stalled";
    case State::kCkptDegraded: return "ckpt_degraded";
  }
  return "unknown";
}

}  // namespace swt
