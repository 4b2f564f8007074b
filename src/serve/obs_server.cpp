#include "serve/obs_server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <thread>

#include "common/parse.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/critical_path.hpp"
#include "obs/prof/sampler.hpp"
#include "obs/series.hpp"
#include "obs/span_tracer.hpp"

namespace swt {

ObservabilityServer::ObservabilityServer(HttpServer::Config cfg,
                                         MetricsRegistry& registry,
                                         TimeSeriesStore* store,
                                         HealthWatchdog* watchdog, StatusInfo info)
    : registry_(registry),
      store_(store),
      watchdog_(watchdog),
      info_(std::move(info)),
      start_wall_s_(SpanTracer::wall_now_us() / 1e6),
      server_(std::make_unique<HttpServer>(
          std::move(cfg), [this](const HttpRequest& req) { return handle(req); })) {}

void ObservabilityServer::start() { server_->start(); }
void ObservabilityServer::stop() { server_->stop(); }
int ObservabilityServer::port() const noexcept { return server_->port(); }
std::uint64_t ObservabilityServer::requests_served() const noexcept {
  return server_->requests_served();
}

HttpResponse ObservabilityServer::handle(const HttpRequest& req) {
  if (req.path == "/metrics") return metrics_endpoint();
  if (req.path == "/healthz") return healthz_endpoint();
  if (req.path == "/status") return status_endpoint();
  if (req.path == "/series") return series_endpoint(req);
  if (req.path == "/profile") return profile_endpoint(req);
  if (req.path == "/criticalpath") return criticalpath_endpoint();
  if (req.path == "/")
    return HttpResponse{200, "text/plain; charset=utf-8",
                        "swtnas telemetry plane\n"
                        "  GET /metrics  OpenMetrics exposition\n"
                        "  GET /healthz  liveness (503 on stall)\n"
                        "  GET /status   run status JSON\n"
                        "  GET /series?name=...&max_points=N[&format=csv]\n"
                        "  GET /profile?seconds=N  collapsed CPU stacks\n"
                        "  GET /criticalpath  critical-path analysis JSON\n"};
  return HttpResponse{404, "text/plain; charset=utf-8", "no such endpoint\n"};
}

HttpResponse ObservabilityServer::metrics_endpoint() {
  std::ostringstream body;
  write_metrics_openmetrics(body, registry_.snapshot());
  return HttpResponse{
      200, "application/openmetrics-text; version=1.0.0; charset=utf-8", body.str()};
}

HttpResponse ObservabilityServer::healthz_endpoint() {
  if (watchdog_ == nullptr)
    return HttpResponse{200, "application/json", "{\"status\":\"ok\"}\n"};
  const HealthWatchdog::State state = watchdog_->poll();
  const bool healthy = state == HealthWatchdog::State::kOk ||
                       state == HealthWatchdog::State::kIdle;
  std::string body = "{\"status\":\"";
  body += HealthWatchdog::to_string(state);
  if (!healthy) {
    body += "\",\"reason\":\"";
    body += json_escape(watchdog_->reason());
  }
  body += "\",\"seconds_since_progress\":";
  body += json_number(watchdog_->seconds_since_progress());
  body += "}\n";
  return HttpResponse{healthy ? 200 : 503, "application/json", std::move(body)};
}

HttpResponse ObservabilityServer::status_endpoint() {
  const auto scalars = registry_.scalar_values();
  const auto value_or = [&scalars](const char* name, double fallback) {
    const auto it = scalars.find(name);
    return it == scalars.end() ? fallback : it->second;
  };
  std::string body = "{\"run_id\":\"" + json_escape(info_.run_id) + "\",\"app\":\"" +
                     json_escape(info_.app) + "\",\"mode\":\"" + json_escape(info_.mode) +
                     "\",\"n_evals_target\":" + std::to_string(info_.n_evals);
  body += ",\"uptime_wall_s\":" +
          json_number(SpanTracer::wall_now_us() / 1e6 - start_wall_s_);
  body += ",\"evals_completed\":" + json_number(value_or("search.evals_completed", 0));
  body += ",\"evals_submitted\":" + json_number(value_or("search.evals_submitted", 0));
  body += ",\"evals_in_flight\":" + json_number(value_or("search.evals_in_flight", 0));
  body += ",\"virtual_time_s\":" + json_number(value_or("search.virtual_time_seconds", -1));
  body += ",\"best_score\":" + json_number(value_or("quality.best_score", 0));
  body += ",\"transfer_hit_rate\":" + json_number(value_or("quality.transfer_hit_rate", 0));
  body += ",\"transfer_fallback_rate\":" +
          json_number(value_or("quality.transfer_fallback_rate", 0));
  body +=
      ",\"kendall_tau_early_final\":" +
      json_number(value_or("quality.kendall_tau_early_final", 0));
  if (watchdog_ != nullptr) {
    body += ",\"health\":\"";
    body += HealthWatchdog::to_string(watchdog_->state());
    body += "\",\"workers\":[";
    bool first = true;
    for (const HealthWatchdog::WorkerInfo& w : watchdog_->workers()) {
      if (!first) body += ',';
      first = false;
      body += "{\"worker\":" + std::to_string(w.worker) +
              ",\"busy\":" + (w.busy ? "true" : "false") +
              ",\"evals_finished\":" + std::to_string(w.evals_finished) +
              ",\"crashes\":" + std::to_string(w.crashes) + "}";
    }
    body += ']';
  }
  body += "}\n";
  return HttpResponse{200, "application/json", std::move(body)};
}

HttpResponse ObservabilityServer::series_endpoint(const HttpRequest& req) {
  if (store_ == nullptr)
    return HttpResponse{404, "application/json",
                        "{\"error\":\"no time-series store attached\"}\n"};
  const auto name_it = req.query.find("name");
  if (name_it == req.query.end()) {
    std::string body = "{\"series\":[";
    bool first = true;
    for (const std::string& name : store_->names()) {
      if (!first) body += ',';
      first = false;
      body += "{\"name\":\"" + json_escape(name) +
              "\",\"total\":" + std::to_string(store_->total_appended(name)) + "}";
    }
    body += "]}\n";
    return HttpResponse{200, "application/json", std::move(body)};
  }
  const std::string& name = name_it->second;
  std::size_t max_points = 512;
  const auto mp = req.query.find("max_points");
  if (mp != req.query.end()) {
    try {
      max_points = static_cast<std::size_t>(std::stoul(mp->second));
    } catch (const std::exception&) {
      return HttpResponse{400, "text/plain; charset=utf-8", "bad max_points\n"};
    }
  }
  const std::vector<SeriesPoint> pts = store_->window(name, max_points);
  const auto fmt = req.query.find("format");
  if (fmt != req.query.end() && fmt->second == "csv") {
    std::string body = "series,wall_s,virtual_s,value\n";
    for (const SeriesPoint& p : pts)
      body += name + ',' + json_number(p.wall_s) + ',' + json_number(p.virtual_s) +
              ',' + json_number(p.value) + '\n';
    return HttpResponse{200, "text/csv; charset=utf-8", std::move(body)};
  }
  return HttpResponse{200, "application/json",
                      series_to_json(name, pts, store_->total_appended(name)) + "\n"};
}

HttpResponse ObservabilityServer::profile_endpoint(const HttpRequest& req) {
  if (profiler_ == nullptr || !profiler_->running())
    return HttpResponse{503, "text/plain; charset=utf-8",
                        "profiler not running (start nas_cli with --profile-hz "
                        "or --profile-out)\n"};
  double seconds = 0.0;
  const auto it = req.query.find("seconds");
  if (it != req.query.end()) {
    const std::optional<double> parsed = parse_double(it->second);
    if (!parsed) return HttpResponse{400, "text/plain; charset=utf-8", "bad seconds\n"};
    seconds = *parsed;
  }
  seconds = std::clamp(seconds, 0.0, 30.0);

  prof::StackProfile window;
  if (seconds > 0.0) {
    // Window diff: two cumulative snapshots around a wall-clock sleep.
    // This blocks only the serving thread; sampling continues unperturbed.
    const prof::StackProfile before = profiler_->snapshot();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    window = profiler_->snapshot();
    window.subtract(before);
  } else {
    window = profiler_->snapshot();
  }
  const prof::SymbolizedProfile sym = prof::symbolize(window);
  std::string body = "# swtnas cpu profile (collapsed stacks)\n# hz " +
                     std::to_string(profiler_->hz()) + "\n# window_s " +
                     json_number(seconds) + "\n# samples " +
                     std::to_string(sym.total_samples) + "\n# dropped " +
                     std::to_string(sym.dropped_samples) + "\n";
  body += prof::to_collapsed(sym);
  return HttpResponse{200, "text/plain; charset=utf-8", std::move(body)};
}

HttpResponse ObservabilityServer::criticalpath_endpoint() {
  SpanTracer& tracer = SpanTracer::global();
  if (!tracer.enabled())
    return HttpResponse{503, "text/plain; charset=utf-8",
                        "span tracing off (start nas_cli with --trace-out)\n"};
  const prof::CriticalPathInput input =
      prof::critical_path_input_from_events(tracer.events());
  if (input.evals.empty())
    return HttpResponse{503, "text/plain; charset=utf-8",
                        "no completed evaluations in the span trace yet\n"};
  const prof::CriticalPathReport report = prof::analyze_critical_path(input);
  return HttpResponse{200, "application/json",
                      prof::critical_path_json(report) + "\n"};
}

}  // namespace swt
