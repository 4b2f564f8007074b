// The live telemetry endpoints, composed over HttpServer.
//
//   GET /          endpoint index (text)
//   GET /metrics   MetricsRegistry snapshot, OpenMetrics text format
//   GET /healthz   200 {"status":"ok"} | 503 {"status":"...","reason":...}
//                  from the HealthWatchdog (200 when no watchdog is wired)
//   GET /status    run JSON: id/app/mode, best score, evals done/in-flight,
//                  transfer hit rate, Kendall tau, virtual time, per-worker
//                  busy/idle — all read from the registry gauges run_search
//                  publishes and the watchdog's event-derived worker table
//   GET /series    ?name=<series>[&max_points=N][&format=csv] from the
//                  TimeSeriesStore; without ?name, lists available series.
//                  400 unless N is one whole unsigned number
//   GET /profile   ?seconds=N collapsed-stack CPU profile (N=0 or absent:
//                  cumulative since start; N>0: sample for a window).  503
//                  when no profiler is attached or it is not running
//   GET /criticalpath  critical-path analysis JSON rebuilt from the live
//                  span tracer; 503 when tracing is off or has no evals
//
// Every handler is a pure reader of thread-safe telemetry state; requests
// can race a live search freely (test_serve hammers exactly that).
#pragma once

#include <memory>
#include <string>

#include "serve/http.hpp"

namespace swt {

class HealthWatchdog;
class MetricsRegistry;
class TimeSeriesStore;

namespace prof {
class CpuProfiler;
}

class ObservabilityServer {
 public:
  /// Static facts about the run being served, shown verbatim in /status.
  struct StatusInfo {
    std::string run_id;
    std::string app;
    std::string mode;
    long n_evals = 0;
  };

  /// `store` and `watchdog` may be null (those endpoints degrade
  /// gracefully); non-null pointers must outlive the server.
  ObservabilityServer(HttpServer::Config cfg, MetricsRegistry& registry,
                      TimeSeriesStore* store, HealthWatchdog* watchdog,
                      StatusInfo info);

  /// Attach the sampling profiler behind GET /profile (null detaches; the
  /// endpoint then answers 503).  The profiler must outlive the server.
  void set_profiler(prof::CpuProfiler* profiler) { profiler_ = profiler; }

  void start();
  void stop();
  [[nodiscard]] int port() const noexcept;
  [[nodiscard]] std::uint64_t requests_served() const noexcept;

  /// Route one request — the handler behind the socket server, exposed so
  /// tests and bench_overhead can price endpoints without a TCP round trip.
  [[nodiscard]] HttpResponse handle(const HttpRequest& req);

 private:
  [[nodiscard]] HttpResponse metrics_endpoint();
  [[nodiscard]] HttpResponse healthz_endpoint();
  [[nodiscard]] HttpResponse status_endpoint();
  [[nodiscard]] HttpResponse series_endpoint(const HttpRequest& req);
  [[nodiscard]] HttpResponse profile_endpoint(const HttpRequest& req);
  [[nodiscard]] HttpResponse criticalpath_endpoint();

  MetricsRegistry& registry_;
  TimeSeriesStore* store_;
  HealthWatchdog* watchdog_;
  prof::CpuProfiler* profiler_ = nullptr;
  StatusInfo info_;
  double start_wall_s_ = 0.0;
  std::unique_ptr<HttpServer> server_;
};

}  // namespace swt
