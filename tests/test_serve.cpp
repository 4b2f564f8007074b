// The telemetry HTTP plane: request parsing, the socket server's rejection
// paths (malformed request line, oversized head, wrong method, client drop
// mid-response), the ObservabilityServer endpoints (OpenMetrics /metrics,
// /healthz 200->503 degradation, /status JSON, /series), the OpenMetrics
// linter itself, and concurrent scrapes racing a live faulted search.
#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/analysis.hpp"
#include "exp/apps.hpp"
#include "exp/runner.hpp"
#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/critical_path.hpp"
#include "obs/prof/sampler.hpp"
#include "obs/series.hpp"
#include "obs/span_tracer.hpp"
#include "serve/obs_server.hpp"
#include "serve/openmetrics.hpp"

namespace swt {
namespace {

// ------------------------------------------------------------ request parse

TEST(HttpParse, RequestLinePathQueryAndHeaders) {
  HttpRequest req;
  ASSERT_TRUE(parse_http_request(
      "GET /series?name=quality.best_score&max_points=16&format=csv HTTP/1.1\r\n"
      "Host: localhost\r\nAccept:  text/plain\r\n\r\n",
      &req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/series");
  EXPECT_EQ(req.query.at("name"), "quality.best_score");
  EXPECT_EQ(req.query.at("max_points"), "16");
  EXPECT_EQ(req.query.at("format"), "csv");
  EXPECT_EQ(req.headers.at("host"), "localhost");
  EXPECT_EQ(req.headers.at("accept"), "text/plain");  // lower-cased, trimmed
}

TEST(HttpParse, RejectsGarbage) {
  HttpRequest req;
  EXPECT_FALSE(parse_http_request("not an http request at all\r\n\r\n", &req));
  EXPECT_FALSE(parse_http_request("GET /x SMTP/1.0\r\n\r\n", &req));
  EXPECT_FALSE(parse_http_request("GET no-leading-slash HTTP/1.1\r\n\r\n", &req));
  EXPECT_FALSE(parse_http_request("g3t /x HTTP/1.1\r\n\r\n", &req));
  EXPECT_FALSE(parse_http_request("GET /x HTTP/1.1\r\nbad header line\r\n\r\n", &req));
}

// ------------------------------------------------------------ socket client

/// Minimal blocking test client: connect, send `raw`, read to EOF.
std::string raw_request(int port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL);
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

std::string get(int port, const std::string& target) {
  return raw_request(port, "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

int status_of(const std::string& resp) {
  if (resp.rfind("HTTP/1.1 ", 0) != 0 || resp.size() < 12) return -1;
  return std::stoi(resp.substr(9, 3));
}

std::string body_of(const std::string& resp) {
  const std::size_t split = resp.find("\r\n\r\n");
  return split == std::string::npos ? "" : resp.substr(split + 4);
}

class EchoServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HttpServer::Config cfg;
    cfg.max_request_bytes = 1024;
    cfg.read_timeout_s = 2.0;
    server_ = std::make_unique<HttpServer>(cfg, [](const HttpRequest& req) {
      if (req.path == "/boom") throw std::runtime_error("handler exploded");
      if (req.path == "/big")
        return HttpResponse{200, "text/plain", std::string(1 << 20, 'x')};
      return HttpResponse{200, "text/plain", "echo:" + req.path + "\n"};
    });
    server_->start();
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(EchoServerTest, ServesGetAndHead) {
  const std::string resp = get(server_->port(), "/hello");
  EXPECT_EQ(status_of(resp), 200);
  EXPECT_EQ(body_of(resp), "echo:/hello\n");
  EXPECT_NE(resp.find("Content-Length: 12"), std::string::npos);

  const std::string head =
      raw_request(server_->port(), "HEAD /hello HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(status_of(head), 200);
  EXPECT_EQ(body_of(head), "");  // header-only
  EXPECT_NE(head.find("Content-Length: 12"), std::string::npos);
  EXPECT_GE(server_->requests_served(), 2u);
}

TEST_F(EchoServerTest, MalformedRequestLineGets400) {
  const std::string resp =
      raw_request(server_->port(), "completely bogus\r\n\r\n");
  EXPECT_EQ(status_of(resp), 400);
}

TEST_F(EchoServerTest, NonGetMethodGets405) {
  const std::string resp = raw_request(
      server_->port(), "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(status_of(resp), 405);
}

TEST_F(EchoServerTest, OversizedHeadGets431) {
  const std::string resp = raw_request(
      server_->port(),
      "GET / HTTP/1.1\r\nX-Padding: " + std::string(4096, 'a') + "\r\n\r\n");
  EXPECT_EQ(status_of(resp), 431);
  EXPECT_GE(server_->requests_rejected(), 1u);
}

TEST_F(EchoServerTest, HandlerExceptionGets500) {
  const std::string resp = get(server_->port(), "/boom");
  EXPECT_EQ(status_of(resp), 500);
  EXPECT_NE(body_of(resp).find("handler exploded"), std::string::npos);
}

TEST_F(EchoServerTest, ClientDropMidResponseLeavesServerAlive) {
  // Ask for a 1 MiB body and slam the connection after the first bytes:
  // the worker must swallow EPIPE (MSG_NOSIGNAL) and keep serving.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server_->port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string req = "GET /big HTTP/1.1\r\nHost: t\r\n\r\n";
  ::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  char tiny[64];
  (void)::recv(fd, tiny, sizeof(tiny), 0);  // first bytes are in flight
  // Hard reset (RST via SO_LINGER 0) — nastier than a polite FIN.
  linger lin{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
  ::close(fd);

  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(status_of(get(server_->port(), "/still-up")), 200);
}

TEST_F(EchoServerTest, StopUnblocksAndRestartWorks) {
  server_->stop();
  EXPECT_FALSE(server_->running());
  server_->start();  // fresh ephemeral port
  EXPECT_EQ(status_of(get(server_->port(), "/again")), 200);
}

// ------------------------------------------------------- observability plane

TEST(ObservabilityServer, MetricsEndpointEmitsValidOpenMetrics) {
  MetricsRegistry reg;
  reg.counter("serve.requests_total").add(3);
  reg.gauge("serve.temperature").set(-1.5);
  reg.histogram("serve.latency_seconds", {0.001, 0.01, 0.1}).observe(0.004);
  ObservabilityServer server({}, reg, nullptr, nullptr, {"r1", "mnist", "lcs", 10});

  HttpRequest req;
  req.method = "GET";
  req.path = "/metrics";
  const HttpResponse resp = server.handle(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("openmetrics-text"), std::string::npos);

  const OpenMetricsReport report = validate_openmetrics(resp.body);
  for (const auto& issue : report.issues)
    ADD_FAILURE() << "line " << issue.line << ": " << issue.message;
  EXPECT_GE(report.families, 3);
  EXPECT_NE(resp.body.find("serve_requests_total 3"), std::string::npos);
  EXPECT_NE(resp.body.find("# EOF"), std::string::npos);
}

TEST(ObservabilityServer, HealthzFollowsTheWatchdog) {
  MetricsRegistry reg;
  EventBus bus;
  bus.set_enabled(true);
  HealthWatchdog dog(HealthWatchdog::Config{.stall_after_s = 0.05});
  dog.attach(bus);
  ObservabilityServer server({}, reg, nullptr, &dog, {"r1", "mnist", "lcs", 10});

  HttpRequest req;
  req.method = "GET";
  req.path = "/healthz";
  EXPECT_EQ(server.handle(req).status, 200);  // idle is healthy

  bus.emit(EventType::kRunStarted, 0.0);
  EXPECT_EQ(server.handle(req).status, 200);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const HttpResponse stalled = server.handle(req);
  EXPECT_EQ(stalled.status, 503);
  EXPECT_NE(stalled.body.find("\"stalled\""), std::string::npos);
  EXPECT_NE(stalled.body.find("reason"), std::string::npos);

  bus.emit(EventType::kEvalFinished, 1.0, 0, 1);
  EXPECT_EQ(server.handle(req).status, 200);
  dog.detach();
}

TEST(ObservabilityServer, StatusReportsRunInfoAndGauges) {
  MetricsRegistry reg;
  reg.gauge("search.evals_completed").set(12);
  reg.gauge("quality.best_score").set(0.75);
  ObservabilityServer server({}, reg, nullptr, nullptr, {"run-7", "cifar", "lcs", 100});

  HttpRequest req;
  req.method = "GET";
  req.path = "/status";
  const HttpResponse resp = server.handle(req);
  EXPECT_EQ(resp.status, 200);
  const JsonValue doc = parse_json(resp.body);
  EXPECT_EQ(doc.at("run_id").string, "run-7");
  EXPECT_EQ(doc.at("app").string, "cifar");
  EXPECT_DOUBLE_EQ(doc.at("n_evals_target").number, 100.0);
  EXPECT_DOUBLE_EQ(doc.at("evals_completed").number, 12.0);
  EXPECT_DOUBLE_EQ(doc.at("best_score").number, 0.75);
}

TEST(ObservabilityServer, SeriesEndpointListsFiltersAndFormats) {
  MetricsRegistry reg;
  TimeSeriesStore store(16);
  for (int i = 0; i < 5; ++i)
    store.append("quality.best_score", {double(i), double(i), 0.1 * i});
  ObservabilityServer server({}, reg, &store, nullptr, {"r", "mnist", "lcs", 1});

  HttpRequest req;
  req.method = "GET";
  req.path = "/series";
  const HttpResponse list = server.handle(req);
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("quality.best_score"), std::string::npos);

  req.query["name"] = "quality.best_score";
  req.query["max_points"] = "3";
  const HttpResponse json = server.handle(req);
  EXPECT_EQ(json.status, 200);
  const JsonValue doc = parse_json(json.body);
  EXPECT_EQ(doc.at("name").string, "quality.best_score");
  EXPECT_LE(doc.at("points").array.size(), 3u);

  req.query["format"] = "csv";
  const HttpResponse csv = server.handle(req);
  EXPECT_EQ(csv.status, 200);
  EXPECT_EQ(csv.body.substr(0, csv.body.find('\n')), "series,wall_s,virtual_s,value");

  req.query.clear();
  req.query["name"] = "quality.best_score";
  // One whole unsigned number or 400: no prefix parse, no wrapped "-1".
  for (const char* bad : {"not-a-number", "5x", "-1", "2.5"}) {
    req.query["max_points"] = bad;
    EXPECT_EQ(server.handle(req).status, 400) << bad;
  }
}

TEST(ObservabilityServer, UnknownPathGets404AndIndexLists) {
  MetricsRegistry reg;
  ObservabilityServer server({}, reg, nullptr, nullptr, {"r", "m", "l", 1});
  HttpRequest req;
  req.method = "GET";
  req.path = "/nope";
  EXPECT_EQ(server.handle(req).status, 404);
  req.path = "/";
  const HttpResponse index = server.handle(req);
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
}

// ----------------------------------------------------------- linter itself

TEST(OpenMetricsLint, AcceptsTheGrammarThisCodebaseEmits) {
  const OpenMetricsReport ok = validate_openmetrics(
      "# TYPE a counter\na_total 5\n"
      "# TYPE g gauge\ng -1.5\n# TYPE g_nan gauge\ng_nan NaN\n"
      "# TYPE h histogram\n"
      "h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 0.4\nh_count 3\n"
      "# EOF\n");
  for (const auto& issue : ok.issues)
    ADD_FAILURE() << "line " << issue.line << ": " << issue.message;
  EXPECT_EQ(ok.samples, 7);
}

TEST(OpenMetricsLint, CatchesTheClassicMistakes) {
  EXPECT_FALSE(validate_openmetrics("# TYPE a counter\na_total 1\n").ok())
      << "missing # EOF";
  EXPECT_FALSE(
      validate_openmetrics("# TYPE a counter\na 1\n# EOF\n").ok())
      << "counter without _total";
  EXPECT_FALSE(
      validate_openmetrics("# TYPE a counter\na_total -2\n# EOF\n").ok())
      << "negative counter";
  EXPECT_FALSE(validate_openmetrics("orphan 1\n# EOF\n").ok())
      << "sample without TYPE";
  EXPECT_FALSE(validate_openmetrics(
                   "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n"
                   "h_bucket{le=\"+Inf\"} 3\n# EOF\n")
                   .ok())
      << "non-cumulative buckets";
  EXPECT_FALSE(validate_openmetrics(
                   "# TYPE h histogram\nh_bucket{le=\"1\"} 1\n# EOF\n")
                   .ok())
      << "missing +Inf bucket";
  EXPECT_FALSE(validate_openmetrics("# EOF\nafter 1\n").ok())
      << "content after EOF";
  EXPECT_FALSE(validate_openmetrics("\n# EOF\n").ok()) << "blank line";
}

// ------------------------------------ performance-attribution endpoints

TEST(ObservabilityServer, ProfileEndpointGates503UntilProfilerRuns) {
  MetricsRegistry reg;
  ObservabilityServer server({}, reg, nullptr, nullptr, {"r", "mnist", "lcs", 1});
  HttpRequest req;
  req.method = "GET";
  req.path = "/profile";
  // No profiler attached at all.
  EXPECT_EQ(server.handle(req).status, 503);

  // Attached but not running: still 503.
  prof::CpuProfiler& profiler = prof::CpuProfiler::global();
  server.set_profiler(&profiler);
  if (profiler.running()) profiler.stop();
  EXPECT_EQ(server.handle(req).status, 503);

  profiler.reset();
  if (!profiler.start(prof::ProfilerConfig{997}))
    GTEST_SKIP() << "per-thread CPU timers unavailable: " << profiler.last_error();
  // Burn CPU so the cumulative snapshot has something in it.
  volatile double x = 1.0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  while (std::chrono::steady_clock::now() < until)
    for (int i = 0; i < 4096; ++i) x = x * 1.000001 + 1e-9;

  req.query["seconds"] = "not-a-number";
  EXPECT_EQ(server.handle(req).status, 400);
  // Trailing garbage must not sleep for its numeric prefix, and a NaN
  // window must not fall back to the cumulative profile.
  req.query["seconds"] = "5x";
  EXPECT_EQ(server.handle(req).status, 400);
  req.query["seconds"] = "nan";
  EXPECT_EQ(server.handle(req).status, 400);
  req.query["seconds"] = "0";
  const HttpResponse resp = server.handle(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("# swtnas cpu profile"), std::string::npos);
  EXPECT_NE(resp.body.find("# hz 997"), std::string::npos);
  // The body round-trips through the collapsed parser ('#' lines skipped).
  std::istringstream in(resp.body);
  const prof::SymbolizedProfile parsed = prof::parse_collapsed(in);
  EXPECT_GT(parsed.total_samples, 0u);
  profiler.stop();
  profiler.reset();
}

TEST(ObservabilityServer, CriticalPathEndpointGates503UntilSpansExist) {
  MetricsRegistry reg;
  ObservabilityServer server({}, reg, nullptr, nullptr, {"r", "mnist", "lcs", 1});
  HttpRequest req;
  req.method = "GET";
  req.path = "/criticalpath";

  SpanTracer& tracer = SpanTracer::global();
  tracer.set_enabled(false);
  EXPECT_EQ(server.handle(req).status, 503) << "tracer off must 503";

  tracer.set_enabled(true);
  tracer.clear();
  EXPECT_EQ(server.handle(req).status, 503) << "no eval spans yet must 503";

  // Run a tiny deterministic search so the live tracer holds real spans.
  AppConfig app = make_app(AppId::kMnist, 11);
  NasRunConfig cfg;
  cfg.mode = TransferMode::kLCS;
  cfg.n_evals = 6;
  cfg.seed = 11;
  cfg.cluster.num_workers = 2;
  cfg.cluster.fixed_train_seconds = 1.0;
  const Trace trace = run_nas(app, cfg).trace;

  const HttpResponse resp = server.handle(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "application/json");
  // The live spans give the trace's own report, byte for byte.
  EXPECT_EQ(resp.body,
            prof::critical_path_json(prof::analyze_critical_path(critical_path_input(trace))) +
                "\n");
  const JsonValue doc = parse_json(resp.body);
  EXPECT_EQ(doc.at("workers").number, 2.0);
  EXPECT_GT(doc.at("critical_path").at("nodes").array.size(), 0u);
  // The share-sum acceptance gate, live over HTTP: 100% +- 1%.
  EXPECT_NEAR(doc.at("share_sum").number, 1.0, 0.01);
  tracer.set_enabled(false);
  tracer.clear();
}

// ------------------------------------------- scrapes racing a live search

TEST(LiveScrape, ConcurrentScrapesDuringFaultedRunStayCoherent) {
  set_metrics_enabled(true);
  EventBus& bus = EventBus::global();
  bus.set_enabled(true);
  HealthWatchdog dog;  // default 30 s threshold: never stalls here
  dog.attach(bus);
  TimeSeriesStore store(256);
  Sampler::Config sampler_cfg;
  sampler_cfg.interval = std::chrono::milliseconds(5);
  Sampler sampler(store, metrics(), sampler_cfg);
  sampler.set_on_tick([&dog] { dog.poll(); });
  sampler.start();

  HttpServer::Config http_cfg;
  http_cfg.num_threads = 3;
  ObservabilityServer server(http_cfg, metrics(), &store, &dog,
                             {"live", "mnist", "lcs", 40});
  server.start();
  const int port = server.port();

  // A faulted search on its own thread: crashes + stragglers + checkpoint
  // retries churn every subsystem the endpoints read.
  std::thread search([] {
    AppConfig app = make_app(AppId::kMnist, 3);
    NasRunConfig cfg;
    cfg.mode = TransferMode::kLCS;
    cfg.n_evals = 40;
    cfg.seed = 3;
    cfg.cluster.num_workers = 4;
    cfg.cluster.fixed_train_seconds = 5.0;
    cfg.cluster.faults.mtbf_seconds = 2000.0;
    cfg.cluster.faults.straggler_rate = 0.2;
    cfg.cluster.faults.ckpt_read_fault_rate = 0.1;
    cfg.cluster.faults.ckpt_write_fault_rate = 0.1;
    (void)run_nas(app, cfg);
  });

  std::atomic<bool> done{false};
  std::atomic<long> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t)
    scrapers.emplace_back([&, t] {
      const char* paths[] = {"/metrics", "/status", "/healthz", "/series"};
      while (!done.load(std::memory_order_relaxed)) {
        const std::string resp = get(port, paths[t % 4]);
        const int status = status_of(resp);
        EXPECT_TRUE(status == 200 || status == 503) << "got " << status;
        if (std::string(paths[t % 4]) == "/metrics" && status == 200)
          EXPECT_TRUE(validate_openmetrics(body_of(resp)).ok());
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });

  search.join();
  done.store(true);
  for (auto& t : scrapers) t.join();
  sampler.stop();
  server.stop();
  dog.detach();
  bus.set_enabled(false);
  EXPECT_GT(scrapes.load(), 0);
}

}  // namespace
}  // namespace swt
